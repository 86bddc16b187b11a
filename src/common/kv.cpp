#include "common/kv.h"

#include <cmath>

namespace numastream {
namespace {

// The characters `std::istream >> std::string` skips in the "C" locale.
constexpr std::string_view kSpace = " \t\n\v\f\r";

}  // namespace

std::vector<std::string_view> split_words(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t start = line.find_first_not_of(kSpace);
  while (start != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, start);
    words.push_back(line.substr(start, end - start));
    start = line.find_first_not_of(kSpace, end);
  }
  return words;
}

std::optional<KeyValue> split_key_value(std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    return std::nullopt;
  }
  return KeyValue{token.substr(0, eq), token.substr(eq + 1)};
}

std::optional<double> parse_finite_double(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace numastream
