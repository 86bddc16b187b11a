// Strict readers for line-oriented `key=value` text: node config files
// (core/config.h), chaos schedules and repro bundles (check/). A value is
// read whole or not at all: an integer takes no sign its type cannot hold,
// no trailing characters and nothing outside its range, a double must be
// finite, and an enum value must be spelled as its name table spells it.
// Callers keep their own grammars and error messages; these helpers only
// decide whether a token is well-formed.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace numastream {

/// The whitespace-separated words of `line`, as views into it.
std::vector<std::string_view> split_words(std::string_view line);

struct KeyValue {
  std::string_view key;
  std::string_view value;
};

/// Splits an attribute token at its first '='; nullopt when it has none.
std::optional<KeyValue> split_key_value(std::string_view token);

/// All of `text` as a decimal integer in [lo, hi]; nullopt for an empty
/// text, a sign T cannot hold, trailing characters or a value out of range.
template <std::integral T>
std::optional<T> parse_integer(std::string_view text,
                               T lo = std::numeric_limits<T>::min(),
                               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

/// All of `text` as a finite double; nullopt for NaN, an infinity, a value
/// out of double's range or trailing characters.
std::optional<double> parse_finite_double(std::string_view text);

/// One spelling of an enum value. A table of them is the one place an
/// enum's text names are written; both directions read it.
template <typename E>
struct EnumName {
  E value;
  const char* text;
};

/// The spelling of `value` in `names`; nullptr when it has none.
template <typename E>
const char* enum_name(std::span<const EnumName<std::type_identity_t<E>>> names,
                      E value) {
  for (const auto& entry : names) {
    if (entry.value == value) {
      return entry.text;
    }
  }
  return nullptr;
}

/// The value `names` spells as `text`; nullopt when none does.
template <typename E>
std::optional<E> enum_value(std::span<const EnumName<E>> names,
                            std::string_view text) {
  for (const auto& entry : names) {
    if (text == entry.text) {
      return entry.value;
    }
  }
  return std::nullopt;
}

}  // namespace numastream
