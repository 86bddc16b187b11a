// Config text: one directive per line, '#' starts a comment. kDirectives
// below is the grammar: each directive's fields, the NodeConfig member each
// sets, its type (the slot's pointer type) and its range. parse(),
// serialize() and the per-field checks of validate() walk that table, so no
// directive or attribute name is written anywhere else (DESIGN.md §17).
//
// Example (the paper's NUMA-aware receiver for one of four streams):
//   node lynxdtn
//   role receiver
//   codec lz4
//   task receive count=4 exec=1 mem=1 stream=0
//   task decompress count=4 exec=0 mem=0 stream=0
#include "core/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "codec/codec.h"
#include "common/kv.h"

namespace numastream {
namespace {

// ------------------------------------------------------------------ names

constexpr EnumName<NodeRole> kRoleNames[] = {
    {NodeRole::kSender, "sender"},
    {NodeRole::kReceiver, "receiver"},
};
constexpr EnumName<bool> kSwitchNames[] = {{true, "on"}, {false, "off"}};
constexpr EnumName<TaskType> kTaskTypeNames[] = {
    {TaskType::kCompress, "compress"},
    {TaskType::kSend, "send"},
    {TaskType::kReceive, "receive"},
    {TaskType::kDecompress, "decompress"},
};
constexpr EnumName<ShedPolicy> kShedPolicyNames[] = {
    {ShedPolicy::kBlock, "block"},
    {ShedPolicy::kDropNewest, "drop_newest"},
};

/// The name table of a named slot type.
std::span<const EnumName<NodeRole>> names(NodeRole) { return kRoleNames; }
std::span<const EnumName<TaskType>> names(TaskType) { return kTaskTypeNames; }
std::span<const EnumName<ShedPolicy>> names(ShedPolicy) {
  return kShedPolicyNames;
}
template <std::same_as<bool> B>  // an int or a double is not a switch
std::span<const EnumName<bool>> names(B) {
  return kSwitchNames;
}

template <typename E>
concept Named = requires(E value) { names(value); };

template <Named E>
const char* name_of(E value) {
  const char* text = enum_name(names(value), value);
  return text != nullptr ? text : "?";
}

// ----------------------------------------------------------------- values

/// Task attributes that are not one member: `exec=<d>[,<d>...]` makes one
/// binding per domain, `mem=<d>` is every binding's memory domain, and
/// `stream=<id>` is a non-negative id whose absence (-1) means all streams.
struct ExecDomains {
  std::vector<NumaBinding>* bindings;
};
struct MemDomain {
  std::vector<NumaBinding>* bindings;
};
struct StreamId {
  int* id;
};

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "size_t members are read and written through uint64 slots");

/// Where one field lives; the pointer type picks how it reads and writes.
using Slot = std::variant<std::string*, NodeRole*, bool*, ShedPolicy*,
                          TaskType*, int*, std::uint64_t*, double*,
                          ExecDomains, MemDomain, StreamId>;

std::optional<int> domain_from_token(std::string_view token) {
  return token == "os" ? NumaBinding::kOsChoice : parse_integer<int>(token, 0);
}

std::string domain_token(int domain) {
  return domain == NumaBinding::kOsChoice ? "os" : std::to_string(domain);
}

/// The shortest `%g` text of at least 6 significant digits that reads back
/// as `value`: printf's default precision keeps the text every value that
/// needs no more digits always had, and longer values keep all of theirs.
std::string format_double(double value) {
  char text[64];
  for (int precision = 6;; ++precision) {
    const auto end = std::to_chars(text, text + sizeof text, value,
                                   std::chars_format::general, precision).ptr;
    double back = 0;
    std::from_chars(text, end, back);
    if (back == value || precision == std::numeric_limits<double>::max_digits10) {
      return std::string(text, end);
    }
  }
}

template <typename T>
bool assign(const std::optional<T>& value, T* out) {
  if (value) {
    *out = *value;
  }
  return value.has_value();
}

bool read(std::string_view text, std::string* out) {
  *out = text;
  return true;
}
template <Named E>
bool read(std::string_view text, E* out) {
  return assign(enum_value(names(E{}), text), out);
}
template <std::integral T>
  requires(!Named<T>)
bool read(std::string_view text, T* out) {
  return assign(parse_integer<T>(text), out);
}
bool read(std::string_view text, double* out) {
  return assign(parse_finite_double(text), out);
}
bool read(std::string_view text, StreamId slot) {
  return assign(parse_integer<int>(text, 0), slot.id);
}
bool read(std::string_view text, MemDomain slot) {
  const auto domain = domain_from_token(text);
  for (NumaBinding& binding : *slot.bindings) {
    binding.memory_domain = domain.value_or(binding.memory_domain);
  }
  return domain.has_value();
}
bool read(std::string_view text, ExecDomains slot) {
  // A group being read starts with its one default binding, so front()
  // exists and carries any `mem=` read so far.
  std::vector<NumaBinding> bindings;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const auto domain = domain_from_token(text.substr(start, comma - start));
    if (!domain) {
      return false;
    }
    bindings.push_back({.execution_domain = *domain,
                        .memory_domain = slot.bindings->front().memory_domain});
    start = comma + 1;
  }
  *slot.bindings = std::move(bindings);
  return true;
}

std::optional<std::string> write(const std::string* value) { return *value; }
template <Named E>
std::optional<std::string> write(const E* value) {
  return name_of(*value);
}
template <std::integral T>
  requires(!Named<T>)
std::optional<std::string> write(const T* value) {
  return std::to_string(*value);
}
std::optional<std::string> write(const double* value) {
  return format_double(*value);
}
std::optional<std::string> write(StreamId slot) {
  return *slot.id < 0 ? std::nullopt : std::optional(std::to_string(*slot.id));
}
std::optional<std::string> write(MemDomain slot) {
  return domain_token(slot.bindings->empty()
                          ? NumaBinding::kOsChoice
                          : slot.bindings->front().memory_domain);
}
std::optional<std::string> write(ExecDomains slot) {
  std::string out;
  for (const NumaBinding& binding : *slot.bindings) {
    out += (out.empty() ? "" : ",") + domain_token(binding.execution_domain);
  }
  return out;
}

/// The value of a numeric slot, for range checks; nullopt for the others.
std::optional<double> number(const Slot& slot) {
  return std::visit(
      [](auto target) -> std::optional<double> {
        using T = std::remove_pointer_t<decltype(target)>;
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
          return static_cast<double>(*target);
        } else {
          return std::nullopt;
        }
      },
      slot);
}

// ------------------------------------------------------------------ table

/// A field's semantic range, checked by validate() on top of finiteness.
/// parse() only checks that a value fits the field's type, since configs
/// built in code never parse.
struct Range {
  bool (*contains)(double);
  const char* text;
};

constexpr Range kAnyValue{[](double) { return true; }, "finite"};
constexpr Range kPositive{[](double v) { return v > 0; }, "> 0"};
constexpr Range kAtLeastOne{[](double v) { return v >= 1; }, ">= 1"};
constexpr Range kUnitClosed{[](double v) { return v >= 0 && v <= 1; },
                            "in [0, 1]"};

/// One field of a directive line: a `name=value` attribute, or, with an
/// empty name, a positional value that precedes the attributes.
template <typename Owner>
struct Field {
  const char* name;
  Slot (*at)(Owner&);
  Range range = kAnyValue;
  /// A line without this attribute is rejected (positional values always).
  bool required = false;
};

/// Slots are typed non-const; serialize() and validate() only read
/// through the slot of a const owner.
template <typename Owner>
Slot slot_of(const Field<Owner>& field, const Owner& owner) {
  return field.at(const_cast<Owner&>(owner));
}

#define NS_AT(Owner, path) [](Owner& owner) -> Slot { return &owner.path; }
#define NS_CONFIG(path) NS_AT(NodeConfig, path)

constexpr Field<NodeConfig> kNode[] = {{"", NS_CONFIG(node_name)}};
constexpr Field<NodeConfig> kRole[] = {{"", NS_CONFIG(role)}};
constexpr Field<NodeConfig> kCodec[] = {{"", NS_CONFIG(codec_name)}};
constexpr Field<NodeConfig> kChunkBytes[] = {
    {"", NS_CONFIG(chunk_bytes), kPositive}};
constexpr Field<NodeConfig> kQueueCapacity[] = {
    {"", NS_CONFIG(queue_capacity), kPositive}};
constexpr Field<NodeConfig> kRecovery[] = {
    {"reconnect", NS_CONFIG(recovery.reconnect)},
    {"max_attempts", NS_CONFIG(recovery.retry.max_attempts), kAtLeastOne},
    {"backoff_us", NS_CONFIG(recovery.retry.initial_backoff_us)},
    {"max_backoff_us", NS_CONFIG(recovery.retry.max_backoff_us)},
    {"multiplier", NS_CONFIG(recovery.retry.multiplier), kAtLeastOne},
    {"jitter", NS_CONFIG(recovery.retry.jitter), kUnitClosed},
    {"retry_budget_us", NS_CONFIG(recovery.retry.max_elapsed_us)},
    {"degrade_watermark", NS_CONFIG(recovery.degrade_watermark)},
    {"watchdog_ms", NS_CONFIG(recovery.watchdog_ms)},
};
constexpr Field<NodeConfig> kOverload[] = {
    {"budget_bytes", NS_CONFIG(overload.budget_bytes)},
    {"credit_window", NS_CONFIG(overload.credit_window)},
    {"shed", NS_CONFIG(overload.shed_policy)},
    {"high_watermark", NS_CONFIG(overload.high_watermark)},
    {"low_watermark", NS_CONFIG(overload.low_watermark)},
    {"drain_deadline_ms", NS_CONFIG(overload.drain_deadline_ms)},
};
constexpr Field<NodeConfig> kObserve[] = {
    {"trace", NS_CONFIG(observe.trace)},
    {"latency", NS_CONFIG(observe.latency)},
};
constexpr Field<NodeConfig> kResume[] = {
    {"session", NS_CONFIG(resume.session), kPositive},
    {"ack_interval", NS_CONFIG(resume.ack_interval)},
};
constexpr Field<TaskGroupConfig> kTask[] = {
    {"", NS_AT(TaskGroupConfig, type)},
    {"count", NS_AT(TaskGroupConfig, count), kPositive, true},
    {"exec", [](TaskGroupConfig& g) -> Slot { return ExecDomains{&g.bindings}; }},
    {"mem", [](TaskGroupConfig& g) -> Slot { return MemDomain{&g.bindings}; }},
    {"stream", [](TaskGroupConfig& g) -> Slot { return StreamId{&g.stream_id}; }},
};

#undef NS_CONFIG
#undef NS_AT

using Words = std::span<const std::string_view>;

/// Reads `words` into `owner`: the positional values first, then
/// `key=value` attributes in any order.
template <typename Owner>
Status read_fields(const char* directive,
                   std::span<const Field<std::type_identity_t<Owner>>> fields,
                   Words words, Owner& owner) {
  std::vector<bool> set(fields.size());
  std::size_t next = 0;
  const auto read_value = [&](std::size_t i, std::string_view key,
                              std::string_view text) -> Status {
    set[i] = std::visit([&](auto target) { return read(text, target); },
                        fields[i].at(owner));
    return set[i] ? Status::ok()
                  : invalid_argument_error("bad value for " + std::string(key) +
                                           ": '" + std::string(text) + "'");
  };
  for (; next < fields.size() && *fields[next].name == '\0'; ++next) {
    if (next == words.size()) {
      return invalid_argument_error("'" + std::string(directive) +
                                    "' needs a value");
    }
    NS_RETURN_IF_ERROR(read_value(next, directive, words[next]));
  }
  for (; next < words.size(); ++next) {
    const auto attribute = split_key_value(words[next]);
    if (!attribute) {
      return invalid_argument_error("malformed attribute '" +
                                    std::string(words[next]) + "'");
    }
    const auto field = std::find_if(fields.begin(), fields.end(), [&](auto& f) {
      return *f.name != '\0' && attribute->key == f.name;
    });
    if (field == fields.end()) {
      return invalid_argument_error("unknown attribute '" +
                                    std::string(attribute->key) + "'");
    }
    NS_RETURN_IF_ERROR(read_value(static_cast<std::size_t>(field - fields.begin()),
                                  attribute->key, attribute->value));
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].required && !set[i]) {
      return invalid_argument_error(std::string(directive) + " needs " +
                                    fields[i].name + "=");
    }
  }
  return Status::ok();
}

/// Appends `directive` and every field of `owner` that has a text, then a
/// newline.
template <typename Owner>
void write_line(std::string& out, const char* directive,
                std::span<const Field<std::type_identity_t<Owner>>> fields,
                const Owner& owner) {
  out += directive;
  for (const auto& field : fields) {
    const auto text = std::visit([](auto target) { return write(target); },
                                 slot_of(field, owner));
    if (text) {
      out += ' ' + std::string(field.name) + (*field.name == '\0' ? "" : "=") +
             *text;
    }
  }
  out += '\n';
}

/// The first field of `owner` outside its range, as an error.
template <typename Owner>
Status check_fields(const char* directive,
                    std::span<const Field<std::type_identity_t<Owner>>> fields,
                    const Owner& owner) {
  for (const auto& field : fields) {
    const auto value = number(slot_of(field, owner));
    if (value && !(std::isfinite(*value) && field.range.contains(*value))) {
      return invalid_argument_error(
          "config: " + std::string(directive) +
          (*field.name == '\0' ? "" : " ") + field.name + " must be " +
          field.range.text);
    }
  }
  return Status::ok();
}

/// One directive line, `name` followed by its fields. A directive with
/// `moved` set is a policy: its line is written only when its section moved
/// off the defaults, and then with every attribute, so a config that never
/// turns a subsystem on serializes as it did before the subsystem existed.
/// `task` is repeatable and reads and writes its own list; every other
/// directive may appear at most once.
struct Directive {
  const char* name;
  std::span<const Field<NodeConfig>> fields;
  bool (*moved)(const NodeConfig&) = nullptr;
  Status (*read_entry)(const Directive&, Words, NodeConfig&) = nullptr;
  void (*write_entries)(const Directive&, const NodeConfig&, std::string&) =
      nullptr;
};

template <auto Section>
bool moved(const NodeConfig& config) {
  return !(config.*Section).is_default();
}

Status read_task(const Directive& self, Words words, NodeConfig& config) {
  TaskGroupConfig group;
  NS_RETURN_IF_ERROR(read_fields(self.name, kTask, words, group));
  config.tasks.push_back(std::move(group));
  return Status::ok();
}

void write_tasks(const Directive& self, const NodeConfig& config,
                 std::string& out) {
  for (const TaskGroupConfig& group : config.tasks) {
    write_line(out, self.name, kTask, group);
  }
}

/// The grammar, in serialization order. `node` is first: it is the one
/// directive a config must carry.
constexpr Directive kDirectives[] = {
    {"node", kNode},
    {"role", kRole},
    {"codec", kCodec},
    {"chunk_bytes", kChunkBytes},
    {"queue_capacity", kQueueCapacity},
    {"recovery", kRecovery, moved<&NodeConfig::recovery>},
    {"overload", kOverload, moved<&NodeConfig::overload>},
    {"observe", kObserve, moved<&NodeConfig::observe>},
    {"resume", kResume, moved<&NodeConfig::resume>},
    {"task", {}, nullptr, read_task, write_tasks},
};

}  // namespace

std::string to_string(TaskType type) { return name_of(type); }

std::string to_string(ShedPolicy policy) { return name_of(policy); }

int NodeConfig::thread_count(TaskType type, int stream_id) const {
  int total = 0;
  for (const auto& group : tasks) {
    if (group.type == type && (stream_id < 0 || group.stream_id == stream_id ||
                               group.stream_id < 0)) {
      total += group.count;
    }
  }
  return total;
}

Status NodeConfig::validate(const MachineTopology& topo) const {
  if (node_name.empty()) {
    return invalid_argument_error("config: empty node name");
  }
  if (codec_by_name(codec_name) == nullptr) {
    return invalid_argument_error("config: unknown codec '" + codec_name + "'");
  }
  // A policy left at its defaults is off; its defaults are not checked.
  for (const Directive& directive : kDirectives) {
    if (directive.moved == nullptr || directive.moved(*this)) {
      NS_RETURN_IF_ERROR(check_fields(directive.name, directive.fields, *this));
    }
  }
  NS_RETURN_IF_ERROR(recovery.retry.validate());
  if (recovery.degrade_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: degrade_watermark exceeds queue_capacity");
  }
  if (overload.credit_window == 1) {
    return invalid_argument_error(
        "config: credit_window must be 0 (off) or >= 2 so replenishment "
        "grants are never empty");
  }
  if (overload.high_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: high_watermark exceeds queue_capacity");
  }
  if (overload.low_watermark > overload.high_watermark) {
    return invalid_argument_error(
        "config: low_watermark exceeds high_watermark (hysteresis band "
        "must be low <= high)");
  }
  if (overload.shed_policy != ShedPolicy::kBlock &&
      overload.high_watermark == 0) {
    return invalid_argument_error(
        "config: shed policy '" + to_string(overload.shed_policy) +
        "' needs high_watermark > 0 to ever engage");
  }
  if (overload.budget_bytes > 0 && overload.budget_bytes < chunk_bytes) {
    return invalid_argument_error(
        "config: budget_bytes smaller than one chunk would deadlock "
        "admission");
  }
  if (resume.enabled() && !recovery.reconnect) {
    return invalid_argument_error(
        "config: resume requires recovery reconnect=on (a restarted peer "
        "comes back through the redial path)");
  }
  if (tasks.empty()) {
    return invalid_argument_error("config: no task groups");
  }
  for (const auto& group : tasks) {
    NS_RETURN_IF_ERROR(check_fields("task", kTask, group));
    if (group.bindings.empty()) {
      return invalid_argument_error("config: task group without bindings");
    }
    for (const auto& binding : group.bindings) {
      if (!binding.os_managed() && !topo.domain(binding.execution_domain).ok()) {
        return invalid_argument_error("config: task " + to_string(group.type) +
                                      " pinned to unknown domain " +
                                      std::to_string(binding.execution_domain));
      }
    }
    const bool sender_task =
        group.type == TaskType::kCompress || group.type == TaskType::kSend;
    if (sender_task != (role == NodeRole::kSender)) {
      return invalid_argument_error("config: task " + to_string(group.type) +
                                    " does not belong on a " + name_of(role));
    }
  }
  return Status::ok();
}

std::string NodeConfig::serialize() const {
  std::string out;
  for (const Directive& directive : kDirectives) {
    if (directive.write_entries != nullptr) {
      directive.write_entries(directive, *this, out);
    } else if (directive.moved == nullptr || directive.moved(*this)) {
      write_line(out, directive.name, directive.fields, *this);
    }
  }
  return out;
}

Result<NodeConfig> NodeConfig::parse(const std::string& text) {
  NodeConfig config;
  config.tasks.clear();
  bool seen[std::size(kDirectives)] = {};
  std::istringstream in(text);
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    const auto words =
        split_words(std::string_view(line).substr(0, line.find('#')));
    if (words.empty()) {
      continue;
    }
    const Directive* directive =
        std::find_if(std::begin(kDirectives), std::end(kDirectives),
                     [&](const Directive& d) { return words.front() == d.name; });
    Status status;
    if (directive == std::end(kDirectives)) {
      status = invalid_argument_error("unknown directive '" +
                                      std::string(words.front()) + "'");
    } else if (directive->read_entry == nullptr &&
               std::exchange(seen[directive - kDirectives], true)) {
      status = invalid_argument_error(
          "duplicate '" + std::string(directive->name) +
          "' directive (each directive may appear at most once)");
    } else if (directive->read_entry != nullptr) {
      status = directive->read_entry(*directive, Words(words).subspan(1), config);
    } else {
      status = read_fields(directive->name, directive->fields,
                           Words(words).subspan(1), config);
    }
    if (!status.is_ok()) {
      return invalid_argument_error("config line " + std::to_string(line_no) +
                                    ": " + status.message());
    }
  }
  if (!seen[0]) {
    return invalid_argument_error("config: missing '" +
                                  std::string(kDirectives[0].name) +
                                  "' directive");
  }
  return config;
}

}  // namespace numastream
