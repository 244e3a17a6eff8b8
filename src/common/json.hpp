#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bnsgcn::json {

/// Minimal JSON document model: enough for machine-readable run artifacts
/// (RunReport serialization, bench --json output) without an external
/// dependency. Objects preserve insertion order so dump(parse(x)) is
/// stable. Numbers are doubles (exact for integers up to 2^53, which
/// covers every counter in this repo). Non-finite doubles are written and
/// read as the tokens NaN, Infinity and -Infinity (what Python's json
/// module emits and accepts), so a diverged run's losses still serialize.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int i) : kind_(Kind::kNumber), num_(i) {}
  Value(std::int64_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  [[nodiscard]] static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Object access; `get` returns nullptr when the key is absent.
  void set(std::string key, Value value);
  [[nodiscard]] const Value* get(std::string_view key) const;
  /// Object access that throws (CheckError) when the key is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Array append.
  void push_back(Value value);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& operator[](std::size_t i) const;

  /// Serialize. indent < 0 → compact one-line form; otherwise pretty-print
  /// with the given indent width.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws CheckError on malformed input
  /// or trailing garbage.
  [[nodiscard]] static Value parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Write `value` to `path` (pretty-printed, trailing newline); throws
/// CheckError when the file cannot be written.
void write_file(const std::string& path, const Value& value);

} // namespace bnsgcn::json
