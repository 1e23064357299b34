// Minimal dependency-free JSON: an insertion-ordered value type, a strict
// recursive-descent parser with line/column-tagged errors, and a
// deterministic serializer.
//
// This is the single JSON substrate shared by the spec codecs
// (src/sweep/spec_json, src/verify/campaign_json), which back the CLIs'
// `--spec` path, and the campaign's shard summaries.
//
// Deliberate strictness (specs are configuration, not documents):
//   * duplicate object keys are a parse error;
//   * trailing non-whitespace after the top-level value is a parse error;
//   * objects preserve insertion order, so serialize(parse(x)) is
//     deterministic and serialize(parse(serialize(v))) == serialize(v).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace htnoc::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object. Lookup is linear — spec documents are tiny.
using Object = std::vector<std::pair<std::string, Value>>;

/// Parse failure, carrying 1-based line/column of the offending character.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& msg, int line, int column)
      : std::runtime_error(msg + " at line " + std::to_string(line) +
                           " column " + std::to_string(column)),
        line_(line),
        column_(column) {}
  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Wrong-type / missing-field access on a parsed Value.
class TypeError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(runtime/explicit)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Value(int i) : type_(Type::kNumber), num_(i) {}  // NOLINT
  Value(std::string s)  // NOLINT(runtime/explicit)
      : type_(Type::kString), str_(std::move(s)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const {
    require(Type::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    require(Type::kNumber, "number");
    return num_;
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Type::kString, "string");
    return str_;
  }
  [[nodiscard]] const Array& as_array() const {
    require(Type::kArray, "array");
    return arr_;
  }
  [[nodiscard]] const Object& as_object() const {
    require(Type::kObject, "object");
    return obj_;
  }
  [[nodiscard]] Array& as_array() {
    require(Type::kArray, "array");
    return arr_;
  }
  [[nodiscard]] Object& as_object() {
    require(Type::kObject, "object");
    return obj_;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Append a member (no duplicate check; parse() already rejects dups).
  void set(std::string key, Value v) {
    require(Type::kObject, "object");
    obj_.emplace_back(std::move(key), std::move(v));
  }

  [[nodiscard]] std::string type_name() const;

 private:
  void require(Type t, const char* what) const {
    if (type_ != t) {
      throw TypeError(std::string("expected ") + what + ", got " +
                      type_name());
    }
  }

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Strict parse of one complete JSON document. Throws ParseError.
[[nodiscard]] Value parse(std::string_view text);

/// Serialize deterministically. indent < 0: compact one-line form (the
/// canonical encoding the fixed-point and byte-compare tests rely on);
/// indent >= 0: pretty-printed with that many spaces per level.
void write(std::string& out, const Value& v, int indent = -1);
[[nodiscard]] std::string to_string(const Value& v, int indent = -1);

/// Shortest exact decimal form of a double (integral values print as plain
/// integers; everything else takes the lowest %.g precision that
/// round-trips). Exposed because the sweep emitters use the same contract.
[[nodiscard]] std::string format_double(double v);

/// uint64 values can exceed JSON's exactly-representable integer range, so
/// the codecs serialize them as decimal/hex strings; this accepts either a
/// JSON number (exact only below 2^53) or a string ("123", "0x7b").
[[nodiscard]] std::uint64_t as_uint64(const Value& v);

}  // namespace htnoc::json
