// Minimal recursive-descent JSON parser (RFC 8259 subset, no external
// deps). Built for validating the runner's POLARSTAR_JSON output in tests
// and tools; not tuned for huge documents. Numbers are parsed as double,
// strings support all standard escapes including \uXXXX (surrogate pairs
// decode to UTF-8; lone surrogates are rejected), and parse errors throw
// std::runtime_error with an offset.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace polarstar::io::json {

class Value;
using Array = std::vector<Value>;
/// Ordered map: iteration order is key order, which is all the validator
/// needs (duplicate keys: last one wins, as in most parsers).
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    require(Kind::kBool);
    return bool_;
  }
  double as_number() const {
    require(Kind::kNumber);
    return num_;
  }
  const std::string& as_string() const {
    require(Kind::kString);
    return str_;
  }
  const Array& as_array() const {
    require(Kind::kArray);
    return *arr_;
  }
  const Object& as_object() const {
    require(Kind::kObject);
    return *obj_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

 private:
  void require(Kind k) const {
    if (kind_ != k) throw std::runtime_error("json: wrong value kind");
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Deepest array/object nesting parse() accepts (the runner's documents
/// nest 5 deep). Deeper input throws like any other parse error instead
/// of exhausting the stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document; trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Convenience: parse the file at `path` (throws on unreadable file).
Value parse_file(const std::string& path);

}  // namespace polarstar::io::json
