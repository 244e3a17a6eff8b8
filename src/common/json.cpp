#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace bnsgcn::json {

bool Value::as_bool() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kBool, "json: not a bool");
  return bool_;
}

double Value::as_double() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kNumber, "json: not a number");
  return num_;
}

std::int64_t Value::as_int64() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kNumber, "json: not a number");
  // Also rejects NaN and the infinities, which llround cannot convert.
  BNSGCN_CHECK_MSG(std::fabs(num_) < 0x1p63, "json: integer out of range");
  return static_cast<std::int64_t>(std::llround(num_));
}

const std::string& Value::as_string() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kString, "json: not a string");
  return str_;
}

const Value::Array& Value::items() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kArray, "json: not an array");
  return arr_;
}

const Value::Object& Value::members() const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kObject, "json: not an object");
  return obj_;
}

void Value::set(std::string key, Value value) {
  BNSGCN_CHECK_MSG(kind_ == Kind::kObject, "json: not an object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

const Value* Value::get(std::string_view key) const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kObject, "json: not an object");
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = get(key);
  BNSGCN_CHECK_MSG(v != nullptr, "json: missing key " + std::string(key));
  return *v;
}

void Value::push_back(Value value) {
  BNSGCN_CHECK_MSG(kind_ == Kind::kArray, "json: not an array");
  arr_.push_back(std::move(value));
}

std::size_t Value::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  BNSGCN_CHECK_MSG(false, "json: size() of a scalar");
  return 0;
}

const Value& Value::operator[](std::size_t i) const {
  BNSGCN_CHECK_MSG(kind_ == Kind::kArray, "json: not an array");
  BNSGCN_CHECK(i < arr_.size());
  return arr_[i];
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (std::isnan(d)) {
    out += "NaN";
    return;
  }
  if (std::isinf(d)) {
    out += d > 0 ? "Infinity" : "-Infinity";
    return;
  }
  if (d == 0.0 && std::signbit(d)) {
    // The integer path below would print "0" and lose the sign; "-0.0"
    // reads back as -0.0 through std::stod and Python's json alike.
    out += "-0.0";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::llround(d)));
    out += buf;
    return;
  }
  // %.17g round-trips doubles exactly.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

} // namespace

namespace {

void dump_impl(const Value& v, int indent, int depth, std::string& out);

void newline_pad(int indent, int depth, std::string& out) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_impl(const Value& v, int indent, int depth, std::string& out) {
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; return;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Kind::kNumber: dump_number(v.as_double(), out); return;
    case Value::Kind::kString: dump_string(v.as_string(), out); return;
    case Value::Kind::kArray: {
      const auto& items = v.items();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(indent, depth + 1, out);
        dump_impl(items[i], indent, depth + 1, out);
      }
      newline_pad(indent, depth, out);
      out += ']';
      return;
    }
    case Value::Kind::kObject: {
      const auto& members = v.members();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, val] : members) {
        if (!first) out += ',';
        first = false;
        newline_pad(indent, depth + 1, out);
        dump_string(k, out);
        out += indent < 0 ? ":" : ": ";
        dump_impl(val, indent, depth + 1, out);
      }
      newline_pad(indent, depth, out);
      out += '}';
      return;
    }
  }
}

} // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_impl(*this, indent, 0, out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    BNSGCN_CHECK_MSG(pos_ == text_.size(), "json: trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    BNSGCN_CHECK_MSG(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    BNSGCN_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                     std::string("json: expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value();
    if (consume_literal("NaN"))
      return Value(std::numeric_limits<double>::quiet_NaN());
    if (consume_literal("Infinity"))
      return Value(std::numeric_limits<double>::infinity());
    if (consume_literal("-Infinity"))
      return Value(-std::numeric_limits<double>::infinity());
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      BNSGCN_CHECK_MSG(pos_ < text_.size(), "json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      BNSGCN_CHECK_MSG(pos_ < text_.size(), "json: unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          BNSGCN_CHECK_MSG(pos_ + 4 <= text_.size(), "json: bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else BNSGCN_CHECK_MSG(false, "json: bad \\u escape");
          }
          // Encode as UTF-8 (basic multilingual plane only; the writer
          // never emits surrogate pairs).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          BNSGCN_CHECK_MSG(false, "json: bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    BNSGCN_CHECK_MSG(pos_ > start, "json: invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    std::size_t used = 0;
    double d = 0.0;
    try {
      d = std::stod(token, &used);
    } catch (const std::exception&) {
      BNSGCN_CHECK_MSG(false, "json: invalid number " + token);
    }
    BNSGCN_CHECK_MSG(used == token.size(), "json: invalid number " + token);
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

} // namespace

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_file(const std::string& path, const Value& value) {
  std::ofstream out(path);
  BNSGCN_CHECK_MSG(out.good(), "cannot open for writing: " + path);
  out << value.dump(2) << '\n';
  BNSGCN_CHECK_MSG(out.good(), "write failed: " + path);
}

} // namespace bnsgcn::json
