#include "support/json_reader.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/json_writer.h"

namespace jst::support {
namespace {

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}
const std::vector<JsonValue>& empty_array() {
  static const std::vector<JsonValue> empty;
  return empty;
}
const std::map<std::string, JsonValue>& empty_object() {
  static const std::map<std::string, JsonValue> empty;
  return empty;
}

// A quote, a backslash or a control byte: the bytes a string's plain run
// stops at.
bool ends_string_run(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> value = parse_value();
    if (value.has_value()) {
      skip_whitespace();
      if (pos_ != text_.size()) {
        value.reset();
        fail("trailing characters after document");
      }
    }
    if (!value.has_value() && error != nullptr) {
      *error = "offset " + std::to_string(error_pos_) + ": " + error_;
    }
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  void fail(std::string reason) {
    if (error_.empty()) {
      error_ = std::move(reason);
      error_pos_ = pos_;
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<JsonValue> parse_value() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
      return std::nullopt;
    }
    skip_whitespace();
    std::optional<JsonValue> value;
    if (pos_ >= text_.size()) {
      fail("unexpected end of document");
    } else {
      switch (text_[pos_]) {
        case 'n':
          if (consume_literal("null")) value = JsonValue::make_null();
          else fail("invalid literal");
          break;
        case 't':
          if (consume_literal("true")) value = JsonValue::make_bool(true);
          else fail("invalid literal");
          break;
        case 'f':
          if (consume_literal("false")) value = JsonValue::make_bool(false);
          else fail("invalid literal");
          break;
        case '"': value = parse_string(); break;
        case '[': value = parse_array(); break;
        case '{': value = parse_object(); break;
        default: value = parse_number(); break;
      }
    }
    --depth_;
    return value;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (!consume_digits()) {
      pos_ = start;
      fail("invalid number");
      return std::nullopt;
    }
    if (consume('.') && !consume_digits()) {
      fail("digits required after decimal point");
      return std::nullopt;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!consume_digits()) {
        fail("digits required in exponent");
        return std::nullopt;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    // Overflowing literals (e.g. the 1e999 the metrics registry emits for
    // +Inf bucket bounds) saturate to ±infinity, matching strtod and the
    // common lenient-parser behavior, instead of failing the document.
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  bool consume_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  std::optional<JsonValue> parse_string() {
    std::optional<std::string> text = parse_string_body();
    if (!text.has_value()) return std::nullopt;
    return JsonValue::make_string(*std::move(text));
  }

  std::optional<std::string> parse_string_body() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run_start = pos_;
      while (pos_ < text_.size() && !ends_string_run(text_[pos_])) ++pos_;
      out.append(text_.data() + run_start, pos_ - run_start);
      if (pos_ == text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (!append_unicode_escape(out)) return std::nullopt;
          break;
        }
        default:
          pos_ -= 1;
          fail("invalid escape sequence");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  bool append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else {
        fail("invalid hex digit in \\u escape");
        return false;
      }
    }
    pos_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("surrogate \\u escapes are not supported");
      return false;
    }
    // UTF-8 encode the BMP code point.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return true;
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    std::vector<JsonValue> values;
    skip_whitespace();
    if (consume(']')) return JsonValue::make_array(std::move(values));
    for (;;) {
      std::optional<JsonValue> value = parse_value();
      if (!value.has_value()) return std::nullopt;
      values.push_back(*std::move(value));
      skip_whitespace();
      if (consume(']')) return JsonValue::make_array(std::move(values));
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    std::map<std::string, JsonValue> members;
    skip_whitespace();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    for (;;) {
      skip_whitespace();
      std::optional<std::string> key = parse_string_body();
      if (!key.has_value()) return std::nullopt;
      skip_whitespace();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = parse_value();
      if (!value.has_value()) return std::nullopt;
      members.insert_or_assign(*std::move(key), *std::move(value));
      skip_whitespace();
      if (consume('}')) return JsonValue::make_object(std::move(members));
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

const std::string& JsonValue::as_string() const {
  return is_string() ? string_ : empty_string();
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  return is_array() ? array_ : empty_array();
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  return is_object() ? object_ : empty_object();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> values) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(values);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

namespace {

// Shortest decimal that strtod reads back to exactly `value`; ±infinity
// becomes ±1e999 so the overflow-saturation in parse_number round-trips.
void write_number(JsonWriter& writer, double value) {
  if (std::isnan(value)) {
    writer.null();  // JSON has no NaN; parse never produces one either
    return;
  }
  if (std::isinf(value)) {
    writer.raw(value > 0 ? "1e999" : "-1e999");
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  writer.raw(buf);
}

void write_value(JsonWriter& writer, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      writer.null();
      break;
    case JsonValue::Kind::kBool:
      writer.value(value.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      write_number(writer, value.as_number());
      break;
    case JsonValue::Kind::kString:
      writer.value(value.as_string());
      break;
    case JsonValue::Kind::kArray:
      writer.begin_array();
      for (const JsonValue& element : value.as_array()) {
        write_value(writer, element);
      }
      writer.end_array();
      break;
    case JsonValue::Kind::kObject:
      writer.begin_object();
      for (const auto& [key, member] : value.as_object()) {
        writer.key(key);
        write_value(writer, member);
      }
      writer.end_object();
      break;
  }
}

}  // namespace

std::string to_json(const JsonValue& value) {
  JsonWriter writer;
  write_value(writer, value);
  return writer.str();
}

}  // namespace jst::support
