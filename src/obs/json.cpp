#include "src/obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <ostream>
#include <utility>

namespace t2m::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_uint64() const {
  std::uint64_t value = 0;
  const char* end = string.data() + string.size();
  const auto [ptr, ec] = std::from_chars(string.data(), end, value);
  if (!is_number() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

/// Recursive-descent reader over the input span. Depth is bounded so a
/// pathological artefact cannot blow the stack.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status parse(JsonValue& out) {
    Status status = parse_value(out, 0);
    if (!status.ok()) return status;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return Status::Ok();
  }

private:
  static constexpr std::size_t kMaxDepth = 64;

  Status fail(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out, c == 't' ? "true" : "false");
    if (c == 'n') return parse_keyword(out, "null");
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail(std::string("unexpected character '") + c + "'");
  }

  Status parse_keyword(JsonValue& out, std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("malformed literal");
    pos_ += word.size();
    if (word == "null") {
      out.kind = JsonValue::Kind::Null;
    } else {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = word == "true";
    }
    return Status::Ok();
  }

  Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (consume('.')) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() || token == "-") {
      return fail("malformed number '" + token + "'");
    }
    out.kind = JsonValue::Kind::Number;
    out.string = std::move(token);
    return Status::Ok();
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          const auto [ptr, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
            return fail("malformed \\u escape");
          }
          pos_ += 4;
          // Validation-only reader: non-ASCII code points are preserved as
          // a replacement byte rather than UTF-8 encoded.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Status parse_array(JsonValue& out, std::size_t depth) {
    consume('[');
    out.kind = JsonValue::Kind::Array;
    skip_ws();
    if (consume(']')) return Status::Ok();
    while (true) {
      JsonValue element;
      Status status = parse_value(element, depth + 1);
      if (!status.ok()) return status;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return Status::Ok();
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  Status parse_object(JsonValue& out, std::size_t depth) {
    consume('{');
    out.kind = JsonValue::Kind::Object;
    skip_ws();
    if (consume('}')) return Status::Ok();
    while (true) {
      skip_ws();
      std::string key;
      Status status = parse_string(key);
      if (!status.ok()) return status;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      JsonValue value;
      status = parse_value(value, depth + 1);
      if (!status.ok()) return status;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return Status::Ok();
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Status parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  return Parser(text).parse(out);
}

}  // namespace t2m::obs
