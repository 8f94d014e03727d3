#include "support/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "support/diag.hpp"
#include "support/text.hpp"

namespace pscp {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skipWs();
    if (!value(out)) return false;
    skipWs();
    if (at_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const char* message) {
    if (error_ != nullptr && error_->empty())
      *error_ = strfmt("JSON parse error at byte %zu: %s", at_, message);
    return false;
  }

  void skipWs() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_])))
      ++at_;
  }

  [[nodiscard]] bool atEnd() const { return at_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[at_]; }

  bool literal(const char* word, JsonValue* out, JsonValue::Kind kind, bool b) {
    const std::string w(word);
    if (text_.compare(at_, w.size(), w) != 0) return fail("invalid literal");
    at_ += w.size();
    out->kind = kind;
    out->boolean = b;
    return true;
  }

  bool string(std::string* out) {
    if (atEnd() || peek() != '"') return fail("expected string");
    ++at_;
    out->clear();
    while (!atEnd() && peek() != '"') {
      char c = text_[at_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (atEnd()) return fail("dangling escape");
      const char esc = text_[at_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (at_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode (BMP only; surrogates land as-is, see header).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (atEnd()) return fail("unterminated string");
    ++at_;  // closing quote
    return true;
  }

  bool number(JsonValue* out) {
    const size_t start = at_;
    if (!atEnd() && peek() == '-') ++at_;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) ++at_;
    if (!atEnd() && peek() == '.') {
      ++at_;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) ++at_;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++at_;
      if (!atEnd() && (peek() == '-' || peek() == '+')) ++at_;
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) ++at_;
    }
    if (at_ == start) return fail("expected value");
    const std::string token = text_.substr(start, at_ - start);
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool value(JsonValue* out) {
    skipWs();
    if (atEnd()) return fail("unexpected end of document");
    switch (peek()) {
      case '{':
      case '[': {
        // Containers recurse; kMaxNesting keeps a hostile document (a
        // journal, say) off the end of the stack.
        if (depth_ == kMaxNesting)
          return fail(strfmt("value nested deeper than %d levels", kMaxNesting).c_str());
        ++depth_;
        const bool ok = peek() == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->string);
      case 't': return literal("true", out, JsonValue::Kind::kBool, true);
      case 'f': return literal("false", out, JsonValue::Kind::kBool, false);
      case 'n': return literal("null", out, JsonValue::Kind::kNull, false);
      default: return number(out);
    }
  }

  bool object(JsonValue* out) {
    ++at_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    skipWs();
    if (!atEnd() && peek() == '}') {
      ++at_;
      return true;
    }
    while (true) {
      skipWs();
      std::string key;
      if (!string(&key)) return false;
      skipWs();
      if (atEnd() || peek() != ':') return fail("expected ':' in object");
      ++at_;
      JsonValue member;
      if (!value(&member)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      skipWs();
      if (!atEnd() && peek() == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (atEnd() || peek() != '}') return fail("expected '}' or ','");
    ++at_;
    return true;
  }

  bool array(JsonValue* out) {
    ++at_;  // '['
    out->kind = JsonValue::Kind::kArray;
    skipWs();
    if (!atEnd() && peek() == ']') {
      ++at_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(&element)) return false;
      out->array.push_back(std::move(element));
      skipWs();
      if (!atEnd() && peek() == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (atEnd() || peek() != ']') return fail("expected ']' or ','");
    ++at_;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t at_ = 0;
  int depth_ = 0;  // containers open
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue* JsonValue::findPath(const std::string& dottedPath) const {
  const JsonValue* at = this;
  for (const std::string& part : splitOn(dottedPath, '.')) {
    if (at == nullptr) return nullptr;
    at = at->find(part);
  }
  return at;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strfmt("\\u%04x", static_cast<unsigned char>(c));
        else
          out += c;
    }
  }
  return out;
}

JsonValue JsonValue::makeString(std::string s) {
  JsonValue v;
  v.kind = Kind::kString;
  v.string = std::move(s);
  return v;
}

JsonValue JsonValue::makeNumber(double n) {
  JsonValue v;
  v.kind = Kind::kNumber;
  v.number = n;
  return v;
}

JsonValue JsonValue::makeBool(bool b) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::makeArray() {
  JsonValue v;
  v.kind = Kind::kArray;
  return v;
}

JsonValue JsonValue::makeObject() {
  JsonValue v;
  v.kind = Kind::kObject;
  return v;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  PSCP_ASSERT(kind == Kind::kObject);
  for (auto& [k, existing] : object) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object.emplace_back(key, std::move(v));
  return *this;
}

namespace {

void dumpNumber(double n, std::string* out) {
  // Integral values print as integers so emitted documents match the rest
  // of the repo's reports (and diff cleanly).
  const auto asInt = static_cast<int64_t>(n);
  if (static_cast<double>(asInt) == n)
    *out += std::to_string(asInt);
  else
    *out += strfmt("%.17g", n);
}

void dumpValue(const JsonValue& v, int indent, int depth, std::string* out) {
  const std::string pad(static_cast<size_t>(indent) * (static_cast<size_t>(depth) + 1), ' ');
  const std::string closePad(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (v.kind) {
    case JsonValue::Kind::kNull: *out += "null"; return;
    case JsonValue::Kind::kBool: *out += v.boolean ? "true" : "false"; return;
    case JsonValue::Kind::kNumber: dumpNumber(v.number, out); return;
    case JsonValue::Kind::kString:
      *out += '"';
      *out += jsonEscape(v.string);
      *out += '"';
      return;
    case JsonValue::Kind::kArray: {
      if (v.array.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      *out += nl;
      for (size_t i = 0; i < v.array.size(); ++i) {
        *out += pad;
        dumpValue(v.array[i], indent, depth + 1, out);
        if (i + 1 < v.array.size()) *out += ',';
        *out += nl;
      }
      *out += closePad;
      *out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      if (v.object.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      *out += nl;
      for (size_t i = 0; i < v.object.size(); ++i) {
        *out += pad;
        *out += '"';
        *out += jsonEscape(v.object[i].first);
        *out += '"';
        *out += colon;
        dumpValue(v.object[i].second, indent, depth + 1, out);
        if (i + 1 < v.object.size()) *out += ',';
        *out += nl;
      }
      *out += closePad;
      *out += '}';
      return;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpValue(*this, indent, 0, &out);
  return out;
}

bool parseJson(const std::string& text, JsonValue* out, std::string* error) {
  if (error != nullptr) error->clear();
  *out = JsonValue{};
  return Parser(text, error).parse(out);
}

bool parseJsonFile(const std::string& path, JsonValue* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = strfmt("cannot open '%s'", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parseJson(text, out, error);
}

}  // namespace pscp
