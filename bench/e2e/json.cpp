#include "json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace deepbat::e2e {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    DEEPBAT_CHECK(pos_ == s_.size(), "json: trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    DEEPBAT_CHECK(pos_ < s_.size(), "json: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    DEEPBAT_CHECK(peek() == c, std::string("json: expected '") + c + "' at " +
                                   std::to_string(pos_));
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value() {
    const char c = peek();
    Json v;
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        std::string key = string_literal();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = string_literal();
      return v;
    }
    if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (literal("null")) return v;
    v.kind = Json::Kind::kNumber;
    const std::string rest(s_.substr(pos_, 64));
    char* end = nullptr;
    v.number = std::strtod(rest.c_str(), &end);
    DEEPBAT_CHECK(end != rest.c_str(),
                  "json: bad value at " + std::to_string(pos_));
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return v;
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    for (;;) {
      DEEPBAT_CHECK(pos_ < s_.size(), "json: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      DEEPBAT_CHECK(pos_ < s_.size(), "json: unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          DEEPBAT_CHECK(pos_ + 4 <= s_.size(), "json: short \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16));
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: out += e;
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  DEEPBAT_CHECK(v != nullptr, "json: missing key '" + std::string(key) + "'");
  return *v;
}

Json parse_json(std::string_view text) { return Parser(text).document(); }

Json read_json_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DEEPBAT_CHECK(is.is_open(), "cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  try {
    return parse_json(os.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

std::string dump(const Json& v) {
  switch (v.kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return v.boolean ? "true" : "false";
    case Json::Kind::kNumber: return number(v.number);
    case Json::Kind::kString: return quote(v.string);
    case Json::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += (i > 0 ? ", " : "") + dump(v.array[i]);
      }
      return out + "]";
    }
    case Json::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += (i > 0 ? ", " : "") + quote(v.object[i].first) + ": " +
               dump(v.object[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace deepbat::e2e
