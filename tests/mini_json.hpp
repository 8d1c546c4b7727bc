// Minimal JSON parser for tests: enough to assert that output is
// syntactically valid and to list the keys of its objects. Throws
// std::runtime_error on bad input.
#pragma once

#include <cctype>
#include <stdexcept>
#include <string>
#include <vector>

class MiniJson {
 public:
  static void validate(const std::string& text) { (void)keys(text); }

  /// Every object key in document order, nested objects included (raw
  /// text between the quotes, escapes not decoded).
  static std::vector<std::string> keys(const std::string& text) {
    MiniJson p(text);
    p.skip_ws();
    p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) throw std::runtime_error("trailing bytes after JSON value");
    return std::move(p.keys_);
  }

 private:
  explicit MiniJson(const std::string& s) : s_(s) {}

  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string(what) + " at offset " + std::to_string(pos_));
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) pos_++;
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    pos_++;
  }
  void value() {
    switch (peek()) {
      case '{': object(); break;
      case '[': array(); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number(); break;
    }
  }
  void object() {
    expect('{');
    skip_ws();
    if (peek() == '}') { pos_++; return; }
    for (;;) {
      skip_ws();
      keys_.push_back(string());
      skip_ws();
      expect(':');
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    skip_ws();
    if (peek() == ']') { pos_++; return; }
    for (;;) {
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      expect(']');
      return;
    }
  }
  std::string string() {
    expect('"');
    const std::size_t start = pos_;
    while (peek() != '"') {
      if (s_[pos_] == '\\') pos_++;
      pos_++;
    }
    return s_.substr(start, pos_++ - start);
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p) expect(*p);
  }
  void number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      pos_++;
    }
    if (pos_ == start) fail("expected a number");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<std::string> keys_;
};
