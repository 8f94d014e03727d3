#include "statechart/label_parser.hpp"

#include <cctype>
#include <string>
#include <vector>

namespace pscp::statechart {
namespace {

enum class Tok { Ident, Number, LParen, RParen, LBracket, RBracket, Slash, Comma, Semi, End };

struct Token {
  Tok kind = Tok::End;
  std::string text;
};

class LabelLexer {
 public:
  LabelLexer(std::string_view src, const SourceLoc& loc) : src_(src), loc_(loc) { advance(); }

  [[nodiscard]] const Token& peek() const { return cur_; }

  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

  [[noreturn]] void error(const std::string& msg) const {
    failAt(loc_, "label \"%s\": %s", std::string(src_).c_str(), msg.c_str());
  }

  [[nodiscard]] const SourceLoc& loc() const { return loc_; }

 private:
  void advance() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_])) != 0)
      ++pos_;
    if (pos_ >= src_.size()) {
      cur_ = {Tok::End, ""};
      return;
    }
    const char c = src_[pos_];
    auto single = [&](Tok k) {
      cur_ = {k, std::string(1, c)};
      ++pos_;
    };
    switch (c) {
      case '(': single(Tok::LParen); return;
      case ')': single(Tok::RParen); return;
      case '[': single(Tok::LBracket); return;
      case ']': single(Tok::RBracket); return;
      case '/': single(Tok::Slash); return;
      case ',': single(Tok::Comma); return;
      case ';': single(Tok::Semi); return;
      default: break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-') {
      size_t start = pos_++;
      while (pos_ < src_.size() && std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0)
        ++pos_;
      cur_ = {Tok::Number, std::string(src_.substr(start, pos_ - start))};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      size_t start = pos_++;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) != 0 || src_[pos_] == '_'))
        ++pos_;
      cur_ = {Tok::Ident, std::string(src_.substr(start, pos_ - start))};
      return;
    }
    error(strfmt("unexpected character '%c'", c));
  }

  std::string_view src_;
  SourceLoc loc_;
  size_t pos_ = 0;
  Token cur_;
};

class LabelParser {
 public:
  LabelParser(std::string_view src, const SourceLoc& loc) : lex_(src, loc) {}

  Label parse(std::string_view raw) {
    Label label;
    label.raw = std::string(raw);
    // Optional trigger expression (event part).
    if (lex_.peek().kind == Tok::Ident && !isKeyword(lex_.peek().text))
      label.trigger = parseOr();
    else if (lex_.peek().kind == Tok::LParen || isNotKeyword())
      label.trigger = parseOr();
    // Optional [guard].
    if (lex_.peek().kind == Tok::LBracket) {
      lex_.take();
      label.guard = parseOr();
      expect(Tok::RBracket, "']'");
    }
    // Optional /actions.
    if (lex_.peek().kind == Tok::Slash) {
      lex_.take();
      label.actions = parseActions();
    }
    if (lex_.peek().kind != Tok::End) lex_.error("trailing input after label");
    return label;
  }

 private:
  static bool isKeyword(const std::string& s) { return s == "or" || s == "and" || s == "not"; }
  bool isNotKeyword() { return lex_.peek().kind == Tok::Ident && lex_.peek().text == "not"; }

  BoolExpr parseOr() {
    BoolExpr e = parseAnd();
    while (lex_.peek().kind == Tok::Ident && lex_.peek().text == "or") {
      lex_.take();
      e = BoolExpr::disjunction(std::move(e), parseAnd());
    }
    return e;
  }

  BoolExpr parseAnd() {
    BoolExpr e = parseNot();
    while (lex_.peek().kind == Tok::Ident && lex_.peek().text == "and") {
      lex_.take();
      e = BoolExpr::conjunction(std::move(e), parseNot());
    }
    return e;
  }

  // Chains flatten into one n-ary node, so only parseNot's recursion (a
  // `not` or a parenthesized group) nests the tree.
  BoolExpr parseNot() {
    const NestingGuard guard(depth_, lex_.loc(), "label expression");
    if (isNotKeyword()) {
      lex_.take();
      return BoolExpr::negate(parseNot());
    }
    if (lex_.peek().kind == Tok::LParen) {
      lex_.take();
      BoolExpr e = parseOr();
      expect(Tok::RParen, "')'");
      return e;
    }
    if (lex_.peek().kind == Tok::Ident && !isKeyword(lex_.peek().text))
      return BoolExpr::ref(lex_.take().text);
    lex_.error("expected event/condition name, 'not', or '('");
  }

  std::vector<ActionCall> parseActions() {
    std::vector<ActionCall> calls;
    for (;;) {
      if (lex_.peek().kind != Tok::Ident) lex_.error("expected action function name");
      ActionCall call;
      call.function = lex_.take().text;
      expect(Tok::LParen, "'('");
      if (lex_.peek().kind != Tok::RParen) {
        for (;;) {
          const Token t = lex_.take();
          if (t.kind != Tok::Ident && t.kind != Tok::Number)
            lex_.error("expected action argument (identifier or number)");
          call.args.push_back(t.text);
          if (lex_.peek().kind != Tok::Comma) break;
          lex_.take();
        }
      }
      expect(Tok::RParen, "')'");
      calls.push_back(std::move(call));
      if (lex_.peek().kind != Tok::Semi) break;
      lex_.take();
      if (lex_.peek().kind == Tok::End) break;  // tolerate trailing ';'
    }
    return calls;
  }

  void expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) lex_.error(strfmt("expected %s", what));
    lex_.take();
  }

  LabelLexer lex_;
  int depth_ = 0;
};

}  // namespace

Label parseLabel(std::string_view text, const SourceLoc& loc) {
  LabelParser parser(text, loc);
  return parser.parse(text);
}

}  // namespace pscp::statechart
