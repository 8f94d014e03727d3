#include "analysis/check/spec.hpp"

#include <algorithm>
#include <cctype>

namespace pscp::analysis::check {
namespace {

// ---------------------------------------------------------------- lexer

enum class TokKind { Ident, Int, Punct, End };

struct Token {
  TokKind kind = TokKind::End;
  std::string text;
  int64_t value = 0;  // Int only
  SourceLoc loc;
};

class Lexer {
 public:
  Lexer(const std::string& text, const std::string& file)
      : text_(text), file_(file) {}

  Token next() {
    skipTrivia();
    Token tok;
    tok.loc = here();
    if (pos_ >= text_.size()) return tok;  // End
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      tok.kind = TokKind::Ident;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        tok.text += advance();
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      tok.kind = TokKind::Int;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        tok.text += advance();
      tok.value = std::stoll(tok.text);
      return tok;
    }
    tok.kind = TokKind::Punct;
    // Two-character operators first.
    if (pos_ + 1 < text_.size()) {
      const std::string two = text_.substr(pos_, 2);
      if (two == "&&" || two == "||" || two == "->" || two == "=>") {
        advance();
        advance();
        tok.text = two;
        return tok;
      }
    }
    tok.text = std::string(1, advance());
    return tok;
  }

 private:
  [[nodiscard]] SourceLoc here() const { return SourceLoc{file_, line_, col_}; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skipTrivia() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  const std::string& file_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// --------------------------------------------------------------- parser

class Parser {
 public:
  Parser(const std::string& text, const std::string& file)
      : lexer_(text, file) {
    cur_ = lexer_.next();
  }

  SpecFile parse(const std::string& file) {
    SpecFile spec;
    spec.file = file;
    while (cur_.kind != TokKind::End) parseDecl(&spec);
    return spec;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    failAt(cur_.loc, "spec: %s (at '%s')", msg.c_str(),
           cur_.kind == TokKind::End ? "end of file" : cur_.text.c_str());
  }

  void bump() { cur_ = lexer_.next(); }

  [[nodiscard]] bool atIdent(const char* word) const {
    return cur_.kind == TokKind::Ident && cur_.text == word;
  }

  [[nodiscard]] bool atPunct(const char* p) const {
    return cur_.kind == TokKind::Punct && cur_.text == p;
  }

  bool eatIdent(const char* word) {
    if (!atIdent(word)) return false;
    bump();
    return true;
  }

  bool eatPunct(const char* p) {
    if (!atPunct(p)) return false;
    bump();
    return true;
  }

  std::string expectIdent(const char* what) {
    if (cur_.kind != TokKind::Ident) fail(strfmt("expected %s", what));
    std::string name = cur_.text;
    bump();
    return name;
  }

  int64_t expectInt(const char* what) {
    if (cur_.kind != TokKind::Int) fail(strfmt("expected %s", what));
    const int64_t v = cur_.value;
    bump();
    return v;
  }

  void expectPunct(const char* p) {
    if (!eatPunct(p)) fail(strfmt("expected '%s'", p));
  }

  void parseDecl(SpecFile* spec) {
    if (eatIdent("spec")) {
      spec->chartName = expectIdent("chart name after 'spec'");
      expectPunct(";");
      return;
    }
    if (atIdent("env")) {
      bump();
      if (!eatIdent("events")) fail("expected 'events' after 'env'");
      do {
        spec->envEvents.push_back(expectIdent("event name"));
      } while (eatPunct(","));
      expectPunct(";");
      return;
    }
    if (eatIdent("bound")) {
      if (eatIdent("states")) {
        spec->boundStates = static_cast<int>(expectInt("state bound"));
      } else if (eatIdent("depth")) {
        spec->boundDepth = static_cast<int>(expectInt("depth bound"));
      } else {
        fail("expected 'states' or 'depth' after 'bound'");
      }
      expectPunct(";");
      return;
    }
    if (eatIdent("expect")) {
      if (eatIdent("violations")) {
        spec->expectViolations = true;
      } else if (eatIdent("pass")) {
        spec->expectViolations = false;
      } else {
        fail("expected 'violations' or 'pass' after 'expect'");
      }
      expectPunct(";");
      return;
    }
    parseProperty(spec);
  }

  void parseProperty(SpecFile* spec) {
    Property prop;
    prop.loc = cur_.loc;
    if (eatIdent("invariant") || eatIdent("always")) {
      prop.kind = PropKind::Invariant;
    } else if (eatIdent("never")) {
      prop.kind = PropKind::Never;
    } else if (eatIdent("leadsto")) {
      prop.kind = PropKind::LeadsTo;
    } else if (eatIdent("pulse")) {
      prop.kind = PropKind::Pulse;
    } else {
      fail("expected a declaration (spec/env/bound/expect) or a property "
           "(invariant/always/never/leadsto/pulse)");
    }
    prop.name = expectIdent("property name");
    expectPunct(":");
    switch (prop.kind) {
      case PropKind::Invariant:
      case PropKind::Never:
        prop.expr = parseExpr();
        break;
      case PropKind::LeadsTo:
        prop.expr = parseExpr();
        if (!eatPunct("=>")) fail("expected '=>' between trigger and goal");
        prop.goal = parseExpr();
        if (!eatIdent("within")) fail("expected 'within' after leadsto goal");
        prop.within = static_cast<int>(expectInt("cycle count"));
        break;
      case PropKind::Pulse:
        if (!eatIdent("port")) fail("expected 'port' after ':'");
        prop.port = expectIdent("port name");
        if (!eatIdent("max")) fail("expected 'max' after port name");
        prop.maxPulses = static_cast<int>(expectInt("pulse count"));
        if (!eatIdent("within")) fail("expected 'within' after pulse count");
        prop.within = static_cast<int>(expectInt("window length"));
        break;
    }
    expectPunct(";");
    spec->properties.push_back(std::move(prop));
  }

  /// A parsed subexpression and its nesting depth (see kMaxNesting): 1 for
  /// an atom, one more per operator or parenthesized group above it. The
  /// `&&`/`||` loops build left-deep chains without recursing, so depths
  /// are carried up from the children; parseUnary's guard bounds the
  /// recursion itself.
  struct Sub {
    PropExpr expr;
    int depth = 1;
  };

  /// `node` one level above its deepest child, `childDepth` deep.
  static Sub nest(PropExpr node, int childDepth) {
    checkNesting(childDepth + 1, node.loc, "spec expression");
    return {std::move(node), childDepth + 1};
  }

  /// A `kind` node over `lhs` and `rhs`, located at `lhs`.
  static Sub binary(PropExpr::Kind kind, Sub lhs, Sub rhs) {
    PropExpr node;
    node.kind = kind;
    node.loc = lhs.expr.loc;
    node.kids.push_back(std::move(lhs.expr));
    node.kids.push_back(std::move(rhs.expr));
    return nest(std::move(node), std::max(lhs.depth, rhs.depth));
  }

  PropExpr parseExpr() { return parseImplies().expr; }

  Sub parseImplies() {  // right associative
    Sub lhs = parseOr();
    if (!eatPunct("->")) return lhs;
    const NestingGuard guard(depth_, cur_.loc, "spec expression");
    Sub rhs = parseImplies();
    return binary(PropExpr::Kind::Implies, std::move(lhs), std::move(rhs));
  }

  Sub parseOr() {
    Sub lhs = parseAnd();
    while (atPunct("||") || atIdent("or")) {
      bump();
      lhs = binary(PropExpr::Kind::Or, std::move(lhs), parseAnd());
    }
    return lhs;
  }

  Sub parseAnd() {
    Sub lhs = parseUnary();
    while (atPunct("&&") || atIdent("and")) {
      bump();
      lhs = binary(PropExpr::Kind::And, std::move(lhs), parseUnary());
    }
    return lhs;
  }

  Sub parseUnary() {
    const NestingGuard guard(depth_, cur_.loc, "spec expression");
    if (atPunct("!") || atIdent("not")) {
      const SourceLoc loc = cur_.loc;
      bump();
      Sub operand = parseUnary();
      PropExpr node;
      node.kind = PropExpr::Kind::Not;
      node.loc = loc;
      node.kids.push_back(std::move(operand.expr));
      return nest(std::move(node), operand.depth);
    }
    return parsePrimary();
  }

  Sub parsePrimary() {
    PropExpr node;
    node.loc = cur_.loc;
    if (eatPunct("(")) {
      Sub inner = parseImplies();
      expectPunct(")");
      checkNesting(inner.depth + 1, node.loc, "spec expression");
      ++inner.depth;
      return inner;
    }
    if (eatIdent("true")) {
      node.kind = PropExpr::Kind::True;
      return {std::move(node)};
    }
    if (eatIdent("false")) {
      node.kind = PropExpr::Kind::False;
      return {std::move(node)};
    }
    if (eatIdent("state")) {
      node.kind = PropExpr::Kind::State;
      node.name = expectIdent("state name");
      return {std::move(node)};
    }
    if (eatIdent("cond")) {
      node.kind = PropExpr::Kind::Cond;
      node.name = expectIdent("condition name");
      return {std::move(node)};
    }
    if (eatIdent("event")) {
      node.kind = PropExpr::Kind::Event;
      node.name = expectIdent("event name");
      return {std::move(node)};
    }
    fail("expected an atom ('state'/'cond'/'event' NAME, true, false, or a "
         "parenthesized expression)");
  }

  Lexer lexer_;
  int depth_ = 0;  // parseUnary and `->` right-hand sides open
  Token cur_;
};

void bindExpr(PropExpr* e, const statechart::Chart& chart,
              const std::string& propName) {
  switch (e->kind) {
    case PropExpr::Kind::State:
      e->stateId = chart.findState(e->name);
      if (e->stateId == statechart::kNoState)
        failAt(e->loc, "spec property '%s': chart '%s' has no state '%s'",
               propName.c_str(), chart.name().c_str(), e->name.c_str());
      break;
    case PropExpr::Kind::Cond:
      if (!chart.hasCondition(e->name))
        failAt(e->loc, "spec property '%s': chart '%s' has no condition '%s'",
               propName.c_str(), chart.name().c_str(), e->name.c_str());
      break;
    case PropExpr::Kind::Event:
      if (!chart.hasEvent(e->name))
        failAt(e->loc, "spec property '%s': chart '%s' has no event '%s'",
               propName.c_str(), chart.name().c_str(), e->name.c_str());
      break;
    default:
      break;
  }
  for (PropExpr& kid : e->kids) bindExpr(&kid, chart, propName);
}

[[nodiscard]] bool needsParens(const PropExpr& parent, const PropExpr& kid) {
  // Parenthesize whenever the child is itself a binary operator of equal or
  // lower precedence; cheap and always unambiguous.
  if (kid.kind != PropExpr::Kind::And && kid.kind != PropExpr::Kind::Or &&
      kid.kind != PropExpr::Kind::Implies)
    return false;
  if (parent.kind == PropExpr::Kind::Not) return true;
  if (parent.kind == PropExpr::Kind::And) return kid.kind != PropExpr::Kind::And;
  if (parent.kind == PropExpr::Kind::Or)
    return kid.kind == PropExpr::Kind::Implies;
  return false;
}

[[nodiscard]] std::string renderKid(const PropExpr& parent, const PropExpr& kid) {
  if (!needsParens(parent, kid)) return kid.str();
  std::string out = "(";
  out += kid.str();
  out += ')';
  return out;
}

}  // namespace

std::string PropExpr::str() const {
  switch (kind) {
    case Kind::True: return "true";
    case Kind::False: return "false";
    case Kind::State: return "state " + name;
    case Kind::Cond: return "cond " + name;
    case Kind::Event: return "event " + name;
    case Kind::Not: {
      std::string out = "!";
      out += renderKid(*this, kids[0]);
      return out;
    }
    case Kind::And:
      return renderKid(*this, kids[0]) + " && " + renderKid(*this, kids[1]);
    case Kind::Or:
      return renderKid(*this, kids[0]) + " || " + renderKid(*this, kids[1]);
    case Kind::Implies:
      return renderKid(*this, kids[0]) + " -> " + renderKid(*this, kids[1]);
  }
  return "?";
}

const char* propKindName(PropKind k) {
  switch (k) {
    case PropKind::Invariant: return "invariant";
    case PropKind::Never: return "never";
    case PropKind::LeadsTo: return "leadsto";
    case PropKind::Pulse: return "pulse";
  }
  return "?";
}

std::string Property::describe() const {
  switch (kind) {
    case PropKind::Invariant:
      return strfmt("invariant %s: %s", name.c_str(), expr.str().c_str());
    case PropKind::Never:
      return strfmt("never %s: %s", name.c_str(), expr.str().c_str());
    case PropKind::LeadsTo:
      return strfmt("leadsto %s: %s => %s within %d", name.c_str(),
                    expr.str().c_str(), goal.str().c_str(), within);
    case PropKind::Pulse:
      return strfmt("pulse %s: port %s max %d within %d", name.c_str(),
                    port.c_str(), maxPulses, within);
  }
  return name;
}

SpecFile parseSpec(const std::string& text, const std::string& file) {
  return Parser(text, file).parse(file);
}

void bindSpec(SpecFile* spec, const statechart::Chart& chart) {
  const SourceLoc top{spec->file, 1, 1};
  if (!spec->chartName.empty() && spec->chartName != chart.name())
    failAt(top, "spec is for chart '%s' but got chart '%s'",
           spec->chartName.c_str(), chart.name().c_str());
  for (const std::string& ev : spec->envEvents) {
    if (!chart.hasEvent(ev))
      failAt(top, "spec env event '%s' is not an event of chart '%s'",
             ev.c_str(), chart.name().c_str());
  }
  if (spec->boundStates && *spec->boundStates < 1)
    failAt(top, "bound states must be >= 1");
  if (spec->boundDepth && *spec->boundDepth < 1)
    failAt(top, "bound depth must be >= 1");
  for (Property& prop : spec->properties) {
    bindExpr(&prop.expr, chart, prop.name);
    bindExpr(&prop.goal, chart, prop.name);
    if (prop.kind == PropKind::LeadsTo && prop.within < 1)
      failAt(prop.loc, "leadsto '%s': within must be >= 1 (got %d)",
             prop.name.c_str(), prop.within);
    if (prop.kind == PropKind::Pulse) {
      // The pulse monitor is a 64-bit shift register over the window.
      if (prop.within < 1 || prop.within > 63)
        failAt(prop.loc, "pulse '%s': window must be in [1, 63] (got %d)",
               prop.name.c_str(), prop.within);
      if (prop.maxPulses < 0)
        failAt(prop.loc, "pulse '%s': max must be >= 0", prop.name.c_str());
      if (chart.ports().count(prop.port) == 0)
        failAt(prop.loc, "pulse '%s': chart '%s' has no port '%s'",
               prop.name.c_str(), chart.name().c_str(), prop.port.c_str());
    }
  }
}

}  // namespace pscp::analysis::check
