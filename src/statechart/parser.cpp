#include "statechart/parser.hpp"

#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "statechart/label_parser.hpp"
#include "support/text.hpp"

namespace pscp::statechart {
namespace {

enum class Tok { Ident, Number, String, LBrace, RBrace, Semi, Comma, End };

struct Token {
  Tok kind = Tok::End;
  std::string text;
  SourceLoc loc;
};

class Lexer {
 public:
  Lexer(std::string_view src, std::string file) : src_(src), file_(std::move(file)) { advance(); }

  [[nodiscard]] const Token& peek() const { return cur_; }

  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

  [[noreturn]] void error(const SourceLoc& loc, const std::string& msg) const {
    failAt(loc, "%s", msg.c_str());
  }

 private:
  [[nodiscard]] SourceLoc here() const { return {file_, line_, col_}; }

  char at(size_t i) const { return i < src_.size() ? src_[i] : '\0'; }

  void bump() {
    if (at(pos_) == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void advance() {
    // Skip whitespace and // comments.
    for (;;) {
      while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_])) != 0)
        bump();
      if (at(pos_) == '/' && at(pos_ + 1) == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') bump();
        continue;
      }
      break;
    }
    const SourceLoc loc = here();
    if (pos_ >= src_.size()) {
      cur_ = {Tok::End, "", loc};
      return;
    }
    const char c = src_[pos_];
    auto single = [&](Tok k) {
      cur_ = {k, std::string(1, c), loc};
      bump();
    };
    switch (c) {
      case '{': single(Tok::LBrace); return;
      case '}': single(Tok::RBrace); return;
      case ';': single(Tok::Semi); return;
      case ',': single(Tok::Comma); return;
      case '"': {
        bump();
        std::string text;
        while (pos_ < src_.size() && src_[pos_] != '"') {
          if (src_[pos_] == '\n') error(loc, "unterminated string literal");
          text += src_[pos_];
          bump();
        }
        if (pos_ >= src_.size()) error(loc, "unterminated string literal");
        bump();  // closing quote
        cur_ = {Tok::String, std::move(text), loc};
        return;
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::string text;
      // Accept decimal, 0x hex, and 0 octal (the paper writes 0700-style
      // octal port addresses).
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) != 0)) {
        text += src_[pos_];
        bump();
      }
      cur_ = {Tok::Number, std::move(text), loc};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::string text;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) != 0 || src_[pos_] == '_')) {
        text += src_[pos_];
        bump();
      }
      cur_ = {Tok::Ident, std::move(text), loc};
      return;
    }
    error(loc, strfmt("unexpected character '%c'", c));
  }

  std::string_view src_;
  std::string file_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token cur_;
};

struct ParsedTransition {
  std::string target;
  std::string label;
  std::optional<int64_t> bound;
  std::string exclusionGroup;
  SourceLoc loc;       ///< the 'transition' keyword
  SourceLoc labelLoc;  ///< the label string literal (label errors point here)
};

struct ParsedState {
  std::string name;
  StateKind kind = StateKind::Basic;
  std::vector<std::string> contains;      // explicit contains-list + nested decls
  std::string defaultChild;
  std::vector<ParsedTransition> transitions;
  SourceLoc loc;
};

class ChartParser {
 public:
  ChartParser(std::string_view src, std::string file)
      : lex_(src, file), file_(std::move(file)) {}

  Chart parse() {
    while (lex_.peek().kind != Tok::End) parseItem();
    return build();
  }

 private:
  // ---------------------------------------------------------------- lexing
  Token expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind)
      lex_.error(lex_.peek().loc,
                 strfmt("expected %s, found '%s'", what, lex_.peek().text.c_str()));
    return lex_.take();
  }

  Token expectIdent() { return expect(Tok::Ident, "identifier"); }

  int64_t expectInt() {
    const Token t = expect(Tok::Number, "integer");
    return parseInt(t);
  }

  /// A literal that must fit a non-negative int (bit positions, widths
  /// and port addresses index host arrays).
  int expectIntAttribute(const char* what) {
    const Token t = expect(Tok::Number, "integer");
    const int64_t v = parseInt(t);
    if (v > std::numeric_limits<int>::max())
      lex_.error(t.loc, strfmt("%s '%s' is out of range (at most %d)", what,
                               t.text.c_str(), std::numeric_limits<int>::max()));
    return static_cast<int>(v);
  }

  int64_t parseInt(const Token& t) {
    try {
      size_t used = 0;
      // Base 0 handles 0x.., 0.. (octal, matching the paper's 0700-style
      // addresses), and decimal.
      const int64_t v = std::stoll(t.text, &used, 0);
      if (used != t.text.size()) throw std::invalid_argument(t.text);
      return v;
    } catch (const std::exception&) {
      lex_.error(t.loc, strfmt("malformed integer '%s'", t.text.c_str()));
    }
  }

  bool peekKeyword(const char* kw) {
    return lex_.peek().kind == Tok::Ident && lex_.peek().text == kw;
  }

  // --------------------------------------------------------------- parsing
  void parseItem() {
    const Token& t = lex_.peek();
    if (t.kind != Tok::Ident)
      lex_.error(t.loc, strfmt("expected declaration, found '%s'", t.text.c_str()));
    if (t.text == "basicstate" || t.text == "orstate" || t.text == "andstate") {
      parseState(/*parent=*/nullptr);
    } else if (t.text == "event") {
      parseEvent();
    } else if (t.text == "condition") {
      parseCondition();
    } else if (t.text == "port") {
      parsePort();
    } else if (t.text == "chart") {
      lex_.take();
      chartName_ = expectIdent().text;
      expect(Tok::Semi, "';'");
    } else {
      lex_.error(t.loc, strfmt("unknown declaration '%s'", t.text.c_str()));
    }
  }

  static StateKind kindFromKeyword(const std::string& kw) {
    if (kw == "basicstate") return StateKind::Basic;
    if (kw == "orstate") return StateKind::Or;
    return StateKind::And;
  }

  void parseState(ParsedState* parent) {
    const NestingGuard guard(depth_, lex_.peek().loc, "state");
    const Token kw = lex_.take();
    ParsedState st;
    st.kind = kindFromKeyword(kw.text);
    st.loc = kw.loc;
    st.name = expectIdent().text;
    if (parent != nullptr) parent->contains.push_back(st.name);
    expect(Tok::LBrace, "'{'");
    while (lex_.peek().kind != Tok::RBrace) {
      const Token& t = lex_.peek();
      if (t.kind != Tok::Ident)
        lex_.error(t.loc, strfmt("expected state item, found '%s'", t.text.c_str()));
      if (t.text == "contains") {
        lex_.take();
        st.contains.push_back(expectIdent().text);
        while (lex_.peek().kind == Tok::Comma) {
          lex_.take();
          st.contains.push_back(expectIdent().text);
        }
        expect(Tok::Semi, "';'");
      } else if (t.text == "default") {
        lex_.take();
        st.defaultChild = expectIdent().text;
        expect(Tok::Semi, "';'");
      } else if (t.text == "transition") {
        st.transitions.push_back(parseTransition());
      } else if (t.text == "basicstate" || t.text == "orstate" || t.text == "andstate") {
        parseState(&st);
      } else {
        lex_.error(t.loc, strfmt("unknown state item '%s'", t.text.c_str()));
      }
    }
    expect(Tok::RBrace, "'}'");
    if (parsed_.count(st.name) != 0)
      lex_.error(st.loc, strfmt("state '%s' declared twice", st.name.c_str()));
    order_.push_back(st.name);
    parsed_.emplace(st.name, std::move(st));
  }

  ParsedTransition parseTransition() {
    const Token kw = lex_.take();  // 'transition'
    ParsedTransition tr;
    tr.loc = kw.loc;
    expect(Tok::LBrace, "'{'");
    while (lex_.peek().kind != Tok::RBrace) {
      const Token t = expectIdent();
      if (t.text == "target") {
        tr.target = expectIdent().text;
      } else if (t.text == "label") {
        const Token str = expect(Tok::String, "label string");
        tr.label = str.text;
        tr.labelLoc = str.loc;
      } else if (t.text == "bound") {
        tr.bound = expectInt();
      } else if (t.text == "exclusion") {
        tr.exclusionGroup = expectIdent().text;
      } else {
        lex_.error(t.loc, strfmt("unknown transition item '%s'", t.text.c_str()));
      }
      expect(Tok::Semi, "';'");
    }
    expect(Tok::RBrace, "'}'");
    if (tr.target.empty()) lex_.error(tr.loc, "transition has no target");
    return tr;
  }

  void parseEvent() {
    const Token kw = lex_.take();
    EventDecl e;
    e.loc = kw.loc;
    e.name = expectIdent().text;
    while (lex_.peek().kind != Tok::Semi) {
      const Token t = expectIdent();
      if (t.text == "period") {
        e.period = expectInt();
      } else if (t.text == "port") {
        e.port = expectIdent().text;
        e.external = true;
      } else if (t.text == "bit") {
        e.positionInPort = expectIntAttribute("event bit");
      } else if (t.text == "width") {
        e.width = expectIntAttribute("event width");
      } else if (t.text == "external") {
        e.external = true;
      } else {
        lex_.error(t.loc, strfmt("unknown event attribute '%s'", t.text.c_str()));
      }
    }
    expect(Tok::Semi, "';'");
    events_.push_back(std::move(e));
  }

  void parseCondition() {
    const Token kw = lex_.take();
    ConditionDecl c;
    c.loc = kw.loc;
    c.name = expectIdent().text;
    while (lex_.peek().kind != Tok::Semi) {
      const Token t = expectIdent();
      if (t.text == "port") {
        c.port = expectIdent().text;
        c.external = true;
      } else if (t.text == "bit") {
        c.positionInPort = expectIntAttribute("condition bit");
      } else if (t.text == "external") {
        c.external = true;
      } else {
        lex_.error(t.loc, strfmt("unknown condition attribute '%s'", t.text.c_str()));
      }
    }
    expect(Tok::Semi, "';'");
    conditions_.push_back(std::move(c));
  }

  void parsePort() {
    const Token kw = lex_.take();
    Port p;
    p.loc = kw.loc;
    p.name = expectIdent().text;
    const Token kindTok = expectIdent();
    if (kindTok.text == "event") p.kind = PortKind::Event;
    else if (kindTok.text == "condition") p.kind = PortKind::Condition;
    else if (kindTok.text == "data") p.kind = PortKind::Data;
    else lex_.error(kindTok.loc, strfmt("unknown port kind '%s'", kindTok.text.c_str()));
    const Token dirTok = expectIdent();
    if (dirTok.text == "in") p.dir = PortDir::Input;
    else if (dirTok.text == "out") p.dir = PortDir::Output;
    else if (dirTok.text == "bidir") p.dir = PortDir::Bidirectional;
    else lex_.error(dirTok.loc, strfmt("unknown port direction '%s'", dirTok.text.c_str()));
    while (lex_.peek().kind != Tok::Semi) {
      const Token t = expectIdent();
      if (t.text == "width") p.width = expectIntAttribute("port width");
      else if (t.text == "address") p.address = expectIntAttribute("port address");
      else lex_.error(t.loc, strfmt("unknown port attribute '%s'", t.text.c_str()));
    }
    expect(Tok::Semi, "';'");
    ports_.push_back(std::move(p));
  }

  // -------------------------------------------------------------- building
  Chart build() {
    // Resolve containment: each state may be claimed by at most one parent.
    std::map<std::string, std::string> parentOf;
    for (const std::string& name : order_) {
      const ParsedState& st = parsed_.at(name);
      for (const std::string& child : st.contains) {
        if (parsed_.count(child) == 0)
          failAt(st.loc, "state '%s' contains undeclared state '%s'", name.c_str(),
                 child.c_str());
        auto [it, inserted] = parentOf.emplace(child, name);
        if (!inserted && it->second != name)
          failAt(st.loc, "state '%s' contained by both '%s' and '%s'", child.c_str(),
                 it->second.c_str(), name.c_str());
      }
    }

    Chart chart(chartName_.empty() ? "chart" : chartName_);
    for (const Port& p : ports_) chart.declarePort(p);
    for (const EventDecl& e : events_) chart.declareEvent(e);
    for (const ConditionDecl& c : conditions_) chart.declareCondition(c);

    // Create states parents-first via DFS from the top-level (unparented)
    // states, in declaration order. `contains` lists nest states without
    // nesting their declarations, so the hierarchy's depth is checked here.
    std::map<std::string, StateId> ids;
    std::vector<std::string> pending;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it)
      if (parentOf.count(*it) == 0) pending.push_back(*it);
    std::map<std::string, bool> created;
    while (!pending.empty()) {
      const std::string name = pending.back();
      pending.pop_back();
      if (created[name])
        failAt(parsed_.at(name).loc, "containment cycle involving state '%s'", name.c_str());
      created[name] = true;
      const ParsedState& st = parsed_.at(name);
      const StateId parent =
          parentOf.count(name) != 0 ? ids.at(parentOf.at(name)) : chart.root();
      checkNesting(chart.depth(parent) + 1, st.loc, "state");
      ids[name] = chart.addState(name, st.kind, parent);
      chart.state(ids[name]).loc = st.loc;
      for (auto it = st.contains.rbegin(); it != st.contains.rend(); ++it)
        pending.push_back(*it);
    }
    for (const std::string& name : order_)
      if (!created[name])
        failAt(parsed_.at(name).loc, "containment cycle involving state '%s'", name.c_str());

    // Defaults and transitions.
    for (const std::string& name : order_) {
      const ParsedState& st = parsed_.at(name);
      if (!st.defaultChild.empty()) {
        if (ids.count(st.defaultChild) == 0)
          failAt(st.loc, "default '%s' of state '%s' is not declared",
                 st.defaultChild.c_str(), name.c_str());
        chart.setDefaultChild(ids.at(name), ids.at(st.defaultChild));
      }
      for (const ParsedTransition& tr : st.transitions) {
        if (ids.count(tr.target) == 0)
          failAt(tr.loc, "transition target '%s' is not declared", tr.target.c_str());
        // Label parse errors point at the label string itself, not the
        // 'transition' keyword (the label may sit on a later line).
        Label label = parseLabel(tr.label, tr.labelLoc.known() ? tr.labelLoc : tr.loc);
        const TransitionId tid =
            chart.addTransition(ids.at(name), ids.at(tr.target), std::move(label));
        chart.transition(tid).explicitBound = tr.bound;
        chart.transition(tid).exclusionGroup = tr.exclusionGroup;
        chart.transition(tid).loc = tr.loc;
      }
    }

    chart.declareImplicit();
    chart.validate();
    return chart;
  }

  Lexer lex_;
  int depth_ = 0;  // state declarations open
  std::string file_;
  std::string chartName_;
  std::map<std::string, ParsedState> parsed_;
  std::vector<std::string> order_;
  std::vector<EventDecl> events_;
  std::vector<ConditionDecl> conditions_;
  std::vector<Port> ports_;
};

}  // namespace

Chart parseChart(std::string_view text, const std::string& fileName) {
  ChartParser parser(text, fileName);
  return parser.parse();
}

}  // namespace pscp::statechart
