#include "actionlang/parser.hpp"

#include <algorithm>
#include <map>

#include "actionlang/lexer.hpp"

namespace pscp::actionlang {
namespace {

class Parser {
 public:
  Parser(std::string_view src, const std::string& file)
      : toks_(lexActionSource(src, file)) {}

  Program parse() {
    while (peek().kind != TokKind::End) parseTopDecl();
    return std::move(program_);
  }

 private:
  // ------------------------------------------------------------- plumbing
  [[nodiscard]] const Token& peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }

  Token take() {
    Token t = peek();
    if (pos_ < toks_.size() - 1) ++pos_;
    return t;
  }

  Token expect(TokKind k) {
    if (peek().kind != k)
      failAt(peek().loc, "expected %s, found '%s'", tokKindName(k), peek().text.c_str());
    return take();
  }

  bool accept(TokKind k) {
    if (peek().kind != k) return false;
    take();
    return true;
  }

  // ----------------------------------------------------------------- types
  [[nodiscard]] bool peekIsType() const {
    switch (peek().kind) {
      case TokKind::KwInt:
      case TokKind::KwUint:
      case TokKind::KwVoid:
      case TokKind::KwEvent:
      case TokKind::KwCond:
        return true;
      case TokKind::Ident:
        return program_.structs.count(peek().text) != 0;
      default:
        return false;
    }
  }

  TypePtr parseType() {
    const Token t = take();
    switch (t.kind) {
      case TokKind::KwVoid:
        return Type::voidType();
      case TokKind::KwEvent:
        return Type::eventType();
      case TokKind::KwCond:
        return Type::condType();
      case TokKind::KwInt:
      case TokKind::KwUint: {
        int width = kDefaultIntWidth;
        if (accept(TokKind::Colon)) {
          const Token w = expect(TokKind::Number);
          width = static_cast<int>(w.value);
          if (width < 1 || width > kMaxWidth)
            failAt(w.loc, "integer width %d out of range [1, %d]", width, kMaxWidth);
        }
        return Type::intType(width, t.kind == TokKind::KwInt);
      }
      case TokKind::Ident: {
        auto it = program_.structs.find(t.text);
        if (it == program_.structs.end())
          failAt(t.loc, "unknown type '%s'", t.text.c_str());
        return it->second;
      }
      default:
        failAt(t.loc, "expected a type, found '%s'", t.text.c_str());
    }
  }

  /// Optional `[N]` array suffix on a declarator.
  TypePtr parseArraySuffix(TypePtr base) {
    for (int dims = 1; peek().kind == TokKind::LBracket; ++dims) {
      checkNesting(dims, peek().loc, "array type");
      take();
      const Token n = expect(TokKind::Number);
      expect(TokKind::RBracket);
      base = Type::arrayType(std::move(base), static_cast<int>(n.value));
    }
    return base;
  }

  // ------------------------------------------------------------- top level
  void parseTopDecl() {
    if (peek().kind == TokKind::KwTypedef || peek().kind == TokKind::KwStruct) {
      parseStructDef();
      return;
    }
    if (peek().kind == TokKind::KwEnum) {
      parseEnumDef();
      return;
    }
    if (!peekIsType())
      failAt(peek().loc, "expected declaration, found '%s'", peek().text.c_str());
    TypePtr type = parseType();
    const Token name = expect(TokKind::Ident);
    if (peek().kind == TokKind::LParen) {
      parseFunction(std::move(type), name);
    } else {
      parseGlobalVar(std::move(type), name);
    }
  }

  void parseStructDef() {
    const SourceLoc startLoc = peek().loc;
    const bool isTypedef = accept(TokKind::KwTypedef);
    expect(TokKind::KwStruct);
    std::string tag;
    if (peek().kind == TokKind::Ident) tag = take().text;
    std::vector<std::pair<std::string, TypePtr>> fields;
    expect(TokKind::LBrace);
    while (peek().kind != TokKind::RBrace) {
      TypePtr ftype = parseType();
      const Token fname = expect(TokKind::Ident);
      ftype = parseArraySuffix(std::move(ftype));
      expect(TokKind::Semi);
      fields.emplace_back(fname.text, std::move(ftype));
    }
    expect(TokKind::RBrace);
    std::string name = tag;
    if (isTypedef) {
      name = expect(TokKind::Ident).text;
    }
    expect(TokKind::Semi);
    if (name.empty()) failAt(startLoc, "anonymous struct without typedef name");
    if (program_.structs.count(name) != 0)
      failAt(startLoc, "struct '%s' defined twice", name.c_str());
    program_.structs[name] = Type::structType(name, std::move(fields));
  }

  void parseEnumDef() {
    expect(TokKind::KwEnum);
    EnumDef def;
    def.name = expect(TokKind::Ident).text;
    expect(TokKind::LBrace);
    int64_t next = 0;
    for (;;) {
      const Token name = expect(TokKind::Ident);
      int64_t value = next;
      if (accept(TokKind::Assign)) value = expect(TokKind::Number).value;
      if (program_.enumConstants.count(name.text) != 0)
        failAt(name.loc, "enum constant '%s' defined twice", name.text.c_str());
      def.values.emplace_back(name.text, value);
      program_.enumConstants[name.text] = value;
      next = value + 1;
      if (!accept(TokKind::Comma)) break;
      if (peek().kind == TokKind::RBrace) break;  // trailing comma
    }
    expect(TokKind::RBrace);
    expect(TokKind::Semi);
    program_.enums.push_back(std::move(def));
  }

  void parseGlobalVar(TypePtr type, const Token& name) {
    GlobalVar g;
    g.name = name.text;
    g.loc = name.loc;
    g.type = parseArraySuffix(std::move(type));
    if (accept(TokKind::Assign)) parseInitializer(g.init);
    expect(TokKind::Semi);
    program_.globals.push_back(std::move(g));
  }

  void parseInitializer(std::vector<int64_t>& out) {
    const NestingGuard guard(exprDepth_, peek().loc, "initializer");
    if (accept(TokKind::LBrace)) {
      for (;;) {
        parseInitializer(out);
        if (!accept(TokKind::Comma)) break;
        if (peek().kind == TokKind::RBrace) break;
      }
      expect(TokKind::RBrace);
      return;
    }
    // Scalar initializers must be constants (numbers, negated numbers, or
    // enum constants resolved at check time — we accept identifiers here and
    // resolve during checking; simplest is to require numbers or enums now).
    bool negate = false;
    while (accept(TokKind::Minus)) negate = !negate;
    const Token t = take();
    int64_t v = 0;
    if (t.kind == TokKind::Number) {
      v = t.value;
    } else if (t.kind == TokKind::Ident) {
      auto it = program_.enumConstants.find(t.text);
      if (it == program_.enumConstants.end())
        failAt(t.loc, "initializer '%s' is not a constant", t.text.c_str());
      v = it->second;
    } else {
      failAt(t.loc, "expected constant initializer");
    }
    out.push_back(negate ? -v : v);
  }

  void parseFunction(TypePtr returnType, const Token& name) {
    Function f;
    f.name = name.text;
    f.loc = name.loc;
    f.returnType = std::move(returnType);
    expect(TokKind::LParen);
    if (peek().kind != TokKind::RParen) {
      for (;;) {
        Param p;
        p.type = parseType();
        p.name = expect(TokKind::Ident).text;
        p.type = parseArraySuffix(std::move(p.type));
        f.params.push_back(std::move(p));
        if (!accept(TokKind::Comma)) break;
      }
    }
    expect(TokKind::RParen);
    f.body = parseBlockBody();
    if (program_.findFunction(f.name) != nullptr)
      failAt(name.loc, "function '%s' defined twice", name.text.c_str());
    program_.functions.push_back(std::move(f));
  }

  // ------------------------------------------------------------ statements
  std::vector<StmtPtr> parseBlockBody() {
    expect(TokKind::LBrace);
    std::vector<StmtPtr> body;
    while (peek().kind != TokKind::RBrace) body.push_back(parseStmt());
    expect(TokKind::RBrace);
    return body;
  }

  StmtPtr parseStmt() {
    const SourceLoc loc = peek().loc;
    const NestingGuard guard(stmtDepth_, loc, "statement");
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = loc;
    switch (peek().kind) {
      case TokKind::LBrace:
        stmt->kind = StmtKind::Block;
        stmt->body = parseBlockBody();
        return stmt;
      case TokKind::KwIf: {
        take();
        stmt->kind = StmtKind::If;
        expect(TokKind::LParen);
        stmt->expr = parseExpr();
        expect(TokKind::RParen);
        stmt->body.push_back(parseStmt());
        if (accept(TokKind::KwElse)) stmt->elseBody.push_back(parseStmt());
        return stmt;
      }
      case TokKind::KwWhile: {
        take();
        stmt->kind = StmtKind::While;
        expect(TokKind::LParen);
        stmt->expr = parseExpr();
        expect(TokKind::RParen);
        expect(TokKind::KwBound);
        const Token b = expect(TokKind::Number);
        if (b.value < 1) failAt(b.loc, "loop bound must be >= 1");
        stmt->loopBound = b.value;
        stmt->body.push_back(parseStmt());
        return stmt;
      }
      case TokKind::KwReturn: {
        take();
        stmt->kind = StmtKind::Return;
        if (peek().kind != TokKind::Semi) stmt->expr = parseExpr();
        expect(TokKind::Semi);
        return stmt;
      }
      default:
        break;
    }
    if (peekIsType()) {
      stmt->kind = StmtKind::VarDecl;
      stmt->varType = parseType();
      stmt->varName = expect(TokKind::Ident).text;
      stmt->varType = parseArraySuffix(std::move(stmt->varType));
      if (accept(TokKind::Assign)) stmt->expr = parseExpr();
      expect(TokKind::Semi);
      return stmt;
    }
    // Assignment or expression (call) statement.
    ExprPtr e = parseExpr();
    if (accept(TokKind::Assign)) {
      stmt->kind = StmtKind::Assign;
      stmt->lhs = std::move(e);
      stmt->expr = parseExpr();
    } else {
      if (e->kind != ExprKind::Call)
        failAt(loc, "expression statement must be a call");
      stmt->kind = StmtKind::ExprStmt;
      stmt->expr = std::move(e);
    }
    expect(TokKind::Semi);
    return stmt;
  }

  // ----------------------------------------------------------- expressions
  /// A parsed subexpression and its nesting depth (see kMaxNesting): 1 for
  /// an atom, one more per operator or parenthesized group above it. The
  /// operator and postfix loops build left-deep chains without recursing,
  /// so depths are carried up from the children; parseUnary's guard bounds
  /// the recursion itself.
  struct Sub {
    ExprPtr expr;
    int depth = 1;
  };

  /// `e` one level above its deepest child, `childDepth` deep.
  static Sub nest(ExprPtr e, int childDepth) {
    checkNesting(childDepth + 1, e->loc, "expression");
    return {std::move(e), childDepth + 1};
  }

  ExprPtr parseExpr() { return parseBinary(0).expr; }

  /// Precedence-climbing over binary operators (C precedence order).
  static int precedenceOf(TokKind k) {
    switch (k) {
      case TokKind::OrOr: return 1;
      case TokKind::AndAnd: return 2;
      case TokKind::Pipe: return 3;
      case TokKind::Caret: return 4;
      case TokKind::Amp: return 5;
      case TokKind::Eq:
      case TokKind::Ne: return 6;
      case TokKind::Lt:
      case TokKind::Le:
      case TokKind::Gt:
      case TokKind::Ge: return 7;
      case TokKind::Shl:
      case TokKind::Shr: return 8;
      case TokKind::Plus:
      case TokKind::Minus: return 9;
      case TokKind::Star:
      case TokKind::Slash:
      case TokKind::Percent: return 10;
      default: return 0;
    }
  }

  static BinOp binOpFor(TokKind k) {
    switch (k) {
      case TokKind::OrOr: return BinOp::LogOr;
      case TokKind::AndAnd: return BinOp::LogAnd;
      case TokKind::Pipe: return BinOp::Or;
      case TokKind::Caret: return BinOp::Xor;
      case TokKind::Amp: return BinOp::And;
      case TokKind::Eq: return BinOp::Eq;
      case TokKind::Ne: return BinOp::Ne;
      case TokKind::Lt: return BinOp::Lt;
      case TokKind::Le: return BinOp::Le;
      case TokKind::Gt: return BinOp::Gt;
      case TokKind::Ge: return BinOp::Ge;
      case TokKind::Shl: return BinOp::Shl;
      case TokKind::Shr: return BinOp::Shr;
      case TokKind::Plus: return BinOp::Add;
      case TokKind::Minus: return BinOp::Sub;
      case TokKind::Star: return BinOp::Mul;
      case TokKind::Slash: return BinOp::Div;
      case TokKind::Percent: return BinOp::Mod;
      default: PSCP_ASSERT(false);
    }
  }

  Sub parseBinary(int minPrec) {
    Sub lhs = parseUnary();
    for (;;) {
      const int prec = precedenceOf(peek().kind);
      if (prec == 0 || prec < minPrec) return lhs;
      const Token op = take();
      Sub rhs = parseBinary(prec + 1);
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Binary;
      e->binOp = binOpFor(op.kind);
      e->loc = op.loc;
      e->children.push_back(std::move(lhs.expr));
      e->children.push_back(std::move(rhs.expr));
      lhs = nest(std::move(e), std::max(lhs.depth, rhs.depth));
    }
  }

  Sub parseUnary() {
    const NestingGuard guard(exprDepth_, peek().loc, "expression");
    const Token& t = peek();
    UnOp op;
    switch (t.kind) {
      case TokKind::Minus: op = UnOp::Neg; break;
      case TokKind::Tilde: op = UnOp::BitNot; break;
      case TokKind::Bang: op = UnOp::LogNot; break;
      default:
        return parsePostfix();
    }
    const Token opTok = take();
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Unary;
    e->unOp = op;
    e->loc = opTok.loc;
    Sub operand = parseUnary();
    e->children.push_back(std::move(operand.expr));
    return nest(std::move(e), operand.depth);
  }

  Sub parsePostfix() {
    Sub e = parsePrimary();
    for (;;) {
      if (accept(TokKind::Dot)) {
        const Token f = expect(TokKind::Ident);
        auto m = std::make_unique<Expr>();
        m->kind = ExprKind::Member;
        m->name = f.text;
        m->loc = f.loc;
        m->children.push_back(std::move(e.expr));
        e = nest(std::move(m), e.depth);
      } else if (peek().kind == TokKind::LBracket) {
        const Token br = take();
        auto ix = std::make_unique<Expr>();
        ix->kind = ExprKind::Index;
        ix->loc = br.loc;
        ix->children.push_back(std::move(e.expr));
        Sub index = parseBinary(0);
        ix->children.push_back(std::move(index.expr));
        expect(TokKind::RBracket);
        e = nest(std::move(ix), std::max(e.depth, index.depth));
      } else {
        return e;
      }
    }
  }

  Sub parsePrimary() {
    const Token t = take();
    switch (t.kind) {
      case TokKind::Number:
        return {makeIntLit(t.value, t.loc)};
      case TokKind::LParen: {
        Sub e = parseBinary(0);
        expect(TokKind::RParen);
        checkNesting(e.depth + 1, t.loc, "expression");
        ++e.depth;
        return e;
      }
      case TokKind::Ident: {
        if (peek().kind == TokKind::LParen) {
          take();
          auto call = std::make_unique<Expr>();
          call->kind = ExprKind::Call;
          call->name = t.text;
          call->loc = t.loc;
          int depth = 0;
          if (peek().kind != TokKind::RParen) {
            for (;;) {
              Sub arg = parseBinary(0);
              depth = std::max(depth, arg.depth);
              call->children.push_back(std::move(arg.expr));
              if (!accept(TokKind::Comma)) break;
            }
          }
          expect(TokKind::RParen);
          return nest(std::move(call), depth);
        }
        return {makeVarRef(t.text, t.loc)};
      }
      default:
        failAt(t.loc, "expected expression, found '%s'", t.text.c_str());
    }
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  Program program_;
  int stmtDepth_ = 0;  // statements open around the current one
  int exprDepth_ = 0;  // parseUnary (and initializer) calls open
};

}  // namespace

Program parseProgramText(std::string_view src, const std::string& file) {
  Parser parser(src, file);
  return parser.parse();
}

Program parseActionSource(std::string_view src, const std::string& file) {
  Program p = parseProgramText(src, file);
  checkProgram(p);
  return p;
}

}  // namespace pscp::actionlang
