// Semantic checking for the action language: name binding, width-aware
// typing, constant folding, intrinsic signatures, and the no-recursion rule
// of Sec. 2 ("functions can call other functions, but recursion is not
// permitted").
#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "actionlang/parser.hpp"

namespace pscp::actionlang {
namespace {

/// Wrap a folded constant to its node's width/signedness so that every
/// stored constant is in canonical (runtime) representation — folding with
/// plain 64-bit math would otherwise diverge from execution semantics.
int64_t wrapConstant(int64_t v, const TypePtr& t) {
  const uint32_t raw = truncBits(static_cast<uint32_t>(v), t->width());
  return t->isSigned() ? signExtend(raw, t->width()) : static_cast<int64_t>(raw);
}

/// The smallest signed width (1..32) that holds `v`: the type of a literal,
/// and of an operator over constants alone.
int constantWidth(int64_t v) {
  int width = 1;
  while (width < 32 && (v < -(1ll << (width - 1)) || v >= (1ll << (width - 1)))) ++width;
  return width;
}

/// Width/signedness promotion for binary arithmetic: widest operand wins,
/// signed wins (the ASIP datapath is sized to the widest live value).
TypePtr promote(const TypePtr& a, const TypePtr& b) {
  const int width = std::max(a->width(), b->width());
  const bool isSigned = a->isSigned() || b->isSigned();
  return Type::intType(width, isSigned);
}

class Checker {
 public:
  explicit Checker(Program& p) : program_(p) {}

  void run() {
    for (GlobalVar& g : program_.globals) checkGlobal(g);
    for (Function& f : program_.functions) checkFunction(f);
    checkCallGraph();
  }

 private:
  // ---------------------------------------------------------------- scopes
  struct Scope {
    std::map<std::string, TypePtr> vars;
  };

  TypePtr lookupVar(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->vars.find(name);
      if (found != it->vars.end()) return found->second;
    }
    if (const GlobalVar* g = program_.findGlobal(name)) return g->type;
    return nullptr;
  }

  void declareVar(const std::string& name, TypePtr type, const SourceLoc& loc) {
    if (scopes_.back().vars.count(name) != 0)
      failAt(loc, "variable '%s' redeclared in the same scope", name.c_str());
    scopes_.back().vars[name] = std::move(type);
  }

  // --------------------------------------------------------------- globals
  void checkGlobal(GlobalVar& g) {
    if (g.type->kind() == TypeKind::Void || g.type->kind() == TypeKind::Event ||
        g.type->kind() == TypeKind::Cond)
      failAt(g.loc, "global '%s' has non-storable type %s", g.name.c_str(),
             g.type->str().c_str());
    const int scalarCount = countScalars(g.type);
    if (!g.init.empty() && static_cast<int>(g.init.size()) != scalarCount)
      failAt(g.loc, "initializer of '%s' has %zu values, type %s needs %d",
             g.name.c_str(), g.init.size(), g.type->str().c_str(), scalarCount);
  }

  static int countScalars(const TypePtr& t) {
    switch (t->kind()) {
      case TypeKind::Int:
        return 1;
      case TypeKind::Struct: {
        int n = 0;
        for (const auto& [fname, ftype] : t->fields()) n += countScalars(ftype);
        return n;
      }
      case TypeKind::Array:
        return t->arrayCount() * countScalars(t->element());
      default:
        return 0;
    }
  }

  // ------------------------------------------------------------- functions
  void checkFunction(Function& f) {
    current_ = &f;
    scopes_.clear();
    scopes_.emplace_back();
    for (const Param& p : f.params) {
      if (p.type->kind() == TypeKind::Void)
        failAt(f.loc, "parameter '%s' of '%s' has void type", p.name.c_str(),
               f.name.c_str());
      declareVar(p.name, p.type, f.loc);
    }
    for (StmtPtr& s : f.body) checkStmt(*s);
    scopes_.pop_back();
    current_ = nullptr;
  }

  void checkStmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::Block: {
        scopes_.emplace_back();
        for (StmtPtr& inner : s.body) checkStmt(*inner);
        scopes_.pop_back();
        return;
      }
      case StmtKind::VarDecl: {
        if (!s.varType->isScalar() && s.varType->kind() != TypeKind::Array &&
            s.varType->kind() != TypeKind::Struct)
          failAt(s.loc, "local '%s' has non-storable type %s", s.varName.c_str(),
                 s.varType->str().c_str());
        if (s.expr) {
          checkExpr(*s.expr);
          requireScalar(*s.expr, "initializer");
          if (!s.varType->isScalar())
            failAt(s.loc, "only scalar locals may have initializers");
        }
        declareVar(s.varName, s.varType, s.loc);
        return;
      }
      case StmtKind::Assign: {
        checkExpr(*s.lhs);
        requireLvalue(*s.lhs);
        requireScalar(*s.lhs, "assignment target");
        checkExpr(*s.expr);
        requireScalar(*s.expr, "assigned value");
        return;
      }
      case StmtKind::If: {
        checkExpr(*s.expr);
        requireScalar(*s.expr, "if condition");
        scopes_.emplace_back();
        for (StmtPtr& inner : s.body) checkStmt(*inner);
        scopes_.pop_back();
        scopes_.emplace_back();
        for (StmtPtr& inner : s.elseBody) checkStmt(*inner);
        scopes_.pop_back();
        return;
      }
      case StmtKind::While: {
        checkExpr(*s.expr);
        requireScalar(*s.expr, "while condition");
        PSCP_ASSERT(s.loopBound >= 1);  // parser guarantees
        scopes_.emplace_back();
        for (StmtPtr& inner : s.body) checkStmt(*inner);
        scopes_.pop_back();
        return;
      }
      case StmtKind::Return: {
        const bool wantsValue = current_->returnType->kind() != TypeKind::Void;
        if (wantsValue && !s.expr)
          failAt(s.loc, "'%s' must return a value", current_->name.c_str());
        if (!wantsValue && s.expr)
          failAt(s.loc, "'%s' returns void", current_->name.c_str());
        if (s.expr) {
          checkExpr(*s.expr);
          requireScalar(*s.expr, "return value");
        }
        return;
      }
      case StmtKind::ExprStmt:
        checkExpr(*s.expr);
        return;
    }
  }

  // ------------------------------------------------------------ expressions
  static void requireScalar(const Expr& e, const char* what) {
    if (!e.type || !e.type->isScalar())
      failAt(e.loc, "%s must be an integer expression (got %s)", what,
             e.type ? e.type->str().c_str() : "<untyped>");
  }

  static void requireLvalue(const Expr& e) {
    if (e.kind != ExprKind::VarRef && e.kind != ExprKind::Member &&
        e.kind != ExprKind::Index)
      failAt(e.loc, "assignment target is not an lvalue");
  }

  void checkExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: {
        // Literals adopt the smallest signed width that represents them;
        // promotion widens them in context.
        e.type = Type::intType(constantWidth(e.value), true);
        e.constant = e.value;
        return;
      }
      case ExprKind::VarRef: {
        auto ec = program_.enumConstants.find(e.name);
        if (ec != program_.enumConstants.end()) {
          e.constant = ec->second;
          e.type = Type::intType(constantWidth(ec->second), true);
          return;
        }
        TypePtr t = lookupVar(e.name);
        if (!t) failAt(e.loc, "use of undeclared identifier '%s'", e.name.c_str());
        e.type = std::move(t);
        return;
      }
      case ExprKind::Member: {
        checkExpr(*e.children[0]);
        const TypePtr& base = e.children[0]->type;
        if (base->kind() != TypeKind::Struct)
          failAt(e.loc, "member access on non-struct type %s", base->str().c_str());
        e.type = base->fieldType(e.name);
        return;
      }
      case ExprKind::Index: {
        checkExpr(*e.children[0]);
        checkExpr(*e.children[1]);
        const TypePtr& base = e.children[0]->type;
        if (base->kind() != TypeKind::Array)
          failAt(e.loc, "indexing non-array type %s", base->str().c_str());
        requireScalar(*e.children[1], "array index");
        if (e.children[1]->constant.has_value()) {
          const int64_t ix = *e.children[1]->constant;
          if (ix < 0 || ix >= base->arrayCount())
            failAt(e.loc, "constant index %lld out of bounds [0, %d)",
                   static_cast<long long>(ix), base->arrayCount());
        }
        e.type = base->element();
        return;
      }
      case ExprKind::Unary: {
        checkExpr(*e.children[0]);
        requireScalar(*e.children[0], "operand");
        const TypePtr& t = e.children[0]->type;
        e.type = (e.unOp == UnOp::LogNot) ? Type::intType(1, false)
                                          : Type::intType(t->width(), t->isSigned());
        if (e.children[0]->constant.has_value()) {
          const int64_t v = *e.children[0]->constant;
          if (e.unOp == UnOp::LogNot) {
            e.constant = (v == 0) ? 1 : 0;
            return;
          }
          // Widened when the exact value needs it: -(0 - 2) is 2, not -2.
          const int64_t exact = e.unOp == UnOp::Neg ? -v : ~v;
          e.type = Type::intType(std::max(t->width(), constantWidth(exact)), true);
          e.constant = wrapConstant(exact, e.type);
        }
        return;
      }
      case ExprKind::Binary: {
        checkExpr(*e.children[0]);
        checkExpr(*e.children[1]);
        requireScalar(*e.children[0], "operand");
        requireScalar(*e.children[1], "operand");
        const TypePtr& a = e.children[0]->type;
        const TypePtr& b = e.children[1]->type;
        switch (e.binOp) {
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge:
          case BinOp::LogAnd:
          case BinOp::LogOr:
            e.type = Type::intType(1, false);
            break;
          case BinOp::Shl:
          case BinOp::Shr:
            e.type = Type::intType(a->width(), a->isSigned());
            break;
          default:
            e.type = promote(a, b);
        }
        foldBinary(e);
        return;
      }
      case ExprKind::Call:
        checkCall(e);
        return;
    }
  }

  void foldBinary(Expr& e) {
    if (!e.children[0]->constant || !e.children[1]->constant) return;
    // Operand constants are already in canonical form for their own types.
    // Arithmetic over constants alone is exact: the node takes the smallest
    // signed width that holds the 64-bit result, as a literal would, so
    // `1 + 1` is 2 rather than wrapping at the operands' width before any
    // context widens it (beyond 32 bits it wraps like the datapath).
    const int64_t a = *e.children[0]->constant;
    const int64_t b = *e.children[1]->constant;
    const auto exact = [&](int64_t v) {
      e.type = Type::intType(constantWidth(v), true);
      e.constant = wrapConstant(v, e.type);
    };
    switch (e.binOp) {
      case BinOp::Add: exact(a + b); break;
      case BinOp::Sub: exact(a - b); break;
      case BinOp::Mul: exact(a * b); break;
      case BinOp::Div:
        if (b == 0) failAt(e.loc, "constant division by zero");
        exact(a / b);
        break;
      case BinOp::Mod:
        if (b == 0) failAt(e.loc, "constant modulo by zero");
        exact(a % b);
        break;
      case BinOp::And: exact(a & b); break;
      case BinOp::Or: exact(a | b); break;
      case BinOp::Xor: exact(a ^ b); break;
      case BinOp::Shl: exact(static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 31))); break;
      case BinOp::Shr: exact(a >> (b & 31)); break;
      case BinOp::Eq: e.constant = (a == b) ? 1 : 0; break;
      case BinOp::Ne: e.constant = (a != b) ? 1 : 0; break;
      case BinOp::Lt: e.constant = (a < b) ? 1 : 0; break;
      case BinOp::Le: e.constant = (a <= b) ? 1 : 0; break;
      case BinOp::Gt: e.constant = (a > b) ? 1 : 0; break;
      case BinOp::Ge: e.constant = (a >= b) ? 1 : 0; break;
      case BinOp::LogAnd: e.constant = (a != 0 && b != 0) ? 1 : 0; break;
      case BinOp::LogOr: e.constant = (a != 0 || b != 0) ? 1 : 0; break;
    }
  }

  /// Hardware-name argument: must be a bare identifier; it names an event,
  /// condition, port, or state resolved against the chart at link time.
  void requireHardwareName(Expr& arg, TypePtr asType, const char* what) {
    if (arg.kind != ExprKind::VarRef)
      failAt(arg.loc, "%s argument must be a bare name", what);
    // If a local/param of event/cond type is in scope under that name, the
    // call passes the binding through; otherwise the name is symbolic.
    TypePtr t = lookupVar(arg.name);
    if (t && (t->kind() == TypeKind::Event || t->kind() == TypeKind::Cond)) {
      if (!t->same(*asType))
        failAt(arg.loc, "%s argument has wrong binding type %s", what, t->str().c_str());
      arg.type = t;
      return;
    }
    if (t) failAt(arg.loc, "%s argument '%s' names a variable, not a hardware object",
                  what, arg.name.c_str());
    if (program_.enumConstants.count(arg.name) != 0)
      failAt(arg.loc, "%s argument '%s' names an enum constant", what, arg.name.c_str());
    arg.type = std::move(asType);
  }

  void checkCall(Expr& e) {
    if (isIntrinsicName(e.name)) {
      checkIntrinsic(e);
      return;
    }
    const Function* callee = program_.findFunction(e.name);
    if (callee == nullptr)
      failAt(e.loc, "call to undefined function '%s'", e.name.c_str());
    if (callee->params.size() != e.children.size())
      failAt(e.loc, "'%s' expects %zu arguments, got %zu", e.name.c_str(),
             callee->params.size(), e.children.size());
    for (size_t i = 0; i < e.children.size(); ++i) {
      Expr& arg = *e.children[i];
      const TypePtr& pt = callee->params[i].type;
      switch (pt->kind()) {
        case TypeKind::Event:
        case TypeKind::Cond:
          requireHardwareName(arg, pt, "event/cond");
          break;
        case TypeKind::Struct:
        case TypeKind::Array: {
          // By-reference parameters: the argument must be a named object of
          // the same type (global, or a pass-through reference parameter).
          checkExpr(arg);
          if (arg.kind != ExprKind::VarRef)
            failAt(arg.loc, "argument %zu of '%s' must name a %s object", i + 1,
                   e.name.c_str(), pt->str().c_str());
          if (!arg.type->same(*pt))
            failAt(arg.loc, "argument %zu of '%s': expected %s, got %s", i + 1,
                   e.name.c_str(), pt->str().c_str(), arg.type->str().c_str());
          break;
        }
        default:
          checkExpr(arg);
          requireScalar(arg, "argument");
      }
    }
    e.type = callee->returnType;
    if (current_ != nullptr) callEdges_[current_->name].insert(e.name);
  }

  void checkIntrinsic(Expr& e) {
    auto arity = [&](size_t n) {
      if (e.children.size() != n)
        failAt(e.loc, "intrinsic '%s' expects %zu argument(s), got %zu", e.name.c_str(),
               n, e.children.size());
    };
    if (e.name == "raise") {
      arity(1);
      requireHardwareName(*e.children[0], Type::eventType(), "raise");
      e.type = Type::voidType();
    } else if (e.name == "set_cond") {
      arity(2);
      requireHardwareName(*e.children[0], Type::condType(), "set_cond");
      checkExpr(*e.children[1]);
      requireScalar(*e.children[1], "condition value");
      e.type = Type::voidType();
    } else if (e.name == "test_cond") {
      arity(1);
      requireHardwareName(*e.children[0], Type::condType(), "test_cond");
      e.type = Type::intType(1, false);
    } else if (e.name == "read_port") {
      arity(1);
      requireHardwareName(*e.children[0], Type::intType(16, false), "read_port");
      e.type = Type::intType(16, false);
    } else if (e.name == "write_port") {
      arity(2);
      requireHardwareName(*e.children[0], Type::intType(16, false), "write_port");
      checkExpr(*e.children[1]);
      requireScalar(*e.children[1], "port value");
      e.type = Type::voidType();
    } else if (e.name == "in_state") {
      arity(1);
      requireHardwareName(*e.children[0], Type::intType(1, false), "in_state");
      e.type = Type::intType(1, false);
    } else {
      PSCP_ASSERT(false);
    }
  }

  // -------------------------------------------------------------- recursion
  void checkCallGraph() {
    // DFS cycle detection over the recorded call edges.
    std::set<std::string> visiting;
    std::set<std::string> done;
    std::vector<std::string> stack;
    std::function<void(const std::string&)> dfs = [&](const std::string& fn) {
      if (done.count(fn) != 0) return;
      if (visiting.count(fn) != 0) {
        std::string cycle;
        for (const std::string& s : stack) cycle += s + " -> ";
        // Point at the function that closes the cycle.
        const Function* f = program_.findFunction(fn);
        if (f != nullptr && f->loc.known())
          failAt(f->loc, "recursion is not permitted: %s%s", cycle.c_str(), fn.c_str());
        fail("recursion is not permitted: %s%s", cycle.c_str(), fn.c_str());
      }
      visiting.insert(fn);
      stack.push_back(fn);
      auto it = callEdges_.find(fn);
      if (it != callEdges_.end())
        for (const std::string& callee : it->second)
          if (program_.findFunction(callee) != nullptr) dfs(callee);
      stack.pop_back();
      visiting.erase(fn);
      done.insert(fn);
    };
    for (const Function& f : program_.functions) dfs(f.name);
  }

  Program& program_;
  Function* current_ = nullptr;
  std::vector<Scope> scopes_;
  std::map<std::string, std::set<std::string>> callEdges_;
};

}  // namespace

void checkProgram(Program& program) {
  Checker(program).run();
}

}  // namespace pscp::actionlang
