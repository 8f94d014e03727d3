#include "analysis/effects.hpp"

#include <cstdlib>

#include "support/diag.hpp"

namespace pscp::analysis {

namespace {

using actionlang::Expr;
using actionlang::ExprKind;
using actionlang::Function;
using actionlang::Program;
using actionlang::Stmt;
using actionlang::StmtKind;

/// Static binding of a callee's formals for one call chain: hardware
/// parameters (event/cond) and aggregates bind to the caller's name;
/// scalars bind to a constant when the actual folds to one.
struct Env {
  std::map<std::string, std::string> names;
  std::map<std::string, std::optional<int64_t>> constants;

  [[nodiscard]] std::string resolve(const std::string& n) const {
    auto it = names.find(n);
    return it == names.end() ? n : it->second;
  }
};

class Walker {
 public:
  Walker(const Program& program, EffectSet* out) : program_(program), out_(out) {}

  void walkCall(const statechart::ActionCall& call) {
    if (actionlang::isIntrinsicName(call.function)) {
      walkLabelIntrinsic(call);
      return;
    }
    const Function* f = program_.findFunction(call.function);
    if (f == nullptr) {
      out_->astComplete = false;  // unknown callee: fall back to code scan
      return;
    }
    Env env;
    std::set<std::string> locals;
    const size_t n = std::min(call.args.size(), f->params.size());
    for (size_t i = 0; i < n; ++i) {
      const auto& p = f->params[i];
      const std::string& actual = call.args[i];
      if (p.type != nullptr && p.type->isScalar()) {
        locals.insert(p.name);
        env.constants[p.name] = labelArgConstant(actual);
        // A global passed by value is read when the routine is entered.
        if (program_.findGlobal(actual) != nullptr)
          out_->globalReads.insert(actual);
      } else {
        env.names[p.name] = actual;
      }
    }
    walkBody(*f, env, locals);
  }

 private:
  /// A label calling an intrinsic directly ("E1/raise(E2)").
  void walkLabelIntrinsic(const statechart::ActionCall& call) {
    const auto arg = [&](size_t i) -> std::string {
      return i < call.args.size() ? call.args[i] : std::string();
    };
    if (call.function == "raise") {
      noteRaise(arg(0));
    } else if (call.function == "set_cond") {
      noteCondWrite(arg(0), labelArgConstant(arg(1)));
    } else if (call.function == "test_cond") {
      out_->condReads.insert(arg(0));
    } else if (call.function == "read_port") {
      out_->portReads.insert(arg(0));
    } else if (call.function == "write_port") {
      notePortWrite(arg(0), labelArgConstant(arg(1)));
    }
  }

  // Effect recorders: inside an unresolved branch (unresolvedDepth_ > 0)
  // the effect may or may not happen at run time, which the conditional
  // sets carry to the checker.
  void noteRaise(const std::string& name) {
    out_->eventsRaised.insert(name);
    if (unresolvedDepth_ > 0) out_->conditionalRaises.insert(name);
  }
  void noteCondWrite(const std::string& name, std::optional<int64_t> value) {
    EffectSet::recordWrite(&out_->condWrites, name, value);
    if (unresolvedDepth_ > 0) out_->conditionalCondWrites.insert(name);
  }
  void notePortWrite(const std::string& name, std::optional<int64_t> value) {
    EffectSet::recordWrite(&out_->portWrites, name, value);
    if (unresolvedDepth_ > 0) out_->conditionalPortWrites.insert(name);
  }

  /// Label arguments are raw strings: decimal literals and enum constants
  /// fold; anything else is data-dependent.
  [[nodiscard]] std::optional<int64_t> labelArgConstant(const std::string& s) const {
    if (s.empty()) return std::nullopt;
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 0);
    if (end != nullptr && *end == '\0') return static_cast<int64_t>(v);
    auto it = program_.enumConstants.find(s);
    if (it != program_.enumConstants.end()) return it->second;
    return std::nullopt;
  }

  /// Names (re)assigned anywhere in `body` — a formal the body overwrites
  /// must not keep its call-site constant.
  static void collectAssigned(const std::vector<actionlang::StmtPtr>& body,
                              std::set<std::string>* out) {
    for (const auto& sp : body) {
      const Stmt& s = *sp;
      if (s.kind == StmtKind::Assign && s.lhs != nullptr &&
          s.lhs->kind == ExprKind::VarRef)
        out->insert(s.lhs->name);
      if (s.kind == StmtKind::VarDecl) out->insert(s.varName);  // shadowing
      collectAssigned(s.body, out);
      collectAssigned(s.elseBody, out);
    }
  }

  void walkBody(const Function& f, Env env, std::set<std::string> locals) {
    if (visiting_.count(f.name) != 0) return;  // typecheck forbids recursion
    visiting_.insert(f.name);
    std::set<std::string> reassigned;
    collectAssigned(f.body, &reassigned);
    for (const std::string& n : reassigned) env.constants.erase(n);
    for (const auto& s : f.body) walkStmt(*s, env, &locals);
    visiting_.erase(f.name);
  }

  void walkStmt(const Stmt& s, const Env& env, std::set<std::string>* locals) {
    switch (s.kind) {
      case StmtKind::Block:
        for (const auto& c : s.body) walkStmt(*c, env, locals);
        break;
      case StmtKind::VarDecl:
        locals->insert(s.varName);
        if (s.expr != nullptr) walkExpr(*s.expr, env, *locals);
        break;
      case StmtKind::Assign: {
        walkExpr(*s.expr, env, *locals);
        walkLvalue(*s.lhs, env, *locals);
        break;
      }
      case StmtKind::If: {
        walkExpr(*s.expr, env, *locals);
        // Path sensitivity: a branch condition that folds under the static
        // call binding selects exactly one arm (dispatchers of the
        // `if (which == MX)` shape bind per call site). A condition that
        // does not fold walks both arms with the arms' effects marked
        // conditional — they depend on run-time data.
        const std::optional<int64_t> cond = constantOf(*s.expr, env);
        const bool unresolved = !cond.has_value();
        if (unresolved) ++unresolvedDepth_;
        if (unresolved || *cond != 0)
          for (const auto& c : s.body) walkStmt(*c, env, locals);
        if (unresolved || *cond == 0)
          for (const auto& c : s.elseBody) walkStmt(*c, env, locals);
        if (unresolved) --unresolvedDepth_;
        break;
      }
      case StmtKind::While: {
        walkExpr(*s.expr, env, *locals);
        const std::optional<int64_t> cond = constantOf(*s.expr, env);
        const bool unresolved = !cond.has_value();
        if (unresolved) ++unresolvedDepth_;
        if (unresolved || *cond != 0)
          for (const auto& c : s.body) walkStmt(*c, env, locals);
        if (unresolved) --unresolvedDepth_;
        break;
      }
      case StmtKind::Return:
        if (s.expr != nullptr) walkExpr(*s.expr, env, *locals);
        break;
      case StmtKind::ExprStmt:
        walkExpr(*s.expr, env, *locals);
        break;
    }
  }

  /// Root variable of an access chain (base of members/indexing).
  static const Expr* lvalueRoot(const Expr& e) {
    const Expr* at = &e;
    while ((at->kind == ExprKind::Member || at->kind == ExprKind::Index) &&
           !at->children.empty())
      at = at->children[0].get();
    return at->kind == ExprKind::VarRef ? at : nullptr;
  }

  /// Resource name of a global access: "base[k]" when the subscript on the
  /// root array folds to a constant under the binding, else the bare base
  /// (meaning "some element" — collides with every element).
  [[nodiscard]] std::string accessResource(const Expr& access, const std::string& base,
                                           const Env& env) const {
    const Expr* at = &access;
    while ((at->kind == ExprKind::Member || at->kind == ExprKind::Index) &&
           !at->children.empty()) {
      const Expr& child = *at->children[0];
      if (at->kind == ExprKind::Index && child.kind == ExprKind::VarRef &&
          at->children.size() > 1) {
        const auto idx = constantOf(*at->children[1], env);
        if (idx.has_value())
          return strfmt("%s[%lld]", base.c_str(), static_cast<long long>(*idx));
        return base;
      }
      at = &child;
    }
    return base;
  }

  /// Visit the subscript expressions of an access chain (they are reads);
  /// the chain's own base VarRef is handled by the caller.
  void walkAccessIndices(const Expr& e, const Env& env,
                         const std::set<std::string>& locals) {
    if (e.kind == ExprKind::Index && e.children.size() > 1) {
      walkExpr(*e.children[1], env, locals);
      noteSubscript(e, env);
    }
    if ((e.kind == ExprKind::Member || e.kind == ExprKind::Index) &&
        !e.children.empty() && e.children[0]->kind != ExprKind::VarRef)
      walkAccessIndices(*e.children[0], env, locals);
  }

  /// Compiled code does not bounds-check: a subscript that does not fold
  /// to a constant inside the array under the binding may address any byte.
  void noteSubscript(const Expr& index, const Env& env) {
    const actionlang::TypePtr& array = index.children[0]->type;
    const std::optional<int64_t> at = constantOf(*index.children[1], env);
    if (array == nullptr || array->kind() != actionlang::TypeKind::Array ||
        !at.has_value() || *at < 0 || *at >= array->arrayCount())
      out_->subscriptsInRange = false;
  }

  void walkLvalue(const Expr& lhs, const Env& env, const std::set<std::string>& locals) {
    walkAccessIndices(lhs, env, locals);
    const Expr* root = lvalueRoot(lhs);
    if (root == nullptr) return;
    if (locals.count(root->name) != 0 && env.names.count(root->name) == 0) return;
    const std::string resolved = env.resolve(root->name);
    if (program_.findGlobal(resolved) != nullptr)
      out_->globalWrites.insert(accessResource(lhs, resolved, env));
  }

  /// Constant value of `e` under the call chain's static binding. Goes
  /// beyond the type checker's folds: formals bound to constant actuals
  /// fold too, which is what makes `if (which == MX)` dispatchers
  /// path-sensitive per call site.
  [[nodiscard]] std::optional<int64_t> constantOf(const Expr& e, const Env& env) const {
    if (e.constant.has_value()) return e.constant;
    switch (e.kind) {
      case ExprKind::IntLit:
        return e.value;
      case ExprKind::VarRef: {
        auto it = env.constants.find(e.name);
        if (it != env.constants.end()) return it->second;
        auto ec = program_.enumConstants.find(e.name);
        if (ec != program_.enumConstants.end()) return ec->second;
        return std::nullopt;
      }
      case ExprKind::Unary: {
        if (e.children.empty()) return std::nullopt;
        const auto v = constantOf(*e.children[0], env);
        if (!v.has_value()) return std::nullopt;
        switch (e.unOp) {
          case actionlang::UnOp::Neg: return -*v;
          case actionlang::UnOp::BitNot: return ~*v;
          case actionlang::UnOp::LogNot: return *v == 0 ? 1 : 0;
        }
        return std::nullopt;
      }
      case ExprKind::Binary: {
        if (e.children.size() < 2) return std::nullopt;
        const auto a = constantOf(*e.children[0], env);
        // Short-circuit forms first: one decided side may suffice.
        if (e.binOp == actionlang::BinOp::LogAnd && a.has_value() && *a == 0) return 0;
        if (e.binOp == actionlang::BinOp::LogOr && a.has_value() && *a != 0) return 1;
        const auto b = constantOf(*e.children[1], env);
        if (!a.has_value() || !b.has_value()) return std::nullopt;
        switch (e.binOp) {
          case actionlang::BinOp::Add: return *a + *b;
          case actionlang::BinOp::Sub: return *a - *b;
          case actionlang::BinOp::Mul: return *a * *b;
          case actionlang::BinOp::Div: return *b == 0 ? std::optional<int64_t>{} : *a / *b;
          case actionlang::BinOp::Mod: return *b == 0 ? std::optional<int64_t>{} : *a % *b;
          case actionlang::BinOp::And: return *a & *b;
          case actionlang::BinOp::Or: return *a | *b;
          case actionlang::BinOp::Xor: return *a ^ *b;
          case actionlang::BinOp::Shl: return *a << (*b & 63);
          case actionlang::BinOp::Shr: return *a >> (*b & 63);
          case actionlang::BinOp::Eq: return *a == *b ? 1 : 0;
          case actionlang::BinOp::Ne: return *a != *b ? 1 : 0;
          case actionlang::BinOp::Lt: return *a < *b ? 1 : 0;
          case actionlang::BinOp::Le: return *a <= *b ? 1 : 0;
          case actionlang::BinOp::Gt: return *a > *b ? 1 : 0;
          case actionlang::BinOp::Ge: return *a >= *b ? 1 : 0;
          case actionlang::BinOp::LogAnd: return (*a != 0 && *b != 0) ? 1 : 0;
          case actionlang::BinOp::LogOr: return (*a != 0 || *b != 0) ? 1 : 0;
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  /// The hardware name an event/cond argument denotes, resolved through
  /// the formal->actual binding.
  [[nodiscard]] std::string hardwareArg(const Expr& e, const Env& env) const {
    if (e.kind != ExprKind::VarRef) return {};
    return env.resolve(e.name);
  }

  void walkExpr(const Expr& e, const Env& env, const std::set<std::string>& locals) {
    switch (e.kind) {
      case ExprKind::VarRef: {
        if (locals.count(e.name) != 0) return;
        const std::string resolved = env.resolve(e.name);
        if (program_.findGlobal(resolved) != nullptr)
          out_->globalReads.insert(resolved);
        return;
      }
      case ExprKind::Member:
      case ExprKind::Index: {
        walkAccessIndices(e, env, locals);
        const Expr* root = lvalueRoot(e);
        if (root == nullptr) {
          if (!e.children.empty()) walkExpr(*e.children[0], env, locals);
          return;
        }
        if (locals.count(root->name) != 0 && env.names.count(root->name) == 0) return;
        const std::string resolved = env.resolve(root->name);
        if (program_.findGlobal(resolved) != nullptr)
          out_->globalReads.insert(accessResource(e, resolved, env));
        return;
      }
      case ExprKind::Call: {
        walkCallExpr(e, env, locals);
        return;
      }
      default:
        for (const auto& c : e.children) walkExpr(*c, env, locals);
        return;
    }
  }

  void walkCallExpr(const Expr& e, const Env& env, const std::set<std::string>& locals) {
    const std::string& callee = e.name;
    const auto arg = [&](size_t i) -> const Expr* {
      return i < e.children.size() ? e.children[i].get() : nullptr;
    };
    if (actionlang::isIntrinsicName(callee)) {
      if (callee == "raise") {
        if (const Expr* a = arg(0)) noteRaise(hardwareArg(*a, env));
      } else if (callee == "set_cond") {
        const Expr* c = arg(0);
        const Expr* v = arg(1);
        if (c != nullptr && v != nullptr) {
          noteCondWrite(hardwareArg(*c, env), constantOf(*v, env));
          walkExpr(*v, env, locals);
        }
      } else if (callee == "test_cond") {
        if (const Expr* a = arg(0)) out_->condReads.insert(hardwareArg(*a, env));
      } else if (callee == "read_port") {
        if (const Expr* a = arg(0)) out_->portReads.insert(hardwareArg(*a, env));
      } else if (callee == "write_port") {
        const Expr* p = arg(0);
        const Expr* v = arg(1);
        if (p != nullptr && v != nullptr) {
          notePortWrite(hardwareArg(*p, env), constantOf(*v, env));
          walkExpr(*v, env, locals);
        }
      }
      // in_state reads the CR state part only — not a hazard surface.
      return;
    }
    const Function* f = program_.findFunction(callee);
    if (f == nullptr) return;
    Env inner;
    std::set<std::string> innerLocals;
    const size_t n = std::min(e.children.size(), f->params.size());
    for (size_t i = 0; i < n; ++i) {
      const auto& p = f->params[i];
      const Expr& actual = *e.children[i];
      if (p.type != nullptr && p.type->isScalar()) {
        innerLocals.insert(p.name);
        inner.constants[p.name] = constantOf(actual, env);
        walkExpr(actual, env, locals);  // evaluating the actual is a read
      } else if (actual.kind == ExprKind::VarRef) {
        inner.names[p.name] = env.resolve(actual.name);
      }
    }
    walkBody(*f, inner, innerLocals);
  }

  const Program& program_;
  EffectSet* out_;
  std::set<std::string> visiting_;
  int unresolvedDepth_ = 0;  ///< nesting of branches that did not fold
};

}  // namespace

void EffectSet::recordWrite(std::map<std::string, std::optional<int64_t>>* map,
                            const std::string& name, std::optional<int64_t> value) {
  auto [it, inserted] = map->emplace(name, value);
  if (!inserted && it->second != value) it->second = std::nullopt;
}

bool EffectSet::exact() const {
  if (!astComplete) return false;
  if (!conditionalRaises.empty() || !conditionalCondWrites.empty() ||
      !conditionalPortWrites.empty())
    return false;
  for (const auto& [name, value] : condWrites)
    if (!value.has_value()) return false;
  return true;
}

EffectSet transitionEffects(const statechart::Transition& t,
                            const actionlang::Program& program) {
  EffectSet out;
  Walker walker(program, &out);
  for (const statechart::ActionCall& call : t.label.actions) walker.walkCall(call);
  return out;
}

std::string resourceBase(const std::string& resource) {
  const size_t at = resource.find('[');
  return at == std::string::npos ? resource : resource.substr(0, at);
}

bool resourcesCollide(const std::string& a, const std::string& b) {
  return a == b || resourceBase(a) == b || a == resourceBase(b);
}

namespace {

/// What one routine shares with a routine on another TEP: ports, and the
/// external-RAM globals (TEP-local RAM and register banks are per TEP).
struct SharedAccess {
  std::set<std::string> portReads;
  std::set<std::string> portWrites;
  std::set<std::string> externalReads;
  std::set<std::string> externalWrites;
  bool allExternal = false;  ///< may read or write any external byte

  [[nodiscard]] bool touchesExternal() const {
    return allExternal || !externalReads.empty() || !externalWrites.empty();
  }
};

[[nodiscard]] bool anyCollide(const std::set<std::string>& a,
                              const std::set<std::string>& b) {
  for (const std::string& ra : a)
    for (const std::string& rb : b)
      if (resourcesCollide(ra, rb)) return true;
  return false;
}

[[nodiscard]] bool hazardous(const SharedAccess& a, const SharedAccess& b) {
  for (const std::string& p : a.portWrites)
    if (b.portReads.count(p) != 0) return true;
  for (const std::string& p : b.portWrites)
    if (a.portReads.count(p) != 0) return true;
  if ((a.allExternal && b.touchesExternal()) || (b.allExternal && a.touchesExternal()))
    return true;
  return anyCollide(a.externalWrites, b.externalReads) ||
         anyCollide(a.externalWrites, b.externalWrites) ||
         anyCollide(b.externalWrites, a.externalReads);
}

}  // namespace

std::vector<BitVec> replayHazards(const statechart::Chart& chart,
                                  const actionlang::Program& program,
                                  const compiler::CompiledApp& app,
                                  const compiler::HardwareBinding& binding) {
  const ReverseBinding reverse = makeReverse(binding);
  const auto external = [&](const std::string& resource) {
    const auto it = app.globalPlacement.find(resourceBase(resource));
    return it != app.globalPlacement.end() &&
           it->second.storageClass == compiler::kStorageExternal;
  };
  std::vector<SharedAccess> access;
  access.reserve(chart.transitions().size());
  for (const statechart::Transition& t : chart.transitions()) {
    EffectSet e = transitionEffects(t, program);
    // Like the race pass: the branch-blind code scan stands in for an
    // incomplete AST walk (ports are immediate operands, so it sees them all).
    const auto routine = app.transitionRoutine.find(t.id);
    if (!e.astComplete && routine != app.transitionRoutine.end())
      augmentFromRoutine(app.program, routine->second, reverse, &e, nullptr);
    SharedAccess a;
    a.portReads = e.portReads;
    for (const auto& [port, value] : e.portWrites) a.portWrites.insert(port);
    for (const std::string& g : e.globalReads)
      if (external(g)) a.externalReads.insert(g);
    for (const std::string& g : e.globalWrites)
      if (external(g)) a.externalWrites.insert(g);
    a.allExternal = !e.astComplete || !e.subscriptsInRange;
    access.push_back(std::move(a));
  }
  const int n = static_cast<int>(access.size());
  std::vector<BitVec> hazards(static_cast<size_t>(n), BitVec(n));
  for (int t = 0; t < n; ++t)
    for (int u = t + 1; u < n; ++u)
      if (hazardous(access[static_cast<size_t>(t)], access[static_cast<size_t>(u)])) {
        hazards[static_cast<size_t>(t)].set(u);
        hazards[static_cast<size_t>(u)].set(t);
      }
  return hazards;
}

ReverseBinding makeReverse(const compiler::HardwareBinding& binding) {
  ReverseBinding r;
  for (const auto& [name, bit] : binding.eventIndex) r.eventByBit[bit] = name;
  for (const auto& [name, bit] : binding.conditionIndex) r.conditionByBit[bit] = name;
  for (const auto& [name, addr] : binding.portAddress) r.portByAddress[addr] = name;
  return r;
}

void augmentFromRoutine(const tep::AsmProgram& program, const std::string& routine,
                        const ReverseBinding& names, EffectSet* effects,
                        std::vector<BadJump>* badJumps) {
  auto it = program.routines.find(routine);
  if (it == program.routines.end()) return;

  const int codeSize = static_cast<int>(program.code.size());
  std::vector<bool> visited(program.code.size(), false);
  std::vector<int> work{it->second};

  const auto lookup = [](const std::map<int, std::string>& m, int key) -> std::string {
    auto found = m.find(key);
    return found == m.end() ? strfmt("#%d", key) : found->second;
  };

  while (!work.empty()) {
    int pc = work.back();
    work.pop_back();
    while (pc >= 0 && pc < codeSize && !visited[static_cast<size_t>(pc)]) {
      visited[static_cast<size_t>(pc)] = true;
      const tep::Instr& instr = program.code[static_cast<size_t>(pc)];
      switch (instr.op) {
        // The scan is branch-blind (it visits both sides of every jump),
        // so anything it contributes that the AST walk did not already
        // prove definite is recorded as conditional: it may execute.
        case tep::Opcode::EvSet:
          if (effects != nullptr) {
            const std::string name = lookup(names.eventByBit, instr.operand);
            if (effects->eventsRaised.insert(name).second)
              effects->conditionalRaises.insert(name);
          }
          break;
        case tep::Opcode::CSet:
        case tep::Opcode::CClr:
          if (effects != nullptr) {
            const std::string name = lookup(names.conditionByBit, instr.operand);
            if (effects->condWrites.count(name) == 0)
              effects->conditionalCondWrites.insert(name);
            EffectSet::recordWrite(&effects->condWrites, name,
                                   instr.op == tep::Opcode::CSet ? 1 : 0);
          }
          break;
        case tep::Opcode::CTst:
          if (effects != nullptr)
            effects->condReads.insert(lookup(names.conditionByBit, instr.operand));
          break;
        case tep::Opcode::Inp:
          if (effects != nullptr)
            effects->portReads.insert(lookup(names.portByAddress, instr.operand));
          break;
        case tep::Opcode::Outp:
          // The written value lives in ACC. Keep the AST-derived constant if
          // the port is already known; only record the write's existence.
          if (effects != nullptr) {
            const std::string name = lookup(names.portByAddress, instr.operand);
            if (effects->portWrites.emplace(name, std::nullopt).second)
              effects->conditionalPortWrites.insert(name);
          }
          break;
        case tep::Opcode::Jmp:
        case tep::Opcode::Jz:
        case tep::Opcode::Jnz:
        case tep::Opcode::Jn:
        case tep::Opcode::Jc:
        case tep::Opcode::Call: {
          const int32_t target = instr.operand;
          if (target < 0 || target >= codeSize) {
            if (badJumps != nullptr) badJumps->push_back(BadJump{routine, pc, target});
          } else {
            work.push_back(target);
          }
          if (instr.op == tep::Opcode::Jmp) pc = -1;  // no fall-through
          break;
        }
        case tep::Opcode::Tret:
        case tep::Opcode::Ret:
          pc = -1;  // end of this path
          break;
        default:
          break;
      }
      if (pc >= 0) ++pc;
    }
  }
}

}  // namespace pscp::analysis
