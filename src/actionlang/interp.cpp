#include "actionlang/interp.hpp"

#include <cctype>

namespace pscp::actionlang {

int scalarSlotCount(const TypePtr& t) {
  switch (t->kind()) {
    case TypeKind::Int:
      return 1;
    case TypeKind::Struct: {
      int n = 0;
      for (const auto& [fname, ftype] : t->fields()) n += scalarSlotCount(ftype);
      return n;
    }
    case TypeKind::Array:
      return t->arrayCount() * scalarSlotCount(t->element());
    default:
      return 0;
  }
}

int scalarFieldOffset(const TypePtr& structType, const std::string& field) {
  PSCP_ASSERT(structType->kind() == TypeKind::Struct);
  int offset = 0;
  for (const auto& [fname, ftype] : structType->fields()) {
    if (fname == field) return offset;
    offset += scalarSlotCount(ftype);
  }
  fail("struct '%s' has no field '%s'", structType->structName().c_str(), field.c_str());
}

Interp::Interp(const Program& program, HardwareEnv& env)
    : program_(program), env_(env) {
  reset();
}

void Interp::reset() {
  globals_.clear();
  executed_ = 0;
  for (const GlobalVar& g : program_.globals) {
    std::vector<int64_t> storage(static_cast<size_t>(scalarSlotCount(g.type)), 0);
    for (size_t i = 0; i < g.init.size() && i < storage.size(); ++i)
      storage[i] = g.init[i];
    globals_[g.name] = std::move(storage);
  }
}

int64_t Interp::wrapToType(int64_t v, const TypePtr& t) {
  PSCP_ASSERT(t && t->isInt());
  const uint32_t raw = truncBits(static_cast<uint32_t>(v), t->width());
  return t->isSigned() ? signExtend(raw, t->width()) : static_cast<int64_t>(raw);
}

int64_t Interp::globalValue(const std::string& name, int slot) const {
  auto it = globals_.find(name);
  if (it == globals_.end()) fail("no global named '%s'", name.c_str());
  PSCP_ASSERT(slot >= 0 && slot < static_cast<int>(it->second.size()));
  return it->second[static_cast<size_t>(slot)];
}

void Interp::setGlobalValue(const std::string& name, int64_t value, int slot) {
  auto it = globals_.find(name);
  if (it == globals_.end()) fail("no global named '%s'", name.c_str());
  PSCP_ASSERT(slot >= 0 && slot < static_cast<int>(it->second.size()));
  it->second[static_cast<size_t>(slot)] = value;
}

Interp::Binding Interp::bindLabelArg(const std::string& text, const TypePtr& paramType) {
  Binding b;
  switch (paramType->kind()) {
    case TypeKind::Event:
    case TypeKind::Cond:
      b.hardware = text;
      return b;
    case TypeKind::Struct:
    case TypeKind::Array: {
      auto it = globals_.find(text);
      if (it == globals_.end())
        fail("label argument '%s' does not name a global object", text.c_str());
      const GlobalVar* g = program_.findGlobal(text);
      PSCP_ASSERT(g != nullptr);
      if (!g->type->same(*paramType))
        fail("label argument '%s' has type %s, parameter needs %s", text.c_str(),
             g->type->str().c_str(), paramType->str().c_str());
      b.ref = {&it->second, 0, g->type};
      return b;
    }
    case TypeKind::Int: {
      // Number, enum constant, or scalar global.
      if (!text.empty() &&
          (std::isdigit(static_cast<unsigned char>(text[0])) != 0 || text[0] == '-')) {
        b.scalar = wrapToType(std::stoll(text, nullptr, 0), paramType);
        return b;
      }
      auto ec = program_.enumConstants.find(text);
      if (ec != program_.enumConstants.end()) {
        b.scalar = wrapToType(ec->second, paramType);
        return b;
      }
      const GlobalVar* g = program_.findGlobal(text);
      if (g != nullptr && g->type->isScalar()) {
        b.scalar = wrapToType(globals_.at(text)[0], paramType);
        return b;
      }
      fail("label argument '%s' is not a number, enum constant, or scalar global",
           text.c_str());
    }
    default:
      fail("parameter type %s cannot be bound from a label", paramType->str().c_str());
  }
}

int64_t Interp::callFromLabel(const std::string& function,
                              const std::vector<std::string>& args) {
  const Function& fn = program_.function(function);
  if (fn.params.size() != args.size())
    fail("label call %s: expected %zu arguments, got %zu", function.c_str(),
         fn.params.size(), args.size());
  std::vector<Binding> bindings;
  bindings.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i)
    bindings.push_back(bindLabelArg(args[i], fn.params[i].type));
  return invoke(fn, std::move(bindings));
}

int64_t Interp::call(const std::string& function, const std::vector<int64_t>& args) {
  const Function& fn = program_.function(function);
  if (fn.params.size() != args.size())
    fail("call %s: expected %zu arguments, got %zu", function.c_str(),
         fn.params.size(), args.size());
  std::vector<Binding> bindings(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (!fn.params[i].type->isScalar())
      fail("call %s: argument %zu is not scalar", function.c_str(), i + 1);
    bindings[i].scalar = wrapToType(args[i], fn.params[i].type);
  }
  return invoke(fn, std::move(bindings));
}

int64_t Interp::invoke(const Function& fn, std::vector<Binding> args) {
  if (++callDepth_ > 64) fail("call depth exceeded in '%s'", fn.name.c_str());
  Frame frame;
  for (size_t i = 0; i < fn.params.size(); ++i)
    frame.locals[fn.params[i].name] = std::move(args[i]);
  retval_ = 0;
  for (const StmtPtr& s : fn.body)
    if (execStmt(*s, frame)) break;
  --callDepth_;
  return retval_;
}

bool Interp::execStmt(const Stmt& s, Frame& frame) {
  ++executed_;
  switch (s.kind) {
    case StmtKind::Block:
      for (const StmtPtr& inner : s.body)
        if (execStmt(*inner, frame)) return true;
      return false;
    case StmtKind::VarDecl: {
      if (s.varType->isScalar()) {
        Binding b;
        b.scalar = s.expr ? wrapToType(evalExpr(*s.expr, frame), s.varType) : 0;
        frame.locals[s.varName] = std::move(b);
      } else {
        auto& storage = frame.localStorage[s.varName];
        storage.assign(static_cast<size_t>(scalarSlotCount(s.varType)), 0);
        Binding b;
        b.ref = {&storage, 0, s.varType};
        frame.locals[s.varName] = std::move(b);
      }
      return false;
    }
    case StmtKind::Assign:
      storeScalar(*s.lhs, frame, evalExpr(*s.expr, frame));
      return false;
    case StmtKind::If: {
      const std::vector<StmtPtr>& branch =
          (evalExpr(*s.expr, frame) != 0) ? s.body : s.elseBody;
      for (const StmtPtr& inner : branch)
        if (execStmt(*inner, frame)) return true;
      return false;
    }
    case StmtKind::While: {
      int64_t iterations = 0;
      while (evalExpr(*s.expr, frame) != 0) {
        if (++iterations > s.loopBound)
          failAt(s.loc, "loop exceeded its declared bound of %lld",
                 static_cast<long long>(s.loopBound));
        for (const StmtPtr& inner : s.body)
          if (execStmt(*inner, frame)) return true;
      }
      return false;
    }
    case StmtKind::Return:
      retval_ = s.expr ? evalExpr(*s.expr, frame) : 0;
      return true;
    case StmtKind::ExprStmt:
      evalExpr(*s.expr, frame);
      return false;
  }
  return false;
}

Interp::ObjectRef Interp::resolveObject(const Expr& e, Frame& frame) {
  switch (e.kind) {
    case ExprKind::VarRef: {
      auto it = frame.locals.find(e.name);
      if (it != frame.locals.end()) {
        PSCP_ASSERT(it->second.ref.data != nullptr);
        return it->second.ref;
      }
      auto git = globals_.find(e.name);
      if (git == globals_.end()) fail("unknown object '%s'", e.name.c_str());
      const GlobalVar* g = program_.findGlobal(e.name);
      return {&git->second, 0, g->type};
    }
    case ExprKind::Member: {
      ObjectRef base = resolveObject(*e.children[0], frame);
      const int off = scalarFieldOffset(base.type, e.name);
      return {base.data, base.offset + off, base.type->fieldType(e.name)};
    }
    case ExprKind::Index: {
      ObjectRef base = resolveObject(*e.children[0], frame);
      const int64_t ix = evalExpr(*e.children[1], frame);
      if (ix < 0 || ix >= base.type->arrayCount())
        failAt(e.loc, "array index %lld out of bounds [0, %d)",
               static_cast<long long>(ix), base.type->arrayCount());
      const int stride = scalarSlotCount(base.type->element());
      return {base.data, base.offset + static_cast<int>(ix) * stride,
              base.type->element()};
    }
    default:
      failAt(e.loc, "expression is not an object reference");
  }
}

void Interp::storeScalar(const Expr& lvalue, Frame& frame, int64_t value) {
  // Fast path: scalar local.
  if (lvalue.kind == ExprKind::VarRef) {
    auto it = frame.locals.find(lvalue.name);
    if (it != frame.locals.end() && it->second.ref.data == nullptr) {
      it->second.scalar = wrapToType(value, lvalue.type);
      return;
    }
  }
  ObjectRef ref = resolveObject(lvalue, frame);
  PSCP_ASSERT(ref.type->isScalar());
  (*ref.data)[static_cast<size_t>(ref.offset)] = wrapToType(value, ref.type);
}

std::string Interp::hardwareNameOf(const Expr& arg, Frame& frame) {
  PSCP_ASSERT(arg.kind == ExprKind::VarRef);
  auto it = frame.locals.find(arg.name);
  if (it != frame.locals.end() && !it->second.hardware.empty())
    return it->second.hardware;  // pass-through event/cond parameter
  return arg.name;
}

int64_t Interp::evalIntrinsic(const Expr& e, Frame& frame) {
  if (e.name == "raise") {
    env_.raiseEvent(hardwareNameOf(*e.children[0], frame));
    return 0;
  }
  if (e.name == "set_cond") {
    const int64_t v = evalExpr(*e.children[1], frame);
    env_.setCondition(hardwareNameOf(*e.children[0], frame), v != 0);
    return 0;
  }
  if (e.name == "test_cond")
    return env_.testCondition(hardwareNameOf(*e.children[0], frame)) ? 1 : 0;
  if (e.name == "read_port")
    return static_cast<int64_t>(env_.readPort(hardwareNameOf(*e.children[0], frame)));
  if (e.name == "write_port") {
    // The intrinsic takes a uint:16, so the machine writes the value's low
    // 16 bits (a 16-bit Outp); the reference writes the same.
    static const TypePtr kPortValue = Type::intType(16, false);
    const int64_t v = evalExpr(*e.children[1], frame);
    env_.writePort(hardwareNameOf(*e.children[0], frame),
                   static_cast<uint32_t>(wrapToType(v, kPortValue)));
    return 0;
  }
  if (e.name == "in_state")
    return env_.inState(hardwareNameOf(*e.children[0], frame)) ? 1 : 0;
  PSCP_ASSERT(false);
}

int64_t Interp::evalExpr(const Expr& e, Frame& frame) {
  if (e.constant.has_value() && e.kind != ExprKind::Call)
    return wrapToType(*e.constant, e.type);
  switch (e.kind) {
    case ExprKind::IntLit:
      return wrapToType(e.value, e.type);
    case ExprKind::VarRef: {
      auto it = frame.locals.find(e.name);
      if (it != frame.locals.end()) {
        if (it->second.ref.data != nullptr)
          failAt(e.loc, "aggregate '%s' used as a scalar", e.name.c_str());
        return it->second.scalar;
      }
      ObjectRef ref = resolveObject(e, frame);
      PSCP_ASSERT(ref.type->isScalar());
      return (*ref.data)[static_cast<size_t>(ref.offset)];
    }
    case ExprKind::Member:
    case ExprKind::Index: {
      ObjectRef ref = resolveObject(e, frame);
      if (!ref.type->isScalar()) failAt(e.loc, "aggregate used as a scalar");
      return (*ref.data)[static_cast<size_t>(ref.offset)];
    }
    case ExprKind::Unary: {
      const int64_t v = evalExpr(*e.children[0], frame);
      switch (e.unOp) {
        case UnOp::Neg: return wrapToType(-v, e.type);
        case UnOp::BitNot: return wrapToType(~v, e.type);
        case UnOp::LogNot: return (v == 0) ? 1 : 0;
      }
      return 0;
    }
    case ExprKind::Binary: {
      // Short-circuit forms first.
      if (e.binOp == BinOp::LogAnd) {
        if (evalExpr(*e.children[0], frame) == 0) return 0;
        return (evalExpr(*e.children[1], frame) != 0) ? 1 : 0;
      }
      if (e.binOp == BinOp::LogOr) {
        if (evalExpr(*e.children[0], frame) != 0) return 1;
        return (evalExpr(*e.children[1], frame) != 0) ? 1 : 0;
      }
      const int64_t a = evalExpr(*e.children[0], frame);
      const int64_t b = evalExpr(*e.children[1], frame);
      switch (e.binOp) {
        case BinOp::Add: return wrapToType(a + b, e.type);
        case BinOp::Sub: return wrapToType(a - b, e.type);
        case BinOp::Mul: return wrapToType(a * b, e.type);
        case BinOp::Div:
          if (b == 0) failAt(e.loc, "division by zero");
          return wrapToType(a / b, e.type);
        case BinOp::Mod:
          if (b == 0) failAt(e.loc, "modulo by zero");
          return wrapToType(a % b, e.type);
        case BinOp::And: return wrapToType(a & b, e.type);
        case BinOp::Or: return wrapToType(a | b, e.type);
        case BinOp::Xor: return wrapToType(a ^ b, e.type);
        case BinOp::Shl: return wrapToType(a << (b & 31), e.type);
        case BinOp::Shr: return wrapToType(a >> (b & 31), e.type);
        case BinOp::Eq: return (a == b) ? 1 : 0;
        case BinOp::Ne: return (a != b) ? 1 : 0;
        case BinOp::Lt: return (a < b) ? 1 : 0;
        case BinOp::Le: return (a <= b) ? 1 : 0;
        case BinOp::Gt: return (a > b) ? 1 : 0;
        case BinOp::Ge: return (a >= b) ? 1 : 0;
        case BinOp::LogAnd:
        case BinOp::LogOr:
          break;  // handled above
      }
      return 0;
    }
    case ExprKind::Call: {
      if (isIntrinsicName(e.name)) return evalIntrinsic(e, frame);
      const Function& fn = program_.function(e.name);
      std::vector<Binding> args;
      args.reserve(e.children.size());
      for (size_t i = 0; i < e.children.size(); ++i) {
        const TypePtr& pt = fn.params[i].type;
        Binding b;
        switch (pt->kind()) {
          case TypeKind::Event:
          case TypeKind::Cond:
            b.hardware = hardwareNameOf(*e.children[i], frame);
            break;
          case TypeKind::Struct:
          case TypeKind::Array:
            b.ref = resolveObject(*e.children[i], frame);
            break;
          default:
            b.scalar = wrapToType(evalExpr(*e.children[i], frame), pt);
        }
        args.push_back(std::move(b));
      }
      const int64_t saved = retval_;
      const int64_t result = invoke(fn, std::move(args));
      retval_ = saved;
      return result;
    }
  }
  return 0;
}

}  // namespace pscp::actionlang
