#include "actionlang/ast.hpp"

#include <array>

namespace pscp::actionlang {

const char* binOpName(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::And: return "&";
    case BinOp::Or: return "|";
    case BinOp::Xor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::LogAnd: return "&&";
    case BinOp::LogOr: return "||";
  }
  return "?";
}

const char* unOpName(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::BitNot: return "~";
    case UnOp::LogNot: return "!";
  }
  return "?";
}

std::string Expr::str() const {
  switch (kind) {
    case ExprKind::IntLit:
      return std::to_string(value);
    case ExprKind::VarRef:
      return name;
    case ExprKind::Member:
      return children[0]->str() + "." + name;
    case ExprKind::Index:
      return children[0]->str() + "[" + children[1]->str() + "]";
    case ExprKind::Unary:
      return std::string(unOpName(unOp)) + "(" + children[0]->str() + ")";
    case ExprKind::Binary: {
      std::string out = "(";
      out += children[0]->str();
      out += ' ';
      out += binOpName(binOp);
      out += ' ';
      out += children[1]->str();
      out += ')';
      return out;
    }
    case ExprKind::Call: {
      std::string out = name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i != 0) out += ", ";
        out += children[i]->str();
      }
      return out + ")";
    }
  }
  return "?";
}

ExprPtr makeIntLit(int64_t value, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntLit;
  e->value = value;
  e->loc = std::move(loc);
  return e;
}

ExprPtr makeVarRef(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->name = std::move(name);
  e->loc = std::move(loc);
  return e;
}

const Function* Program::findFunction(const std::string& name) const {
  for (const Function& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const Function& Program::function(const std::string& name) const {
  const Function* f = findFunction(name);
  if (f == nullptr) fail("no function named '%s'", name.c_str());
  return *f;
}

const GlobalVar* Program::findGlobal(const std::string& name) const {
  for (const GlobalVar& g : globals)
    if (g.name == name) return &g;
  return nullptr;
}

GlobalVar* Program::findGlobal(const std::string& name) {
  for (GlobalVar& g : globals)
    if (g.name == name) return &g;
  return nullptr;
}

bool isIntrinsicName(const std::string& name) {
  return name == "raise" || name == "set_cond" || name == "test_cond" ||
         name == "read_port" || name == "write_port" || name == "in_state";
}

}  // namespace pscp::actionlang
