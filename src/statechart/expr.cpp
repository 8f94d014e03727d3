#include "statechart/expr.hpp"

#include <algorithm>

namespace pscp::statechart {

BoolExpr BoolExpr::alwaysTrue() {
  return BoolExpr();
}

BoolExpr BoolExpr::ref(std::string name) {
  BoolExpr e;
  e.op_ = BoolOp::Ref;
  e.name_ = std::move(name);
  return e;
}

BoolExpr BoolExpr::negate(BoolExpr inner) {
  BoolExpr e;
  e.op_ = BoolOp::Not;
  e.kids_.push_back(std::move(inner));
  return e;
}

BoolExpr BoolExpr::conjunction(BoolExpr lhs, BoolExpr rhs) {
  // Flatten left-nested chains so "A and B and C" keeps its source shape.
  if (lhs.op_ == BoolOp::And) {
    lhs.kids_.push_back(std::move(rhs));
    return lhs;
  }
  BoolExpr e;
  e.op_ = BoolOp::And;
  e.kids_.push_back(std::move(lhs));
  e.kids_.push_back(std::move(rhs));
  return e;
}

BoolExpr BoolExpr::disjunction(BoolExpr lhs, BoolExpr rhs) {
  if (lhs.op_ == BoolOp::Or) {
    lhs.kids_.push_back(std::move(rhs));
    return lhs;
  }
  BoolExpr e;
  e.op_ = BoolOp::Or;
  e.kids_.push_back(std::move(lhs));
  e.kids_.push_back(std::move(rhs));
  return e;
}

bool BoolExpr::eval(const std::function<bool(const std::string&)>& lookup) const {
  switch (op_) {
    case BoolOp::True:
      return true;
    case BoolOp::Ref:
      return lookup(name_);
    case BoolOp::Not:
      return !kids_[0].eval(lookup);
    case BoolOp::And:
      return std::all_of(kids_.begin(), kids_.end(),
                         [&](const BoolExpr& k) { return k.eval(lookup); });
    case BoolOp::Or:
      return std::any_of(kids_.begin(), kids_.end(),
                         [&](const BoolExpr& k) { return k.eval(lookup); });
  }
  return false;
}

namespace {
void collectNames(const BoolExpr& e, std::vector<std::string>& out) {
  if (e.op() == BoolOp::Ref) {
    if (std::find(out.begin(), out.end(), e.name()) == out.end()) out.push_back(e.name());
    return;
  }
  for (const BoolExpr& k : e.children()) collectNames(k, out);
}
}  // namespace

std::vector<std::string> BoolExpr::referencedNames() const {
  std::vector<std::string> out;
  collectNames(*this, out);
  return out;
}

namespace {
void collectPositive(const BoolExpr& e, bool negated, std::vector<std::string>& out) {
  if (e.op() == BoolOp::Ref) {
    if (!negated && std::find(out.begin(), out.end(), e.name()) == out.end())
      out.push_back(e.name());
    return;
  }
  const bool flip = e.op() == BoolOp::Not;
  for (const BoolExpr& k : e.children()) collectPositive(k, negated ^ flip, out);
}
}  // namespace

std::vector<std::string> BoolExpr::positiveNames() const {
  std::vector<std::string> out;
  collectPositive(*this, false, out);
  return out;
}

std::string BoolExpr::str() const {
  switch (op_) {
    case BoolOp::True:
      return "true";
    case BoolOp::Ref:
      return name_;
    case BoolOp::Not: {
      const BoolExpr& k = kids_[0];
      if (k.op_ == BoolOp::Ref) return "not " + k.str();
      return "not (" + k.str() + ")";
    }
    case BoolOp::And:
    case BoolOp::Or: {
      const char* word = (op_ == BoolOp::And) ? " and " : " or ";
      std::string out;
      for (size_t i = 0; i < kids_.size(); ++i) {
        if (i != 0) out += word;
        const bool paren = kids_[i].op_ == BoolOp::And || kids_[i].op_ == BoolOp::Or;
        if (paren) out += '(';
        out += kids_[i].str();
        if (paren) out += ')';
      }
      return out;
    }
  }
  return "?";
}

std::string ActionCall::str() const {
  std::string out = function + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ", ";
    out += args[i];
  }
  out += ")";
  return out;
}

}  // namespace pscp::statechart
