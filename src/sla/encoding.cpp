#include "sla/encoding.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace pscp::sla {

using statechart::Chart;
using statechart::StateId;

bool mutuallyExclusive(const Chart& chart, StateId a, StateId b) {
  if (a == b) return false;
  if (chart.isAncestor(a, b) || chart.isAncestor(b, a)) return false;
  const StateId lca = chart.lowestCommonAncestor(a, b);
  return chart.state(lca).kind == statechart::StateKind::Or;
}

std::vector<std::vector<StateId>> exclusivitySets(const Chart& chart) {
  // Greedy set cover in preorder: deeper/later states join the first set
  // whose members are all exclusive with them. Preorder keeps siblings of
  // one OR state together, which is the intent of the Drusinsky encoding.
  std::vector<std::vector<StateId>> sets;
  for (StateId s : chart.subtree(chart.root())) {
    if (s == chart.root()) continue;
    bool placed = false;
    for (auto& set : sets) {
      const bool ok = std::all_of(set.begin(), set.end(), [&](StateId other) {
        return mutuallyExclusive(chart, s, other);
      });
      if (ok) {
        set.push_back(s);
        placed = true;
        break;
      }
    }
    if (!placed) sets.push_back({s});
  }
  return sets;
}

CrLayout::CrLayout(const Chart& chart) {
  // Event bits are absolute CR positions; condition bits are relative to
  // the condition part (the TEP condition caches are indexed from zero).
  int eventBit = 0;
  for (const auto& [name, decl] : chart.events()) events_[name] = eventBit++;
  int condBit = 0;
  for (const auto& [name, decl] : chart.conditions()) conditions_[name] = condBit++;

  int stateBit = 0;
  for (const std::vector<StateId>& set : exclusivitySets(chart)) {
    StateField field;
    field.states = set;
    field.baseBit = stateBit;
    field.width = bitsFor(static_cast<uint32_t>(set.size()) + 1);
    for (size_t i = 0; i < set.size(); ++i)
      codes_[set[i]] = {static_cast<int>(fields_.size()), static_cast<int>(i) + 1};
    stateBit += field.width;
    fields_.push_back(std::move(field));
  }
  totalBits_ = eventCount() + conditionCount() + stateBit;
}

int CrLayout::eventBit(const std::string& name) const {
  auto it = events_.find(name);
  if (it == events_.end()) fail("CR has no event '%s'", name.c_str());
  return it->second;
}

int CrLayout::conditionBit(const std::string& name) const {
  auto it = conditions_.find(name);
  if (it == conditions_.end()) fail("CR has no condition '%s'", name.c_str());
  return it->second;
}

std::pair<int, int> CrLayout::stateCode(StateId s) const {
  auto it = codes_.find(s);
  if (it == codes_.end()) fail("state %d has no CR code (root?)", s);
  return it->second;
}

std::string CrLayout::describe(const Chart& chart) const {
  std::string out = strfmt("CR: %d bits (%d events, %d conditions, %d state bits)\n",
                           totalBits(), eventCount(), conditionCount(),
                           totalBits() - stateBase());
  for (size_t i = 0; i < fields_.size(); ++i) {
    out += strfmt("  field %zu (%d bits):", i, fields_[i].width);
    for (size_t j = 0; j < fields_[i].states.size(); ++j)
      out += strfmt(" %s=%zu", chart.state(fields_[i].states[j]).name.c_str(), j + 1);
    out += "\n";
  }
  return out;
}

}  // namespace pscp::sla
