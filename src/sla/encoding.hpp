// State encoding and Configuration Register layout (paper Sec. 2).
//
// "The efficient state encoding of a chart involves the generation of
//  exclusivity sets, which was first described in [Drusinsky-Yoresh, IEEE
//  TCAD 1991]. The state information, together with the encoded events and
//  conditions, forms the configuration register (CR) of the chart."
//
// An *exclusivity set* is a group of states of which at most one can be
// active in any configuration; the whole set shares one binary-encoded CR
// field (code 0 = none of them active). Events and conditions get one CR
// bit each. The CR layout is the contract between the SLA (which decodes
// it), the scheduler (which copies the condition part into the TEP
// condition caches), and the TEPs (whose EVSET/CSET/CCLR/CTST/STST
// instructions address CR indices).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "statechart/chart.hpp"

namespace pscp::sla {

/// True when `a` and `b` can never be active together: their lowest common
/// ancestor is an OR state and neither contains the other.
[[nodiscard]] bool mutuallyExclusive(const statechart::Chart& chart,
                                     statechart::StateId a, statechart::StateId b);

/// Greedy partition of all non-root states into exclusivity sets.
[[nodiscard]] std::vector<std::vector<statechart::StateId>> exclusivitySets(
    const statechart::Chart& chart);

struct StateField {
  std::vector<statechart::StateId> states;  ///< member i encodes as i+1
  int baseBit = 0;                          ///< position in the CR state part
  int width = 1;                            ///< bitsFor(states.size() + 1)
};

/// Complete Configuration Register layout.
class CrLayout {
 public:
  explicit CrLayout(const statechart::Chart& chart);

  [[nodiscard]] int eventBit(const std::string& name) const;
  [[nodiscard]] int conditionBit(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, int>& eventBits() const { return events_; }
  [[nodiscard]] const std::map<std::string, int>& conditionBits() const {
    return conditions_;
  }

  [[nodiscard]] const std::vector<StateField>& stateFields() const { return fields_; }
  /// (field index, code within field) of a state; code 0 means inactive.
  [[nodiscard]] std::pair<int, int> stateCode(statechart::StateId s) const;

  [[nodiscard]] int eventCount() const { return static_cast<int>(events_.size()); }
  [[nodiscard]] int conditionCount() const { return static_cast<int>(conditions_.size()); }
  /// Bit offsets of the three CR parts: [events | conditions | state].
  [[nodiscard]] int conditionBase() const { return eventCount(); }
  [[nodiscard]] int stateBase() const { return eventCount() + conditionCount(); }
  [[nodiscard]] int totalBits() const { return totalBits_; }

  [[nodiscard]] std::string describe(const statechart::Chart& chart) const;

 private:
  std::map<std::string, int> events_;
  std::map<std::string, int> conditions_;
  std::vector<StateField> fields_;
  std::map<statechart::StateId, std::pair<int, int>> codes_;
  int totalBits_ = 0;
};

}  // namespace pscp::sla
