// Bounded model checker over packed configurations, with journal-
// replayable counterexamples.
//
// The checker explores the event-labelled transition graph of a compiled
// chart: nodes are (interpreter state, temporal-monitor words), edges are
// external-event sets drawn from the spec's environment alphabet. The
// control step is the reference interpreter (configuration update only);
// transition *effects* — condition writes, internal raises, port pulses —
// come from the static effect summaries of src/analysis/effects.cpp,
// augmented from the assembled TEP routines when a compiled image is
// attached. Effects the summary cannot prove definite (EffectSet::
// conditionalRaises and friends, or data-dependent write values) become
// explicit branch points, so the abstract graph over-approximates the
// concrete machine: a Pass over a complete search is sound, and every Fail
// carries a concrete candidate trace that is then *confirmed* by replaying
// it on the real PscpMachine (interpreter tier, then the native tier).
//
// Per expansion the checker cross-checks the compiled SLA against the
// interpreter: the packed CR of the pre-step state (sampled events |
// conditions | state-field codes) is decoded by sla::Sla::select and the
// selection must equal Interpreter::enabledTransitions — the same
// mask-product the hardware runs, asserted on every explored node.
//
// Every confirmed violation is also lowered to a pscp-journal-v1 journal:
// a single-instance fleet records the counterexample's event script with
// per-epoch CR-digest checkpoints, and the journal is verified through the
// replay engine on the interpreter and (when the backend exists) the JIT
// tier. The artifact a finding points at is therefore independently
// re-executable by `pscp_replay verify`.
//
// Bound semantics extend the RE000 contract of the reachability pass:
// whenever any bound truncated the search (state cap, depth cap, event-set
// cap, branch-fan cap) the result carries PSCP-MC000 and every property
// the search did not refute is reported Unknown (PSCP-MC005), never Pass —
// the bound decided, not the property.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/check/spec.hpp"
#include "analysis/finding.hpp"
#include "obs/journal/journal.hpp"
#include "pscp/machine.hpp"

namespace pscp::analysis::check {

struct CheckOptions {
  /// Distinct (configuration, monitors) nodes explored before truncation.
  int maxStates = 1 << 14;
  /// BFS depth (= counterexample length) cap, in configuration cycles.
  int maxDepth = 1024;
};

enum class PropStatus { Pass, Fail, Unknown };
[[nodiscard]] const char* propStatusName(PropStatus s);

/// A violation witness: the external-event script that drives the machine
/// from the initial configuration into the violation, plus everything the
/// confirmation/replay pipeline established about it.
struct Counterexample {
  /// External events injected per configuration cycle (possibly empty
  /// sets). Empty vector = the initial configuration already violates.
  std::vector<std::vector<std::string>> cycles;
  /// Cycle index at which the violation is observed; -1 = initial state.
  int violationCycle = -1;
  /// Trace re-ran on a concrete PscpMachine and reproduced the violation.
  bool confirmed = false;
  /// Same, with the native tier forced on (kAlways).
  bool jitConfirmed = false;
  /// jitConfirmed is meaningful only when the backend exists.
  bool jitChecked = false;
  /// The machine's packed CR after the trace (from the confirming run) —
  /// what a faithful journal replay must end in.
  std::vector<uint64_t> finalCrWords;

  bool journalBuilt = false;
  obs::journal::Journal journal;  ///< pscp-journal-v1 witness
  /// Journal replay-verified (digest checkpoints + final CR) per tier.
  bool interpVerified = false;
  bool jitVerified = false;
};

struct PropertyReport {
  std::string name;
  PropKind kind = PropKind::Invariant;
  PropStatus status = PropStatus::Unknown;
  std::string detail;  ///< one line: why this status
  /// True when the abstract model produced a candidate the concrete
  /// machine refuted (the candidate lived only in an uncertainty branch).
  bool spurious = false;
  Counterexample cex;  ///< populated when status == Fail (or spurious)
};

struct CheckResult {
  std::string chartName;
  std::string specFile;
  /// Content hash of the compiled image the verdicts (and journals) bind
  /// to; 0 in model-only mode (no image attached).
  uint64_t imageHash = 0;

  int statesExplored = 0;
  bool complete = true;           ///< neither state nor depth bound tripped
  bool eventSetsComplete = true;  ///< full event powerset explored
  bool choicesComplete = true;    ///< no expansion hit maxChoiceFan
  /// No uncertainty branches were ever taken: the effect summaries were
  /// exact and the abstract graph IS the concrete reachable graph.
  bool modelExact = true;
  /// Every fired transition's effect summary covered its routine (AST walk
  /// complete, or augmented from the assembled code). When false a Pass
  /// would be unsound and is demoted to Unknown.
  bool effectsSound = true;

  std::vector<PropertyReport> properties;
  std::vector<Finding> findings;  ///< MC0xx, ready to merge into lint output

  [[nodiscard]] int failCount() const;
  [[nodiscard]] int unknownCount() const;
  /// True when a Pass here means "proved within the bound" (nothing was
  /// truncated and the model over-approximates soundly).
  [[nodiscard]] bool passIsSound() const {
    return complete && eventSetsComplete && choicesComplete && effectsSound;
  }

  /// Compiler-style text report (one line per property + findings).
  [[nodiscard]] std::string renderText() const;
  /// The pscp-check-v1 JSON document; each failed property embeds its
  /// witness journal as a pscp-journal-v1 object.
  [[nodiscard]] std::string renderJson(int indent = 2) const;
};

/// Run the bounded check. `image` may be null (model-only mode: no SLA
/// cross-check, no routine-augmented effects, no confirmation, no
/// journals); when present, `chart`/`actions` must be the ones the image
/// was built from. Spec must already be bound (bindSpec).
[[nodiscard]] CheckResult runBoundedCheck(
    const statechart::Chart& chart, const actionlang::Program& actions,
    const SpecFile& spec, std::shared_ptr<const machine::ChartImage> image,
    const CheckOptions& options = {});

}  // namespace pscp::analysis::check
