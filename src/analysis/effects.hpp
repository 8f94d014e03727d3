// Per-transition effect summaries for the race pass.
//
// A transition's observable effects are what its action routine does to
// shared machine state: events raised into the CR, condition bits written
// or tested, data ports read or written, and external-RAM globals touched.
// The summary is computed from the checked action-language AST by walking
// each label ActionCall into the callee with its formal->actual binding
// (event/cond/struct/array parameters bind by name, exactly as codegen
// specializes them), and can be *augmented* from the assembled TEP routine
// — the compiled code is what actually runs, so EVSET/CSET/CCLR/CTST and
// INP/OUTP instructions reached from the routine entry are folded in too.
//
// Write values are tracked as optional constants: two transitions both
// writing the same constant to a port is not an observable race, while two
// different constants (or any non-constant write) is.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "actionlang/ast.hpp"
#include "compiler/binding.hpp"
#include "compiler/codegen.hpp"
#include "statechart/chart.hpp"
#include "support/bits.hpp"
#include "tep/isa.hpp"

namespace pscp::analysis {

struct EffectSet {
  std::set<std::string> eventsRaised;
  /// Condition name -> written value when it is a compile-time constant
  /// (nullopt = data-dependent). Two constant writes of equal value collide
  /// benignly; anything else is order-dependent.
  std::map<std::string, std::optional<int64_t>> condWrites;
  std::set<std::string> condReads;
  std::map<std::string, std::optional<int64_t>> portWrites;
  std::set<std::string> portReads;
  /// Action-language globals, element-granular when the subscript is
  /// statically bound ("motors[0]"); a bare name means "some element".
  std::set<std::string> globalWrites;
  std::set<std::string> globalReads;
  /// Subsets of the maps above recorded on a control path the static walk
  /// could not prove taken: under an If/While whose condition does not
  /// fold under the call binding, or contributed by the (branch-blind)
  /// code scan. A name here *may* fire at run time; a name in the maps
  /// above but absent here is definite. The race pass keeps treating every
  /// effect as definite (over-approximating hazards is sound there); the
  /// bounded model checker (src/analysis/check) branches over these.
  std::set<std::string> conditionalRaises;
  std::set<std::string> conditionalCondWrites;
  std::set<std::string> conditionalPortWrites;

  /// True when every label action resolved to a known function — the AST
  /// summary then covers the routine exactly and the (data-flow-blind)
  /// code scan is not needed as a fallback.
  bool astComplete = true;

  /// True when every array subscript the routine evaluates, on a global or
  /// a local array, folds to an in-range constant under the call binding.
  /// Compiled code does not bounds-check, so when this is false an access
  /// may land on any byte of data memory, external RAM included.
  bool subscriptsInRange = true;

  /// True when the summary is an exact model of the routine: the AST walk
  /// was complete, nothing was recorded under an unresolved branch, and
  /// every condition write has a known value. The checker's abstract step
  /// is then deterministic for this transition.
  [[nodiscard]] bool exact() const;

  /// Record a write, collapsing repeated writes with differing constants to
  /// "non-constant" (the pairwise comparison must then assume a race).
  static void recordWrite(std::map<std::string, std::optional<int64_t>>* map,
                          const std::string& name, std::optional<int64_t> value);
};

/// Effects of `t`'s action list under `program`. The program must have been
/// type-checked (constant folding fills Expr::constant). Unknown callee
/// names are skipped — the chart compiler rejects them separately.
[[nodiscard]] EffectSet transitionEffects(const statechart::Transition& t,
                                          const actionlang::Program& program);

/// Global resources are element-granular ("motors[0]"); a bare base name
/// means "some element" and collides with every element of that base.
[[nodiscard]] std::string resourceBase(const std::string& resource);
[[nodiscard]] bool resourcesCollide(const std::string& a, const std::string& b);

/// The pairs of transitions the native tier must not run ahead of the
/// lockstep loop on two TEPs in one configuration cycle (pscp/machine.hpp):
/// one routine writes a port the other reads, or both touch one external
/// global and at least one writes it. A transition whose summary is
/// incomplete, or whose subscripts do not all fold in range, touches all
/// of external RAM. Condition writes (written back at retire) and raised
/// events (replayed in lockstep order) never make a pair hazardous.
/// Row t has bit u set when (t, u) is a hazard pair; the matrix is
/// symmetric, indexed by TransitionId.
[[nodiscard]] std::vector<BitVec> replayHazards(const statechart::Chart& chart,
                                                const actionlang::Program& program,
                                                const compiler::CompiledApp& app,
                                                const compiler::HardwareBinding& binding);

/// Index->name inversion of a HardwareBinding, for decoding CSET/EVSET/OUTP
/// operands back to chart-level names.
struct ReverseBinding {
  std::map<int, std::string> eventByBit;
  std::map<int, std::string> conditionByBit;
  std::map<int, std::string> portByAddress;
};

[[nodiscard]] ReverseBinding makeReverse(const compiler::HardwareBinding& binding);

/// A control-transfer operand pointing outside program memory (PSCP-AL003).
struct BadJump {
  std::string routine;
  int instrIndex = 0;  ///< index of the offending instruction
  int32_t target = 0;  ///< out-of-range operand
};

/// Walk the assembled routine from its entry, following fall-through,
/// branch and CALL edges until TRET, folding every SLA/port instruction
/// into `effects` and recording control transfers that leave program
/// memory in `badJumps` (either out-param may be null).
void augmentFromRoutine(const tep::AsmProgram& program, const std::string& routine,
                        const ReverseBinding& names, EffectSet* effects,
                        std::vector<BadJump>* badJumps);

}  // namespace pscp::analysis
