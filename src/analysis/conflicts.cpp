// Conflict and write-race passes (pairwise over co-selectable transitions).
//
// Conflicts: the SLA selects every enabled transition; the scheduler then
// resolves overlapping exit sets by structural priority (shallower scope
// wins) and, at equal depth, declaration order. A pair resolved purely by
// declaration order is genuine nondeterminism the runtime hides — that is
// the Warning. A pair resolved by scope depth is Statemate-style priority,
// reported as a Note so reviewers can confirm it is intentional.
//
// Races: two transitions with disjoint exit sets both fire in the same
// configuration cycle, on different TEPs, concurrently. Their effect
// summaries (analysis/effects) are intersected over the *shared* machine
// state: data ports, CR condition bits, and external-RAM globals.
// Condition reads are snapshot semantics (per-TEP condition caches are
// copied from the CR at cycle start), so write-vs-read on a condition is
// NOT a hazard; write-write is, because write-back order decides the
// final bit. Event raising is idempotent and never reported.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/passes.hpp"
#include "support/text.hpp"

namespace pscp::analysis {

namespace {

using statechart::Transition;
using statechart::TransitionId;

[[nodiscard]] std::string describeTransition(const AnalysisContext& ctx,
                                             const Transition& t) {
  return strfmt("'%s -> %s' (%s)", ctx.chart.state(t.source).name.c_str(),
                ctx.chart.state(t.target).name.c_str(),
                t.label.raw.empty() ? "<no label>" : t.label.raw.c_str());
}

[[nodiscard]] bool exitSetsIntersect(const AnalysisContext& ctx, TransitionId a,
                                     TransitionId b) {
  const std::set<statechart::StateId> ea = ctx.interp.exitSet(a);
  const std::set<statechart::StateId> eb = ctx.interp.exitSet(b);
  const auto& small = ea.size() <= eb.size() ? ea : eb;
  const auto& large = ea.size() <= eb.size() ? eb : ea;
  return std::any_of(small.begin(), small.end(),
                     [&](statechart::StateId s) { return large.count(s) != 0; });
}

}  // namespace

void runConflictPass(AnalysisContext& ctx) {
  const auto& transitions = ctx.chart.transitions();
  for (size_t i = 0; i < transitions.size(); ++i) {
    for (size_t j = i + 1; j < transitions.size(); ++j) {
      const Transition& a = transitions[i];
      const Transition& b = transitions[j];
      if (!coSelectable(ctx, a.id, b.id)) continue;
      if (!exitSetsIntersect(ctx, a.id, b.id)) continue;

      const int da = ctx.chart.depth(ctx.interp.scopeOf(a.id));
      const int db = ctx.chart.depth(ctx.interp.scopeOf(b.id));
      Finding f;
      if (da == db) {
        f.code = kCodeConflict;
        f.severity = Severity::Warning;
        f.message = strfmt(
            "transitions %s and %s can be enabled together and exit "
            "overlapping states; at equal scope depth the winner is picked "
            "by declaration order",
            describeTransition(ctx, a).c_str(), describeTransition(ctx, b).c_str());
      } else {
        f.code = kCodeMaskedConflict;
        f.severity = Severity::Note;
        f.message = strfmt(
            "transitions %s and %s conflict; resolved by structural "
            "priority (scope depth %d beats %d)",
            describeTransition(ctx, da < db ? a : b).c_str(),
            describeTransition(ctx, da < db ? b : a).c_str(), std::min(da, db),
            std::max(da, db));
      }
      f.loc = a.loc;
      f.notes.emplace_back(b.loc, "the other transition of the pair");
      ctx.result->findings.push_back(std::move(f));
    }
  }
}

namespace {

/// Write-write collision over one resource map pair; returns the colliding
/// names whose values are not provably identical constants.
[[nodiscard]] std::vector<std::string> writeWriteCollisions(
    const std::map<std::string, std::optional<int64_t>>& wa,
    const std::map<std::string, std::optional<int64_t>>& wb) {
  std::vector<std::string> out;
  for (const auto& [name, va] : wa) {
    auto it = wb.find(name);
    if (it == wb.end()) continue;
    const auto& vb = it->second;
    if (va.has_value() && vb.has_value() && *va == *vb) continue;  // benign
    out.push_back(name);
  }
  return out;
}

[[nodiscard]] std::vector<std::string> writeReadCollisions(
    const std::map<std::string, std::optional<int64_t>>& writes,
    const std::set<std::string>& reads) {
  std::vector<std::string> out;
  for (const auto& [name, value] : writes)
    if (reads.count(name) != 0) out.push_back(name);
  return out;
}

[[nodiscard]] std::vector<std::string> setCollisions(const std::set<std::string>& a,
                                                     const std::set<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& ra : a)
    for (const std::string& rb : b)
      if (resourcesCollide(ra, rb)) out.push_back(ra);
  return out;
}

void reportRace(AnalysisContext& ctx, const Transition& a, const Transition& b,
                const char* code, Severity severity, const char* what,
                std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    Finding f;
    f.code = code;
    f.severity = severity;
    f.message = strfmt(
        "%s '%s' is accessed by transitions %s and %s, which can fire "
        "concurrently on different TEPs",
        what, name.c_str(), describeTransition(ctx, a).c_str(),
        describeTransition(ctx, b).c_str());
    f.resource = name;
    f.loc = a.loc;
    f.notes.emplace_back(b.loc, "the other transition of the pair");
    ctx.result->findings.push_back(std::move(f));
  }
}

}  // namespace

void runRacePass(AnalysisContext& ctx) {
  const auto& transitions = ctx.chart.transitions();
  for (size_t i = 0; i < transitions.size(); ++i) {
    for (size_t j = i + 1; j < transitions.size(); ++j) {
      const Transition& a = transitions[i];
      const Transition& b = transitions[j];
      // Concurrent dispatch requires: both selectable in one CR decode,
      // disjoint exit sets (else conflict resolution fires only one), and
      // no shared exclusion group (the scheduler serializes those).
      if (!a.exclusionGroup.empty() && a.exclusionGroup == b.exclusionGroup) continue;
      if (!coSelectable(ctx, a.id, b.id)) continue;
      if (exitSetsIntersect(ctx, a.id, b.id)) continue;

      const EffectSet& ea = ctx.effects[i];
      const EffectSet& eb = ctx.effects[j];

      reportRace(ctx, a, b, kCodeWriteWrite, Severity::Error, "port",
                 writeWriteCollisions(ea.portWrites, eb.portWrites));
      // Condition write-write is order-dependent but reported at Warning:
      // charts routinely serialize such pairs through guard conditions the
      // analysis leaves free (a state/condition invariant it cannot see),
      // and a lost CR-bit update is recoverable where a bus write is not.
      reportRace(ctx, a, b, kCodeWriteWrite, Severity::Warning, "condition",
                 writeWriteCollisions(ea.condWrites, eb.condWrites));
      reportRace(ctx, a, b, kCodeWriteWrite, Severity::Error, "global",
                 setCollisions(ea.globalWrites, eb.globalWrites));

      std::vector<std::string> rw = writeReadCollisions(ea.portWrites, eb.portReads);
      for (std::string& n : writeReadCollisions(eb.portWrites, ea.portReads))
        rw.push_back(std::move(n));
      reportRace(ctx, a, b, kCodeReadWrite, Severity::Warning, "port", rw);

      std::vector<std::string> grw;
      for (const std::string& n : setCollisions(ea.globalWrites, eb.globalReads))
        grw.push_back(n);
      for (const std::string& n : setCollisions(eb.globalWrites, ea.globalReads))
        grw.push_back(n);
      reportRace(ctx, a, b, kCodeReadWrite, Severity::Warning, "global", grw);
      // Condition write-vs-read is snapshot-isolated (per-TEP condition
      // caches) — deliberately not reported.
    }
  }
}

}  // namespace pscp::analysis
