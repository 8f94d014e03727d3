#include "analysis/check/checker.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <unordered_set>

#include "analysis/effects.hpp"
#include "fleet/fleet.hpp"
#include "obs/journal/replay.hpp"
#include "obs/sink.hpp"
#include "statechart/semantics.hpp"
#include "support/json.hpp"

namespace pscp::analysis::check {
namespace {

using statechart::Chart;
using statechart::InterpreterState;
using statechart::StateId;
using statechart::TransitionId;

/// Alphabet size up to which every event subset is an edge label; larger
/// alphabets fall back to the empty set + singletons (and the result is
/// marked event-set-incomplete, demoting Pass to Unknown).
constexpr int kMaxEventSetBits = 5;
/// Cap on uncertain-effect branch combinations per expansion.
constexpr int kMaxChoiceFan = 32;

// Observable valuation of one configuration cycle, abstract or concrete:
// `state`/`cond` read the post-cycle configuration and condition values,
// `event` reads the set sampled into the CR at that cycle's start.
struct Obs {
  std::function<bool(const PropExpr&)> state;
  std::function<bool(const std::string&)> cond;
  std::function<bool(const std::string&)> event;
};

[[nodiscard]] bool evalExpr(const PropExpr& e, const Obs& obs) {
  switch (e.kind) {
    case PropExpr::Kind::True: return true;
    case PropExpr::Kind::False: return false;
    case PropExpr::Kind::State: return obs.state(e);
    case PropExpr::Kind::Cond: return obs.cond(e.name);
    case PropExpr::Kind::Event: return obs.event(e.name);
    case PropExpr::Kind::Not: return !evalExpr(e.kids[0], obs);
    case PropExpr::Kind::And:
      return evalExpr(e.kids[0], obs) && evalExpr(e.kids[1], obs);
    case PropExpr::Kind::Or:
      return evalExpr(e.kids[0], obs) || evalExpr(e.kids[1], obs);
    case PropExpr::Kind::Implies:
      return !evalExpr(e.kids[0], obs) || evalExpr(e.kids[1], obs);
  }
  return false;
}

[[nodiscard]] bool safetyViolated(const Property& p, const Obs& obs) {
  const bool holds = evalExpr(p.expr, obs);
  return p.kind == PropKind::Invariant ? !holds : holds;
}

// Advance a temporal property's monitor word through one cycle; true when
// this cycle violates. LeadsTo: `w` is the remaining deadline (0 = idle);
// the goal may be met in the trigger cycle itself, so `within N` means
// "goal holds in some cycle of [trigger, trigger+N]". Pulse: `w` is a
// shift register of the last `within` cycles (bit = port written that
// cycle); more than maxPulses marked cycles in the window violates.
[[nodiscard]] bool monitorStep(const Property& p, uint64_t* w, const Obs& obs,
                               bool pulsed) {
  if (p.kind == PropKind::LeadsTo) {
    if (evalExpr(p.goal, obs)) {
      *w = 0;
      return false;
    }
    if (*w > 0) {
      --*w;
      if (*w == 0) return true;
    }
    if (*w == 0 && evalExpr(p.expr, obs)) *w = static_cast<uint64_t>(p.within);
    return false;
  }
  *w = ((*w << 1) | (pulsed ? 1u : 0u)) &
       ((uint64_t{1} << p.within) - 1);
  return std::popcount(*w) > p.maxPulses;
}

/// Captures the exact per-cycle sampled event sets from a concrete run
/// (external + internal + timer events, decoded from the CR image the SLA
/// is about to read).
class SampleSink : public obs::ObsSink {
 public:
  explicit SampleSink(const sla::CrLayout& layout) : layout_(layout) {}

  void onCrSampled(const BitVec& crBits, int64_t time) override {
    (void)time;
    std::set<std::string> s;
    for (const auto& [name, bit] : layout_.eventBits())
      if (crBits.test(bit)) s.insert(name);
    sampled_.push_back(std::move(s));
  }

  [[nodiscard]] const std::vector<std::set<std::string>>& sampled() const {
    return sampled_;
  }

 private:
  const sla::CrLayout& layout_;
  std::vector<std::set<std::string>> sampled_;
};

// One uncertain-effect branch point gathered while applying a fired
// transition's summary. Options: -1 = skip (effect does not fire), else
// the value (conditions) or 1 (raise / pulse happens).
struct PendingOp {
  enum class Kind { Cond, Raise, Pulse };
  Kind kind = Kind::Cond;
  std::string name;
  std::vector<int> options;
};

struct Node {
  InterpreterState interp;
  std::vector<uint64_t> monitors;  ///< one word per temporal property
  int parent = -1;
  int eventSetIndex = -1;  ///< edge label that produced this node
  int depth = 0;
};

class Checker {
 public:
  Checker(const Chart& chart, const actionlang::Program& actions,
          const SpecFile& spec, std::shared_ptr<const machine::ChartImage> image,
          const CheckOptions& options)
      : chart_(chart),
        actions_(actions),
        spec_(spec),
        image_(std::move(image)),
        opt_(options),
        interp_(chart) {
    if (image_) {
      layout_ = &image_->layout();
      sla_ = &image_->sla();
    } else {
      localLayout_ = std::make_unique<sla::CrLayout>(chart_);
      layout_ = localLayout_.get();
    }
    for (const Property& p : spec_.properties)
      if (p.kind == PropKind::Pulse) watchedPorts_.insert(p.port);
    buildEffects();
    buildEventSets();
  }

  CheckResult run();

 private:
  void buildEffects() {
    effects_.resize(chart_.transitions().size());
    std::unique_ptr<ReverseBinding> reverse;
    if (image_)
      reverse = std::make_unique<ReverseBinding>(makeReverse(image_->binding()));
    for (const statechart::Transition& t : chart_.transitions()) {
      EffectSet e = transitionEffects(t, actions_);
      if (image_) {
        const auto& routines = image_->app().transitionRoutine;
        auto it = routines.find(t.id);
        if (it != routines.end())
          augmentFromRoutine(image_->app().program, it->second, *reverse,
                             e.astComplete ? nullptr : &e, nullptr);
      }
      effects_[static_cast<size_t>(t.id)] = std::move(e);
    }
  }

  void buildEventSets() {
    std::vector<std::string> alphabet = spec_.envEvents;
    if (alphabet.empty())
      for (const auto& [name, decl] : chart_.events())
        if (decl.external) alphabet.push_back(name);
    if (alphabet.empty())
      for (const auto& [name, decl] : chart_.events()) alphabet.push_back(name);
    std::sort(alphabet.begin(), alphabet.end());
    alphabet.erase(std::unique(alphabet.begin(), alphabet.end()), alphabet.end());

    const int n = static_cast<int>(alphabet.size());
    if (n <= kMaxEventSetBits) {
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        std::vector<std::string> set;
        for (int i = 0; i < n; ++i)
          if ((mask >> i) & 1u) set.push_back(alphabet[static_cast<size_t>(i)]);
        eventSets_.push_back(std::move(set));
      }
    } else {
      eventSetsComplete_ = false;
      eventSets_.emplace_back();
      for (const std::string& ev : alphabet) eventSets_.push_back({ev});
    }
  }

  /// Dedup key over (configuration, conditions, pending events, monitor
  /// words) — injective by construction, fixed layout per chart.
  [[nodiscard]] std::string nodeKey(const Node& n) const {
    std::string k;
    k.reserve(2 * n.interp.active.size() + 2 +
              (chart_.conditions().size() + chart_.events().size()) / 8 + 2 +
              8 * n.monitors.size());
    for (StateId s : n.interp.active) {
      k.push_back(static_cast<char>(s & 0xFF));
      k.push_back(static_cast<char>((s >> 8) & 0xFF));
    }
    k.push_back('\xFF');
    k.push_back('\xFF');
    auto packBools = [&k](auto&& names, auto&& test) {
      uint8_t byte = 0;
      int fill = 0;
      for (const auto& [name, decl] : names) {
        (void)decl;
        byte = static_cast<uint8_t>((byte << 1) | (test(name) ? 1 : 0));
        if (++fill == 8) {
          k.push_back(static_cast<char>(byte));
          byte = 0;
          fill = 0;
        }
      }
      if (fill != 0) k.push_back(static_cast<char>(byte));
    };
    packBools(chart_.conditions(), [&](const std::string& name) {
      auto it = n.interp.conditions.find(name);
      return it != n.interp.conditions.end() && it->second;
    });
    packBools(chart_.events(), [&](const std::string& name) {
      return n.interp.pendingEvents.count(name) != 0;
    });
    for (uint64_t w : n.monitors)
      for (int b = 0; b < 8; ++b)
        k.push_back(static_cast<char>((w >> (8 * b)) & 0xFF));
    return k;
  }

  /// The packed CR the hardware would decode for this pre-step state:
  /// sampled event bits, condition bits, state-field codes.
  [[nodiscard]] BitVec packCr(const InterpreterState& s,
                              const std::set<std::string>& sampled) const {
    const sla::CrLayout& L = *layout_;
    BitVec cr(L.totalBits());
    for (const auto& [name, bit] : L.eventBits())
      if (sampled.count(name)) cr.set(bit);
    for (const auto& [name, bit] : L.conditionBits()) {
      auto it = s.conditions.find(name);
      if (it != s.conditions.end() && it->second) cr.set(L.conditionBase() + bit);
    }
    for (StateId st : s.active) {
      if (st == chart_.root()) continue;
      const auto [fieldIndex, code] = L.stateCode(st);
      const sla::StateField& field =
          L.stateFields()[static_cast<size_t>(fieldIndex)];
      for (int i = 0; i < field.width; ++i)
        if ((code >> i) & 1) cr.set(L.stateBase() + field.baseBit + i);
    }
    return cr;
  }

  /// The tentpole's exactness guard: the compiled SLA mask product over
  /// the packed CR must select exactly the interpreter's enabled set.
  /// interp_ must currently hold `s`.
  void crossCheckSla(const InterpreterState& s,
                     const std::set<std::string>& sampled) const {
    if (sla_ == nullptr) return;
    const std::vector<TransitionId> hw = sla_->select(packCr(s, sampled));
    const std::vector<TransitionId> ref = interp_.enabledTransitions(sampled);
    PSCP_ASSERT(hw == ref);
  }

  [[nodiscard]] Obs modelObs(const InterpreterState& s,
                             const std::set<std::string>& sampled) const {
    return Obs{
        [&s](const PropExpr& e) { return s.active.count(e.stateId) != 0; },
        [&s](const std::string& name) {
          auto it = s.conditions.find(name);
          return it != s.conditions.end() && it->second;
        },
        [&sampled](const std::string& name) { return sampled.count(name) != 0; },
    };
  }

  // ---------------------------------------------------------- exploration

  CheckResult run_;
  std::vector<Node> nodes_;
  std::unordered_set<std::string> visited_;
  std::deque<int> queue_;
  std::vector<int> candidate_;  ///< per property: violating node, -1 = none

  [[nodiscard]] bool allDecided() const {
    return std::all_of(candidate_.begin(), candidate_.end(),
                       [](int c) { return c >= 0; });
  }

  void checkCycleOnNode(int nodeIndex, const std::set<std::string>& sampled,
                        const std::set<std::string>& pulsed) {
    Node& n = nodes_[static_cast<size_t>(nodeIndex)];
    const Obs obs = modelObs(n.interp, sampled);
    int monitor = 0;
    for (size_t i = 0; i < spec_.properties.size(); ++i) {
      const Property& p = spec_.properties[i];
      bool violated = false;
      if (p.temporal()) {
        // Monitors advance on every node (the word is part of state
        // identity); violations only matter while the property is open.
        violated = monitorStep(p, &n.monitors[static_cast<size_t>(monitor++)],
                               obs, pulsed.count(p.port) != 0);
      } else {
        violated = safetyViolated(p, obs);
      }
      if (violated && candidate_[i] < 0) candidate_[i] = nodeIndex;
    }
  }

  void expand(int nodeIndex) {
    for (size_t es = 0; es < eventSets_.size(); ++es) {
      const std::vector<std::string>& eventVec = eventSets_[es];
      const std::set<std::string> external(eventVec.begin(), eventVec.end());
      // Re-enter the interpreter at this node (copy: restoreState moves).
      const Node parent = nodes_[static_cast<size_t>(nodeIndex)];
      interp_.restoreState(parent.interp);
      std::set<std::string> sampled = external;
      sampled.insert(parent.interp.pendingEvents.begin(),
                     parent.interp.pendingEvents.end());
      crossCheckSla(parent.interp, sampled);
      const statechart::StepResult sr = interp_.step(external, {});
      const InterpreterState base = interp_.saveState();

      // Gather effect applications in firing order; uncertain ones become
      // branch options.
      std::vector<PendingOp> ops;
      for (TransitionId t : sr.fired) {
        const EffectSet& e = effects_[static_cast<size_t>(t)];
        if (!e.astComplete && !image_) run_.effectsSound = false;
        for (const auto& [name, value] : e.condWrites) {
          PendingOp op{PendingOp::Kind::Cond, name, {}};
          const bool conditional = e.conditionalCondWrites.count(name) != 0;
          if (value.has_value()) {
            const int v = *value != 0 ? 1 : 0;
            op.options = conditional ? std::vector<int>{-1, v}
                                     : std::vector<int>{v};
          } else {
            op.options = conditional ? std::vector<int>{-1, 0, 1}
                                     : std::vector<int>{0, 1};
          }
          ops.push_back(std::move(op));
        }
        for (const std::string& name : e.eventsRaised) {
          PendingOp op{PendingOp::Kind::Raise, name, {}};
          op.options = e.conditionalRaises.count(name) != 0
                           ? std::vector<int>{-1, 1}
                           : std::vector<int>{1};
          ops.push_back(std::move(op));
        }
        for (const auto& [name, value] : e.portWrites) {
          (void)value;  // a pulse is a write; the value does not matter
          if (watchedPorts_.count(name) == 0) continue;
          PendingOp op{PendingOp::Kind::Pulse, name, {}};
          op.options = e.conditionalPortWrites.count(name) != 0
                           ? std::vector<int>{-1, 1}
                           : std::vector<int>{1};
          ops.push_back(std::move(op));
        }
      }

      uint64_t combos = 1;
      for (const PendingOp& op : ops) {
        combos *= op.options.size();
        if (combos > static_cast<uint64_t>(kMaxChoiceFan)) break;
      }
      uint64_t limit = combos;
      if (combos > static_cast<uint64_t>(kMaxChoiceFan)) {
        limit = static_cast<uint64_t>(kMaxChoiceFan);
        run_.choicesComplete = false;
      }
      if (combos > 1) run_.modelExact = false;

      for (uint64_t combo = 0; combo < limit; ++combo) {
        Node succ;
        succ.interp.active = base.active;
        succ.interp.conditions = base.conditions;
        succ.monitors = parent.monitors;
        succ.parent = nodeIndex;
        succ.eventSetIndex = static_cast<int>(es);
        succ.depth = parent.depth + 1;
        std::set<std::string> pulsed;
        uint64_t rem = combo;
        for (const PendingOp& op : ops) {
          const int pick = op.options[rem % op.options.size()];
          rem /= op.options.size();
          if (pick < 0) continue;  // effect does not fire on this branch
          switch (op.kind) {
            case PendingOp::Kind::Cond:
              succ.interp.conditions[op.name] = pick != 0;
              break;
            case PendingOp::Kind::Raise:
              succ.interp.pendingEvents.insert(op.name);
              break;
            case PendingOp::Kind::Pulse:
              pulsed.insert(op.name);
              break;
          }
        }

        const int succIndex = static_cast<int>(nodes_.size());
        nodes_.push_back(std::move(succ));
        // Advance the monitors BEFORE keying: the node's identity is its
        // post-cycle (configuration, monitor-word) pair. Keying the
        // pre-advance words would merge successors back into their parent
        // and cut off every multi-cycle temporal trace.
        checkCycleOnNode(succIndex, sampled, pulsed);
        const std::string key = nodeKey(nodes_[static_cast<size_t>(succIndex)]);
        const bool fresh = visited_.count(key) == 0;
        bool enqueued = false;
        if (fresh) {
          if (static_cast<int>(visited_.size()) >= opt_.maxStates) {
            run_.complete = false;  // same contract as RE000's config cap
          } else {
            visited_.insert(key);
            queue_.push_back(succIndex);
            enqueued = true;
          }
        }
        // Keep the node only when something references it: the BFS queue,
        // or a violation whose witness trace needs the parent chain.
        const bool witnessed =
            std::any_of(candidate_.begin(), candidate_.end(),
                        [succIndex](int c) { return c == succIndex; });
        if (!enqueued && !witnessed) nodes_.pop_back();
        if (allDecided()) return;
      }
    }
  }

  // -------------------------------------------------- witness extraction

  [[nodiscard]] std::vector<std::vector<std::string>> traceTo(int nodeIndex) const {
    std::vector<std::vector<std::string>> cycles;
    for (int n = nodeIndex; n >= 0 && nodes_[static_cast<size_t>(n)].parent >= 0;
         n = nodes_[static_cast<size_t>(n)].parent)
      cycles.push_back(
          eventSets_[static_cast<size_t>(nodes_[static_cast<size_t>(n)].eventSetIndex)]);
    std::reverse(cycles.begin(), cycles.end());
    return cycles;
  }

  /// Replay the counterexample's event script on a concrete PscpMachine
  /// and evaluate the property cycle by cycle. Interpreter mode attaches a
  /// SampleSink and exports the per-cycle sampled event sets + final CR;
  /// JIT mode runs sink-free (a sink pins the machine to the interpreter
  /// tier) and reuses the captured samples — valid because observation is
  /// bit-identity-neutral by the obs contract.
  [[nodiscard]] bool runConcrete(const Property& p, const Counterexample& cex,
                                 tep::jit::JitMode mode,
                                 std::vector<std::set<std::string>>* samples,
                                 std::vector<uint64_t>* finalCrWords) const {
    machine::PscpMachine m(image_);
    m.setJitMode(mode);
    SampleSink sink(*layout_);
    const bool useSink = mode == tep::jit::JitMode::kOff;
    if (useSink) m.setObsOptions(obs::ObsOptions{&sink});

    auto machineObs = [&m](const std::set<std::string>& sampled) {
      return Obs{
          [&m](const PropExpr& e) { return m.isActive(e.name); },
          [&m](const std::string& name) { return m.conditionValue(name); },
          [&sampled](const std::string& name) { return sampled.count(name) != 0; },
      };
    };
    uint64_t w = 0;
    bool violated = false;
    const std::set<std::string> none;
    // Cycle -1: the initial configuration.
    if (p.temporal())
      violated |= monitorStep(p, &w, machineObs(none), false);
    else
      violated |= safetyViolated(p, machineObs(none));

    const int watchedPort =
        p.kind == PropKind::Pulse ? m.portId(p.port) : -1;
    size_t writeCursor = 0;
    for (size_t c = 0; c < cex.cycles.size(); ++c) {
      const std::set<std::string> external(cex.cycles[c].begin(),
                                           cex.cycles[c].end());
      m.configurationCycle(external);
      std::set<std::string> sampled;
      if (useSink) {
        PSCP_ASSERT(sink.sampled().size() == c + 1);
        sampled = sink.sampled()[c];
      } else if (samples != nullptr && c < samples->size()) {
        sampled = (*samples)[c];
      }
      bool pulsed = false;
      const auto& writes = m.portWrites();
      for (; writeCursor < writes.size(); ++writeCursor)
        if (writes[writeCursor].port == watchedPort &&
            writes[writeCursor].configCycle == static_cast<int64_t>(c))
          pulsed = true;
      const Obs obs = machineObs(sampled);
      if (p.temporal())
        violated |= monitorStep(p, &w, obs, pulsed);
      else
        violated |= safetyViolated(p, obs);
      // Keep stepping to the end of the script: the journal replays the
      // whole script, so the comparable final CR is the post-trace one.
    }
    if (useSink && samples != nullptr) *samples = sink.sampled();
    if (finalCrWords != nullptr) {
      finalCrWords->clear();
      const BitVec& cr = m.crBits();
      for (size_t wi = 0; wi < cr.wordCount(); ++wi)
        finalCrWords->push_back(cr.word(wi));
    }
    return violated;
  }

  void buildJournal(const Property& p, Counterexample* cex) const {
    fleet::FleetConfig cfg;
    cfg.workerThreads = 1;
    cfg.journal = true;
    cfg.journalConfig.checkpointInterval = 1;
    cfg.jitMode = tep::jit::JitMode::kOff;
    fleet::Fleet fleet(image_, cfg);
    const fleet::InstanceId id = fleet.spawn();
    for (const std::vector<std::string>& cycle : cex->cycles) {
      for (const std::string& ev : cycle) {
        const bool injected = fleet.inject(id, fleet.eventId(ev));
        PSCP_ASSERT(injected);
      }
      fleet.step(1);
    }
    obs::journal::Journal journal = *fleet.journal();
    journal.setNote(strfmt("counterexample: %s (chart '%s', spec '%s', "
                           "violation at cycle %d)",
                           p.describe().c_str(), chart_.name().c_str(),
                           spec_.file.c_str(), cex->violationCycle));
    cex->journal = std::move(journal);
    cex->journalBuilt = true;
  }

  [[nodiscard]] bool verifyOneReplay(const Counterexample& cex,
                                     tep::jit::JitMode mode) const {
    obs::journal::Replayer replayer(&cex.journal, image_);
    obs::journal::ReplayOptions ro;
    ro.workerThreads = 1;
    ro.jitMode = mode;
    ro.verifyCheckpoints = true;
    ro.captureFinalCr = true;
    const obs::journal::ReplayResult r = replayer.run(ro);
    if (!r.ok || !r.verified) return false;
    // The replayed run must end in exactly the CR the confirming machine
    // ended in — the journal reproduces the violation, not just *a* run.
    if (cex.finalCrWords.empty()) return true;
    if (r.finalCr.size() != 1) return false;
    return r.finalCr[0].words.empty() || r.finalCr[0].words == cex.finalCrWords;
  }

  void confirmAndWitness(const Property& p, PropertyReport* report) {
    if (!image_) return;  // model-only mode: candidate stands unconfirmed
    Counterexample& cex = report->cex;
    std::vector<std::set<std::string>> samples;
    cex.confirmed = runConcrete(p, cex, tep::jit::JitMode::kOff, &samples,
                                &cex.finalCrWords);
    if (!cex.confirmed) {
      report->spurious = true;
      report->status = PropStatus::Unknown;
      return;
    }
    cex.jitChecked = tep::jit::jitBackendAvailable();
    if (cex.jitChecked)
      cex.jitConfirmed =
          runConcrete(p, cex, tep::jit::JitMode::kAlways, &samples, nullptr);
    buildJournal(p, &cex);
    cex.interpVerified = verifyOneReplay(cex, tep::jit::JitMode::kOff);
    if (cex.jitChecked)
      cex.jitVerified = verifyOneReplay(cex, tep::jit::JitMode::kAlways);
  }

  // ------------------------------------------------------------- findings

  void emitFindings() {
    if (!run_.complete || !eventSetsComplete_ || !run_.choicesComplete) {
      std::string what;
      if (!run_.complete)
        what = strfmt("state/depth bound (%d states, depth %d)", opt_.maxStates,
                      opt_.maxDepth);
      else if (!eventSetsComplete_)
        what = strfmt("event alphabet wider than %d (singleton sets only)",
                      kMaxEventSetBits);
      else
        what = strfmt("uncertainty branch fan over %d", kMaxChoiceFan);
      Finding f;
      f.code = kCodeCheckTruncated;
      f.severity = Severity::Note;
      f.message = strfmt(
          "bounded check truncated by %s after %d states; undecided "
          "properties are Unknown, not Pass",
          what.c_str(), run_.statesExplored);
      f.loc = SourceLoc{spec_.file, 0, 0};
      run_.findings.push_back(std::move(f));
    }
    for (const PropertyReport& r : run_.properties) {
      Finding f;
      f.loc = specLocOf(r.name);
      f.resource = r.name;
      if (r.status == PropStatus::Fail) {
        switch (r.kind) {
          case PropKind::Invariant:
          case PropKind::Never: f.code = kCodeCheckSafety; break;
          case PropKind::LeadsTo: f.code = kCodeCheckLeadsTo; break;
          case PropKind::Pulse: f.code = kCodeCheckPulse; break;
        }
        f.severity = Severity::Error;
        f.message = r.detail;
      } else if (r.spurious) {
        f.code = kCodeCheckSpurious;
        f.severity = Severity::Warning;
        f.message = strfmt(
            "property '%s': abstract counterexample refuted by the concrete "
            "machine (an uncertainty branch the routine never takes); "
            "property is Unknown",
            r.name.c_str());
      } else if (r.status == PropStatus::Unknown) {
        f.code = kCodeCheckUnknown;
        f.severity = Severity::Note;
        f.message = strfmt("property '%s' undecided within the bound: %s",
                           r.name.c_str(), r.detail.c_str());
      } else {
        continue;  // Pass: no finding
      }
      run_.findings.push_back(std::move(f));
    }
  }

  [[nodiscard]] SourceLoc specLocOf(const std::string& propName) const {
    for (const Property& p : spec_.properties)
      if (p.name == propName) return p.loc;
    return SourceLoc{spec_.file, 0, 0};
  }

  const Chart& chart_;
  const actionlang::Program& actions_;
  const SpecFile& spec_;
  std::shared_ptr<const machine::ChartImage> image_;
  CheckOptions opt_;
  mutable statechart::Interpreter interp_;
  std::unique_ptr<sla::CrLayout> localLayout_;
  const sla::CrLayout* layout_ = nullptr;
  const sla::Sla* sla_ = nullptr;
  std::vector<EffectSet> effects_;
  std::set<std::string> watchedPorts_;
  std::vector<std::vector<std::string>> eventSets_;
  bool eventSetsComplete_ = true;
  int monitorCount_ = 0;
};

CheckResult Checker::run() {
  run_ = CheckResult{};
  run_.chartName = chart_.name();
  run_.specFile = spec_.file;
  run_.eventSetsComplete = eventSetsComplete_;
  if (image_) run_.imageHash = obs::journal::imageContentHash(*image_);

  monitorCount_ = 0;
  for (const Property& p : spec_.properties)
    if (p.temporal()) ++monitorCount_;

  nodes_.clear();
  visited_.clear();
  queue_.clear();
  candidate_.assign(spec_.properties.size(), -1);

  // Root: the default initial configuration, all conditions false, no
  // pending events, idle monitors. Cycle -1 observables: nothing sampled.
  interp_.reset();
  Node root;
  root.interp = interp_.saveState();
  root.monitors.assign(static_cast<size_t>(monitorCount_), 0);
  nodes_.push_back(std::move(root));
  checkCycleOnNode(0, {}, {});
  visited_.insert(nodeKey(nodes_[0]));  // post-advance, like every node
  queue_.push_back(0);

  while (!queue_.empty() && !allDecided()) {
    const int ni = queue_.front();
    queue_.pop_front();
    if (nodes_[static_cast<size_t>(ni)].depth >= opt_.maxDepth) {
      run_.complete = false;
      continue;
    }
    expand(ni);
  }
  run_.statesExplored = static_cast<int>(visited_.size());
  run_.eventSetsComplete = eventSetsComplete_;

  for (size_t i = 0; i < spec_.properties.size(); ++i) {
    const Property& p = spec_.properties[i];
    PropertyReport report;
    report.name = p.name;
    report.kind = p.kind;
    if (candidate_[i] >= 0) {
      report.status = PropStatus::Fail;
      report.cex.cycles = traceTo(candidate_[i]);
      report.cex.violationCycle =
          static_cast<int>(report.cex.cycles.size()) - 1;
      confirmAndWitness(p, &report);
      if (report.status == PropStatus::Fail) {
        std::string how = "model";
        if (report.cex.confirmed) how = "machine-confirmed";
        if (report.cex.interpVerified)
          how += report.cex.jitVerified ? ", replay-verified (interp+jit)"
                                        : ", replay-verified (interp)";
        report.detail = strfmt("%s violated at cycle %d (%s)",
                               p.describe().c_str(), report.cex.violationCycle,
                               how.c_str());
      } else {
        report.detail =
            strfmt("%s: abstract candidate at cycle %d refuted concretely",
                   p.describe().c_str(), report.cex.violationCycle);
      }
    } else if (run_.passIsSound()) {
      report.status = PropStatus::Pass;
      report.detail = strfmt("holds over all %d reachable states",
                             run_.statesExplored);
    } else {
      report.status = PropStatus::Unknown;
      report.detail = !run_.effectsSound
                          ? "effect summaries incomplete (no compiled image)"
                          : "search truncated before exhausting the bound";
    }
    run_.properties.push_back(std::move(report));
  }
  emitFindings();
  return run_;
}

}  // namespace

const char* propStatusName(PropStatus s) {
  switch (s) {
    case PropStatus::Pass: return "pass";
    case PropStatus::Fail: return "fail";
    case PropStatus::Unknown: return "unknown";
  }
  return "?";
}

int CheckResult::failCount() const {
  return static_cast<int>(
      std::count_if(properties.begin(), properties.end(),
                    [](const PropertyReport& r) { return r.status == PropStatus::Fail; }));
}

int CheckResult::unknownCount() const {
  return static_cast<int>(std::count_if(
      properties.begin(), properties.end(),
      [](const PropertyReport& r) { return r.status == PropStatus::Unknown; }));
}

std::string CheckResult::renderText() const {
  std::string out = strfmt("check '%s' (spec %s): %zu properties, %d states%s\n",
                           chartName.c_str(), specFile.c_str(),
                           properties.size(), statesExplored,
                           passIsSound() ? "" : " [truncated]");
  for (const PropertyReport& r : properties)
    out += strfmt("  [%s] %s (%s): %s\n",
                  r.status == PropStatus::Pass      ? "PASS"
                  : r.status == PropStatus::Fail    ? "FAIL"
                                                    : "UNKNOWN",
                  r.name.c_str(), propKindName(r.kind), r.detail.c_str());
  AnalysisResult findingsView;
  findingsView.chartName = chartName;
  findingsView.imageHash = imageHash;
  findingsView.findings = findings;
  out += findingsView.renderText();
  return out;
}

std::string CheckResult::renderJson(int indent) const {
  JsonValue doc = JsonValue::makeObject();
  doc.set("schema", JsonValue::makeString("pscp-check-v1"));
  doc.set("chart", JsonValue::makeString(chartName));
  doc.set("spec", JsonValue::makeString(specFile));
  if (imageHash != 0)
    doc.set("image_hash",
            JsonValue::makeString(strfmt(
                "0x%016llx", static_cast<unsigned long long>(imageHash))));
  doc.set("states_explored", JsonValue::makeNumber(statesExplored));
  doc.set("complete", JsonValue::makeBool(complete));
  doc.set("event_sets_complete", JsonValue::makeBool(eventSetsComplete));
  doc.set("choices_complete", JsonValue::makeBool(choicesComplete));
  doc.set("model_exact", JsonValue::makeBool(modelExact));
  doc.set("effects_sound", JsonValue::makeBool(effectsSound));
  doc.set("pass_is_sound", JsonValue::makeBool(passIsSound()));

  JsonValue props = JsonValue::makeArray();
  for (const PropertyReport& r : properties) {
    JsonValue p = JsonValue::makeObject();
    p.set("name", JsonValue::makeString(r.name));
    p.set("kind", JsonValue::makeString(propKindName(r.kind)));
    p.set("status", JsonValue::makeString(propStatusName(r.status)));
    p.set("detail", JsonValue::makeString(r.detail));
    if (r.spurious) p.set("spurious", JsonValue::makeBool(true));
    if (r.status == PropStatus::Fail || r.spurious) {
      JsonValue cex = JsonValue::makeObject();
      cex.set("violation_cycle", JsonValue::makeNumber(r.cex.violationCycle));
      JsonValue cycles = JsonValue::makeArray();
      for (const std::vector<std::string>& cycle : r.cex.cycles) {
        JsonValue events = JsonValue::makeArray();
        for (const std::string& ev : cycle)
          events.array.push_back(JsonValue::makeString(ev));
        cycles.array.push_back(std::move(events));
      }
      cex.set("cycles", std::move(cycles));
      cex.set("confirmed", JsonValue::makeBool(r.cex.confirmed));
      cex.set("jit_checked", JsonValue::makeBool(r.cex.jitChecked));
      cex.set("jit_confirmed", JsonValue::makeBool(r.cex.jitConfirmed));
      cex.set("replay_interp_verified",
              JsonValue::makeBool(r.cex.interpVerified));
      cex.set("replay_jit_verified", JsonValue::makeBool(r.cex.jitVerified));
      if (r.cex.journalBuilt) cex.set("journal", r.cex.journal.toJson());
      p.set("counterexample", std::move(cex));
    }
    props.array.push_back(std::move(p));
  }
  doc.set("properties", std::move(props));

  JsonValue fs = JsonValue::makeArray();
  for (const Finding& f : findings) {
    JsonValue j = JsonValue::makeObject();
    j.set("code", JsonValue::makeString(f.code));
    j.set("severity", JsonValue::makeString(severityName(f.severity)));
    j.set("message", JsonValue::makeString(f.message));
    j.set("file", JsonValue::makeString(f.loc.file));
    j.set("line", JsonValue::makeNumber(f.loc.line));
    j.set("column", JsonValue::makeNumber(f.loc.column));
    if (!f.resource.empty())
      j.set("resource", JsonValue::makeString(f.resource));
    fs.array.push_back(std::move(j));
  }
  doc.set("findings", std::move(fs));
  return doc.dump(indent) + "\n";
}

CheckResult runBoundedCheck(const statechart::Chart& chart,
                            const actionlang::Program& actions,
                            const SpecFile& spec,
                            std::shared_ptr<const machine::ChartImage> image,
                            const CheckOptions& options) {
  return Checker(chart, actions, spec, std::move(image), options).run();
}

}  // namespace pscp::analysis::check
