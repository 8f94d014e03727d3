#include "obs/profiler.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace pscp::obs {

namespace {
constexpr size_t catIx(CycleCat c) { return static_cast<size_t>(c); }
}  // namespace

const char* cycleCatName(CycleCat c) {
  switch (c) {
    case CycleCat::kSlaDecode: return "sla_decode";
    case CycleCat::kCacheFill: return "cache_fill";
    case CycleCat::kDispatch: return "dispatch";
    case CycleCat::kWriteBack: return "write_back";
    case CycleCat::kExec: return "exec";
    case CycleCat::kBusStall: return "bus_stall";
    case CycleCat::kMemWait: return "mem_wait";
    case CycleCat::kIdle: return "idle";
  }
  return "?";
}

void Profiler::ensureTep(int tep) {
  if (tep < 0) return;
  const size_t need = static_cast<size_t>(tep) + 1;
  if (teps_.size() < need) teps_.resize(need);
  if (busyThisCycle_.size() < need) {
    busyThisCycle_.resize(need, 0);
    stallsThisCycle_.resize(need, 0);
    waitsThisCycle_.resize(need, 0);
    waitsAtDispatch_.resize(need, 0);
  }
}

void Profiler::onAttach(const TraceMeta& meta) {
  meta_ = meta;
  transitions_.assign(meta.transitionNames.size(), TransitionProfile{});
  stateSelfCalls_.assign(meta.stateNames.size(), 0);
  stateSelfCycles_.assign(meta.stateNames.size(), 0);
  teps_.assign(static_cast<size_t>(std::max(meta.tepCount, 0)), TepProfile{});
  busyThisCycle_.assign(teps_.size(), 0);
  stallsThisCycle_.assign(teps_.size(), 0);
  waitsThisCycle_.assign(teps_.size(), 0);
  waitsAtDispatch_.assign(teps_.size(), 0);
}

void Profiler::onCycleBegin(int64_t configCycle, int64_t time) {
  (void)time;
  currentIndex_ = configCycle;
  dispatchesThisCycle_ = 0;
  retiresThisCycle_ = 0;
  std::fill(busyThisCycle_.begin(), busyThisCycle_.end(), 0);
  std::fill(stallsThisCycle_.begin(), stallsThisCycle_.end(), 0);
  std::fill(waitsThisCycle_.begin(), waitsThisCycle_.end(), 0);
  std::fill(waitsAtDispatch_.begin(), waitsAtDispatch_.end(), 0);
  lastRetireTep_ = -1;
  lastRetireTime_ = 0;
}

void Profiler::onDispatch(int tep, int transition, int tatDepth, int64_t time) {
  (void)transition;
  (void)time;
  ensureTep(tep);
  ++dispatchesThisCycle_;
  queueDepth_.record(tatDepth);
  if (tep >= 0) waitsAtDispatch_[static_cast<size_t>(tep)] =
      waitsThisCycle_[static_cast<size_t>(tep)];
}

void Profiler::onRetire(int tep, int transition, const RoutineStats& stats,
                        int64_t time) {
  ensureTep(tep);
  ++retiresThisCycle_;
  routineLength_.record(stats.cycles);

  int64_t waits = 0;
  if (tep >= 0) {
    const size_t i = static_cast<size_t>(tep);
    busyThisCycle_[i] += stats.cycles;
    waits = waitsThisCycle_[i] - waitsAtDispatch_[i];
    waitsAtDispatch_[i] = waitsThisCycle_[i];
    TepProfile& tp = teps_[i];
    tp.busyCycles += stats.cycles;
    tp.busStalls += stats.busStalls;
    tp.memWaits += waits;
    tp.routines += 1;
    // The last retire of the cycle names the critical TEP (>= so the
    // later event wins: the machine charges a write-back per retire, so
    // times within one configuration cycle are strictly increasing).
    if (lastRetireTep_ < 0 || time >= lastRetireTime_) {
      lastRetireTep_ = tep;
      lastRetireTime_ = time;
    }
  }

  if (transition >= 0) {
    if (static_cast<size_t>(transition) >= transitions_.size())
      transitions_.resize(static_cast<size_t>(transition) + 1);
    TransitionProfile& p = transitions_[static_cast<size_t>(transition)];
    if (p.calls == 0 || stats.cycles < p.minCycles) p.minCycles = stats.cycles;
    if (p.calls == 0 || stats.cycles > p.maxCycles) p.maxCycles = stats.cycles;
    p.calls += 1;
    p.cycles += stats.cycles;
    p.instructions += stats.instructions;
    p.busStalls += stats.busStalls;
    p.memWaits += waits;
    if (static_cast<size_t>(transition) < meta_.transitionSource.size()) {
      const int src = meta_.transitionSource[static_cast<size_t>(transition)];
      if (src >= 0 && static_cast<size_t>(src) < stateSelfCalls_.size()) {
        stateSelfCalls_[static_cast<size_t>(src)] += 1;
        stateSelfCycles_[static_cast<size_t>(src)] += stats.cycles;
      }
    }
  }
}

void Profiler::onInstrRetire(int tep, int64_t time) {
  (void)time;
  ensureTep(tep);
  if (tep >= 0) teps_[static_cast<size_t>(tep)].instructions += 1;
}

void Profiler::onBusStall(int tep, int64_t time) {
  (void)time;
  ensureTep(tep);
  if (tep >= 0) stallsThisCycle_[static_cast<size_t>(tep)] += 1;
}

void Profiler::onBusWait(int tep, int64_t time) {
  (void)time;
  ensureTep(tep);
  if (tep >= 0) waitsThisCycle_[static_cast<size_t>(tep)] += 1;
}

void Profiler::onCycleEnd(int64_t configCycle, int64_t cycles, int64_t busStalls,
                          int firedCount, bool quiescent, int64_t time) {
  (void)busStalls;
  (void)time;
  CycleAttribution a;
  a.index = configCycle;
  a.total = cycles;
  a.quiescent = quiescent;

  if (retiresThisCycle_ == 0) {
    // Nothing ran: the cycle is pure SLA decode (the machine charges
    // exactly its published evaluate cost on a quiescent cycle); whatever
    // an uncosted source reports beyond that is idle.
    const int64_t sla =
        std::min<int64_t>(cycles, static_cast<int64_t>(meta_.slaEvaluateCycles));
    a.cat[catIx(CycleCat::kSlaDecode)] = sla;
    a.cat[catIx(CycleCat::kIdle)] = cycles - sla;
  } else {
    // Overhead charges from the published cost model, clamped sequentially
    // so the attribution stays exhaustive even for a sink fed by an
    // uncosted source; with PscpMachine meta no clamp ever engages and
    // every term is exact.
    int64_t remaining = cycles;
    auto take = [&remaining](int64_t want) {
      const int64_t got = std::clamp<int64_t>(want, 0, remaining);
      remaining -= got;
      return got;
    };
    a.cat[catIx(CycleCat::kSlaDecode)] = take(meta_.slaEvaluateCycles);
    a.cat[catIx(CycleCat::kCacheFill)] =
        take(static_cast<int64_t>(meta_.tepCount) * meta_.condCopyCycles);
    a.cat[catIx(CycleCat::kDispatch)] =
        take(dispatchesThisCycle_ * meta_.dispatchCycles);
    a.cat[catIx(CycleCat::kWriteBack)] = take(retiresThisCycle_ * meta_.condCopyCycles);

    // The residual is the lockstep execution phase; split it around the
    // critical TEP (the one that retired last and thus bounded the cycle).
    const int crit = lastRetireTep_;
    a.criticalTep = crit;
    int64_t critStall = 0;
    int64_t critWait = 0;
    int64_t critExec = 0;
    if (crit >= 0) {
      const size_t i = static_cast<size_t>(crit);
      critStall = stallsThisCycle_[i];
      critWait = waitsThisCycle_[i];
      critExec = busyThisCycle_[i] - critStall - critWait;
      teps_[i].criticalCycles += 1;
    }
    a.cat[catIx(CycleCat::kBusStall)] = take(critStall);
    a.cat[catIx(CycleCat::kMemWait)] = take(critWait);
    a.cat[catIx(CycleCat::kExec)] = take(critExec);
    a.cat[catIx(CycleCat::kIdle)] = remaining;
  }

  int64_t sum = 0;
  for (int64_t v : a.cat) sum += v;
  PSCP_ASSERT(sum == a.total);

  for (size_t c = 0; c < a.cat.size(); ++c) categoryTotals_[c] += a.cat[c];
  totalCycles_ += cycles;
  configCycles_ += 1;
  if (quiescent) quiescentCycles_ += 1;
  transitionsFired_ += firedCount;
  cycleLength_.record(cycles);
  cycles_.push_back(a);
}

std::vector<StateProfile> Profiler::stateProfiles() const {
  std::vector<StateProfile> out(stateSelfCalls_.size());
  for (size_t s = 0; s < out.size(); ++s) {
    out[s].selfCalls = stateSelfCalls_[s];
    out[s].selfCycles = stateSelfCycles_[s];
  }
  // Roll self counts up the hierarchy (a state's total includes itself).
  for (size_t s = 0; s < out.size(); ++s) {
    if (stateSelfCalls_[s] == 0 && stateSelfCycles_[s] == 0) continue;
    int at = static_cast<int>(s);
    int guard = 0;
    while (at >= 0 && static_cast<size_t>(at) < out.size()) {
      out[static_cast<size_t>(at)].totalCalls += stateSelfCalls_[s];
      out[static_cast<size_t>(at)].totalCycles += stateSelfCycles_[s];
      at = static_cast<size_t>(at) < meta_.stateParent.size()
               ? meta_.stateParent[static_cast<size_t>(at)]
               : -1;
      if (++guard > 1024) break;  // malformed parent chain: stop, don't loop
    }
  }
  return out;
}

}  // namespace pscp::obs
