#include "pscp/machine.hpp"

#include <algorithm>
#include <limits>

#include "analysis/effects.hpp"
#include "pscp/sched_cost.hpp"
#include "support/bits.hpp"

namespace pscp::machine {

using statechart::StateId;
using statechart::TransitionId;

namespace {
// The largest machine time; a timer whose next maturity would lie past it
// never matures again.
constexpr int64_t kMaxTime = std::numeric_limits<int64_t>::max();
// A log cursor step that is never reached.
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
// The lockstep loop's guard: machine cycles one TAT execution may step.
constexpr int64_t kMaxMachineCycles = 4'000'000;
// The external events of every cycle after the first in a multi-cycle call.
const std::vector<int> kNoEvents;
}  // namespace

// -------------------------------------------------------------- ChartImage

ChartImage::ChartImage(const statechart::Chart& chart,
                       const actionlang::Program& actions,
                       const hwlib::ArchConfig& arch,
                       compiler::CompileOptions options)
    : chart_(chart),
      actions_(actions),
      arch_(arch),
      layout_(chart),
      sla_(chart, layout_),
      binding_(sla::makeBinding(chart, layout_)),
      app_(compiler::Compiler(actions, binding_, arch_, options).compile(chart)),
      micro_(app_.program, arch_) {
  arch_.validate();
  std::set<int> addresses;
  for (const auto& [name, port] : chart.ports()) addresses.insert(port.address);
  portAddresses_.assign(addresses.begin(), addresses.end());

  // Precompute the structural data resolveConflicts and the configuration
  // update need per transition, as packed bitsets over StateIds. The
  // structure-only interpreter is construction scaffolding; instances
  // never consult it.
  statechart::Interpreter structure(chart);
  const int stateCount = static_cast<int>(chart.stateCount());
  const size_t transitionCount = chart.transitions().size();
  exitSets_.reserve(transitionCount);
  enterSets_.reserve(transitionCount);
  scopeDepth_.reserve(transitionCount);
  exclusionGroup_.reserve(transitionCount);
  routineEntry_.reserve(transitionCount);
  std::map<std::string, int> groupIds;
  for (const statechart::Transition& t : chart.transitions()) {
    BitVec exits(stateCount);
    for (StateId s : structure.exitSet(t.id)) exits.set(static_cast<int>(s));
    exitSets_.push_back(std::move(exits));
    BitVec enters(stateCount);
    for (StateId s : structure.enterSet(t.id)) enters.set(static_cast<int>(s));
    enterSets_.push_back(std::move(enters));
    scopeDepth_.push_back(chart.depth(structure.scopeOf(t.id)));
    if (t.exclusionGroup.empty()) {
      exclusionGroup_.push_back(-1);
    } else {
      const auto [it, inserted] =
          groupIds.emplace(t.exclusionGroup, static_cast<int>(groupIds.size()));
      (void)inserted;
      exclusionGroup_.push_back(it->second);
    }
    routineEntry_.push_back(
        app_.program.entryOf(app_.transitionRoutine.at(t.id)));
  }
  exclusionGroupCount_ = static_cast<int>(groupIds.size());
  if (arch_.numTeps > 1) hazards_ = analysis::replayHazards(chart, actions, app_, binding_);
  tier_ = std::make_unique<tep::jit::TierCache>(
      &app_.program, &arch_, static_cast<int>(transitionCount), &portAddresses_);
}

int ChartImage::portSlot(int64_t address) const {
  return tep::portSlotOf(portAddresses_, address);
}

// ------------------------------------------------------------- PscpMachine

PscpMachine::PscpMachine(std::shared_ptr<const ChartImage> image)
    : image_(std::move(image)),
      chart_(image_->chart_),
      arch_(image_->arch_),
      layout_(image_->layout_),
      sla_(image_->sla_),
      memory_(arch_.numTeps, image_->app_.internalBytesUsed, image_->app_.externalBytesUsed),
      ports_(image_->portAddresses_.size(), 0) {
  crConditions_.assign(static_cast<size_t>(layout_.conditionCount()), 0);
  cr_ = BitVec(layout_.totalBits());
  fieldCode_.assign(layout_.stateFields().size(), 0);
  activeBits_ = BitVec(static_cast<int>(chart_.stateCount()));
  pendingEventBits_ = BitVec(layout_.eventCount());
  for (StateId s : chart_.defaultCompletion(chart_.root())) applyActive(s, true);

  image_->app_.loadImage(*this);
  for (int i = 0; i < arch_.numTeps; ++i) {
    teps_.push_back(std::make_unique<tep::Tep>(arch_, *this, i));
    teps_.back()->setProgram(&image_->app_.program, &image_->micro_);
  }
}

PscpMachine::PscpMachine(const statechart::Chart& chart,
                         const actionlang::Program& actions,
                         const hwlib::ArchConfig& arch,
                         compiler::CompileOptions options)
    : PscpMachine(std::make_shared<const ChartImage>(chart, actions, arch, options)) {}

obs::TraceMeta PscpMachine::traceMeta() const {
  obs::TraceMeta meta;
  meta.chartName = chart_.name();
  meta.tepCount = arch_.numTeps;
  meta.eventNames.resize(static_cast<size_t>(layout_.eventCount()));
  for (const auto& [name, bit] : layout_.eventBits())
    meta.eventNames[static_cast<size_t>(bit)] = name;
  meta.conditionNames.resize(static_cast<size_t>(layout_.conditionCount()));
  for (const auto& [name, bit] : layout_.conditionBits())
    meta.conditionNames[static_cast<size_t>(bit)] = name;
  meta.stateNames.resize(chart_.states().size());
  for (const statechart::State& s : chart_.states())
    meta.stateNames[static_cast<size_t>(s.id)] = s.name;
  meta.transitionNames.resize(chart_.transitions().size());
  for (const statechart::Transition& t : chart_.transitions())
    meta.transitionNames[static_cast<size_t>(t.id)] =
        strfmt("T%d %s -> %s", t.id, chart_.state(t.source).name.c_str(),
               chart_.state(t.target).name.c_str());
  for (const auto& [name, port] : chart_.ports())
    meta.portNames.emplace_back(port.address, name);
  activeBits_.forEachSetBit([&](int s) { meta.initialActive.push_back(s); });
  meta.stateParent.resize(chart_.states().size(), -1);
  for (const statechart::State& s : chart_.states())
    meta.stateParent[static_cast<size_t>(s.id)] = static_cast<int>(s.parent);
  meta.transitionSource.resize(chart_.transitions().size(), -1);
  for (const statechart::Transition& t : chart_.transitions())
    meta.transitionSource[static_cast<size_t>(t.id)] = static_cast<int>(t.source);
  meta.slaEvaluateCycles = kSlaEvaluateCycles;
  meta.dispatchCycles = kDispatchCyclesPerTransition;
  meta.condCopyCycles = conditionCopyCycles(arch_, layout_.conditionCount());
  return meta;
}

void PscpMachine::setObsOptions(const obs::ObsOptions& options) {
  obs_ = options;
  for (auto& tep : teps_) tep->attachObserver(obs_.sink, &machineTimeNow_);
  if (obs_.sink != nullptr) {
    obs_.sink->onAttach(traceMeta());
    machineTimeNow_ = totalCycles_;
  }
}

PscpMachine::~PscpMachine() = default;

PscpMachine::CycleScratch& PscpMachine::scratch() {
  static thread_local CycleScratch s;
  return s;
}

// --------------------------------------------------- incremental CR upkeep

void PscpMachine::applyActive(StateId s, bool active) {
  if (activeBits_.test(static_cast<int>(s)) == active) return;
  activeBits_.set(static_cast<int>(s), active);
  if (s == chart_.root()) return;  // the root has no CR code
  const auto [fieldIndex, code] = layout_.stateCode(s);
  int& current = fieldCode_[static_cast<size_t>(fieldIndex)];
  if (active)
    current = code;
  else if (current == code)
    current = 0;
  else
    return;  // another member owns the field; its bits are already correct
  const sla::StateField& field =
      layout_.stateFields()[static_cast<size_t>(fieldIndex)];
  const int base = layout_.stateBase() + field.baseBit;
  for (int i = 0; i < field.width; ++i) cr_.set(base + i, ((current >> i) & 1) != 0);
}

void PscpMachine::setCrCondition(int index, bool value) {
  PSCP_ASSERT(index >= 0 && index < static_cast<int>(crConditions_.size()));
  crConditions_[static_cast<size_t>(index)] = value ? 1 : 0;
  cr_.set(layout_.conditionBase() + index, value);
}

bool PscpMachine::keyStatesAreCr(const DecodeEntry& entry) const {
  // The state fields are the CR's top bits, from stateBase() on.
  const auto first = static_cast<size_t>(layout_.stateBase()) / 64;
  const uint64_t firstMask = ~uint64_t{0} << (layout_.stateBase() % 64);
  for (size_t w = first; w < cr_.wordCount(); ++w)
    if (((entry.words[w] ^ cr_.word(w)) & (w == first ? firstMask : ~uint64_t{0})) != 0)
      return false;
  return true;
}

// ----------------------------------------------------------------- TepHost

tep::MemView PscpMachine::memView(int tepId) { return memory_.view(tepId); }

uint8_t PscpMachine::readByte(int32_t addr) {
  if (!tep::DataMemory::mapped(addr)) fail("PSCP: data read from unmapped address 0x%X", addr);
  // TEP-local bank; outside any TEP (loader/observers), bank 0.
  return memory_.read(std::max(currentTep_, 0), addr);
}

void PscpMachine::writeByte(int32_t addr, uint8_t value) {
  if (!tep::DataMemory::mapped(addr)) fail("PSCP: data write to unmapped address 0x%X", addr);
  if (currentTep_ >= 0 || tep::isExternalAddress(addr)) {
    memory_.write(std::max(currentTep_, 0), addr, value);
    return;
  }
  // Loader writes (initial data image) broadcast to every internal bank.
  for (int bank = 0; bank < arch_.numTeps; ++bank) memory_.write(bank, addr, value);
}

void PscpMachine::writeReg(int index, uint32_t value) {
  for (int bank = 0; bank < arch_.numTeps; ++bank) memory_.setReg(bank, index, value);
}

size_t PscpMachine::declaredPortSlot(int address, const char* access) const {
  const int slot = image_->portSlot(address);
  if (slot < 0) fail("PSCP: %s undeclared port address %d", access, address);
  return static_cast<size_t>(slot);
}

uint32_t PscpMachine::readPort(int address) {
  return ports_[declaredPortSlot(address, "TEP read of")];
}

void PscpMachine::writePort(int address, uint32_t value) {
  ports_[declaredPortSlot(address, "TEP write to")] = value;
  const int64_t cycleIndex = configCycles_ > 0 ? configCycles_ - 1 : 0;
  // A TEP writes only inside a TAT execution, on the thread running it.
  const statechart::TransitionId running =
      currentTep_ >= 0 ? scratch().running[static_cast<size_t>(currentTep_)] : -1;
  portWrites_.push_back(
      PortWrite{address, value, cycleIndex, machineTimeNow_, currentTep_, running});
  if (obs_.sink != nullptr)
    obs_.sink->onPortWrite(address, value, cycleIndex, machineTimeNow_);
}

void PscpMachine::latchPort(int address, uint32_t value) {
  ports_[declaredPortSlot(address, "TEP write to")] = value;
}

void PscpMachine::raiseEvent(int index) {
  PSCP_ASSERT(index >= 0 && index < pendingEventBits_.size());
  if (pendingEventBits_.test(index)) return;
  pendingEventBits_.set(index);
  pendingEvents_.push_back(index);
}

void PscpMachine::setCondition(int index, bool value) {
  // TEPs write their local condition cache; the write-back at routine end
  // moves it to the CR. Writes from outside any TEP hit the CR directly.
  if (currentTep_ >= 0) {
    CycleScratch& s = scratch();
    const auto tep = static_cast<size_t>(currentTep_);
    PSCP_ASSERT(index >= 0 && index < static_cast<int>(s.condCache[tep].size()));
    s.condCache[tep][static_cast<size_t>(index)] = value ? 1 : 0;
    s.condDirty[tep].set(index);
    return;
  }
  setCrCondition(index, value);
}

bool PscpMachine::testCondition(int index) {
  if (currentTep_ >= 0) {
    const std::vector<uint8_t>& cache = scratch().condCache[static_cast<size_t>(currentTep_)];
    PSCP_ASSERT(index >= 0 && index < static_cast<int>(cache.size()));
    return cache[static_cast<size_t>(index)] != 0;
  }
  PSCP_ASSERT(index >= 0 && index < static_cast<int>(crConditions_.size()));
  return crConditions_[static_cast<size_t>(index)] != 0;
}

bool PscpMachine::testState(int index) {
  // STST reads the state part of the CR, which holds the configuration the
  // cycle started with: applyActive runs only in step 5, after every
  // routine of the cycle has retired.
  return activeBits_.test(index);
}

bool PscpMachine::acquireExternalBus(int tepId) {
  if (busOwner_ == -1 || busOwner_ == tepId) {
    busOwner_ = tepId;
    return true;
  }
  ++busStallsThisCycle_;
  return false;
}

// ------------------------------------------------------------- observation

bool PscpMachine::isActive(const std::string& stateName) const {
  const StateId id = chart_.findState(stateName);
  return id != statechart::kNoState && activeBits_.test(static_cast<int>(id));
}

std::vector<std::string> PscpMachine::activeNames() const {
  std::vector<std::string> names;
  activeBits_.forEachSetBit(
      [&](int s) { names.push_back(chart_.state(static_cast<StateId>(s)).name); });
  std::sort(names.begin(), names.end());
  return names;
}

bool PscpMachine::conditionValue(const std::string& name) const {
  return crConditions_[static_cast<size_t>(layout_.conditionBit(name))] != 0;
}

void PscpMachine::setCondition(const std::string& name, bool value) {
  setCrCondition(layout_.conditionBit(name), value);
}

int PscpMachine::eventId(const std::string& eventName) const {
  return layout_.eventBit(eventName);
}

int PscpMachine::portId(const std::string& portName) const {
  const auto& ports = chart_.ports();
  auto it = ports.find(portName);
  if (it == ports.end()) fail("no port named '%s'", portName.c_str());
  return it->second.address;
}

void PscpMachine::setInputPort(const std::string& portName, uint32_t value) {
  setInputPort(portId(portName), value);
}

void PscpMachine::setInputPort(int portAddress, uint32_t value) {
  ports_[declaredPortSlot(portAddress, "setInputPort to")] = value;
}

uint32_t PscpMachine::outputPort(const std::string& portName) const {
  return outputPort(portId(portName));
}

uint32_t PscpMachine::outputPort(int portAddress) const {
  const int slot = image_->portSlot(portAddress);
  return slot < 0 ? 0 : ports_[static_cast<size_t>(slot)];
}

int64_t PscpMachine::globalValue(const std::string& name) const {
  const compiler::VarPlacement& p = image_->app_.globalPlacement.at(name);
  const actionlang::GlobalVar* g = image_->actions_.findGlobal(name);
  PSCP_ASSERT(g != nullptr);
  uint32_t raw = 0;
  if (p.storageClass == compiler::kStorageRegister) {
    raw = memory_.reg(0, p.address);
  } else {
    const int bytes = g->type->byteSize();
    for (int i = 0; i < bytes; ++i)
      raw |= static_cast<uint32_t>(memory_.read(0, p.address + i)) << (8 * i);
  }
  const int w = g->type->width();
  return g->type->isSigned() ? signExtend(truncBits(raw, w), w)
                             : static_cast<int64_t>(truncBits(raw, w));
}

void PscpMachine::setGlobalValue(const std::string& name, int64_t value) {
  const compiler::VarPlacement& p = image_->app_.globalPlacement.at(name);
  const actionlang::GlobalVar* g = image_->actions_.findGlobal(name);
  PSCP_ASSERT(g != nullptr);
  if (p.storageClass == compiler::kStorageRegister) {
    writeReg(p.address, truncBits(static_cast<uint32_t>(value), g->type->width()));
    return;
  }
  const int bytes = g->type->byteSize();
  for (int i = 0; i < bytes; ++i)
    writeByte(p.address + i,
              static_cast<uint8_t>((static_cast<uint64_t>(value) >> (8 * i)) & 0xFF));
}

// ------------------------------------------------------------- cycle logic

void PscpMachine::addTimer(const std::string& event, int64_t period) {
  if (period <= 0)
    fail("timer period %lld is not positive", static_cast<long long>(period));
  if (period > kMaxTime - totalCycles_)
    fail("timer period %lld overflows machine time: added at cycle %lld, "
         "its first maturity passes the largest int64",
         static_cast<long long>(period), static_cast<long long>(totalCycles_));
  Timer t;
  t.eventBit = layout_.eventBit(event);
  t.period = period;
  t.nextFire = totalCycles_ + period;
  timers_.push_back(t);
}

void PscpMachine::resolveConflicts(CycleScratch& s) {
  // Identical policy to statechart::Interpreter::step — outer scope first,
  // then declaration order; drop transitions whose exit sets overlap. The
  // exit sets are the bitsets precomputed in the image, so this runs
  // without allocating per transition. The order is by (scope depth, id);
  // the selection arrives sorted by id, so an in-place insertion sort by
  // depth keeps ties in id order without std::stable_sort's temp buffer.
  const std::vector<int>& depth = image_->scopeDepth_;
  std::vector<TransitionId>& order = s.select;
  for (size_t i = 1; i < order.size(); ++i) {
    const TransitionId t = order[i];
    const int dt = depth[static_cast<size_t>(t)];
    size_t j = i;
    while (j > 0 && depth[static_cast<size_t>(order[j - 1])] > dt) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = t;
  }
  s.chosen.clear();
  s.exited.assign(activeBits_.size());
  for (TransitionId t : order) {
    const statechart::Transition& tr = chart_.transition(t);
    if (s.exited.test(static_cast<int>(tr.source))) continue;
    const BitVec& exits = image_->exitSets_[static_cast<size_t>(t)];
    if (exits.intersects(s.exited)) continue;
    s.exited.orWithAnd(exits, activeBits_);  // mark only actually-active exits
    s.chosen.push_back(t);
  }
}

CycleStats PscpMachine::configurationCycle(
    const std::set<std::string>& externalEvents) {
  refuseIfFaulted();
  std::vector<int> ids;
  ids.reserve(externalEvents.size());
  for (const std::string& name : externalEvents) ids.push_back(layout_.eventBit(name));
  return configurationCycleIds(ids);
}

int64_t PscpMachine::cyclesBeforeTimer() const {
  int64_t cycles = kMaxTime;
  for (const Timer& t : timers_) {
    // Quiescent cycle j starts at totalCycles_ + j * kSlaEvaluateCycles;
    // the first start at or past nextFire is cycle ceil(gap / SLA time).
    const int64_t gap = t.nextFire - totalCycles_;
    if (gap <= 0) return 0;
    cycles = std::min(cycles, gap / kSlaEvaluateCycles +
                                  (gap % kSlaEvaluateCycles != 0 ? 1 : 0));
  }
  return cycles;
}

CycleStats PscpMachine::configurationCycleIds(
    const std::vector<int>& externalEventIds) {
  CycleStats stats;
  configurationCycleIds(externalEventIds, &stats);
  return stats;
}

void PscpMachine::refuseIfFaulted() const {
  if (faulted_)
    fail("PSCP: the machine faulted in configuration cycle %lld and steps no further",
         static_cast<long long>(configCycles_ - 1));
}

void PscpMachine::configurationCycleIds(const std::vector<int>& externalEventIds,
                                        CycleStats* statsOut, int cycles) {
  refuseIfFaulted();
  for (const int id : externalEventIds)
    if (id < 0 || id >= layout_.eventCount())
      fail("PSCP: external event id %d is not an event bit (the chart has %d "
           "events)", id, layout_.eventCount());
  CycleStats& stats = *statsOut;
  stats.fired.clear();
  stats.cycles = 0;
  stats.busStallCycles = 0;
  stats.quiescentCycles = 0;
  stats.decodes = 0;
  stats.decodeMemoHits = 0;
  stats.lockstepRuns = 0;
  stats.scheduleReplays = 0;
  stats.quiescent = false;

  try {
    for (int c = 0; c < cycles;) {
      const std::vector<int>& events = c == 0 ? externalEventIds : kNoEvents;
      // The empty case of the decode memo: the CR as it stands decoded to
      // nothing when sampled without events, and these cycles sample no
      // events either (none external, none raised, no timer due) — so the
      // SLA would select nothing in each of them. The stretch runs up to
      // the first cycle that starts at a timer's maturity. An observer
      // forces the decodes it watches.
      if (events.empty()) {
        const int64_t quiet = std::min<int64_t>(cycles - c, quiescentCredit());
        if (quiet > 0) {
          stats.cycles += creditQuiescent(quiet);
          stats.quiescentCycles += quiet;
          stats.quiescent = true;
          c += static_cast<int>(quiet);
          continue;
        }
      }
      decodeCycle(events, stats);
      ++c;
    }
  } catch (...) {
    faulted_ = true;
    throw;
  }
}

void PscpMachine::decodeCycle(const std::vector<int>& externalEventIds,
                              CycleStats& stats) {
  ++configCycles_;
  busStallsThisCycle_ = 0;
  const size_t firedBefore = stats.fired.size();
  obs::ObsSink* const sink = obs_.sink;
  const int64_t cycleIndex = configCycles_ - 1;  // 0-based, for observers
  const int64_t base = totalCycles_;             // machine time at cycle start
  machineTimeNow_ = base;
  if (sink != nullptr) sink->onCycleBegin(cycleIndex, base);
  CycleScratch& s = scratch();

  // 1. Sample events into the CR: external + those the TEPs raised last
  //    cycle + matured hardware timers. Events live for exactly this cycle
  //    (their CR bits are cleared again right after the decode).
  std::vector<int>& events = s.events;
  events.clear();
  events.insert(events.end(), pendingEvents_.begin(), pendingEvents_.end());
  pendingEvents_.clear();
  pendingEventBits_.clear();
  events.insert(events.end(), externalEventIds.begin(), externalEventIds.end());
  for (Timer& t : timers_) {
    if (totalCycles_ >= t.nextFire) {
      events.push_back(t.eventBit);
      if (sink != nullptr) sink->onTimerFire(t.eventBit, base);
      // Catch up without bursting: one event per cycle boundary, and the
      // next maturity is the first period multiple past now — or never,
      // when that lies past the largest machine time.
      const int64_t ahead = t.period - (totalCycles_ - t.nextFire) % t.period;
      t.nextFire = ahead > kMaxTime - totalCycles_ ? kMaxTime : totalCycles_ + ahead;
    }
  }
  for (int b : events) cr_.set(b);

  // 2. Decode: the SLA selects enabled transitions and the scheduler
  //    resolves conflicts — or the memo entry of this kind of decode holds
  //    the sampled CR and answers with its chosen set. An observed cycle
  //    neither reads nor writes the memo.
  ++stats.decodes;
  DecodeEntry& memo = decodeMemo_[events.empty() ? 0 : 1];
  const size_t keyWords = cr_.wordCount();
  const bool hit = sink == nullptr && memo.filled && keyIsCr(memo);
  std::vector<TransitionId>& chosen = s.chosen;
  if (hit) {
    ++stats.decodeMemoHits;
    chosen.assign(memo.words.begin() + static_cast<std::ptrdiff_t>(keyWords),
                  memo.words.end());
    for (int b : events) cr_.reset(b);
  } else {
    if (sink != nullptr) sink->onCrSampled(cr_, base);
    sla::SelectStats selectStats;
    sla_.selectInto(cr_, s.select, sink != nullptr ? &selectStats : nullptr);
    if (sink == nullptr) {
      memo.words.resize(keyWords);
      for (size_t w = 0; w < keyWords; ++w) memo.words[w] = cr_.word(w);
    }
    for (int b : events) cr_.reset(b);  // events are consumed by the decode
    std::vector<int> selectedIds;  // copied before resolveConflicts reorders
    if (sink != nullptr) selectedIds.assign(s.select.begin(), s.select.end());
    resolveConflicts(s);
    if (sink != nullptr) {
      std::vector<int> chosenIds(chosen.begin(), chosen.end());
      sink->onSlaSelect(selectedIds, chosenIds, selectStats.termsEvaluated, base);
    } else {
      memo.words.insert(memo.words.end(), chosen.begin(), chosen.end());
      memo.filled = true;
      memo.sameConfig = -1;
    }
  }
  if (chosen.empty()) {
    stats.quiescent = true;
    stats.quiescentCycles += 1;
    stats.cycles += kSlaEvaluateCycles;
    totalCycles_ += kSlaEvaluateCycles;
    machineTimeNow_ = totalCycles_;
    if (sink != nullptr)
      sink->onCycleEnd(cycleIndex, kSlaEvaluateCycles, 0, 0, true, totalCycles_);
    return;
  }
  stats.quiescent = false;
  ++stats.lockstepRuns;

  // 3. Fill the TEP condition caches from the CR (flat byte copy). The
  //    scratch only grows, so a thread that steps images with different
  //    TEP counts keeps every cache's storage.
  const size_t tepCount = teps_.size();
  if (s.condCache.size() < tepCount) {
    s.condCache.resize(tepCount);
    s.condDirty.resize(tepCount);
  }
  for (size_t i = 0; i < tepCount; ++i) {
    s.condCache[i] = crConditions_;
    s.condDirty[i].assign(layout_.conditionCount());
  }

  // 4. Execute the Transition Address Table: the TEPs in lockstep with bus
  //    arbitration, each routine on the microcode interpreter or replayed
  //    from its native run (bit-identical CR/port/cycle behaviour).
  const int64_t cycles = runTatLockstep(s, stats, base);

  // 5. Configuration update: apply exits/enters of all fired transitions,
  //    unless the memo knows they leave the configuration as they found
  //    it. applyActive keeps the packed CR state fields in sync
  //    incrementally; the key's state fields are the configuration the
  //    update started from.
  if (!hit || memo.sameConfig != 1) {
    for (TransitionId t : chosen)
      image_->exitSets_[static_cast<size_t>(t)].forEachSetBit(
          [&](int st) { applyActive(static_cast<StateId>(st), false); });
    for (TransitionId t : chosen)
      image_->enterSets_[static_cast<size_t>(t)].forEachSetBit(
          [&](int st) { applyActive(static_cast<StateId>(st), true); });
    if (sink == nullptr && memo.sameConfig < 0) memo.sameConfig = keyStatesAreCr(memo) ? 1 : 0;
  }

  stats.cycles += cycles;
  stats.busStallCycles += busStallsThisCycle_;
  totalCycles_ += cycles;
  totalBusStalls_ += busStallsThisCycle_;
  machineTimeNow_ = totalCycles_;
  if (sink != nullptr) {
    std::vector<int> activeIds;
    activeBits_.forEachSetBit([&](int st) { activeIds.push_back(st); });
    sink->onConfigUpdate(activeIds, totalCycles_);
    sink->onCycleEnd(cycleIndex, cycles, busStallsThisCycle_,
                     static_cast<int>(stats.fired.size() - firedBefore), false,
                     totalCycles_);
  }
}

bool PscpMachine::nativeAllowed(const std::vector<TransitionId>& chosen) const {
  if (obs_.sink != nullptr || jitMode_ == tep::jit::JitMode::kOff ||
      !tep::jit::jitBackendAvailable())
    return false;
  for (size_t a = 0; a < chosen.size(); ++a)
    for (size_t b = a + 1; b < chosen.size(); ++b)
      if (image_->hazardPair(chosen[a], chosen[b])) return false;
  return true;
}

bool PscpMachine::runAhead(Replay& replay, size_t tepIndex, TransitionId t,
                           int64_t guard, bool contended) {
  const tep::jit::CompiledFn fn =
      image_->tierCache().dispatch(t, image_->routineEntry_[static_cast<size_t>(t)]);
  if (fn == nullptr) return false;
  tep::Tep& core = *teps_[tepIndex];
  tep::jit::JitEnv env;
  env.host = this;
  env.config = &arch_;
  env.tepId = core.id();
  env.programSize = image_->app_.program.code.size();
  env.budgetLimit = kMaxMachineCycles;
  env.log = &replay.log;
  tep::jit::JitContext ctx;
  ctx.acc = core.acc();
  ctx.op = core.op();
  ctx.flagZ = core.flagZ() ? 1 : 0;
  ctx.flagN = core.flagN() ? 1 : 0;
  ctx.flagC = core.flagC() ? 1 : 0;
  // A routine's steps start no earlier than the machine cycle it is
  // dispatched in, so one longer than this cannot retire before the guard
  // trips; its run stops here and the loop's guard raises the error.
  ctx.cycleBudget = kMaxMachineCycles - guard + 2;
  ctx.env = &env;
  ctx.mem = memory_.view(static_cast<int>(tepIndex));
  ctx.logAt = replay.log.tail();
  ctx.logEnd = replay.log.limit();
  ctx.ports = ports_.data();
  ctx.logBus = contended ? 1 : 0;
  LogCursor& cursor = replay.cursors[tepIndex];
  cursor.begin = replay.log.size();
  cursor.next = cursor.begin;
  currentTep_ = static_cast<int>(tepIndex);
  const int32_t status = fn(&ctx);
  currentTep_ = -1;
  replay.log.setTail(ctx.logAt);
  // ACC/OP/flags carry over to the TEP's next routine, as on the interpreter.
  core.setArchState(ctx.acc, ctx.op, ctx.flagZ != 0, ctx.flagN != 0, ctx.flagC != 0);
  cursor.active = true;
  cursor.step = 0;
  cursor.busUntil = 0;
  cursor.end = replay.log.size();
  cursor.length = status == 0 ? ctx.cycles : kNever;
  cursor.faultStep = kNever;
  if (status != 0 && !env.overBudget) {
    cursor.faultStep = tep::jit::faultStepOf(ctx);
    cursor.fault = env.error.empty() ? std::string("PSCP: native tier fault")
                                     : std::move(env.error);
  }
  return true;
}

bool PscpMachine::stepLogged(Replay& replay, size_t tepIndex) {
  LogCursor& c = replay.cursors[tepIndex];
  const int64_t s = c.step;
  const tep::jit::TimedEffect* e = replay.log.data() + c.next;
  if (c.next < c.end && e->step == s && e->kind == tep::jit::TimedEffect::Kind::kBus) {
    c.busUntil = s + e->arg;
    ++c.next;
    ++e;
  }
  if (s < c.busUntil && !acquireExternalBus(static_cast<int>(tepIndex))) return false;
  for (; c.next < c.end && e->step == s; ++c.next, ++e) replayEffect(replay, c.next, tepIndex);
  if (s == c.faultStep) throw Error(c.fault);
  c.step = s + 1;
  if (c.step != c.length) return false;
  c.active = false;
  return true;
}

int64_t PscpMachine::quietSteps(const Replay& replay) {
  int64_t quiet = kNever;
  for (const LogCursor& c : replay.cursors)
    if (c.active) quiet = std::min(quiet, std::min(c.faultStep, c.length - 1) - c.step);
  const size_t n = replay.cursors.size();
  for (size_t a = 0; a < n; ++a)
    for (size_t b = a + 1; b < n; ++b)
      if (replay.cursors[a].active && replay.cursors[b].active)
        quiet = firstSharedBusCycle(replay, replay.cursors[a], replay.cursors[b], quiet);
  return quiet;
}

int64_t PscpMachine::firstSharedBusCycle(const Replay& replay, const LogCursor& a,
                                         const LogCursor& b, int64_t limit) {
  // A cursor's bus runs as cycle offsets from its current step: the run it
  // is inside, then each logged run. Until a stall, every busy TEP takes
  // one step per cycle, so offsets line the two cursors up cycle by cycle.
  struct BusRuns {
    const LogCursor& c;
    const tep::jit::EffectLog& log;
    size_t k;
    int64_t lo = 0;
    int64_t hi = 0;
    void next() {
      while (k < c.end && log[k].kind != tep::jit::TimedEffect::Kind::kBus) ++k;
      if (k == c.end) {
        lo = hi = kNever;
        return;
      }
      lo = log[k].step - c.step;
      hi = lo + log[k].arg;
      ++k;
    }
  };
  BusRuns runs[2] = {{a, replay.log, a.next}, {b, replay.log, b.next}};
  for (BusRuns& r : runs) {
    if (r.c.step < r.c.busUntil)
      r.hi = r.c.busUntil - r.c.step;
    else
      r.next();
  }
  while (runs[0].lo < limit && runs[1].lo < limit) {
    const int64_t lo = std::max(runs[0].lo, runs[1].lo);
    if (lo < std::min(runs[0].hi, runs[1].hi)) return lo;
    runs[runs[0].hi <= runs[1].hi ? 0 : 1].next();
  }
  return limit;
}

void PscpMachine::skipSteps(Replay& replay, int64_t steps, int64_t cycles, int64_t base) {
  const size_t n = replay.cursors.size();
  while (true) {
    // The next port write or raise any cursor passes: the earliest cycle,
    // then the TEP visited first in it (no retire moves the visit order
    // inside a stretch). Bus runs on the way need no replay.
    size_t pick = n;
    int64_t pickAt = steps;
    size_t pickRank = n;
    for (size_t i = 0; i < n; ++i) {
      LogCursor& c = replay.cursors[i];
      if (!c.active) continue;
      for (; c.next < c.end && replay.log[c.next].step < c.step + steps &&
             replay.log[c.next].kind == tep::jit::TimedEffect::Kind::kBus;
           ++c.next)
        c.busUntil = replay.log[c.next].step + replay.log[c.next].arg;
      if (c.next == c.end || replay.log[c.next].step >= c.step + steps) continue;
      const int64_t at = replay.log[c.next].step - c.step;
      const size_t rank = (i + n - static_cast<size_t>((cycles + at) % static_cast<int64_t>(n))) % n;
      if (at < pickAt || (at == pickAt && rank < pickRank)) {
        pick = i;
        pickAt = at;
        pickRank = rank;
      }
    }
    if (pick == n) break;
    LogCursor& c = replay.cursors[pick];
    machineTimeNow_ = base + cycles + pickAt;
    replayEffect(replay, c.next, pick);
    ++c.next;
  }
  for (LogCursor& c : replay.cursors)
    if (c.active) c.step += steps;
}

void PscpMachine::replayEffect(Replay& replay, size_t entry, size_t tepIndex) {
  if (replay.recording)
    replay.steps.push_back(
        {static_cast<int32_t>(tepIndex),
         static_cast<int32_t>(entry - replay.cursors[tepIndex].begin),
         machineTimeNow_ - replay.base});
  const tep::jit::TimedEffect& e = replay.log[entry];
  if (e.kind == tep::jit::TimedEffect::Kind::kPortWrite) {
    currentTep_ = static_cast<int>(tepIndex);  // the PortWrite record's TEP
    writePort(e.arg, e.value);
    currentTep_ = -1;
  } else {
    raiseEvent(e.arg);
  }
}

int64_t PscpMachine::runTatLockstep(CycleScratch& s, CycleStats& stats, int64_t base) {
  obs::ObsSink* const sink = obs_.sink;
  const std::vector<TransitionId>& chosen = s.chosen;
  const size_t tepCount = teps_.size();
  // Dispatch from the Transition Address Table round-robin; mutual-
  // exclusion groups are never in flight on two TEPs at once (the
  // "additional decode logic" of Sec. 4).
  std::vector<TransitionId>& table = s.table;  // FIFO of pending transitions
  table.assign(chosen.begin(), chosen.end());
  std::vector<TransitionId>& running = s.running;
  running.assign(tepCount, -1);
  s.groupInFlight.assign(static_cast<size_t>(image_->exclusionGroupCount_), 0);
  if (sink != nullptr) {
    s.dispatchCycles.resize(tepCount);
    s.dispatchInstrs.resize(tepCount);
    s.dispatchStalls.resize(tepCount);
  }
  const int64_t condCopy = conditionCopyCycles(arch_, layout_.conditionCount());
  int64_t cycles = kSlaEvaluateCycles + static_cast<int64_t>(tepCount) * condCopy;
  // (cycles + k) % tepCount visits the TEPs from a rotating start; a mask
  // does the modulo for the usual power-of-two TEP counts.
  const bool powerOfTwo = (tepCount & (tepCount - 1)) == 0;
  const auto rotationAt = [&](int64_t c) {
    const auto u = static_cast<size_t>(c);
    return powerOfTwo ? u & (tepCount - 1) : u % tepCount;
  };
  const bool native = nativeAllowed(chosen);
  // A bus step can stall only while another routine is in flight.
  const bool contended = tepCount > 1 && chosen.size() > 1;
  Replay& replay = s.replay;
  replay.log.clear();
  replay.cursors.resize(tepCount);
  for (LogCursor& c : replay.cursors) c.active = false;
  replay.recording = false;
  int64_t guard = 0;  // machine cycles stepped (the guard excludes overhead)

  auto tryDispatch = [&](size_t tepIndex) {
    if (running[tepIndex] != -1 || table.empty()) return;
    // Find the first pending transition whose exclusion group is free.
    for (size_t j = 0; j < table.size(); ++j) {
      const int group = image_->exclusionGroup_[static_cast<size_t>(table[j])];
      if (group >= 0 && s.groupInFlight[static_cast<size_t>(group)] != 0) continue;
      const TransitionId t = table[j];
      table.erase(table.begin() + static_cast<std::ptrdiff_t>(j));
      running[tepIndex] = t;
      if (group >= 0) s.groupInFlight[static_cast<size_t>(group)] = 1;
      // A rejected routine, or one another thread is compiling right now,
      // runs on the interpreter for this dispatch.
      if (!native || !runAhead(replay, tepIndex, t, guard, contended))
        teps_[tepIndex]->startRoutine(image_->routineEntry_[static_cast<size_t>(t)]);
      cycles += kDispatchCyclesPerTransition;
      if (sink != nullptr) {
        s.dispatchCycles[tepIndex] = teps_[tepIndex]->cyclesExecuted();
        s.dispatchInstrs[tepIndex] = teps_[tepIndex]->instructionsExecuted();
        s.dispatchStalls[tepIndex] = teps_[tepIndex]->stallCycles();
        sink->onDispatch(static_cast<int>(tepIndex), t,
                         static_cast<int>(table.size()), base + cycles);
      }
      break;
    }
  };
  // A routine on TEP i finished: write its condition cache back to the CR,
  // free its exclusion group and fire it.
  auto finish = [&](size_t i, bool logged) {
    const TransitionId done = running[i];
    running[i] = -1;
    BitVec& dirty = s.condDirty[i];
    const std::vector<uint8_t>& cache = s.condCache[i];
    if (sink != nullptr && dirty.any()) {
      std::vector<std::pair<int, bool>> writes;
      dirty.forEachSetBit(
          [&](int c) { writes.emplace_back(c, cache[static_cast<size_t>(c)] != 0); });
      sink->onCondWriteBack(static_cast<int>(i), writes, base + cycles);
    }
    dirty.forEachSetBit([&](int c) { setCrCondition(c, cache[static_cast<size_t>(c)] != 0); });
    dirty.clear();
    const int doneGroup = image_->exclusionGroup_[static_cast<size_t>(done)];
    if (doneGroup >= 0) s.groupInFlight[static_cast<size_t>(doneGroup)] = 0;
    stats.fired.push_back(done);
    ++(logged ? jitNativeRuns_ : jitInterpRuns_);
    return done;
  };

  for (size_t i = 0; i < tepCount; ++i) tryDispatch(i);

  // The schedule memo. When the first round dispatched every routine and
  // each ran natively to its end, what the loop does next depends only on
  // the TEP count, the cycle count so far, the write-back cost and each
  // slot's logged timing (never on an effect's value, the instance or the
  // image), so the loop's recorded output for the same key replays exactly.
  bool allNative = native && table.empty();
  for (size_t i = 0; allNative && i < tepCount; ++i)
    allNative = running[i] == -1 ||
                (replay.cursors[i].active && replay.cursors[i].length != kNever);
  if (allNative) {
    std::vector<uint64_t>& key = s.scheduleKey;
    key.clear();
    key.push_back(tepCount);
    key.push_back(static_cast<uint64_t>(cycles));
    key.push_back(static_cast<uint64_t>(condCopy));
    for (size_t i = 0; i < tepCount; ++i) {
      if (running[i] == -1) {
        key.push_back(~uint64_t{0});  // idle slot
        continue;
      }
      const LogCursor& c = replay.cursors[i];
      key.push_back(static_cast<uint64_t>(c.length));
      key.push_back(c.end - c.begin);
      for (size_t k = c.begin; k < c.end; ++k) {
        const tep::jit::TimedEffect& e = replay.log[k];
        key.push_back((static_cast<uint64_t>(static_cast<uint32_t>(e.step)) << 8) |
                      static_cast<uint64_t>(e.kind));
        key.push_back(static_cast<uint32_t>(e.arg));
      }
    }
    const ScheduleMemo& memo = s.schedule;
    if (key == memo.key) {
      ++stats.scheduleReplays;
      for (const ScheduleStep& step : memo.steps) {
        const auto i = static_cast<size_t>(step.tep);
        if (step.entry == ScheduleStep::kRetire) {
          finish(i, true);
          continue;
        }
        machineTimeNow_ = base + step.time;
        replayEffect(replay, replay.cursors[i].begin + static_cast<size_t>(step.entry), i);
      }
      busStallsThisCycle_ += memo.stalls;
      return memo.cycles;
    }
    replay.recording = true;
    replay.base = base;
    replay.steps.clear();
  }
  const int64_t stallsBefore = busStallsThisCycle_;

  while (true) {
    size_t busy = 0;
    bool interpreting = false;
    for (size_t i = 0; i < tepCount; ++i) {
      if (replay.cursors[i].active) {
        ++busy;
      } else if (teps_[i]->busy()) {
        ++busy;
        interpreting = true;
      }
    }
    if (busy == 0) {
      if (table.empty()) break;
      // All TEPs idle but exclusion groups blocked dispatch earlier: clear
      // finished groups and retry.
      for (size_t i = 0; i < tepCount; ++i) tryDispatch(i);
      if (std::none_of(running.begin(), running.end(),
                       [](TransitionId t) { return t != -1; }))
        fail("PSCP scheduler deadlock (mutual-exclusion groups)");
      continue;
    }

    // While every busy TEP is log-stepped, the machine cycles before the
    // next one that needs arbitration or retires a routine are credited at
    // once, replaying the port writes and raises on the way. The guard
    // counts them.
    if (!interpreting) {
      const int64_t quiet = std::min(quietSteps(replay), kMaxMachineCycles + 1 - guard);
      if (quiet > 0) {
        skipSteps(replay, quiet, cycles, base);
        cycles += quiet;
        guard += quiet;
        if (guard > kMaxMachineCycles)
          fail("PSCP configuration cycle exceeded %lld machine cycles",
               static_cast<long long>(kMaxMachineCycles));
      }
    }

    // One machine cycle: every busy TEP advances one step; the external
    // bus has a single owner per cycle (rotating priority). A retire bumps
    // `cycles` mid-cycle, which moves the rest of this cycle's visit order.
    busOwner_ = -1;
    machineTimeNow_ = base + cycles;
    size_t rotation = rotationAt(cycles);
    for (size_t k = 0; k < tepCount; ++k) {
      size_t i = rotation + k;
      if (i >= tepCount) i -= tepCount;
      const bool logged = replay.cursors[i].active;
      if (logged) {
        if (!stepLogged(replay, i)) continue;
      } else {
        if (!teps_[i]->busy()) continue;
        currentTep_ = static_cast<int>(i);
        teps_[i]->stepCycle();
        currentTep_ = -1;
        if (teps_[i]->busy()) continue;
      }
      // Routine finished: write back, then hand the TEP the next transition.
      if (replay.recording)
        replay.steps.push_back({static_cast<int32_t>(i), ScheduleStep::kRetire, 0});
      const TransitionId done = finish(i, logged);
      cycles += condCopy;
      if (sink != nullptr) {
        obs::RoutineStats rs;
        rs.cycles = teps_[i]->cyclesExecuted() - s.dispatchCycles[i];
        rs.instructions = teps_[i]->instructionsExecuted() - s.dispatchInstrs[i];
        rs.busStalls = teps_[i]->stallCycles() - s.dispatchStalls[i];
        sink->onRetire(static_cast<int>(i), done, rs, base + cycles);
      }
      tryDispatch(i);
      rotation = rotationAt(cycles);
    }
    ++cycles;
    if (++guard > kMaxMachineCycles)
      fail("PSCP configuration cycle exceeded %lld machine cycles",
           static_cast<long long>(kMaxMachineCycles));
  }
  if (replay.recording) {
    // The loop ran to its end: its output is the memo's entry for this key.
    replay.recording = false;
    ScheduleMemo& memo = s.schedule;
    memo.key.swap(s.scheduleKey);
    memo.steps.swap(replay.steps);
    memo.cycles = cycles;
    memo.stalls = busStallsThisCycle_ - stallsBefore;
  }
  return cycles;
}

std::vector<CycleStats> PscpMachine::runToQuiescence(
    const std::set<std::string>& initialEvents, int maxCycles) {
  std::vector<CycleStats> out;
  out.push_back(configurationCycle(initialEvents));
  while (!out.back().quiescent || !pendingEvents_.empty()) {
    if (static_cast<int>(out.size()) >= maxCycles) break;
    out.push_back(configurationCycle({}));
    if (out.back().quiescent && pendingEvents_.empty()) break;
  }
  return out;
}

}  // namespace pscp::machine
