#include "workloads/smd_fleet.hpp"

#include <utility>
#include <vector>

#include "actionlang/parser.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd.hpp"

namespace pscp::workloads {

std::shared_ptr<const machine::ChartImage> makeSmdFleetImage(int numTeps, int dataWidth) {
  // ChartImage keeps references into the parsed chart and action program,
  // so both must outlive it: bundle them and hand out an aliasing
  // shared_ptr whose control block owns the bundle.
  struct Bundle {
    statechart::Chart chart = statechart::parseChart(smdChartText());
    actionlang::Program actions = actionlang::parseActionSource(smdActionText());
    std::unique_ptr<const machine::ChartImage> image;
  };
  auto bundle = std::make_shared<Bundle>();
  hwlib::ArchConfig arch;
  arch.dataWidth = dataWidth;
  arch.numTeps = numTeps;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.hasTwosComplement = true;
  arch.registerFileSize = 12;
  bundle->image = std::make_unique<const machine::ChartImage>(
      bundle->chart, bundle->actions, arch);
  return {bundle, bundle->image.get()};
}

bool warmUpSmdInstance(machine::PscpMachine& machine, int dataValid) {
  machine.setInputPort("Buffer", 255);
  machine::CycleStats stats;
  const std::vector<int> power{machine.eventId("POWER")};
  const std::vector<int> data{dataValid};
  const std::vector<int> none;
  machine.configurationCycleIds(power, &stats);  // Off -> Idle1
  for (int i = 0; i < 4; ++i)                    // Idle1 -> ... -> NoData
    machine.configurationCycleIds(data, &stats);
  for (int i = 0; i < 4; ++i)                    // PrepareMove, BeginMove, Start*
    machine.configurationCycleIds(none, &stats);
  machine.clearPortWrites();
  return machine.isActive("RunX") && machine.isActive("RunY") &&
         machine.isActive("RunPhi");
}

SmdPulseIds resolveSmdPulseIds(const fleet::Fleet& fleet) {
  SmdPulseIds ids;
  ids.dataValid = fleet.eventId("DATA_VALID");
  ids.xPulse = fleet.eventId("X_PULSE");
  ids.yPulse = fleet.eventId("Y_PULSE");
  return ids;
}

bool warmUpSmdFleet(fleet::Fleet& fleet, size_t instances,
                    const SmdPulseIds& ids) {
  // Same recipe as warmUpSmdInstance, but routed through the fleet's
  // journaled control surface so a journal-armed fleet records its own
  // warm-up and a replay reproduces it (direct machine() writes would be
  // invisible to the journal).
  bool ok = true;
  const std::vector<int> power{fleet.eventId("POWER")};
  const std::vector<int> data{ids.dataValid};
  const std::vector<int> none;
  for (fleet::InstanceId id : fleet.spawnMany(instances)) {
    fleet.setInputPort(id, "Buffer", 255);
    fleet.warmCycle(id, power);                          // Off -> Idle1
    for (int i = 0; i < 4; ++i) fleet.warmCycle(id, data);  // ... -> NoData
    for (int i = 0; i < 4; ++i) fleet.warmCycle(id, none);  // ... -> Start*
    const machine::PscpMachine& m = std::as_const(fleet).machine(id);
    ok = m.isActive("RunX") && m.isActive("RunY") && m.isActive("RunPhi") && ok;
  }
  injectSmdPulses(fleet, ids);
  return ok;
}

void injectSmdPulses(fleet::Fleet& fleet, const SmdPulseIds& ids) {
  // Ids are dense and never reused; skip retired holes via isLive.
  const size_t total = fleet.liveCount();
  size_t seen = 0;
  for (fleet::InstanceId id = 0; seen < total; ++id) {
    if (!fleet.isLive(id)) continue;
    ++seen;
    fleet.inject(id, ids.xPulse);
    fleet.inject(id, ids.yPulse);
  }
}

}  // namespace pscp::workloads
