// Shared SMD fleet harness: the pickup-head workload compiled once and the
// warm-up/pulse-injection recipe that drives an instance into its Moving
// AND-state. Extracted from bench/fleet_throughput so the throughput
// bench, the telemetry-overhead bench and tools/pscp_top all run the
// *same* steady-state duty cycle (two DeltaT TEP routines per epoch plus
// quiescent decode) instead of three drifting copies of it.
#pragma once

#include <memory>

#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"

namespace pscp::workloads {

/// Compile the SMD pickup-head chart against the paper's two-TEP,
/// 16-bit arch shape (mul/div, comparator, two's complement, 12 regs).
/// `numTeps` overrides the TEP count: the tier differential tests step
/// 1, 2 and 3 TEPs (one TEP runs every routine after another; more run
/// the DeltaT pairs side by side, contending for the external bus).
/// `dataWidth` overrides the datapath: on 8 bits every 16-bit access
/// takes two chunks.
[[nodiscard]] std::shared_ptr<const machine::ChartImage> makeSmdFleetImage(
    int numTeps = 2, int dataWidth = 16);

/// Drive one machine from Off into Moving with a long trapezoidal move
/// pending on both axes (command byte 255 -> 4080 steps per axis, which
/// outlasts any bench window) and the pulse-stream timers armed. Returns
/// false if the machine did not land in RunX+RunY+RunPhi.
/// `dataValid` is the machine's DATA_VALID event id.
bool warmUpSmdInstance(machine::PscpMachine& machine, int dataValid);

/// Resolved event ids for the per-epoch pulse injection.
struct SmdPulseIds {
  int dataValid = 0;
  int xPulse = 0;
  int yPulse = 0;
};

[[nodiscard]] SmdPulseIds resolveSmdPulseIds(const fleet::Fleet& fleet);

/// Spawn `instances`, warm every one into Moving, and inject the first
/// X/Y pulse pair. Returns false if any instance failed to warm up.
/// After this, one injectSmdPulses() + step() per epoch sustains the
/// steady-state duty cycle.
bool warmUpSmdFleet(fleet::Fleet& fleet, size_t instances,
                    const SmdPulseIds& ids);

/// One X and one Y step pulse per live instance, delivered at the next
/// epoch's first cycle.
void injectSmdPulses(fleet::Fleet& fleet, const SmdPulseIds& ids);

}  // namespace pscp::workloads
