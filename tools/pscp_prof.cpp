// pscp_prof — cycle-attribution profiler front-end.
//
// Runs the SMD pickup-head controller (paper Sec. 5) on a PSCP machine
// with the Profiler sink attached and prints the perf-style report:
// where every simulated cycle went (exclusive categories), which TEP
// bounded each configuration cycle, latency percentiles, and the top
// transitions/state regions by cost.
//
//   pscp_prof [--teps N] [--repeat R] [--top N] [--json FILE] [--quiet]
//
//   --teps N     number of TEPs (default 2)
//   --repeat R   repeat the move-command sequence R times (default 1)
//   --top N      rows in the top-transition/state tables (default 10)
//   --json FILE  also write the machine-readable pscp-profile-v1 report
//   --quiet      suppress the text report (self-check and JSON only)
//
// The profiled run is pinned to the microcode interpreter: an attached
// sink sees micro-level events (instruction retires, bus stalls) that
// only the interpreter produces.
//
// Before reporting, the tool re-validates the profiler's exactness
// invariant against the machine's own CycleStats: every configuration
// cycle's category sum must equal its reported cycle count, and the
// grand total must match the sum over CycleStats. Exit is nonzero on
// any mismatch, so CI runs double as an attribution audit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "actionlang/parser.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--teps N] [--repeat R] [--top N] [--json FILE] "
               "[--quiet]\n",
               argv0);
  return 2;
}

/// The canonical SMD walk (same sequence as examples/trace_demo): one
/// 3-axis move command, prepare/begin/start, pulses until completion.
int64_t driveMove(pscp::machine::PscpMachine& m) {
  int64_t cycles = 0;
  for (uint32_t byte : {0x01u, 6u, 4u, 2u}) {
    m.setInputPort("Buffer", byte);
    cycles += m.configurationCycle({"DATA_VALID"}).cycles;
  }
  cycles += m.configurationCycle({}).cycles;  // PrepareMove
  cycles += m.configurationCycle({}).cycles;  // BeginMove
  cycles += m.configurationCycle({}).cycles;  // StartMotors
  cycles += m.configurationCycle({"X_PULSE", "Y_PULSE", "PHI_PULSE"}).cycles;
  cycles += m.configurationCycle({"X_PULSE", "Y_PULSE"}).cycles;
  cycles += m.configurationCycle({"X_PULSE"}).cycles;
  cycles += m.configurationCycle({"X_STEPS", "Y_STEPS", "PHI_STEPS"}).cycles;
  cycles += m.configurationCycle({}).cycles;  // FinishMove
  for (const auto& s : m.runToQuiescence({})) cycles += s.cycles;
  return cycles;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pscp;

  int teps = 2;
  int repeat = 1;
  int top = 10;
  std::string jsonPath;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--teps" && hasValue) {
      teps = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && hasValue) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--top" && hasValue) {
      top = std::atoi(argv[++i]);
    } else if (arg == "--json" && hasValue) {
      jsonPath = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (teps < 1 || repeat < 1) return usage(argv[0]);

  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.numTeps = teps;
  arch.registerFileSize = 12;
  machine::PscpMachine m(chart, actions, arch);

  obs::Profiler profiler;
  m.setObsOptions({&profiler});

  int64_t statsCycles = m.configurationCycle({"POWER"}).cycles;
  for (int r = 0; r < repeat; ++r) statsCycles += driveMove(m);

  // Attribution audit: the profiler must account for exactly 100% of the
  // cycles the machine itself reported — per cycle and in total.
  int64_t attributed = 0;
  for (const obs::CycleAttribution& a : profiler.cycles()) {
    int64_t sum = 0;
    for (const int64_t c : a.cat) sum += c;
    if (sum != a.total) {
      std::fprintf(stderr,
                   "pscp_prof: attribution mismatch at configuration cycle "
                   "%lld: categories sum to %lld, machine reported %lld\n",
                   static_cast<long long>(a.index), static_cast<long long>(sum),
                   static_cast<long long>(a.total));
      return 1;
    }
    attributed += sum;
  }
  if (attributed != statsCycles || profiler.totalCycles() != statsCycles) {
    std::fprintf(stderr,
                 "pscp_prof: attribution total %lld != CycleStats total %lld\n",
                 static_cast<long long>(attributed),
                 static_cast<long long>(statsCycles));
    return 1;
  }

  if (!quiet) {
    obs::ReportOptions options;
    options.topN = top;
    std::fputs(obs::profileText(profiler, options).c_str(), stdout);
    std::printf("\nattribution audit: %lld/%lld cycles accounted (100.0%%)\n",
                static_cast<long long>(attributed),
                static_cast<long long>(statsCycles));
  }
  if (!jsonPath.empty()) {
    obs::writeProfileJson(profiler, jsonPath);
    if (!quiet) std::printf("wrote %s\n", jsonPath.c_str());
  }
  return 0;
}
