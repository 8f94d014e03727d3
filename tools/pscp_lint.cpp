// pscp_lint — chart-level static analyzer front-end.
//
// Runs the src/analysis passes (transition conflicts, TEP write races,
// reachability/liveness, action-language and microcode lints) over a chart
// and its action routines, prints a compiler-style report, and gates CI:
//
//   pscp_lint --chart FILE [--actions FILE] [options]
//   pscp_lint --builtin smd [options]
//
//   --chart FILE         statechart source to analyze
//   --actions FILE       action-language source (optional)
//   --builtin smd        analyze the built-in SMD pickup-head workload
//   --json FILE          write the pscp-lint-v1 JSON report ('-' = stdout)
//   --werror             exit nonzero on warnings, not just errors
//   --no-conflicts / --no-races / --no-reach / --no-lints
//                        disable individual passes
//   --max-configs N      reachability exploration bound (default 65536)
//   --check SPEC         run the bounded model checker with the given spec
//                        file and merge its MC0xx findings into the report
//   --runtime-check [N]  also run the machine for N fuzzed configuration
//                        cycles (default 2000) and fail if an observed
//                        same-cycle port collision was not flagged WR001
//   --quiet              suppress the text report (exit code / JSON only)
//
// Exit codes: 0 clean, 1 gated findings or cross-check failure, 2 usage /
// parse error.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/check/checker.hpp"
#include "analysis/check/spec.hpp"
#include "hwlib/arch_config.hpp"
#include "obs/journal/journal.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"
#include "workloads/smd.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--chart FILE [--actions FILE] | --builtin smd)\n"
               "          [--json FILE] [--werror] [--quiet] [--check SPEC]\n"
               "          [--no-conflicts] [--no-races] [--no-reach] [--no-lints]\n"
               "          [--max-configs N] [--runtime-check [CYCLES]]\n",
               argv0);
  return 2;
}

bool readFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

/// Deterministic event fuzz for the runtime cross-check: drive the machine
/// with pseudo-random subsets of its external events and compare observed
/// same-cycle port collisions against the static WR001 verdict.
int runtimeCrossCheck(const pscp::statechart::Chart& chart,
                      const pscp::actionlang::Program& actions, int cycles,
                      const pscp::analysis::AnalysisResult& result, bool quiet) {
  using pscp::machine::PortWrite;

  std::vector<std::string> events;
  for (const auto& [name, decl] : chart.events())
    if (decl.external) events.push_back(name);
  if (events.empty())
    for (const auto& [name, decl] : chart.events()) events.push_back(name);

  pscp::machine::PscpMachine machine(chart, actions, pscp::hwlib::analysisArch());
  uint64_t lcg = 0x243F6A8885A308D3ull;  // fixed seed: runs are reproducible
  for (int i = 0; i < cycles; ++i) {
    std::set<std::string> fire;
    for (const std::string& e : events) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      if ((lcg >> 33) & 1) fire.insert(e);
    }
    machine.configurationCycle(fire);
  }

  // Group writes by (configuration cycle, port); a collision is two writes
  // of different values from different transitions in one cycle.
  std::map<std::pair<int64_t, int>, std::vector<const PortWrite*>> byCyclePort;
  for (const PortWrite& w : machine.portWrites())
    byCyclePort[{w.configCycle, w.port}].push_back(&w);

  std::set<std::string> staticallyFlagged;
  for (const pscp::analysis::Finding& f : result.findings)
    if (f.code == pscp::analysis::kCodeWriteWrite && !f.resource.empty())
      staticallyFlagged.insert(f.resource);

  // Port address -> chart name for reporting.
  std::map<int, std::string> portName;
  for (const auto& [name, port] : chart.ports()) portName[port.address] = name;

  int observed = 0;
  int unflagged = 0;
  for (const auto& [key, writes] : byCyclePort) {
    bool collision = false;
    for (size_t i = 0; i < writes.size() && !collision; ++i)
      for (size_t j = i + 1; j < writes.size() && !collision; ++j)
        if (writes[i]->transition != writes[j]->transition &&
            writes[i]->value != writes[j]->value)
          collision = true;
    if (!collision) continue;
    ++observed;
    auto it = portName.find(key.second);
    std::string name = "#";
    if (it != portName.end())
      name = it->second;
    else
      name += std::to_string(key.second);
    if (staticallyFlagged.count(name) == 0) {
      ++unflagged;
      std::fprintf(stderr,
                   "pscp_lint: runtime cross-check FAILED: observed a "
                   "same-cycle collision on port '%s' (configuration cycle "
                   "%lld) that the race pass did not flag\n",
                   name.c_str(), static_cast<long long>(key.first));
    }
  }
  if (!quiet)
    std::printf(
        "runtime cross-check: %d fuzzed cycles, %d observed collision(s), "
        "%d unflagged\n",
        cycles, observed, unflagged);
  return unflagged == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string chartFile;
  std::string actionsFile;
  std::string builtin;
  std::string jsonFile;
  std::string specFile;
  bool werror = false;
  bool quiet = false;
  bool runtimeCheck = false;
  int runtimeCycles = 2000;
  pscp::analysis::AnalyzerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires an argument\n", argv[0], what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--chart") chartFile = value("--chart");
    else if (arg == "--actions") actionsFile = value("--actions");
    else if (arg == "--builtin") builtin = value("--builtin");
    else if (arg == "--json") jsonFile = value("--json");
    else if (arg == "--check") specFile = value("--check");
    else if (arg == "--werror") werror = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--no-conflicts") options.conflicts = false;
    else if (arg == "--no-races") options.races = false;
    else if (arg == "--no-reach") options.reachability = false;
    else if (arg == "--no-lints") options.lints = false;
    else if (arg == "--max-configs") options.maxConfigurations = std::atoi(value("--max-configs"));
    else if (arg == "--runtime-check") {
      runtimeCheck = true;
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
        runtimeCycles = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  std::string chartText;
  std::string actionText;
  std::string chartName = chartFile;
  if (builtin == "smd") {
    chartText = pscp::workloads::smdChartText();
    actionText = pscp::workloads::smdActionText();
    chartName = "<builtin:smd>";
  } else if (!builtin.empty()) {
    std::fprintf(stderr, "%s: unknown builtin '%s' (have: smd)\n", argv[0],
                 builtin.c_str());
    return 2;
  } else if (!chartFile.empty()) {
    if (!readFile(chartFile, &chartText)) {
      std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], chartFile.c_str());
      return 2;
    }
    if (!actionsFile.empty() && !readFile(actionsFile, &actionText)) {
      std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], actionsFile.c_str());
      return 2;
    }
  } else {
    return usage(argv[0]);
  }

  try {
    const pscp::statechart::Chart chart =
        pscp::statechart::parseChart(chartText, chartName);
    pscp::actionlang::Program actions = pscp::actionlang::parseActionSource(
        actionText, actionsFile.empty() ? "<actions>" : actionsFile);

    pscp::analysis::Analyzer analyzer(chart, actions, options);

    // Compile for the microcode-level checks; charts whose actions do not
    // compile under the analysis arch still get the AST-level passes.
    std::shared_ptr<pscp::machine::ChartImage> image;
    try {
      image = std::make_shared<pscp::machine::ChartImage>(
          chart, actions, pscp::hwlib::analysisArch());
      analyzer.attachCompiled(image->app());
    } catch (const pscp::Error& e) {
      if (!quiet)
        std::fprintf(stderr,
                     "pscp_lint: note: compile skipped (%s); microcode "
                     "checks disabled\n",
                     e.what());
    }

    pscp::analysis::AnalysisResult result = analyzer.run();
    if (image != nullptr)
      result.imageHash = pscp::obs::journal::imageContentHash(*image);

    if (!specFile.empty()) {
      std::string specText;
      if (!readFile(specFile, &specText)) {
        std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], specFile.c_str());
        return 2;
      }
      pscp::analysis::check::SpecFile spec =
          pscp::analysis::check::parseSpec(specText, specFile);
      pscp::analysis::check::bindSpec(&spec, chart);
      pscp::analysis::check::CheckOptions checkOptions;
      if (spec.boundStates) checkOptions.maxStates = *spec.boundStates;
      if (spec.boundDepth) checkOptions.maxDepth = *spec.boundDepth;
      const pscp::analysis::check::CheckResult check =
          pscp::analysis::check::runBoundedCheck(chart, actions, spec, image,
                                                 checkOptions);
      if (!quiet) std::fputs(check.renderText().c_str(), stdout);
      for (const pscp::analysis::Finding& f : check.findings)
        result.findings.push_back(f);
    }

    if (!quiet) std::fputs(result.renderText().c_str(), stdout);
    if (!jsonFile.empty()) {
      const std::string doc = result.renderJson();
      if (jsonFile == "-") {
        std::fputs(doc.c_str(), stdout);
      } else {
        std::FILE* f = std::fopen(jsonFile.c_str(), "wb");
        if (f == nullptr) {
          std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0], jsonFile.c_str());
          return 2;
        }
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
      }
    }

    int exitCode = 0;
    if (result.errorCount() > 0) exitCode = 1;
    if (werror && result.warningCount() > 0) exitCode = 1;
    if (runtimeCheck && image != nullptr)
      if (runtimeCrossCheck(chart, actions, runtimeCycles, result, quiet) != 0)
        exitCode = 1;
    return exitCode;
  } catch (const pscp::Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
