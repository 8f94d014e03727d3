// pscp_replay: record, replay, verify and bisect pscp-journal-v1 logs.
//
//   pscp_replay record --out J.json [--instances N] [--threads N]
//                      [--epochs N] [--cycles N] [--checkpoint-interval N]
//                      [--binary] [--faulty-epoch E]
//       Run the SMD pickup-head fleet workload with the journal armed and
//       write the log. --faulty-epoch deliberately corrupts the journal's
//       inject record for that epoch before writing (bisect demo fodder).
//
//   pscp_replay replay J [--threads N] [--jit MODE]
//       Re-execute the journal at the given configuration and print the
//       final fleet digest. Checkpoints are verified along the way.
//
//   pscp_replay verify J [--threads N] [--jit MODE]
//       Like replay, but the exit status is the verdict: 0 iff every
//       recorded checkpoint matched bit-for-bit. --jit always against a
//       journal recorded under the interpreter is the native-tier
//       bit-identity proof.
//
//   pscp_replay bisect J [--threads N] [--jit MODE]
//       Locate the first divergent epoch of the given configuration
//       against the journal, print both CR states decoded and the causal
//       event spans in the divergence window.
//
//   pscp_replay trace J --instance ID --out T.json
//       Replay with a trace recorder + span tracker attached to one
//       instance and write a Chrome trace whose flow arrows follow each
//       recorded event's span (enqueue -> drain -> dispatch).
//
// All replaying commands take --chart FILE [--actions FILE] to build the
// image from sources instead of the built-in SMD workload — required to
// verify the counterexample journals pscp_check emits. The image is built
// under hwlib::analysisArch(), the same arch pscp_check and pscp_lint use,
// so image content hashes line up across the tools.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "hwlib/arch_config.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/replay.hpp"
#include "obs/journal/spans.hpp"
#include "obs/recorder.hpp"
#include "obs/tee.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"
#include "tep/jit/tier.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;
using namespace pscp::obs::journal;

namespace {

struct Options {
  std::string command;
  std::string journalPath;
  std::string outPath;
  std::string chartPath;
  std::string actionsPath;
  size_t instances = 64;
  int threads = 1;
  int epochs = 64;
  int cycles = 4;
  int64_t checkpointInterval = 16;
  tep::jit::JitMode jitMode = tep::jit::jitModeFromEnv();
  bool binary = false;
  int64_t traceInstance = -1;
  int64_t faultyEpoch = -1;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s record --out PATH [--instances N] [--threads N] [--epochs N]\n"
      "          [--cycles N] [--checkpoint-interval N] [--binary]\n"
      "          [--faulty-epoch E]\n"
      "       %s replay JOURNAL [--threads N] [--jit off|always]\n"
      "          [--chart FILE [--actions FILE]]\n"
      "       %s verify JOURNAL [--threads N] [--jit off|always]\n"
      "          [--chart FILE [--actions FILE]]\n"
      "       %s bisect JOURNAL [--threads N] [--jit off|always]\n"
      "          [--chart FILE [--actions FILE]]\n"
      "       %s trace JOURNAL --instance ID --out PATH\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

bool parseOptions(int argc, char** argv, Options* opt) {
  if (argc < 2) return false;
  opt->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--binary") {
      opt->binary = true;
    } else if (arg == "--out" && (v = next())) {
      opt->outPath = v;
    } else if (arg == "--instances" && (v = next())) {
      opt->instances = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--threads" && (v = next())) {
      opt->threads = std::atoi(v);
      if (opt->threads > fleet::kMaxWorkerThreads) {
        std::fprintf(stderr, "--threads %d exceeds the maximum of %d\n", opt->threads,
                     fleet::kMaxWorkerThreads);
        return false;
      }
    } else if (arg == "--epochs" && (v = next())) {
      opt->epochs = std::atoi(v);
    } else if (arg == "--cycles" && (v = next())) {
      opt->cycles = std::atoi(v);
    } else if (arg == "--checkpoint-interval" && (v = next())) {
      opt->checkpointInterval = std::atoll(v);
    } else if (arg == "--jit" && (v = next())) {
      if (!tep::jit::parseJitMode(v, &opt->jitMode)) {
        std::fprintf(stderr, "bad --jit mode: %s (off|always)\n", v);
        return false;
      }
    } else if (arg == "--chart" && (v = next())) {
      opt->chartPath = v;
    } else if (arg == "--actions" && (v = next())) {
      opt->actionsPath = v;
    } else if (arg == "--instance" && (v = next())) {
      opt->traceInstance = std::atoll(v);
    } else if (arg == "--faulty-epoch" && (v = next())) {
      opt->faultyEpoch = std::atoll(v);
    } else if (!arg.empty() && arg[0] != '-' && opt->journalPath.empty()) {
      opt->journalPath = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int runRecord(const Options& opt) {
  if (opt.outPath.empty()) {
    std::fprintf(stderr, "record: --out PATH is required\n");
    return 2;
  }
  auto image = workloads::makeSmdFleetImage();
  fleet::FleetConfig config;
  config.workerThreads = opt.threads;
  config.journal = true;
  config.journalConfig.checkpointInterval = opt.checkpointInterval;
  fleet::Fleet fleet(image, config);

  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, opt.instances, ids)) {
    std::fprintf(stderr, "record: SMD warm-up failed\n");
    return 1;
  }
  for (int e = 0; e < opt.epochs; ++e) {
    fleet.step(opt.cycles);
    workloads::injectSmdPulses(fleet, ids);
  }
  fleet.step(opt.cycles);  // drain the last pulse pair

  if (opt.faultyEpoch >= 0) {
    // Deliberate damage for the bisect walkthrough: rewrite the first
    // inject delivered at the given epoch into an X_STEPS event — a
    // CR-visible fault (state moves to XEnd2, XFINISH set), so every
    // checkpoint recorded from that epoch on disagrees with any faithful
    // replay of the damaged log.
    Journal damaged(fleet.journal()->config());
    std::string err;
    if (!Journal::parse(fleet.journal()->dumpJson(), &damaged, &err)) {
      std::fprintf(stderr, "record: internal round-trip failed: %s\n",
                   err.c_str());
      return 1;
    }
    const int xSteps = fleet.eventId("X_STEPS");
    bool flipped = false;
    for (Op& op : damaged.mutableOps()) {
      if (op.kind != OpKind::kInject || op.b != opt.faultyEpoch) continue;
      op.a = xSteps;
      flipped = true;
      break;
    }
    if (!flipped) {
      std::fprintf(stderr, "record: no inject at epoch %lld to corrupt\n",
                   static_cast<long long>(opt.faultyEpoch));
      return 1;
    }
    if (!damaged.writeFile(opt.outPath, opt.binary, &err)) {
      std::fprintf(stderr, "record: %s\n", err.c_str());
      return 1;
    }
    std::printf("recorded %zu instances x %d epochs to %s "
                "(CORRUPTED at epoch %lld)\n",
                opt.instances, opt.epochs, opt.outPath.c_str(),
                static_cast<long long>(opt.faultyEpoch));
    return 0;
  }

  std::string err;
  if (!fleet.writeJournal(opt.outPath, opt.binary, &err)) {
    std::fprintf(stderr, "record: %s\n", err.c_str());
    return 1;
  }
  std::printf(
      "recorded %zu instances x %d epochs (%d cycles each) to %s\n"
      "  ops %zu, spans %llu, checkpoints %zu, workers %d\n",
      opt.instances, opt.epochs, opt.cycles, opt.outPath.c_str(),
      fleet.journal()->ops().size(),
      static_cast<unsigned long long>(fleet.journal()->spanCount()),
      fleet.journal()->checkpointCount(), fleet.journal()->recordedWorkers());
  return 0;
}

bool readFileText(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

/// Build the replay image: the built-in SMD workload by default, or the
/// given chart/action sources compiled under the shared analysis arch.
/// Returns null (with a message on stderr) on a read or compile failure.
std::shared_ptr<const machine::ChartImage> loadImage(const Options& opt) {
  if (opt.chartPath.empty()) return workloads::makeSmdFleetImage();
  // Same bundle idiom as makeSmdFleetImage: the image references the
  // parsed chart and program, so the control block must own all three.
  struct Bundle {
    statechart::Chart chart;
    actionlang::Program actions;
    std::unique_ptr<const machine::ChartImage> image;
    Bundle(statechart::Chart c, actionlang::Program a)
        : chart(std::move(c)), actions(std::move(a)) {}
  };
  std::string chartText;
  if (!readFileText(opt.chartPath, &chartText)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", opt.command.c_str(),
                 opt.chartPath.c_str());
    return nullptr;
  }
  std::string actionText;
  if (!opt.actionsPath.empty() && !readFileText(opt.actionsPath, &actionText)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", opt.command.c_str(),
                 opt.actionsPath.c_str());
    return nullptr;
  }
  try {
    auto bundle = std::make_shared<Bundle>(
        statechart::parseChart(chartText, opt.chartPath),
        actionlang::parseActionSource(
            actionText, opt.actionsPath.empty() ? "<actions>" : opt.actionsPath));
    bundle->image = std::make_unique<const machine::ChartImage>(
        bundle->chart, bundle->actions, hwlib::analysisArch());
    return {bundle, bundle->image.get()};
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", opt.command.c_str(), e.what());
    return nullptr;
  }
}

bool loadJournal(const Options& opt, Journal* journal) {
  if (opt.journalPath.empty()) {
    std::fprintf(stderr, "%s: a JOURNAL path is required\n",
                 opt.command.c_str());
    return false;
  }
  std::string err;
  if (!Journal::readFile(opt.journalPath, journal, &err)) {
    std::fprintf(stderr, "%s: %s\n", opt.command.c_str(), err.c_str());
    return false;
  }
  return true;
}

ReplayOptions targetOptions(const Options& opt) {
  ReplayOptions options;
  options.workerThreads = opt.threads;
  options.jitMode = opt.jitMode;
  return options;
}

int runReplayOrVerify(const Options& opt) {
  Journal journal;
  if (!loadJournal(opt, &journal)) return 1;
  auto image = loadImage(opt);
  if (image == nullptr) return 1;
  Replayer replayer(&journal, image);
  const ReplayResult result = replayer.run(targetOptions(opt));
  if (!result.ok) {
    std::fprintf(stderr, "%s: %s\n", opt.command.c_str(),
                 result.error.c_str());
    return 1;
  }
  std::printf("replayed %lld epochs, %lld checkpoints checked, final epoch "
              "%lld, final digest 0x%016llx\n",
              static_cast<long long>(result.epochsReplayed),
              static_cast<long long>(result.checkpointsChecked),
              static_cast<long long>(result.finalEpoch),
              static_cast<unsigned long long>(result.finalDigest));
  if (result.verified) {
    std::printf("verdict: bit-identical (threads %d, jit %s)\n", opt.threads,
                tep::jit::jitModeName(opt.jitMode));
    return 0;
  }
  const CheckpointMismatch& m = result.firstMismatch;
  std::printf("verdict: DIVERGED at checkpoint epoch %lld "
              "(recorded 0x%016llx, replayed 0x%016llx, %zu instances)\n",
              static_cast<long long>(m.epoch),
              static_cast<unsigned long long>(m.recordedDigest),
              static_cast<unsigned long long>(m.replayedDigest),
              m.divergingInstances.size());
  for (size_t i = 0; i < m.recorded.size() && i < 8; ++i) {
    std::printf("  instance %lld recorded %s\n",
                static_cast<long long>(m.recorded[i].instance),
                m.recorded[i].words.empty()
                    ? "(digest only)"
                    : describeCrWords(*image, m.recorded[i].words).c_str());
    std::printf("  instance %lld replayed %s\n",
                static_cast<long long>(m.replayed[i].instance),
                describeCrWords(*image, m.replayed[i].words).c_str());
  }
  std::printf("run `pscp_replay bisect %s` to pinpoint the first divergent "
              "epoch\n", opt.journalPath.c_str());
  return opt.command == "verify" ? 1 : 0;
}

int runBisect(const Options& opt) {
  Journal journal;
  if (!loadJournal(opt, &journal)) return 1;
  auto image = loadImage(opt);
  if (image == nullptr) return 1;
  const BisectResult result =
      bisectDivergence(journal, image, targetOptions(opt));
  std::fputs(formatBisectReport(result, *image).c_str(), stdout);
  return result.ok ? 0 : 1;
}

int runTrace(const Options& opt) {
  Journal journal;
  if (!loadJournal(opt, &journal)) return 1;
  if (opt.traceInstance < 0 || opt.outPath.empty()) {
    std::fprintf(stderr, "trace: --instance ID and --out PATH are required\n");
    return 2;
  }
  auto image = loadImage(opt);
  if (image == nullptr) return 1;
  obs::TraceRecorder recorder;
  SpanTracker tracker;
  obs::TeeSink tee{&recorder, &tracker};

  Replayer replayer(&journal, image);
  ReplayOptions options = targetOptions(opt);
  options.traceSink = &tee;
  options.spanTracker = &tracker;
  options.traceInstance = opt.traceInstance;
  const ReplayResult result = replayer.run(options);
  if (!result.ok) {
    std::fprintf(stderr, "trace: %s\n", result.error.c_str());
    return 1;
  }
  const std::string json = chromeTraceJsonWithSpans(recorder, tracker);
  std::FILE* f = std::fopen(opt.outPath.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open '%s' for writing\n",
                 opt.outPath.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  size_t spansLinked = 0;
  for (const SpanTracker::Span& s : tracker.spans())
    if (s.drainTime >= 0 && !s.dispatches.empty()) ++spansLinked;
  std::printf("traced instance %lld over %lld epochs: %zu spans recorded, "
              "%zu linked to dispatches -> %s\n",
              static_cast<long long>(opt.traceInstance),
              static_cast<long long>(result.epochsReplayed),
              tracker.spans().size(), spansLinked, opt.outPath.c_str());
  return result.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseOptions(argc, argv, &opt)) return usage(argv[0]);
  if (opt.command == "record") return runRecord(opt);
  if (opt.command == "replay" || opt.command == "verify")
    return runReplayOrVerify(opt);
  if (opt.command == "bisect") return runBisect(opt);
  if (opt.command == "trace") return runTrace(opt);
  return usage(argv[0]);
}
