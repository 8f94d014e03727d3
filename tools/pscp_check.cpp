// pscp_check — bounded model checker front-end.
//
// Parses a chart + action program + property spec, runs the bounded
// checker (src/analysis/check), prints the property report, and emits the
// machinery the CI gate consumes: the pscp-check-v1 JSON document and one
// pscp-journal-v1 witness file per confirmed violation, each of which
// `pscp_replay verify --chart ...` re-executes independently.
//
//   pscp_check --chart FILE [--actions FILE] --spec FILE [options]
//
//   --chart FILE          statechart source
//   --actions FILE        action-language source (optional)
//   --spec FILE           property spec (see src/analysis/check/spec.hpp)
//   --json FILE           write the pscp-check-v1 report ('-' = stdout)
//   --journal-out PREFIX  write each witness journal to PREFIX<prop>.json
//   --max-states N        node bound (overrides the spec's `bound states`)
//   --max-depth N         depth bound (overrides the spec's `bound depth`)
//   --quiet               suppress the text report
//
// Exit code: the spec's `expect` declaration decides the gate polarity.
// Expecting pass: 0 iff no property failed. Expecting violations: 0 iff at
// least one property failed AND its counterexample survived the whole
// pipeline — machine-confirmed and replay-verified on every tier the
// build provides. 2 on usage/parse errors.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "actionlang/parser.hpp"
#include "analysis/check/checker.hpp"
#include "analysis/check/spec.hpp"
#include "hwlib/arch_config.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"

using namespace pscp;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --chart FILE [--actions FILE] --spec FILE\n"
      "          [--json FILE] [--journal-out PREFIX]\n"
      "          [--max-states N] [--max-depth N] [--quiet]\n",
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

bool writeFileText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// A counterexample that survived every stage: confirmed on the concrete
/// machine, and replay-verified on each tier that was checked.
bool witnessSolid(const analysis::check::Counterexample& cex) {
  if (!cex.confirmed || !cex.journalBuilt || !cex.interpVerified) return false;
  return !cex.jitChecked || (cex.jitConfirmed && cex.jitVerified);
}

}  // namespace

int main(int argc, char** argv) {
  std::string chartFile;
  std::string actionsFile;
  std::string specFile;
  std::string jsonFile;
  std::string journalPrefix;
  bool quiet = false;
  analysis::check::CheckOptions options;
  int maxStatesOverride = -1;
  int maxDepthOverride = -1;

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
    else if (arg == "--spec") specFile = value("--spec");
    else if (arg == "--json") jsonFile = value("--json");
    else if (arg == "--journal-out") journalPrefix = value("--journal-out");
    else if (arg == "--max-states") maxStatesOverride = std::atoi(value("--max-states"));
    else if (arg == "--max-depth") maxDepthOverride = std::atoi(value("--max-depth"));
    else if (arg == "--quiet") quiet = true;
    else return usage(argv[0]);
  }
  if (chartFile.empty() || specFile.empty()) return usage(argv[0]);

  std::string chartText;
  std::string actionText;
  std::string specText;
  if (!readFile(chartFile, &chartText)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], chartFile.c_str());
    return 2;
  }
  if (!actionsFile.empty() && !readFile(actionsFile, &actionText)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], actionsFile.c_str());
    return 2;
  }
  if (!readFile(specFile, &specText)) {
    std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0], specFile.c_str());
    return 2;
  }

  try {
    const statechart::Chart chart = statechart::parseChart(chartText, chartFile);
    const actionlang::Program actions = actionlang::parseActionSource(
        actionText, actionsFile.empty() ? "<actions>" : actionsFile);

    analysis::check::SpecFile spec =
        analysis::check::parseSpec(specText, specFile);
    analysis::check::bindSpec(&spec, chart);
    if (spec.boundStates) options.maxStates = *spec.boundStates;
    if (spec.boundDepth) options.maxDepth = *spec.boundDepth;
    if (maxStatesOverride > 0) options.maxStates = maxStatesOverride;
    if (maxDepthOverride > 0) options.maxDepth = maxDepthOverride;

    // Compile under the shared analysis arch — the same arch pscp_lint and
    // pscp_replay --chart use, so the journal image hashes agree. Charts
    // that do not compile still get the abstract (model-only) check.
    std::shared_ptr<machine::ChartImage> image;
    try {
      image = std::make_shared<machine::ChartImage>(chart, actions,
                                                    hwlib::analysisArch());
    } catch (const Error& e) {
      if (!quiet)
        std::fprintf(stderr,
                     "pscp_check: note: compile skipped (%s); running "
                     "model-only (no confirmation, no journals)\n",
                     e.what());
    }

    const analysis::check::CheckResult result =
        analysis::check::runBoundedCheck(chart, actions, spec, image, options);

    if (!quiet) std::fputs(result.renderText().c_str(), stdout);
    if (!jsonFile.empty()) {
      const std::string doc = result.renderJson();
      if (jsonFile == "-") {
        std::fputs(doc.c_str(), stdout);
      } else if (!writeFileText(jsonFile, doc)) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0], jsonFile.c_str());
        return 2;
      }
    }
    if (!journalPrefix.empty()) {
      for (const analysis::check::PropertyReport& p : result.properties) {
        if (!p.cex.journalBuilt) continue;
        const std::string path = journalPrefix + p.name + ".json";
        std::string err;
        if (!p.cex.journal.writeFile(path, /*binary=*/false, &err)) {
          std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
          return 2;
        }
        if (!quiet)
          std::printf("witness journal for '%s' -> %s\n", p.name.c_str(),
                      path.c_str());
      }
    }

    if (!spec.expectViolations) return result.failCount() == 0 ? 0 : 1;

    // Seeded-violation gate: some property must fail with a witness that
    // survived confirmation and replay on every tier that was checked.
    for (const analysis::check::PropertyReport& p : result.properties)
      if (p.status == analysis::check::PropStatus::Fail &&
          witnessSolid(p.cex))
        return 0;
    if (!quiet)
      std::fprintf(stderr,
                   "pscp_check: expected a replay-verified violation, found "
                   "none (%d failed, %d unknown)\n",
                   result.failCount(), result.unknownCount());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
