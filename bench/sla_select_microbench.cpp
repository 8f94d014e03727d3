// SLA select() microbenchmark: mask-compiled packed decode vs the
// retained literal-by-literal reference selector, on the SMD pickup-head
// chart and on a synthetic widened chart (>= 64 transitions, CR state
// part spanning word boundaries). Verifies packed == reference on every
// sampled CR vector before timing, prints a table, and writes
// BENCH_sla_select.json. `--quick` shrinks the iteration counts for CI
// smoke runs. Either mode exits 1 when a chart's size differs from the
// expected one or its speedup falls below its floor.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sla/sla.hpp"
#include "statechart/parser.hpp"
#include "support/hostinfo.hpp"
#include "support/text.hpp"
#include "workloads/smd.hpp"

using namespace pscp;

namespace {

std::string wideChartText(int n) {
  std::string text = "chart Wide;\n";
  for (int e = 0; e < 8; ++e) text += strfmt("event E%d;\n", e);
  for (int c = 0; c < 4; ++c) text += strfmt("condition C%d;\n", c);
  text += "orstate Top {\n  contains ";
  for (int i = 0; i < n; ++i) text += strfmt(i == 0 ? "S%d" : ", S%d", i);
  text += ";\n  default S0;\n}\n";
  for (int i = 0; i < n; ++i) {
    std::string label;
    switch (i % 4) {
      case 0: label = strfmt("E%d [C%d]", i % 8, i % 4); break;
      case 1: label = strfmt("E%d or E%d", i % 8, (i + 3) % 8); break;
      case 2: label = strfmt("E%d [not C%d]", i % 8, i % 4); break;
      default: label = strfmt("not E%d [C%d and not C%d]", i % 8, i % 4, (i + 1) % 4);
    }
    text += strfmt("basicstate S%d { transition { target S%d; label \"%s\"; } }\n",
                   i, (i + 1) % n, label.c_str());
  }
  return text;
}

struct Result {
  std::string name;
  int transitions = 0;
  int crBits = 0;
  double referenceNs = 0.0;  ///< ns per select()
  double packedNs = 0.0;
  double speedup = 0.0;
};

/// What a chart must show in every mode: its exact size, and a speedup
/// no lower than 0.4x a 1-CPU quick-mode capture (2.34x on smd, 17.04x
/// on wide72).
struct Floor {
  int transitions = 0;
  int crBits = 0;
  double speedup = 0.0;
};

/// Benchmark one chart; returns nullopt-style ok flag via `ok`.
Result benchChart(const std::string& name, const statechart::Chart& chart,
                  int iterations, bool* ok) {
  const sla::CrLayout layout(chart);
  const sla::Sla sla(chart, layout);

  // Sample CR vectors: mixed densities, fixed seed so runs are comparable.
  std::mt19937 rng(0xB1A5ED);
  const int bits = layout.totalBits();
  constexpr int kSamples = 64;
  std::vector<std::vector<bool>> samples;
  std::vector<BitVec> packedSamples;
  for (int s = 0; s < kSamples; ++s) {
    const uint32_t density = 1 + rng() % 7;
    std::vector<bool> cr(static_cast<size_t>(bits), false);
    for (int b = 0; b < bits; ++b) cr[static_cast<size_t>(b)] = rng() % 8 < density;
    packedSamples.push_back(BitVec::fromBools(cr));
    samples.push_back(std::move(cr));
  }

  // Correctness gate before timing anything.
  for (int s = 0; s < kSamples; ++s) {
    if (sla.select(packedSamples[static_cast<size_t>(s)]) !=
        sla.selectReference(samples[static_cast<size_t>(s)])) {
      std::fprintf(stderr, "MISMATCH: packed != reference on %s, sample %d\n",
                   name.c_str(), s);
      *ok = false;
    }
  }

  auto timeLoop = [&](auto&& selectOnce) {
    // One warm-up pass, then the timed loop over the sample set.
    size_t sink = 0;
    for (int s = 0; s < kSamples; ++s) sink += selectOnce(s).size();
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it)
      for (int s = 0; s < kSamples; ++s) {
        auto selected = selectOnce(s);
        benchmark::DoNotOptimize(selected);
        sink += selected.size();
      }
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
    return ns / (static_cast<double>(iterations) * kSamples);
  };

  Result r;
  r.name = name;
  r.transitions = static_cast<int>(chart.transitions().size());
  r.crBits = bits;
  r.referenceNs =
      timeLoop([&](int s) { return sla.selectReference(samples[static_cast<size_t>(s)]); });
  r.packedNs =
      timeLoop([&](int s) { return sla.select(packedSamples[static_cast<size_t>(s)]); });
  r.speedup = r.packedNs > 0.0 ? r.referenceNs / r.packedNs : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const int iterations = quick ? 200 : 20000;

  std::printf("=== SLA select() microbench: mask-compiled vs reference ===\n");
  std::printf("(%s mode, %d iterations x 64 CR samples per measurement)\n\n",
              quick ? "quick" : "full", iterations);

  bool ok = true;
  const Floor floors[] = {{25, 39, 0.936}, {72, 20, 6.816}};
  std::vector<Result> results;
  results.push_back(benchChart(
      "smd", statechart::parseChart(workloads::smdChartText()), iterations, &ok));
  results.push_back(benchChart(
      "wide72", statechart::parseChart(wideChartText(72)), iterations, &ok));

  std::printf("| chart  | transitions | CR bits | reference ns | packed ns | speedup |\n");
  std::printf("|--------|-------------|---------|--------------|-----------|---------|\n");
  for (const Result& r : results)
    std::printf("| %-6s | %11d | %7d | %12.1f | %9.1f | %6.1fx |\n", r.name.c_str(),
                r.transitions, r.crBits, r.referenceNs, r.packedNs, r.speedup);

  std::string json = "{\n  \"benchmark\": \"sla_select\",\n";
  json += strfmt("  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  json += "  \"host\": " + hostInfoJson().dump() + ",\n  \"charts\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json += strfmt(
        "    {\"name\": \"%s\", \"transitions\": %d, \"cr_bits\": %d, "
        "\"reference_ns_per_select\": %.2f, \"packed_ns_per_select\": %.2f, "
        "\"speedup\": %.2f}%s\n",
        r.name.c_str(), r.transitions, r.crBits, r.referenceNs, r.packedNs, r.speedup,
        i + 1 < results.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen("BENCH_sla_select.json", "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_sla_select.json\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_sla_select.json\n");
    ok = false;
  }

  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const Floor& floor = floors[i];
    std::printf("%s: speedup %.2fx (floor %.3fx), %d transitions / %d CR bits "
                "(expected %d / %d)\n",
                r.name.c_str(), r.speedup, floor.speedup, r.transitions, r.crBits,
                floor.transitions, floor.crBits);
    if (r.transitions != floor.transitions || r.crBits != floor.crBits) {
      std::fprintf(stderr, "FAIL: %s chart size changed\n", r.name.c_str());
      ok = false;
    }
    if (r.speedup < floor.speedup) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < floor %.3fx\n",
                   r.name.c_str(), r.speedup, floor.speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
