// The three workloads and what they share: the fixed graphs, the serve
// layer's per-layer metrics, and the answer checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

// A Chung-Lu power-law graph generated once per checkout and stored as a
// RESACC02 snapshot, so every set-up loads it the way resacc_serve does.
struct GraphSpec {
  const char* file;
  std::uint32_t nodes;
  std::uint64_t sampled_edges;  // before de-duplication
  double exponent;
  std::uint64_t seed;
};
// The BENCH_batch graph: n=5000, m=734516.
inline constexpr GraphSpec kDenseGraph{"chunglu-5000.rsg", 5000, 1000000, 2.1,
                                       7};
// The serving graph: n=20000, m=207916.
inline constexpr GraphSpec kServeGraph{"chunglu-20000.rsg", 20000, 200000,
                                       2.1, 7};

// Writes the graphs missing from `data_dir`. Returns false on failure.
bool MakeGraphs(const std::string& data_dir);

// Set-ups per run; setup_s and graph.load_ms report their median. Each
// ends with a full query from the same probe source, so every seed sets up
// alike.
inline constexpr int kSetups = 9;
inline constexpr std::uint32_t kSetupProbeSource = 0;
// k of every top-k query.
inline constexpr std::size_t kTopK = 10;
// Queries replayed through the kernels in a traced run.
inline constexpr std::size_t kReplayQueries = 32;

// The outcome of one measured run, printed by main.
struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// push-batch and walk-topk: in-process through QueryService.
bool RunInProcess(const RunArgs& args, RunResult& result);
// serve-zipf: a spawned resacc_serve over the line protocol.
bool RunServeZipf(const RunArgs& args, const std::string& serve_bin,
                  RunResult& result);

// serve.* and core.dense.* from the program's own counters: the scrape
// taken before and after the traced phase, plus the mutations it applied.
void AddServeMetrics(const Scrape& before, const Scrape& after,
                     double mutations, Report& report);

// trace.overhead_*: the traced half's end-to-end figures against the
// untraced half's, in percent.
void AddTraceOverhead(const Timeline& plain, const Timeline& traced,
                      Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
