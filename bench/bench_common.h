#ifndef RESACC_BENCH_BENCH_COMMON_H_
#define RESACC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/eval/sources.h"
#include "resacc/graph/datasets.h"
#include "resacc/graph/graph.h"
#include "resacc/util/env.h"
#include "resacc/util/json.h"
#include "resacc/util/table.h"
#include "resacc/util/timer.h"

namespace resacc::bench {

// Environment knobs shared by every bench binary:
//   RESACC_SCALE          dataset size multiplier        (default 1.0)
//   RESACC_SOURCES        query sources per experiment   (default 8;
//                         the paper uses 50 — raise it for tighter stats)
//   RESACC_SEED           master seed                    (default 0x5eed)
//   RESACC_MEM_BUDGET_MB  index memory budget, reproduces the paper's
//                         o.o.m. rows                    (default 256)
struct BenchEnv {
  double scale;
  std::size_t sources;
  std::uint64_t seed;
  std::size_t memory_budget_bytes;

  static BenchEnv FromEnv() {
    BenchEnv env;
    env.scale = GetEnvDouble("RESACC_SCALE", 1.0);
    env.sources = static_cast<std::size_t>(GetEnvInt("RESACC_SOURCES", 8));
    env.seed = static_cast<std::uint64_t>(GetEnvInt("RESACC_SEED", 0x5eed));
    env.memory_budget_bytes =
        static_cast<std::size_t>(GetEnvInt("RESACC_MEM_BUDGET_MB", 256)) *
        1024 * 1024;
    return env;
  }
};

struct BenchDataset {
  DatasetSpec spec;
  Graph graph;
  std::vector<NodeId> sources;
};

// Materializes the named stand-ins with uniform-random query sources.
inline std::vector<BenchDataset> LoadDatasets(
    const std::vector<std::string>& names, const BenchEnv& env) {
  std::vector<BenchDataset> out;
  for (const std::string& name : names) {
    BenchDataset ds;
    ds.spec = FindDataset(name).value();
    std::fprintf(stderr, "[bench] generating %s (scale %.3g)...\n",
                 name.c_str(), env.scale);
    ds.graph = MakeDataset(ds.spec, env.scale, env.seed);
    ds.sources = PickUniformSources(ds.graph, env.sources, env.seed ^ 0xc0de);
    out.push_back(std::move(ds));
  }
  return out;
}

// Paper-default query configuration (Section VII-A) on this graph:
// alpha = 0.2, eps = 0.5, delta = p_f = 1/n. DanglingPolicy::kAbsorb is
// used throughout the benches so that forward, backward and indexed
// methods all share exactly the same walk semantics (see DESIGN.md).
inline RwrConfig BenchConfig(const Graph& graph, std::uint64_t seed) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = seed;
  return config;
}

// Average wall-clock seconds of algo->Query over the sources.
inline double AverageQuerySeconds(SsrwrAlgorithm& algo,
                                  const std::vector<NodeId>& sources) {
  Timer timer;
  for (NodeId s : sources) algo.Query(s);
  return timer.ElapsedSeconds() / static_cast<double>(sources.size());
}

// Best-of-`reps` QPS of `per_source` (called as per_source(s, first_rep))
// over `sources`. The solvers are deterministic, so every rep computes the
// same results; taking the best rep gives every mode the same treatment
// and keeps scheduler noise out of the gated ratios.
template <typename PerSourceFn>
double ModeQps(const std::vector<NodeId>& sources, int reps,
               PerSourceFn&& per_source) {
  double best_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    for (NodeId s : sources) per_source(s, rep == 0);
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(sources.size()) / best_seconds;
}

// Removes every `--<name>=VALUE` argument from argv and returns the last
// VALUE ("" when there is none); the rest of argv is left for another
// parser.
inline std::string TakeFlag(int& argc, char** argv,
                            const std::string& name) {
  const std::string prefix = "--" + name + "=";
  std::string value;
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with(prefix)) {
      value = argv[i] + prefix.size();
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return value;
}

// Writes a finished bench record. False, after a message, when it could
// not be written in full; the binary then exits 2.
inline bool WriteRecord(const std::string& path, const JsonWriter& json) {
  const Status written = WriteTextFile(path, json.str() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Header line describing a dataset row (ours vs the paper's original).
inline std::string DatasetLabel(const BenchDataset& ds) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s(n=%u,m=%llu)", ds.spec.name.c_str(),
                ds.graph.num_nodes(),
                static_cast<unsigned long long>(ds.graph.num_edges()));
  return buf;
}

inline void PrintPreamble(const char* title, const BenchEnv& env) {
  std::printf("== %s ==\n", title);
  std::printf(
      "scale=%.3g sources=%zu seed=%llu mem_budget=%zuMB "
      "(RESACC_SCALE / RESACC_SOURCES / RESACC_SEED / RESACC_MEM_BUDGET_MB)\n\n",
      env.scale, env.sources, static_cast<unsigned long long>(env.seed),
      env.memory_budget_bytes / (1024 * 1024));
}

}  // namespace resacc::bench

#endif  // RESACC_BENCH_BENCH_COMMON_H_
