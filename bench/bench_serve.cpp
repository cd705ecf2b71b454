// Top-k vs full-vector record (docs/QUERY_MODES.md "Top-k"):
// ResAccSolver::QueryTopK at k in {10, 100} against full QueryControlled
// on a 1M-edge graph, in a remedy-dominant configuration (tight delta,
// walk_scale 1) — the regime the early-termination certificate is built
// to win in. Also verifies the bound certificates against power-iteration
// ground truth on a source subsample.
//
//   bench_serve [--topk_json=PATH]
//
// Prints the comparison; --topk_json=PATH also writes it as a JSON record
// (CI's BENCH_topk.json) that stamps the graph and config below. Exits 1
// unless every checked certificate holds and top-k@10 beats full-vector
// throughput, and 2 when the record cannot be written in full.
//
// What the serving layer's cache and coalescing save is measured by
// bench_workload on a Zipfian spec, with --cache-mb=0 --no-coalesce
// against its defaults.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/eval/sources.h"
#include "resacc/graph/generators.h"
#include "resacc/util/json.h"

namespace {

using namespace resacc;
using namespace resacc::bench;

// The record's graph and run sizes; the config is set in RunTopKRecord.
constexpr NodeId kNodes = 5000;
constexpr std::uint64_t kEdges = 1000000;
constexpr std::size_t kSources = 32;
constexpr int kReps = 3;               // best-of repetitions per mode
constexpr std::size_t kVerified = 8;   // sources audited against truth

int RunTopKRecord(const std::string& json_path) {
  std::fprintf(stderr, "[bench_serve] generating top-k bench graph "
               "(n=%u, m=%llu)...\n", kNodes,
               static_cast<unsigned long long>(kEdges));
  const Graph graph = ChungLuPowerLaw(kNodes, kEdges, 2.1, /*seed=*/7);
  // Remedy-dominant configuration: a loose r_max^f leaves substantial
  // residue for the walk phase and a tight delta makes the Theorem-3 walk
  // count expensive — exactly the work the separation certificate (or the
  // residue-draining fallback) avoids.
  RwrConfig config;
  config.alpha = 0.15;
  config.epsilon = 0.5;
  config.delta = 1e-5;
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  ResAccOptions options;
  options.num_hops = 1;
  options.walk_scale = 1.0;
  options.r_max_f = 1e-5;
  // Unpriced: refinement runs until rank k separates or r_max hits its
  // floor, so the record measures what a certificate is worth at this
  // config. The library default prices a walk step at 4 pushed edges and
  // hands a query to the walks once its pushes cost more than they would.
  options.topk.profit_slack = std::numeric_limits<double>::infinity();

  ResAccSolver solver(graph, config, options);
  const std::vector<NodeId> sources =
      PickUniformSources(graph, kSources, /*seed=*/7 ^ 0x70b1);

  const double full_qps = ModeQps(sources, kReps, [&](NodeId s, bool) {
    const ControlledQueryResult r = solver.QueryControlled(s, QueryControl{});
    if (!r.status.ok()) {
      std::fprintf(stderr, "[bench_serve] full query failed: %s\n",
                   r.status.ToString().c_str());
    }
  });

  std::vector<TopKResult> topk10(sources.size());
  std::vector<TopKResult> topk100(sources.size());
  std::size_t next = 0;
  const double topk10_qps = ModeQps(sources, kReps, [&](NodeId s, bool first) {
    TopKResult r = solver.QueryTopK(s, 10);
    if (first) topk10[next++] = std::move(r);
  });
  next = 0;
  const double topk100_qps = ModeQps(sources, kReps, [&](NodeId s, bool first) {
    TopKResult r = solver.QueryTopK(s, 100);
    if (first) topk100[next++] = std::move(r);
  });

  // Certificate audit against power-iteration ground truth on a source
  // subsample (full coverage would dominate the smoke's runtime): every
  // certified entry's [lower, upper] must bracket the true score, and no
  // excluded node may exceed outsider_upper — the Definition-1 exactness
  // the certificate claims, with no failure probability.
  const std::size_t verify = std::min(sources.size(), kVerified);
  GroundTruthCache truth(graph, config);
  bool cert_ok = true;
  std::size_t certified10 = 0, certified100 = 0;
  for (const TopKResult& r : topk10) certified10 += r.certified ? 1 : 0;
  for (const TopKResult& r : topk100) certified100 += r.certified ? 1 : 0;
  for (std::size_t i = 0; i < verify; ++i) {
    const std::vector<Score>& exact = truth.Get(sources[i]);
    for (const std::vector<TopKResult>* batch : {&topk10, &topk100}) {
      const TopKResult& r = (*batch)[i];
      if (!r.certified) continue;
      std::vector<bool> listed(exact.size(), false);
      for (const TopKEntry& e : r.entries) {
        listed[e.node] = true;
        if (exact[e.node] < e.lower - 1e-12 ||
            exact[e.node] > e.upper + 1e-12) {
          cert_ok = false;
          std::fprintf(stderr,
                       "[bench_serve] CERT VIOLATION source=%u node=%u "
                       "true=%.3e not in [%.3e, %.3e]\n",
                       sources[i], e.node, exact[e.node], e.lower, e.upper);
        }
      }
      for (NodeId v = 0; v < static_cast<NodeId>(exact.size()); ++v) {
        if (!listed[v] && exact[v] > r.outsider_upper + 1e-12) {
          cert_ok = false;
          std::fprintf(stderr,
                       "[bench_serve] CERT VIOLATION source=%u excluded "
                       "node=%u true=%.3e > outsider_upper=%.3e\n",
                       sources[i], v, exact[v], r.outsider_upper);
        }
      }
    }
  }

  const bool topk_wins = topk10_qps > full_qps;
  std::printf("top-k vs full-vector (ResAcc, n=%u, m=%llu, %zu sources, "
              "delta=%g, r_max_f=%g):\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              sources.size(), config.delta, options.r_max_f);
  std::printf("  full      %8.2f qps\n", full_qps);
  std::printf("  topk@10   %8.2f qps  (%.2fx, %zu/%zu certified)\n",
              topk10_qps, topk10_qps / full_qps, certified10,
              sources.size());
  std::printf("  topk@100  %8.2f qps  (%.2fx, %zu/%zu certified)\n",
              topk100_qps, topk100_qps / full_qps, certified100,
              sources.size());
  std::printf("  certificates vs ground truth (%zu sources): %s\n", verify,
              cert_ok ? "ok" : "VIOLATED");

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject().Field("bench", "topk_vs_full");
    json.Key("graph")
        .BeginObject()
        .Field("nodes", graph.num_nodes())
        .Field("edges", graph.num_edges())
        .Field("generator", "chung_lu_powerlaw_2.1")
        .EndObject();
    json.Key("config")
        .BeginObject()
        .Field("alpha", config.alpha)
        .Field("epsilon", config.epsilon)
        .Field("delta", config.delta)
        .Field("p_f", config.p_f)
        .Field("num_hops", options.num_hops)
        .Field("walk_scale", options.walk_scale)
        .Field("r_max_f", options.r_max_f)
        .Field("profit_slack", options.topk.profit_slack)
        .EndObject();
    json.Field("sources", sources.size())
        .Field("full_qps", full_qps)
        .Field("topk10_qps", topk10_qps)
        .Field("topk100_qps", topk100_qps)
        .Field("speedup_topk10", topk10_qps / full_qps)
        .Field("speedup_topk100", topk100_qps / full_qps)
        .Field("certified_topk10", certified10)
        .Field("certified_topk100", certified100)
        .Field("verified_sources", verify)
        .Field("certificates_ok", cert_ok)
        .EndObject();
    if (!WriteRecord(json_path, json)) return 2;
  }
  return (cert_ok && topk_wins) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return RunTopKRecord(TakeFlag(argc, argv, "topk_json"));
}
