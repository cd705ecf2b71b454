// Hub-vs-tail record of the hybrid local/dense selector (PR 10;
// core/power_iter.h). The hub-source degradation this PR fixes: on a
// heavy-tailed graph a hub's 1-hop set spans a large fraction of the
// graph, so the paper's local pipeline grinds the 1e-14-threshold
// accumulating phase over most of the CSR. The hybrid selector hands
// exactly those queries to the dense power-iteration path.
//
// The record (BENCH_hybrid.json, uploaded by CI) measures ResAcc with the
// hybrid off vs on, on hub sources (top out-degree) and tail sources
// (median-and-below out-degree), and GATES:
//   * every hub query under the hybrid actually selected a dense path;
//   * hybrid hub QPS beats pure-local hub QPS;
//   * hybrid tail QPS stays within noise of pure-local (>= 80%);
//   * every dense result satisfies Definition 1 against power-iteration
//     ground truth — deterministically, per the eps * delta tolerance.
// Exit 1 on any gate failure, 2 when the record cannot be written in
// full. The record stamps the graph and config below.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/util/json.h"

namespace resacc {
namespace {

using bench::ModeQps;

// The record's graph and run sizes; the config is set in RunHybridRecord.
constexpr NodeId kNodes = 5000;
constexpr std::uint64_t kEdges = 1000000;
constexpr std::size_t kHubs = 8;
constexpr std::size_t kTails = 16;
constexpr int kReps = 2;              // best-of repetitions per mode
constexpr std::size_t kVerified = 4;  // hub results audited against truth

int RunHybridRecord(const std::string& json_path) {
  std::fprintf(stderr,
               "[bench_hybrid] generating hub bench graph (n=%u, m=%llu)...\n",
               kNodes, static_cast<unsigned long long>(kEdges));
  const Graph graph = ChungLuPowerLaw(kNodes, kEdges, 2.1, /*seed=*/7);

  RwrConfig config;
  config.alpha = 0.15;
  config.epsilon = 0.5;
  // delta well above 1/n keeps the pure-local remedy phase affordable —
  // the degradation under test is the accumulating phase, not the walks.
  config.delta = 0.01;
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;

  ResAccOptions local_options;
  ResAccOptions hybrid_options;
  hybrid_options.hybrid.enable = true;

  // Hub sources: the top of the out-degree order (their 1-hop sets floor
  // the adaptive cap). Tail sources: median and below, strided so they
  // spread over the quiet half of the degree distribution.
  const std::vector<NodeId> by_degree = graph.NodesByOutDegreeDesc();
  std::vector<NodeId> hubs;
  for (std::size_t i = 0; i < kHubs && i < by_degree.size(); ++i) {
    hubs.push_back(by_degree[i]);
  }
  std::vector<NodeId> tails;
  for (std::size_t i = 0; i < kTails; ++i) {
    const std::size_t rank = by_degree.size() / 2 + i * 31;
    tails.push_back(by_degree[std::min(rank, by_degree.size() - 1)]);
  }

  ResAccSolver local_solver(graph, config, local_options);
  ResAccSolver hybrid_solver(graph, config, hybrid_options);

  // Hybrid selections and payloads, captured on the first rep.
  std::size_t hub_dense = 0, tail_dense = 0;
  std::vector<std::vector<Score>> dense_results(hubs.size());
  std::size_t next = 0;

  const double local_hub_qps = ModeQps(
      hubs, kReps, [&](NodeId s, bool) { local_solver.Query(s); });
  const double hybrid_hub_qps = ModeQps(hubs, kReps, [&](NodeId s, bool first) {
    std::vector<Score> scores = hybrid_solver.Query(s);
    if (first) {
      if (hybrid_solver.last_stats().path != SolverPath::kLocal) ++hub_dense;
      dense_results[next++] = std::move(scores);
    }
  });
  const double local_tail_qps = ModeQps(
      tails, kReps, [&](NodeId s, bool) { local_solver.Query(s); });
  const double hybrid_tail_qps =
      ModeQps(tails, kReps, [&](NodeId s, bool first) {
        hybrid_solver.Query(s);
        if (first && hybrid_solver.last_stats().path != SolverPath::kLocal) {
          ++tail_dense;
        }
      });

  // Conformance audit: the acceptance bar is that every dense-path result
  // passes Definition 1 against power-iteration ground truth. The dense
  // guarantee is deterministic (additive error <= eps * delta), so any
  // single violation is a bug, not noise. Ground truth costs ~n + m per
  // sweep per source, so a subsample keeps the smoke fast.
  const std::size_t verify = std::min(hubs.size(), kVerified);
  GroundTruthCache truth(graph, config);
  bool conformance_ok = true;
  for (std::size_t i = 0; i < verify; ++i) {
    const std::vector<Score>& exact = truth.Get(hubs[i]);
    const std::vector<Score>& estimate = dense_results[i];
    for (NodeId v = 0; v < static_cast<NodeId>(exact.size()); ++v) {
      if (exact[v] <= config.delta) continue;
      if (std::abs(estimate[v] - exact[v]) >
          config.epsilon * exact[v] + 1e-12) {
        conformance_ok = false;
        std::fprintf(stderr,
                     "[bench_hybrid] DEFINITION-1 VIOLATION source=%u "
                     "node=%u est=%.6e true=%.6e\n",
                     hubs[i], v, estimate[v], exact[v]);
      }
    }
  }

  const bool all_hubs_dense = hub_dense == hubs.size();
  const bool hub_wins = hybrid_hub_qps > local_hub_qps;
  const bool tail_ok = hybrid_tail_qps >= 0.8 * local_tail_qps;

  std::printf("hybrid vs pure-local (ResAcc, n=%u, m=%llu, %zu hubs, "
              "%zu tails, delta=%g, ratio=%g):\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), hubs.size(),
              tails.size(), config.delta, hybrid_options.hybrid.cost_ratio);
  std::printf("  hub   local %8.2f qps | hybrid %8.2f qps  (%.2fx, "
              "%zu/%zu dense)\n",
              local_hub_qps, hybrid_hub_qps, hybrid_hub_qps / local_hub_qps,
              hub_dense, hubs.size());
  std::printf("  tail  local %8.2f qps | hybrid %8.2f qps  (%.2fx, "
              "%zu/%zu dense)\n",
              local_tail_qps, hybrid_tail_qps,
              hybrid_tail_qps / local_tail_qps, tail_dense, tails.size());
  std::printf("  dense conformance vs ground truth (%zu sources): %s\n",
              verify, conformance_ok ? "ok" : "VIOLATED");
  if (!all_hubs_dense) {
    std::printf("  GATE: %zu hub sources stayed local\n",
                hubs.size() - hub_dense);
  }
  if (!hub_wins) std::printf("  GATE: hybrid did not beat local on hubs\n");
  if (!tail_ok) std::printf("  GATE: tail regression beyond noise\n");

  JsonWriter json;
  json.BeginObject().Field("bench", "hybrid_hub_vs_tail");
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
      .Field("cost_ratio", hybrid_options.hybrid.cost_ratio)
      .EndObject();
  json.Field("hub_sources", hubs.size())
      .Field("tail_sources", tails.size())
      .Field("local_hub_qps", local_hub_qps)
      .Field("hybrid_hub_qps", hybrid_hub_qps)
      .Field("hub_speedup", hybrid_hub_qps / local_hub_qps)
      .Field("local_tail_qps", local_tail_qps)
      .Field("hybrid_tail_qps", hybrid_tail_qps)
      .Field("tail_ratio", hybrid_tail_qps / local_tail_qps)
      .Field("hub_dense_selected", hub_dense)
      .Field("tail_dense_selected", tail_dense)
      .Field("verified_sources", verify)
      .Field("conformance_ok", conformance_ok)
      .EndObject();
  if (!bench::WriteRecord(json_path, json)) return 2;
  return (all_hubs_dense && hub_wins && tail_ok && conformance_ok) ? 0 : 1;
}

}  // namespace
}  // namespace resacc

int main(int argc, char** argv) {
  const std::string json_path =
      resacc::bench::TakeFlag(argc, argv, "hybrid_json");
  return resacc::RunHybridRecord(json_path.empty() ? "BENCH_hybrid.json"
                                                   : json_path);
}
