// Hybrid local/dense solver selection (core/power_iter.h): hub sources
// must switch to the dense power-iteration path and still satisfy
// Definition 1 — deterministically, since the dense sweep's tolerance
// eps * delta leaves no failure probability — while tail sources stay on
// the paper's local pipeline. Also pins the dense path's bit-identity
// across walk_threads, the residue-mass trigger, the shrink-floor
// regression, the No-SG stats convention, the serve config-hash coverage
// of the hybrid knobs, and the dense top-k prefix.

#include "resacc/core/power_iter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "resacc/algo/fora.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/serve/result_cache.h"
#include "resacc/util/top_k.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

// Complete bipartite K_{left, right}, symmetrized: every left node's 1-hop
// set is the whole right side — a hub from either side.
Graph CompleteBipartite(NodeId left, NodeId right) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < left; ++u) {
    for (NodeId v = 0; v < right; ++v) edges.push_back({u, left + v});
  }
  return testing::FromEdges(left + right, edges, /*symmetrize=*/true);
}

RwrConfig HybridConfig(std::uint64_t seed = 7) {
  RwrConfig config;
  config.alpha = 0.2;
  config.epsilon = 0.5;
  config.delta = 0.01;
  // Small enough that a single randomized query failing Definition 1 is
  // effectively impossible (the dense path needs no such slack: its
  // guarantee is deterministic).
  config.p_f = 1e-7;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = seed;
  return config;
}

ResAccOptions HybridOn() {
  ResAccOptions options;
  options.hybrid.enable = true;
  return options;
}

// Definition 1 with zero failure probability: the dense sweep's additive
// error is below eps * delta, so every node above delta must satisfy the
// relative bound outright — no statistical budget.
void ExpectDefinition1(const std::vector<Score>& estimate,
                       const std::vector<Score>& exact, const RwrConfig& config,
                       const char* label) {
  ASSERT_EQ(estimate.size(), exact.size()) << label;
  std::size_t checked = 0;
  for (NodeId v = 0; v < exact.size(); ++v) {
    if (exact[v] <= config.delta) continue;
    ++checked;
    EXPECT_LE(std::abs(estimate[v] - exact[v]),
              config.epsilon * exact[v] + 1e-12)
        << label << ": node " << v;
  }
  EXPECT_GT(checked, 0u) << label << ": delta admitted no node";
}

void ExpectBitIdentical(const std::vector<Score>& a,
                        const std::vector<Score>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << label << ": node " << i << " differs";
  }
}

// ---------------------------------------------------------------------------
// Selection: hub sources go dense, tail sources stay local.

TEST(HybridSelectionTest, StarHubTakesShrinkFloorPath) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccSolver solver(g, config, HybridOn());

  const std::vector<Score> estimate = solver.Query(/*source=*/0);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kDenseShrinkFloor);
  EXPECT_GT(solver.last_stats().dense.iterations, 0u);
  EXPECT_LE(solver.last_stats().dense.leftover_mass,
            DenseTolerance(config, HybridOn().hybrid));

  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(0), config, "star hub");

  Score total = 0.0;
  for (Score s : estimate) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HybridSelectionTest, StarLeafStaysLocal) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccOptions options = HybridOn();
  // On a 200-node graph the dense sweep is nearly free, so the default
  // ratio sends even tail sources dense (correctly — see the cost-model
  // test). Bias local to pin that a ratio > 1 keeps non-floored sources
  // on the paper's pipeline.
  options.hybrid.cost_ratio = 8.0;
  ResAccSolver solver(g, config, options);

  // A leaf's 2-hop set is the whole graph, but the cap shrinks to 1 hop
  // ({leaf, hub}) without flooring, and the small hop set stays local.
  const std::vector<Score> estimate = solver.Query(/*source=*/5);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kLocal);

  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(5), config, "star leaf");
}

TEST(HybridSelectionTest, ChungLuHeadGoesDenseTailStaysLocal) {
  const Graph g = ChungLuPowerLaw(1000, 12000, 2.0, /*seed=*/3);
  const RwrConfig config = HybridConfig();
  ResAccOptions options = HybridOn();
  options.max_hop_set_fraction = 0.02;
  ResAccSolver solver(g, config, options);
  GroundTruthCache truth(g, config);

  const std::vector<NodeId> by_degree = g.NodesByOutDegreeDesc();
  const NodeId hub = by_degree[0];
  const std::vector<Score> hub_estimate = solver.Query(hub);
  EXPECT_NE(solver.last_stats().path, SolverPath::kLocal) << "hub stayed local";
  ExpectDefinition1(hub_estimate, truth.Get(hub), config, "chung-lu head");

  const NodeId tail = by_degree[by_degree.size() / 2];
  solver.Query(tail);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kLocal)
      << "tail source went dense";
}

TEST(HybridSelectionTest, CompleteBipartiteHubGoesDense) {
  const Graph g = CompleteBipartite(5, 195);
  const RwrConfig config = HybridConfig();
  ResAccSolver solver(g, config, HybridOn());

  const std::vector<Score> estimate = solver.Query(/*source=*/0);
  EXPECT_NE(solver.last_stats().path, SolverPath::kLocal);
  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(0), config, "bipartite hub");
}

TEST(HybridSelectionTest, DisabledHybridNeverSwitches) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccSolver solver(g, config, ResAccOptions{});  // hybrid off

  const std::vector<Score> estimate = solver.Query(/*source=*/0);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kLocal);
  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(0), config, "hybrid off");
}

TEST(HybridSelectionTest, NoSgAblationStaysLocalEvenForHubs) {
  // The No-SG ablation has no hop-layer BFS to probe; the selector must
  // leave it on the pure-local pipeline regardless of the source.
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccOptions options = HybridOn();
  options.use_hop_subgraph = false;
  ResAccSolver solver(g, config, options);

  const std::vector<Score> estimate = solver.Query(/*source=*/0);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kLocal);
  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(0), config, "No-SG hub");
}

TEST(HybridSelectionTest, ResidueMassTriggerFiresUnderTinyDelta) {
  // A cycle keeps every hop set tiny (selection point 1 stays local), but
  // a tiny delta makes the Theorem-3 walk count enormous: the OMFWD
  // round-boundary check must hand the query to the dense path.
  const Graph g = testing::CycleGraph(100);
  RwrConfig config = HybridConfig();
  config.delta = 1e-6;
  ResAccSolver solver(g, config, HybridOn());

  const std::vector<Score> estimate = solver.Query(/*source=*/0);
  EXPECT_EQ(solver.last_stats().path, SolverPath::kDenseResidueMass);
  GroundTruthCache truth(g, config);
  ExpectDefinition1(estimate, truth.Get(0), config, "residue-mass trigger");
}

// The selection decision is visible in the ControlledQueryResult tags: a
// completed dense run is NOT degraded and reports the configured epsilon.
TEST(HybridSelectionTest, DenseResultReportsConfiguredEpsilon) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccSolver solver(g, config, HybridOn());

  const ControlledQueryResult result =
      solver.QueryControlled(/*source=*/0, QueryControl{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(solver.last_stats().path, SolverPath::kDenseShrinkFloor);
  EXPECT_FALSE(result.degraded);
  EXPECT_DOUBLE_EQ(result.uncorrected_mass, 0.0);
  EXPECT_DOUBLE_EQ(result.achieved_epsilon, config.epsilon);
}

// ---------------------------------------------------------------------------
// Baseline lanes: FORA has no hybrid path but must keep its own guarantee
// on the same hub-heavy graphs the hybrid targets.

TEST(HybridSelectionTest, ForaKeepsGuaranteeOnHubGraphs) {
  const RwrConfig config = HybridConfig();
  const Graph graphs[] = {testing::StarGraph(199), CompleteBipartite(5, 195)};
  const char* names[] = {"star", "bipartite"};
  for (std::size_t i = 0; i < 2; ++i) {
    Fora fora(graphs[i], config);
    GroundTruthCache truth(graphs[i], config);
    ExpectDefinition1(fora.Query(0), truth.Get(0), config, names[i]);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: the dense sweep has no RNG and a fixed CSR order, so the
// result must be bitwise invariant across walk_threads.

TEST(HybridBitIdentityTest, DensePathInvariantAcrossWalkThreads) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  ResAccOptions one = HybridOn();
  one.walk_threads = 1;
  ResAccOptions four = HybridOn();
  four.walk_threads = 4;

  ResAccSolver s1(g, config, one);
  ResAccSolver s4(g, config, four);
  const std::vector<Score> a = s1.Query(0);
  const std::vector<Score> b = s4.Query(0);
  ASSERT_EQ(s1.last_stats().path, SolverPath::kDenseShrinkFloor);
  ASSERT_EQ(s4.last_stats().path, SolverPath::kDenseShrinkFloor);
  ExpectBitIdentical(a, b, "walk_threads 1 vs 4");
}

// ---------------------------------------------------------------------------
// Top-k on the dense path: the prefix of the dense vector, same bounds as
// MakeApproximateTopK.

TEST(HybridTopKTest, DenseTopKIsPrefixOfDenseVector) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  constexpr std::size_t kK = 10;
  ResAccSolver solver(g, config, HybridOn());

  const std::vector<Score> full = solver.Query(/*source=*/0);
  ASSERT_EQ(solver.last_stats().path, SolverPath::kDenseShrinkFloor);
  const TopKResult topk = solver.QueryTopK(/*source=*/0, kK);
  ASSERT_TRUE(topk.status.ok());
  EXPECT_EQ(solver.last_stats().path, SolverPath::kDenseShrinkFloor);
  ASSERT_EQ(topk.entries.size(), kK);
  EXPECT_FALSE(topk.degraded);
  EXPECT_DOUBLE_EQ(topk.achieved_epsilon, config.epsilon);

  const std::vector<NodeId> exact_order = TopKIndices(full, kK);
  for (std::size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(topk.entries[i].node, exact_order[i]) << "rank " << i;
    EXPECT_EQ(topk.entries[i].estimate, full[exact_order[i]]) << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Satellite 1: the adaptive hop cap floors at 1 hop and reports the shrink.

TEST(HubShrinkTest, ShrinkFloorsAtOneHop) {
  const Graph g = CompleteBipartite(5, 195);
  RwrConfig config = HybridConfig();

  HHopFwdOptions options;
  options.num_hops = 2;
  options.max_hop_set_fraction = 0.05;  // 10 nodes: even 1 hop overflows
  PushState state(g.num_nodes());
  HopLayers layers;
  const HHopFwdStats stats = RunHHopFwd(g, config, 0, options, state, &layers);
  EXPECT_GE(stats.effective_hops, 1u);
  EXPECT_EQ(stats.effective_hops, 1u);
  EXPECT_EQ(stats.shrink_hops, 1u);
  EXPECT_TRUE(stats.shrink_floored);
  EXPECT_NEAR(state.ReserveSum() + state.ResidueSum(), 1.0, 1e-12);
}

TEST(HubShrinkTest, NoSgStatsConventionReportsWholeGraph) {
  // No-SG convention (h_hop_fwd.h): the whole graph is the "hop set"
  // (hop_set_size = n, hop_set_edges = m) and there is no frontier.
  const Graph g = testing::CycleGraph(50);
  RwrConfig config = HybridConfig();

  HHopFwdOptions options;
  options.use_hop_subgraph = false;
  PushState state(g.num_nodes());
  HopLayers layers;
  const HHopFwdStats stats = RunHHopFwd(g, config, 0, options, state, &layers);
  EXPECT_EQ(stats.hop_set_size, g.num_nodes());
  EXPECT_EQ(stats.hop_set_edges, g.num_edges());
  EXPECT_EQ(stats.frontier_size, 0u);
  EXPECT_FALSE(stats.shrink_floored);
  EXPECT_EQ(stats.shrink_hops, 0u);
}

// ---------------------------------------------------------------------------
// Satellite 3: the serve-layer config hash must cover the hybrid knobs —
// a dense answer is not bitwise a local answer, so the cache must never
// serve across selection policies.

TEST(HybridConfigHashTest, HashCoversEveryHybridKnob) {
  const RwrConfig config = HybridConfig();
  const ResAccOptions base = HybridOn();
  const std::uint64_t h0 = HashQueryConfig(config, base);

  ResAccOptions same = HybridOn();
  EXPECT_EQ(HashQueryConfig(config, same), h0) << "hash is not deterministic";

  ResAccOptions off = base;
  off.hybrid.enable = false;
  EXPECT_NE(HashQueryConfig(config, off), h0) << "enable not hashed";

  ResAccOptions ratio = base;
  ratio.hybrid.cost_ratio = 2.0;
  EXPECT_NE(HashQueryConfig(config, ratio), h0) << "cost_ratio not hashed";

  ResAccOptions tol = base;
  tol.hybrid.tolerance = 1e-9;
  EXPECT_NE(HashQueryConfig(config, tol), h0) << "tolerance not hashed";

  ResAccOptions cap = base;
  cap.hybrid.max_iterations = 3;
  EXPECT_NE(HashQueryConfig(config, cap), h0) << "max_iterations not hashed";
}

// ---------------------------------------------------------------------------
// Cost-model sanity: the published selection functions behave monotonically
// so the thresholds in DESIGN.md stay truthful.

TEST(HybridCostModelTest, SelectionRespondsToCostRatio) {
  const Graph g = testing::StarGraph(199);
  const RwrConfig config = HybridConfig();
  HybridOptions options;
  options.enable = true;

  // A floored shrink switches regardless of the ratio.
  EXPECT_EQ(ChooseFromHopStats(g, config, options, /*r_max_hop=*/1e-14,
                               /*shrink_floored=*/true, /*hop_set_edges=*/398),
            SolverPath::kDenseShrinkFloor);

  // Without the floor the ratio decides: a huge ratio pins the query
  // local, a tiny one switches on any nontrivial hop set.
  options.cost_ratio = 1e12;
  EXPECT_EQ(ChooseFromHopStats(g, config, options, 1e-14, false, 398.0),
            SolverPath::kLocal);
  options.cost_ratio = 1e-12;
  EXPECT_EQ(ChooseFromHopStats(g, config, options, 1e-14, false, 398.0),
            SolverPath::kDenseHopGrowth);

  // Residue trigger: zero residue mass never beats the dense bound; the
  // full unit mass under a tiny delta always does.
  EXPECT_FALSE(DenseBeatsRemedy(g, config, HybridOptions{.enable = true},
                                /*residue_sum=*/0.0, /*walk_scale=*/1.0));
  RwrConfig tiny = config;
  tiny.delta = 1e-9;
  EXPECT_TRUE(DenseBeatsRemedy(g, tiny, HybridOptions{.enable = true},
                               /*residue_sum=*/1.0, /*walk_scale=*/1.0));
}

TEST(HybridCostModelTest, IterationBoundShrinksWithLooserTolerance) {
  const RwrConfig config = HybridConfig();
  HybridOptions tight;
  tight.tolerance = 1e-12;
  HybridOptions loose;
  loose.tolerance = 1e-2;
  EXPECT_GT(DenseIterationBound(config, tight),
            DenseIterationBound(config, loose));

  HybridOptions defaulted;  // tolerance <= 0 selects eps * delta
  EXPECT_DOUBLE_EQ(DenseTolerance(config, defaulted),
                   config.epsilon * config.delta);

  HybridOptions capped;
  capped.max_iterations = 5;
  EXPECT_EQ(DenseIterationBound(config, capped), 5u);
}

}  // namespace
}  // namespace resacc
