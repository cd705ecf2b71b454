#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/fora.h"
#include "resacc/algo/inverse.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/random_walk.h"
#include "resacc/core/remedy.h"
#include "resacc/core/topk_solve.h"
#include "resacc/graph/generators.h"
#include "resacc/obs/metrics_registry.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

using ::resacc::testing::Figure1Graph;
using ::resacc::testing::Figure3Graph;

RwrConfig TestConfig(DanglingPolicy policy) {
  RwrConfig config;
  config.alpha = 0.2;
  config.dangling = policy;
  config.seed = 2024;
  return config;
}

class WalkDistributionTest
    : public ::testing::TestWithParam<DanglingPolicy> {};

// The empirical terminal distribution of the walk engine must match the
// exact RWR values — this pins the walk semantics to the linear-algebra
// semantics for both dangling policies (Figure 1's graph has a sink).
TEST_P(WalkDistributionTest, TerminalFrequenciesMatchExact) {
  const DanglingPolicy policy = GetParam();
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(policy);
  ExactInverse oracle(g, config);
  const std::vector<Score> exact = oracle.Query(0);

  Rng rng(config.seed);
  WalkStats stats;
  const int walks = 400000;
  std::vector<double> frequency(g.num_nodes(), 0.0);
  for (int i = 0; i < walks; ++i) {
    ++frequency[RandomWalkTerminal(g, config, /*restart_node=*/0,
                                   /*start=*/0, rng, stats)];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(frequency[v] / walks, exact[v], 0.005) << "node " << v;
  }
  EXPECT_EQ(stats.walks, static_cast<std::uint64_t>(walks));
  EXPECT_GT(stats.steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, WalkDistributionTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

TEST(WalkTest, ExpectedLengthIsOneOverAlpha) {
  // On a cycle (no dangling), steps per walk ~ geometric with mean
  // (1-alpha)/alpha; the expected number of *nodes visited* is 1/alpha.
  const Graph g = testing::CycleGraph(16);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  Rng rng(7);
  WalkStats stats;
  const int walks = 200000;
  for (int i = 0; i < walks; ++i) {
    RandomWalkTerminal(g, config, 0, 0, rng, stats);
  }
  const double mean_steps =
      static_cast<double>(stats.steps) / static_cast<double>(walks);
  EXPECT_NEAR(mean_steps, (1.0 - config.alpha) / config.alpha, 0.05);
}

TEST(RemedyTest, ExactlyRedistributesResidueMass) {
  const Graph g = Figure3Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/0.05, seeds, false, state);
  const Score residue_sum = state.ResidueSum();
  ASSERT_GT(residue_sum, 0.0);

  std::vector<Score> scores(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) scores[v] = state.reserve(v);
  Rng rng(1);
  const RemedyStats stats = RunRemedy(g, config, 0, state, rng, scores);

  // Each walk deposits residue/n_r(v); n_r(v) walks run, so the total mass
  // added is exactly the residue sum — scores must sum to 1 (tolerance
  // covers float accumulation over millions of tiny deposits).
  Score total = 0.0;
  for (Score s : scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-8);
  EXPECT_GT(stats.walks, 0u);
  EXPECT_NEAR(stats.residue_sum, residue_sum, 1e-15);
}

TEST(RemedyTest, ProducesAccurateScores) {
  const Graph g = ErdosRenyi(200, 1000, 3);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1.0 / 200.0;
  config.p_f = 1e-6;
  config.epsilon = 0.5;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-4, seeds, false, state);

  std::vector<Score> scores(g.num_nodes(), 0.0);
  for (NodeId v : state.touched()) scores[v] = state.reserve(v);
  Rng rng(9);
  RunRemedy(g, config, 0, state, rng, scores);

  ExactInverse oracle(g, config);
  const std::vector<Score> exact = oracle.Query(0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (exact[v] > config.delta) {
      EXPECT_LE(std::abs(scores[v] - exact[v]) / exact[v], config.epsilon)
          << "node " << v;
    }
  }
}

TEST(RemedyTest, UnbiasedAcrossRuns) {
  const Graph g = Figure3Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/0.2, seeds, false, state);

  ExactInverse oracle(g, config);
  const std::vector<Score> exact = oracle.Query(0);

  // Theorem 1: E[pi_hat] = pi. Average many independent remedy runs with
  // few walks each; the average must converge to the exact values.
  std::vector<double> mean(g.num_nodes(), 0.0);
  const int runs = 4000;
  Rng rng(77);
  for (int run = 0; run < runs; ++run) {
    std::vector<Score> scores(g.num_nodes(), 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) scores[v] = state.reserve(v);
    RunRemedy(g, config, 0, state, rng, scores, /*walk_scale=*/1e-6);
    for (NodeId v = 0; v < g.num_nodes(); ++v) mean[v] += scores[v];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(mean[v] / runs, exact[v], 0.01) << "node " << v;
  }
}

TEST(RemedyTest, TimeBudgetStopsEarly) {
  const Graph g = ErdosRenyi(500, 2500, 5);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1e-7;  // enormous walk demand
  config.p_f = 1e-9;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-2, seeds, false, state);

  std::vector<Score> scores(g.num_nodes(), 0.0);
  Rng rng(2);
  const RemedyStats stats =
      RunRemedy(g, config, 0, state, rng, scores, 1.0,
                /*time_budget_seconds=*/1e-9);
  EXPECT_TRUE(stats.budget_exhausted);
}

// Theorem 3's walk count on push-batch's shape, where the residual nodes
// outnumber n_r about 100 to 1 (Algorithm 2's per-node ceil ran one walk
// per residual node there): ceil(n_r) walks, none heavier than
// r_sum / n_r, depositing exactly r_sum. walk_scale 1 mixes floor and
// pool walks.
TEST(RemedyTest, RunsTheorem3WalkCountWhereResidualNodesOutnumberIt) {
  const Graph g = testing::PushBatchGraph();
  const RwrConfig config = testing::PushBatchConfig();
  const PushState state = testing::SeedRoundState(g, config, 17);
  const Score r_sum = state.ResidueSum();
  for (double walk_scale : {testing::kPushBatchWalkScale, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "walk_scale=" << walk_scale);
    std::vector<Score> scores(g.num_nodes(), 0.0);
    Rng rng(3);
    const RemedyStats stats =
        RunRemedy(g, config, 17, state, rng, scores, walk_scale);
    const double n_r = stats.target_walks;
    EXPECT_EQ(n_r, r_sum * config.WalkCountCoefficient() * walk_scale);
    EXPECT_GE(static_cast<double>(stats.walks), n_r);
    EXPECT_LE(static_cast<double>(stats.walks), n_r + 1.0);
    if (walk_scale == testing::kPushBatchWalkScale) {
      EXPECT_GT(static_cast<double>(stats.residual_nodes), 50.0 * n_r);
    }
    Score deposited = 0.0;
    for (Score s : scores) deposited += s;
    EXPECT_NEAR(deposited, r_sum, 1e-12 * r_sum);

    const RemedyPlan plan = PlanRemedy(state, n_r, Rng(5));
    EXPECT_EQ(plan.residual_nodes, stats.residual_nodes);
    std::uint64_t planned = 0;
    for (const WalkSlice& slice : plan.slices) {
      ASSERT_LE(slice.weight, r_sum / n_r);
      planned += slice.num_walks;
    }
    EXPECT_EQ(planned, stats.walks);
  }
}

// The pool draws its starts i.i.d. in proportion to the leftovers. At
// n_r = 2.5, b = 0.24: node 3 runs one floor walk and keeps 0.06, and the
// pool (L = 0.36) runs K = 2 walks of weight 0.18, so node v expects
// 2 * l(v) / L of them.
TEST(RemedyTest, PoolDrawsStartsInProportionToLeftovers) {
  PushState state(4);
  state.SetResidue(0, 0.1);
  state.SetResidue(1, 0.2);
  state.SetResidue(3, 0.3);
  const double expected[] = {2 * 0.1 / 0.36, 2 * 0.2 / 0.36, 0.0,
                             2 * 0.06 / 0.36};
  constexpr int kRoots = 20000;
  double drawn[4] = {};
  for (int root = 0; root < kRoots; ++root) {
    const RemedyPlan plan = PlanRemedy(state, 2.5, Rng(root));
    EXPECT_EQ(plan.residual_nodes, 3u);
    std::uint64_t floor_walks = 0;
    std::uint64_t pool_walks = 0;
    for (const WalkSlice& slice : plan.slices) {
      if (slice.stream == slice.start) {
        ASSERT_EQ(slice.start, 3u);
        ASSERT_NEAR(slice.weight, 0.24, 1e-15);
        floor_walks += slice.num_walks;
      } else {
        ASSERT_EQ(slice.stream, kRemedyPoolStream | slice.start);
        ASSERT_NEAR(slice.weight, 0.18, 1e-15);
        pool_walks += slice.num_walks;
        drawn[slice.start] += static_cast<double>(slice.num_walks);
      }
    }
    ASSERT_EQ(floor_walks, 1u);
    ASSERT_EQ(pool_walks, 2u);
  }
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(drawn[v] / kRoots, expected[v], 0.02) << "node " << v;
  }
}

// FORA and the top-k fallback share the estimator: on push-batch's shape
// each runs ceil(n_r) walks of the residue it leaves to remedy.
TEST(RemedyTest, ForaRunsTheorem3WalkCount) {
  const Graph g = testing::PushBatchGraph();
  ForaOptions options;
  options.walk_scale = testing::kPushBatchWalkScale;
  Fora fora(g, testing::PushBatchConfig(), options);
  fora.Query(17);
  const RemedyStats& remedy = fora.last_stats().remedy;
  ASSERT_GT(remedy.target_walks, 1.0);
  EXPECT_GT(static_cast<double>(remedy.residual_nodes),
            10.0 * remedy.target_walks);
  EXPECT_GE(static_cast<double>(remedy.walks), remedy.target_walks);
  EXPECT_LE(static_cast<double>(remedy.walks), remedy.target_walks + 1.0);
}

TEST(RemedyTest, TopKFallbackRunsTheorem3WalkCount) {
  const Graph g = testing::PushBatchGraph();
  const RwrConfig config = testing::PushBatchConfig();
  PushState state = testing::SeedRoundState(g, config, 17);
  const Counter& walks_total = MetricsRegistry::Global().GetCounter(
      "resacc_walk_engine_walks_total", "", "Random walks simulated.");
  const std::uint64_t walks_before = walks_total.Value();
  TopKOptions options;
  options.profit_slack = 0.0;  // no refinement: straight to the fallback
  Rng rng(11);
  WalkEngine engine(1);
  const TopKResult result = SolveTopKFromState(
      g, config, 17, /*k=*/10, /*r_max_start=*/1.0,
      testing::kPushBatchWalkScale, options, state, rng, &engine,
      /*cancel=*/nullptr, Status::Ok());
  ASSERT_TRUE(result.status.ok());
  ASSERT_FALSE(result.certified);
  const double n_r = state.ResidueSum() * config.WalkCountCoefficient() *
                     testing::kPushBatchWalkScale;
  const auto walks = static_cast<double>(walks_total.Value() - walks_before);
  EXPECT_GE(walks, n_r);
  EXPECT_LE(walks, n_r + 1.0);
}

}  // namespace
}  // namespace resacc
