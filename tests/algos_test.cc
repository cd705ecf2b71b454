#include <cmath>
#include <memory>
#include <tuple>
#include <type_traits>

#include <gtest/gtest.h>

#include "resacc/algo/bepi.h"
#include "resacc/algo/bippr.h"
#include "resacc/algo/fora.h"
#include "resacc/algo/fora_plus.h"
#include "resacc/algo/forward_search_solver.h"
#include "resacc/algo/inverse.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/algo/particle_filter.h"
#include "resacc/algo/power.h"
#include "resacc/algo/topppr.h"
#include "resacc/algo/tpa.h"
#include "resacc/core/batch_solver.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/metrics.h"
#include "resacc/graph/generators.h"
#include "resacc/nise/nise.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig SmallConfig(NodeId n, DanglingPolicy policy) {
  RwrConfig config;
  config.alpha = 0.2;
  config.epsilon = 0.5;
  config.delta = 1.0 / static_cast<double>(n);
  config.p_f = 1e-7;
  config.dangling = policy;
  config.seed = 0x600d;
  return config;
}

class PowerVsInverseTest : public ::testing::TestWithParam<DanglingPolicy> {};

TEST_P(PowerVsInverseTest, AgreeOnSmallGraphs) {
  const DanglingPolicy policy = GetParam();
  for (const Graph& g : {testing::Figure1Graph(), testing::Figure3Graph(),
                         ErdosRenyi(80, 400, 2)}) {
    const RwrConfig config = SmallConfig(g.num_nodes(), policy);
    PowerIteration power(g, config, 1e-13);
    // The hybrid solver's dense path runs the same sweep as PowerIteration,
    // so the LU solve is the oracle that shares no code with it. A tiny
    // cost ratio sends every source with out-edges dense.
    ResAccOptions dense_options;
    dense_options.hybrid.enable = true;
    dense_options.hybrid.cost_ratio = 1e-12;
    dense_options.hybrid.tolerance = 1e-13;
    ResAccSolver dense(g, config, dense_options);
    ExactInverse inverse(g, config);
    for (NodeId s = 0; s < std::min<NodeId>(g.num_nodes(), 5); ++s) {
      const std::vector<Score> exact = inverse.Query(s);
      const std::vector<Score> a = power.Query(s);
      const std::vector<Score> c = dense.Query(s);
      if (g.OutDegree(s) > 0) {
        EXPECT_NE(dense.last_stats().path, SolverPath::kLocal) << "s=" << s;
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_NEAR(a[v], exact[v], 1e-10)
            << "s=" << s << " v=" << v << " n=" << g.num_nodes();
        ASSERT_NEAR(c[v], exact[v], 1e-10)
            << "dense path s=" << s << " v=" << v << " n=" << g.num_nodes();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PowerVsInverseTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

TEST(PowerTest, IterationCountTracksTolerance) {
  const Graph g = testing::CycleGraph(50);
  const RwrConfig config = SmallConfig(50, DanglingPolicy::kAbsorb);
  PowerIteration loose(g, config, 1e-3);
  PowerIteration tight(g, config, 1e-12);
  loose.Query(0);
  tight.Query(0);
  EXPECT_LT(loose.last_iterations(), tight.last_iterations());
}

TEST(ForwardSearchSolverTest, TinyThresholdApproachesExact) {
  const Graph g = ErdosRenyi(150, 900, 4);
  const RwrConfig config = SmallConfig(150, DanglingPolicy::kBackToSource);
  ForwardSearchSolver fwd(g, config, /*r_max=*/1e-10);
  PowerIteration power(g, config, 1e-13);
  const std::vector<Score> estimate = fwd.Query(0);
  const std::vector<Score> exact = power.Query(0);
  EXPECT_LT(MeanAbsError(estimate, exact), 1e-7);
  EXPECT_GT(fwd.last_push_stats().push_operations, 0u);
}

class GuaranteedAlgoTest
    : public ::testing::TestWithParam<std::tuple<int, DanglingPolicy>> {};

// Every output-bounded algorithm must meet the Definition 1 guarantee.
TEST_P(GuaranteedAlgoTest, MeetsRelativeError) {
  const auto [algo_id, policy] = GetParam();
  const Graph g = ChungLuPowerLaw(300, 1800, 2.2, 6);
  const RwrConfig config = SmallConfig(g.num_nodes(), policy);

  std::unique_ptr<SsrwrAlgorithm> algo;
  switch (algo_id) {
    case 0:
      algo = std::make_unique<MonteCarlo>(g, config);
      break;
    case 1:
      algo = std::make_unique<Fora>(g, config);
      break;
    case 2: {
      if (policy == DanglingPolicy::kBackToSource) GTEST_SKIP();
      auto fora_plus = std::make_unique<ForaPlus>(g, config);
      ASSERT_TRUE(fora_plus->BuildIndex().ok());
      algo = std::move(fora_plus);
      break;
    }
  }

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = algo->Query(source);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  EXPECT_LE(MaxRelativeErrorAboveDelta(estimate, exact, config.delta),
            config.epsilon)
      << algo->name();
}

INSTANTIATE_TEST_SUITE_P(
    Algos, GuaranteedAlgoTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

TEST(ForaPlusTest, RefusesBackToSourceWithSinks) {
  const Graph g = testing::Figure1Graph();  // has a sink
  const RwrConfig config = SmallConfig(4, DanglingPolicy::kBackToSource);
  ForaPlus fora_plus(g, config);
  const Status status = fora_plus.BuildIndex();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ForaPlusTest, MemoryBudgetEnforced) {
  const Graph g = ErdosRenyi(300, 1800, 7);
  const RwrConfig config = SmallConfig(300, DanglingPolicy::kAbsorb);
  ForaPlusOptions options;
  options.memory_budget_bytes = 16;  // absurdly small
  ForaPlus fora_plus(g, config, options);
  const Status status = fora_plus.BuildIndex();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(fora_plus.IndexReady());
}

TEST(ForaPlusTest, IndexBytesReported) {
  const Graph g = ErdosRenyi(200, 1200, 8);
  const RwrConfig config = SmallConfig(200, DanglingPolicy::kAbsorb);
  ForaPlus fora_plus(g, config);
  ASSERT_TRUE(fora_plus.BuildIndex().ok());
  EXPECT_GT(fora_plus.IndexBytes(), 0u);
  EXPECT_GT(fora_plus.index_walks(), 0u);
}

TEST(ForaTest, TimeBudgetDegradesGracefully) {
  const Graph g = ChungLuPowerLaw(500, 3000, 2.2, 9);
  RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  ForaOptions options;
  options.time_budget_seconds = 1e-9;
  Fora fora(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> scores = fora.Query(source);
  EXPECT_TRUE(fora.last_stats().budget_exhausted);
  // Reserves are still reported even though walks were cut off.
  Score total = 0.0;
  for (Score s : scores) total += s;
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, 1.0);
}

TEST(TpaTest, NearFieldPlusPageRankTail) {
  const Graph g = ChungLuPowerLaw(300, 2400, 2.3, 10);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  TpaOptions options;
  options.near_hops = 20;
  Tpa tpa(g, config, options);
  ASSERT_TRUE(tpa.BuildIndex().ok());
  EXPECT_EQ(tpa.IndexBytes(), g.num_nodes() * sizeof(Score));

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = tpa.Query(source);
  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);

  // Additive error bounded by the tail mass (1-alpha)^near_hops spread
  // over the PageRank distribution (plus what PageRank gets right).
  const double tail = std::pow(1.0 - config.alpha, options.near_hops);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(std::fabs(estimate[v] - exact[v]), tail + 1e-9);
  }
  // Ranking of top nodes is still good (near field dominates).
  EXPECT_GT(NdcgAtK(estimate, exact, 10), 0.99);
}

TEST(TopPprTest, TopKPrecisionHigh) {
  const Graph g = ChungLuPowerLaw(400, 2800, 2.2, 11);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  TopPprOptions options;
  options.top_k = 50;
  TopPpr topppr(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = topppr.Query(source);
  EXPECT_EQ(topppr.last_top_k().size(), 50u);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  EXPECT_GE(PrecisionAtK(estimate, exact, 50), 0.9);
  EXPECT_GT(NdcgAtK(estimate, exact, 50), 0.98);
}

TEST(ParticleFilterTest, ApproximatesTopScores) {
  const Graph g = ChungLuPowerLaw(300, 2100, 2.2, 12);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  ParticleFilterOptions options;
  options.w_min = 10.0;  // fine granularity for a small graph
  ParticleFilter pf(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = pf.Query(source);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  // PF is biased low (dropped remainders) but must track the big scores.
  Score total = 0.0;
  for (Score s : estimate) total += s;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.5);
  EXPECT_GT(NdcgAtK(estimate, exact, 10), 0.95);
}

TEST(ParticleFilterTest, LargerWMinLosesMoreMass) {
  const Graph g = ChungLuPowerLaw(300, 2100, 2.2, 12);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  auto mass_with_wmin = [&](double w_min) {
    ParticleFilterOptions options;
    options.w_min = w_min;
    ParticleFilter pf(g, config, options);
    const std::vector<Score> estimate = pf.Query(0);
    Score total = 0.0;
    for (Score s : estimate) total += s;
    return total;
  };
  // The paper: "The larger the w_min, the larger the error."
  EXPECT_GE(mass_with_wmin(5.0), mass_with_wmin(5000.0));
}

TEST(BiPprTest, PairEstimatesMatchExact) {
  const Graph g = ChungLuPowerLaw(200, 1400, 2.2, 13);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  BiPpr bippr(g, config);
  ExactInverse oracle(g, config);

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> exact = oracle.Query(source);
  for (NodeId target = 0; target < 20; ++target) {
    const Score estimate = bippr.EstimatePair(source, target);
    if (exact[target] > config.delta) {
      EXPECT_LE(std::fabs(estimate - exact[target]) / exact[target],
                config.epsilon)
          << "target " << target;
    } else {
      EXPECT_NEAR(estimate, exact[target], 5.0 * config.delta);
    }
  }
}

TEST(MonteCarloTest, WalkScaleControlsCost) {
  const Graph g = ErdosRenyi(100, 600, 14);
  const RwrConfig config = SmallConfig(100, DanglingPolicy::kAbsorb);
  MonteCarlo cheap(g, config, /*walk_scale=*/0.01);
  MonteCarlo full(g, config, /*walk_scale=*/1.0);
  cheap.Query(0);
  const std::uint64_t cheap_walks = cheap.last_walk_stats().walks;
  full.Query(0);
  EXPECT_LT(cheap_walks, full.last_walk_stats().walks / 50);
}

// Every solver keeps a reference to its graph, so one built from a
// temporary would dangle once the full-expression ends. The rvalue
// overloads are deleted; lvalue graphs still construct.
template <typename Solver, typename... Rest>
constexpr bool BindsLvalueGraphsOnly() {
  return std::is_constructible_v<Solver, const Graph&, Rest...> &&
         !std::is_constructible_v<Solver, Graph, Rest...>;
}

TEST(SolverLifetimeTest, TemporaryGraphsAreRejected) {
  using Config = const RwrConfig&;
  EXPECT_TRUE((BindsLvalueGraphsOnly<BePi, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<BiPpr, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<Fora, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<ForaPlus, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<ForwardSearchSolver, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<ExactInverse, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<MonteCarlo, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<ParticleFilter, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<PowerIteration, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<TopPpr, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<Tpa, Config>()));
  EXPECT_TRUE((BindsLvalueGraphsOnly<Nise, const NiseOptions&>()));
  EXPECT_TRUE(
      (BindsLvalueGraphsOnly<BatchSolver, Config, const ResAccOptions&>()));
  EXPECT_TRUE(
      (BindsLvalueGraphsOnly<ResAccSolver, Config, const ResAccOptions&>()));
}

}  // namespace
}  // namespace resacc
