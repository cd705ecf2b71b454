#include <gtest/gtest.h>

#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/core/topk.h"
#include "resacc/graph/generators.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

TEST(RwrConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(RwrConfig{}.Validate().ok());
  EXPECT_TRUE(RwrConfig::ForGraphSize(1000).Validate().ok());
}

TEST(RwrConfigTest, ForGraphSizeSetsPaperDefaults) {
  const RwrConfig config = RwrConfig::ForGraphSize(1000);
  EXPECT_DOUBLE_EQ(config.delta, 1e-3);
  EXPECT_DOUBLE_EQ(config.p_f, 1e-3);
  EXPECT_DOUBLE_EQ(config.alpha, 0.2);
  EXPECT_DOUBLE_EQ(config.epsilon, 0.5);
}

TEST(RwrConfigTest, RejectsBadParameters) {
  RwrConfig config;
  config.alpha = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RwrConfig{};
  config.alpha = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RwrConfig{};
  config.epsilon = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config = RwrConfig{};
  config.delta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RwrConfig{};
  config.delta = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = RwrConfig{};
  config.p_f = 1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RwrConfigTest, WalkCountCoefficientMatchesTheorem3) {
  RwrConfig config;
  config.epsilon = 0.5;
  config.delta = 0.01;
  config.p_f = 0.001;
  // c = (2*0.5/3 + 2) * ln(2000) / (0.25 * 0.01)
  const double expected =
      (2.0 * 0.5 / 3.0 + 2.0) * std::log(2.0 / 0.001) / (0.25 * 0.01);
  EXPECT_NEAR(config.WalkCountCoefficient(), expected, 1e-9);
}

// Definition-1 accounting: unconverted mass adds uncorrected/delta to the
// configured epsilon and is the only thing that marks an answer degraded.
TEST(AccuracyTest, UncorrectedMassIsTheOnlyDegradation) {
  RwrConfig config;
  config.epsilon = 0.5;
  config.delta = 0.25;

  const Accuracy complete = AccuracyFor(config, 0.0);
  EXPECT_FALSE(complete.degraded);
  EXPECT_EQ(complete.uncorrected_mass, 0.0);
  EXPECT_EQ(complete.achieved_epsilon, config.epsilon);

  const Accuracy partial = AccuracyFor(config, 0.125);
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.uncorrected_mass, 0.125);
  EXPECT_EQ(partial.achieved_epsilon, 1.0);  // 0.5 + 0.125 / 0.25

  // ApplyTo overwrites all three tags on either result shape.
  ControlledQueryResult full;
  full.achieved_epsilon = 7.0;
  partial.ApplyTo(full);
  EXPECT_TRUE(full.degraded);
  EXPECT_EQ(full.uncorrected_mass, 0.125);
  EXPECT_EQ(full.achieved_epsilon, 1.0);

  TopKResult topk;
  topk.degraded = true;
  topk.uncorrected_mass = 3.0;
  complete.ApplyTo(topk);
  EXPECT_FALSE(topk.degraded);
  EXPECT_EQ(topk.uncorrected_mass, 0.0);
  EXPECT_EQ(topk.achieved_epsilon, config.epsilon);
}

TEST(AdaptiveHopCapTest, ShrinksEffectiveHopsForHubs) {
  // Star graph: the hub's 1-hop set is the whole graph.
  const Graph g = testing::StarGraph(199);  // 200 nodes
  RwrConfig config = RwrConfig::ForGraphSize(g.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;

  HHopFwdOptions options;
  options.num_hops = 2;
  options.max_hop_set_fraction = 0.10;  // 20 nodes max
  PushState state(g.num_nodes());
  HopLayers layers;
  const HHopFwdStats stats =
      RunHHopFwd(g, config, /*source=*/0, options, state, &layers);

  // 1-hop set = 200 nodes > 20, but the shrink floors at h = 1 (h = 0
  // left a degenerate {source} hop set whose whole mass fell to remedy
  // walks) and flags the floored shrink for the hybrid selector.
  EXPECT_EQ(stats.effective_hops, 1u);
  EXPECT_EQ(stats.hop_set_size, 200u);
  EXPECT_EQ(stats.shrink_hops, 1u);
  EXPECT_TRUE(stats.shrink_floored);
  // The hub's out-edges plus every leaf's edge back: 199 + 199.
  EXPECT_EQ(stats.hop_set_edges, 398u);
  // L_2 is empty on a star (every leaf's neighbour is the hub).
  EXPECT_EQ(stats.frontier_size, 0u);
  EXPECT_EQ(layers.layers.back().size(), 0u);
  EXPECT_NEAR(state.ReserveSum() + state.ResidueSum(), 1.0, 1e-12);
}

TEST(AdaptiveHopCapTest, NoEffectWhenHopSetSmall) {
  const Graph g = testing::CycleGraph(100);
  RwrConfig config = RwrConfig::ForGraphSize(g.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;

  HHopFwdOptions options;
  options.num_hops = 2;
  options.max_hop_set_fraction = 0.10;  // 10 nodes; 2-hop set has 3
  PushState state(g.num_nodes());
  HopLayers layers;
  const HHopFwdStats stats = RunHHopFwd(g, config, 0, options, state, &layers);
  EXPECT_EQ(stats.effective_hops, 2u);
}

TEST(AdaptiveHopCapTest, SolverGuaranteeHoldsWithCap) {
  // A hub-heavy graph queried from its top hub, with the cap active.
  const Graph g = ChungLuPowerLaw(1000, 12000, 2.0, 3);
  RwrConfig config = RwrConfig::ForGraphSize(g.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.p_f = 1e-7;
  config.seed = 5;

  const NodeId hub = g.NodesByOutDegreeDesc()[0];
  ResAccOptions options;
  options.max_hop_set_fraction = 0.02;
  ResAccSolver solver(g, config, options);
  const std::vector<Score> estimate = solver.Query(hub);
  EXPECT_LT(solver.last_stats().hhop.effective_hops, options.num_hops);

  Score total = 0.0;
  for (Score s : estimate) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace resacc
