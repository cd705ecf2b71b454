#include <tuple>

#include <gtest/gtest.h>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/graph/generators.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig TestConfig(DanglingPolicy policy) {
  RwrConfig config;
  config.alpha = 0.2;
  config.dangling = policy;
  return config;
}

class PushOrderTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, DanglingPolicy>> {};

// The level-synchronous work list must land in the terminal condition the
// algorithms rely on: mass conserved, every node below the push threshold.
// (A max-residue-first heap reached the same condition with 5-7x the
// pushes, so it was dropped; DESIGN.md "Work-list order".)
TEST_P(PushOrderTest, BothOrdersReachQuiescence) {
  const auto [seed, policy] = GetParam();
  const Graph g = ChungLuPowerLaw(300, 1800, 2.2, seed);
  const RwrConfig config = TestConfig(policy);
  const Score r_max = 1e-6;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, r_max, seeds,
                   /*push_seeds_unconditionally=*/false, state);
  EXPECT_NEAR(state.ReserveSum() + state.ResidueSum(), 1.0, 1e-12);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(SatisfiesPushCondition(g, state, v, r_max)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PushOrderTest,
    ::testing::Combine(::testing::Values(2u, 19u, 77u),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

TEST(PushOrderTest, SeedsPushedUnconditionally) {
  // A seed far below the threshold must still be pushed exactly once, and
  // the mass it spreads stays put below the threshold.
  const Graph g = testing::CycleGraph(6);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(g.num_nodes());
  state.SetResidue(2, 1e-9);
  const NodeId seeds[] = {NodeId{2}};
  const PushStats stats = RunForwardSearch(
      g, config, 0, /*r_max=*/1.0, seeds,
      /*push_seeds_unconditionally=*/true, state);
  EXPECT_EQ(stats.push_operations, 1u);
  EXPECT_DOUBLE_EQ(state.residue(2), 0.0);
  EXPECT_GT(state.residue(3), 0.0);
}

}  // namespace
}  // namespace resacc
