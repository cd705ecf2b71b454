#include <algorithm>
#include <cmath>
#include <cstddef>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/inverse.h"
#include "resacc/core/backward_push.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/frontier.h"
#include "resacc/core/push_state.h"
#include "resacc/graph/generators.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

using ::resacc::testing::Figure1Graph;

RwrConfig TestConfig(DanglingPolicy policy = DanglingPolicy::kAbsorb) {
  RwrConfig config;
  config.alpha = 0.2;
  config.dangling = policy;
  return config;
}

TEST(PushStateTest, TouchTrackingAndReset) {
  PushState state(5);
  state.AddResidue(3, 0.5);
  state.AddReserve(1, 0.25);
  EXPECT_EQ(state.touched().size(), 2u);
  EXPECT_DOUBLE_EQ(state.ResidueSum(), 0.5);
  EXPECT_DOUBLE_EQ(state.ReserveSum(), 0.25);
  state.Reset();
  EXPECT_TRUE(state.touched().empty());
  EXPECT_DOUBLE_EQ(state.residue(3), 0.0);
  EXPECT_DOUBLE_EQ(state.reserve(1), 0.0);
}

// Admits every marked node.
bool AnyNode(NodeId) { return true; }

// Pops the rest of the current round plus every later round.
std::vector<NodeId> DrainFrontier(Frontier& frontier) {
  std::vector<NodeId> popped;
  NodeId v;
  while (frontier.Next(&v, AnyNode)) popped.push_back(v);
  return popped;
}

// Rounds >= 1 pop in ascending id whatever order their nodes were marked
// in; a node marked twice joins once, and a node popped in round k and
// marked again lands in round k+1.
TEST(FrontierTest, DescendingMarksPopAscendingRoundByRound) {
  constexpr NodeId kNodes = 4096;
  Frontier frontier(kNodes);
  frontier.Seed(kNodes - 1);
  NodeId v;
  ASSERT_TRUE(frontier.Next(&v, AnyNode));
  EXPECT_EQ(frontier.round(), 0u);
  const auto mark_descending = [&](NodeId first, NodeId count,
                                   NodeId stride) {
    std::vector<NodeId> ids;
    for (NodeId i = count; i > 0; --i) {
      ids.push_back(first + (i - 1) * stride);
      frontier.Mark(ids.back());
    }
    frontier.Mark(ids.back());  // marked twice, promoted once
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  const std::vector<NodeId> round1 = mark_descending(1, 64, 63);
  std::vector<NodeId> round2;
  std::vector<NodeId> popped;
  for (std::size_t i = 0; i < round1.size(); ++i) {
    ASSERT_TRUE(frontier.Next(&v, AnyNode));
    EXPECT_EQ(frontier.round(), 1u);
    popped.push_back(v);
    // Node 1 just popped; marking it again puts it in round 2.
    if (i == 0) round2 = mark_descending(1, 3, 2000);
  }
  EXPECT_EQ(popped, round1);
  EXPECT_EQ(DrainFrontier(frontier), round2);
  EXPECT_EQ(frontier.round(), 2u);
}

// Promotion screens each marked node once with the caller's predicate: a
// node that fails is dropped until it is marked again, a mark set on a
// node still pending in the current round is cleared when it pops, and
// duplicate seeds run once in caller order.
TEST(FrontierTest, PromotionScreensMarkedNodesOnce) {
  Frontier frontier(256);
  frontier.Seed(5);
  frontier.Seed(3);
  frontier.Seed(5);
  std::vector<NodeId> screened;
  bool admit_odd_only = true;
  const auto qualifies = [&](NodeId u) {
    screened.push_back(u);
    return !admit_odd_only || u % 2 == 1;
  };
  NodeId v;
  ASSERT_TRUE(frontier.Next(&v, qualifies));
  EXPECT_EQ(v, 5u);
  frontier.Mark(3);  // still pending in round 0: its pop clears the mark
  frontier.Mark(200);
  frontier.Mark(7);
  frontier.Mark(64);
  ASSERT_TRUE(frontier.Next(&v, qualifies));
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE(screened.empty());  // seeds are never screened

  // The boundary screens 7, 64 and 200 once each and keeps the odd one.
  ASSERT_TRUE(frontier.Next(&v, qualifies));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(frontier.round(), 1u);
  EXPECT_EQ(screened, (std::vector<NodeId>{7, 64, 200}));

  // 64 and 200 failed and lost their marks; only a new mark brings one
  // back.
  admit_odd_only = false;
  screened.clear();
  frontier.Mark(200);
  EXPECT_EQ(DrainFrontier(frontier), (std::vector<NodeId>{200}));
  EXPECT_EQ(frontier.round(), 2u);
}

// Reproduces Figure 1(b): push sequence v1, v2, v3, v2 without residue
// accumulation (alpha = 0.2).
TEST(ForwardPushTest, Figure1WithoutAccumulation) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  state.SetResidue(0, 1.0);

  ForwardPushAt(g, config, 0, 0, state, stats);  // push v1
  EXPECT_NEAR(state.residue(1), 0.4, 1e-15);
  EXPECT_NEAR(state.residue(2), 0.4, 1e-15);

  ForwardPushAt(g, config, 0, 1, state, stats);  // push v2
  EXPECT_NEAR(state.residue(3), 0.32, 1e-15);

  ForwardPushAt(g, config, 0, 2, state, stats);  // push v3
  EXPECT_NEAR(state.residue(1), 0.32, 1e-15);

  ForwardPushAt(g, config, 0, 1, state, stats);  // push v2 again
  EXPECT_NEAR(state.residue(3), 0.576, 1e-15);
  EXPECT_EQ(stats.push_operations, 4u);
}

// Reproduces Figure 1(c): accumulating v2's residue first saves one push.
TEST(ForwardPushTest, Figure1WithAccumulation) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  state.SetResidue(0, 1.0);

  ForwardPushAt(g, config, 0, 0, state, stats);  // push v1
  ForwardPushAt(g, config, 0, 2, state, stats);  // push v3 first
  EXPECT_NEAR(state.residue(1), 0.72, 1e-15);    // accumulated at v2

  ForwardPushAt(g, config, 0, 1, state, stats);  // single push at v2
  EXPECT_NEAR(state.residue(3), 0.576, 1e-15);
  EXPECT_EQ(stats.push_operations, 3u);  // 3 pushes instead of 4
}

TEST(ForwardPushTest, ZeroResidueIsNoOp) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  ForwardPushAt(g, config, 0, 1, state, stats);
  EXPECT_EQ(stats.push_operations, 0u);
}

TEST(ForwardPushTest, DanglingAbsorbConvertsFully) {
  const Graph g = Figure1Graph();  // v4 (id 3) is a sink
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(4);
  PushStats stats;
  state.SetResidue(3, 0.5);
  ForwardPushAt(g, config, 0, 3, state, stats);
  EXPECT_DOUBLE_EQ(state.reserve(3), 0.5);
  EXPECT_DOUBLE_EQ(state.residue(3), 0.0);
}

TEST(ForwardPushTest, DanglingBackToSourceReturnsMass) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kBackToSource);
  PushState state(4);
  PushStats stats;
  state.SetResidue(3, 0.5);
  ForwardPushAt(g, config, 0, 3, state, stats);
  EXPECT_NEAR(state.reserve(3), 0.1, 1e-15);   // alpha * 0.5
  EXPECT_NEAR(state.residue(0), 0.4, 1e-15);   // (1-alpha) * 0.5 to source
}

class ForwardSearchPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, DanglingPolicy>> {};

TEST_P(ForwardSearchPropertyTest, ConservesMassAndMeetsThreshold) {
  const auto [seed, policy] = GetParam();
  const Graph g = ErdosRenyi(300, 1200, seed);
  const RwrConfig config = TestConfig(policy);
  const Score r_max = 1e-5;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, r_max, seeds,
                   /*push_seeds_unconditionally=*/false, state);

  // Mass conservation: every push moves mass, never creates or destroys it.
  EXPECT_NEAR(state.ReserveSum() + state.ResidueSum(), 1.0, 1e-12);

  // Push condition exhausted everywhere.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(SatisfiesPushCondition(g, state, v, r_max)) << "node " << v;
  }
}

TEST_P(ForwardSearchPropertyTest, InvariantAgainstExactScores) {
  const auto [seed, policy] = GetParam();
  if (policy == DanglingPolicy::kBackToSource) {
    // Equation (2) needs pi(v, .) in the chain anchored at the query
    // source; ExactInverse::Query(v) anchors at v, so the identity is only
    // directly checkable under kAbsorb (source-independent chain).
    GTEST_SKIP();
  }
  const Graph g = ErdosRenyi(60, 240, seed);
  const RwrConfig config = TestConfig(policy);

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-3, seeds, false, state);

  ExactInverse oracle(g, config);
  const std::vector<Score> exact = oracle.Query(0);

  // pi(s,t) = reserve(t) + sum_v residue(v) * pi(v,t)  (Equation 2).
  std::vector<Score> reconstructed(g.num_nodes(), 0.0);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    reconstructed[t] = state.reserve(t);
  }
  for (NodeId v : state.touched()) {
    const Score residue = state.residue(v);
    if (residue <= 0.0) continue;
    const std::vector<Score> from_v = oracle.Query(v);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      reconstructed[t] += residue * from_v[t];
    }
  }
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    EXPECT_NEAR(reconstructed[t], exact[t], 1e-9) << "node " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ForwardSearchPropertyTest,
    ::testing::Combine(::testing::Values(1u, 7u, 123u),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

TEST(BackwardPushTest, InvariantAgainstExactScoresWithSink) {
  // Figure 1's graph has a sink (v4), exercising the dedicated sink rule.
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  ExactInverse oracle(g, config);

  for (NodeId target = 0; target < g.num_nodes(); ++target) {
    PushState state(g.num_nodes());
    RunBackwardSearch(g, config, target, /*r_max=*/1e-4, state);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      const std::vector<Score> from_s = oracle.Query(s);
      Score reconstructed = state.reserve(s);
      for (NodeId v : state.touched()) {
        reconstructed += state.residue(v) * from_s[v];
      }
      EXPECT_NEAR(reconstructed, from_s[target], 1e-9)
          << "s=" << s << " t=" << target;
    }
  }
}

TEST(BackwardPushTest, ReservesApproximateColumnOfExact) {
  const Graph g = ErdosRenyi(80, 400, 11);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  ExactInverse oracle(g, config);
  const NodeId target = 5;

  PushState state(g.num_nodes());
  RunBackwardSearch(g, config, target, /*r_max=*/1e-8, state);
  for (NodeId s = 0; s < g.num_nodes(); s += 7) {
    const std::vector<Score> from_s = oracle.Query(s);
    // With a tiny r_max the residues are negligible; reserve(s) ~ pi(s,t).
    EXPECT_NEAR(state.reserve(s), from_s[target], 1e-5);
  }
}

}  // namespace
}  // namespace resacc
