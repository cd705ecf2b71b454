#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "resacc/algo/power.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/omfwd.h"
#include "resacc/core/push_state.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/metrics.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/hop_layers.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig AccuracyConfig(NodeId n, DanglingPolicy policy) {
  RwrConfig config;
  config.alpha = 0.2;
  config.epsilon = 0.5;
  config.delta = 1.0 / static_cast<double>(n);
  config.p_f = 1e-7;  // tight enough that no node should fail w.h.p.
  config.dangling = policy;
  config.seed = 0xabcdef;
  return config;
}

enum class GraphKind { kErdosRenyi, kChungLu, kBarabasiAlbert, kFigure1 };

Graph MakeGraph(GraphKind kind) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return ErdosRenyi(300, 1800, 21);
    case GraphKind::kChungLu:
      return ChungLuPowerLaw(400, 2400, 2.2, 22);
    case GraphKind::kBarabasiAlbert:
      return BarabasiAlbert(300, 3, 23);
    case GraphKind::kFigure1:
      return testing::Figure1Graph();
  }
  return Graph();
}

class ResAccAccuracyTest
    : public ::testing::TestWithParam<std::tuple<GraphKind, DanglingPolicy>> {};

TEST_P(ResAccAccuracyTest, MeetsRelativeErrorGuarantee) {
  const auto [kind, policy] = GetParam();
  const Graph g = MakeGraph(kind);
  const RwrConfig config = AccuracyConfig(g.num_nodes(), policy);

  ResAccOptions options;
  options.num_hops = 2;
  ResAccSolver solver(g, config, options);

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = solver.Query(source);

  PowerIteration power(g, config, /*tolerance=*/1e-12);
  const std::vector<Score> exact = power.Query(source);

  EXPECT_LE(MaxRelativeErrorAboveDelta(estimate, exact, config.delta),
            config.epsilon);

  // Scores are a probability distribution: the remedy phase redistributes
  // residues without creating or destroying mass.
  Score total = 0.0;
  for (Score s : estimate) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndPolicies, ResAccAccuracyTest,
    ::testing::Combine(::testing::Values(GraphKind::kErdosRenyi,
                                         GraphKind::kChungLu,
                                         GraphKind::kBarabasiAlbert,
                                         GraphKind::kFigure1),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

class ResAccAblationTest : public ::testing::TestWithParam<int> {};

// Every ablation variant (Appendix K) must still satisfy the guarantee —
// the tricks are about speed, not correctness.
TEST_P(ResAccAblationTest, VariantsStayAccurate) {
  const int variant = GetParam();
  const Graph g = ChungLuPowerLaw(400, 2400, 2.2, 31);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);

  ResAccOptions options;
  options.num_hops = 2;
  std::string expected_name = "ResAcc";
  if (variant == 1) {
    options.use_loop_accumulation = false;
    expected_name = "No-Loop-ResAcc";
  } else if (variant == 2) {
    options.use_hop_subgraph = false;
    expected_name = "No-SG-ResAcc";
  } else if (variant == 3) {
    options.use_omfwd = false;
    expected_name = "No-OFD-ResAcc";
  }
  ResAccSolver solver(g, config, options);
  EXPECT_EQ(solver.name(), expected_name);

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = solver.Query(source);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  EXPECT_LE(MaxRelativeErrorAboveDelta(estimate, exact, config.delta),
            config.epsilon);
}

INSTANTIATE_TEST_SUITE_P(Variants, ResAccAblationTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(ResAccSolverTest, DeterministicForSameSeed) {
  const Graph g = ErdosRenyi(200, 1000, 41);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccSolver a(g, config, {});
  ResAccSolver b(g, config, {});
  const std::vector<Score> ra = a.Query(0);
  const std::vector<Score> rb = b.Query(0);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra[i], rb[i]) << "node " << i;
  }
}

TEST(ResAccSolverTest, RepeatedQueriesAreIndependent) {
  // Workspace reuse across queries must not leak state.
  const Graph g = ErdosRenyi(200, 1000, 43);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccSolver solver(g, config, {});
  const std::vector<Score> first = solver.Query(0);
  solver.Query(5);  // interleave another source
  ResAccSolver fresh(g, config, {});
  const std::vector<Score> again = fresh.Query(0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_DOUBLE_EQ(first[i], again[i]) << "node " << i;
  }
}

TEST(ResAccSolverTest, StatsArePopulated) {
  const Graph g = ChungLuPowerLaw(500, 3000, 2.2, 51);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccSolver solver(g, config, {});
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  solver.Query(source);

  const ResAccQueryStats& stats = solver.last_stats();
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.hhop_seconds, 0.0);
  EXPECT_GT(stats.hhop.push.push_operations, 0u);
  EXPECT_GE(stats.hhop.rho, 0.0);
  EXPECT_LT(stats.hhop.rho, 1.0);
  EXPECT_GT(stats.hhop.hop_set_size, 0u);
  EXPECT_GT(stats.remedy.walks, 0u);
  // OMFWD further reduced the residue sum fed to the remedy phase.
  EXPECT_LE(stats.remedy.residue_sum, 1.0);
  EXPECT_DOUBLE_EQ(stats.remedy.residue_sum, stats.residue_sum_after_omfwd);
}

TEST(ResAccSolverTest, EffectiveRMaxFDefault) {
  // Sparse graph, dear walks: the priced threshold 1/(price * c *
  // walk_scale) is below the paper's 1/(10 m), which stays.
  const Graph sparse = ErdosRenyi(100, 500, 3);
  const RwrConfig config =
      AccuracyConfig(sparse.num_nodes(), DanglingPolicy::kBackToSource);
  const ResAccOptions defaults;
  const double sparse_paper =
      1.0 / (10.0 * static_cast<double>(sparse.num_edges()));
  ASSERT_LT(1.0 / (defaults.topk.profit_slack * config.WalkCountCoefficient() *
                   defaults.walk_scale),
            sparse_paper);
  EXPECT_EQ(ResAccSolver(sparse, config, defaults).effective_r_max_f(),
            sparse_paper);

  // Dense graph, cheap walks: a push below 1/(price * c * walk_scale)
  // costs more edges than the walk steps it saves, so that is the floor.
  const Graph dense = ErdosRenyi(100, 5000, 3);
  const double dense_paper =
      1.0 / (10.0 * static_cast<double>(dense.num_edges()));
  ResAccOptions cheap_walks;
  cheap_walks.walk_scale = 0.01;
  const double priced = 1.0 / (cheap_walks.topk.profit_slack *
                               config.WalkCountCoefficient() *
                               cheap_walks.walk_scale);
  ASSERT_GT(priced, dense_paper);
  EXPECT_EQ(ResAccSolver(dense, config, cheap_walks).effective_r_max_f(),
            priced);

  // An explicit threshold is used as given.
  ResAccOptions explicit_threshold = cheap_walks;
  explicit_threshold.r_max_f = 3e-7;
  EXPECT_EQ(
      ResAccSolver(dense, config, explicit_threshold).effective_r_max_f(),
      3e-7);

  // An infinite price never prices a push out: the paper's default, bit
  // for bit.
  ResAccOptions unpriced = cheap_walks;
  unpriced.topk.profit_slack = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ResAccSolver(dense, config, unpriced).effective_r_max_f(),
            dense_paper);

  // walk_scale 0 (no remedy) or a price <= 0 must not divide by zero.
  ResAccOptions no_walks = cheap_walks;
  no_walks.walk_scale = 0.0;
  ResAccOptions free_steps = cheap_walks;
  free_steps.topk.profit_slack = 0.0;
  ResAccOptions negative_price = cheap_walks;
  negative_price.topk.profit_slack = -4.0;
  negative_price.walk_scale = -1.0;
  for (const ResAccOptions& options : {no_walks, free_steps, negative_price}) {
    const Score r_max_f =
        ResAccSolver(dense, config, options).effective_r_max_f();
    EXPECT_TRUE(std::isfinite(r_max_f));
    EXPECT_EQ(r_max_f, dense_paper);
  }
}

TEST(OmfwdPriceTest, PushesPastTheSeedRoundNeverOutspendTheWalks) {
  // push-batch's regime on a smaller graph: dense rows, delta .01, cheap
  // walks. A push at v costs d(v) edges and removes alpha * r(v) residue,
  // i.e. r(v) * c * walk_scale remedy walk steps (Theorem 3). At the
  // default threshold OMFWD's conditional pushes, everything after its
  // unconditional seed round, must therefore cost at most `profit_slack`
  // edges per walk step they save. The phases are chained by hand; a
  // second run whose round hook stops at round 1 gives the seed round.
  const Graph graph = ChungLuPowerLaw(2000, 60000, 2.1, /*seed=*/7);
  ASSERT_EQ(graph.num_edges(), 54655u);
  RwrConfig config;
  config.alpha = 0.15;
  config.epsilon = 0.5;
  config.delta = 0.01;
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  ResAccOptions options;
  options.num_hops = 1;
  options.walk_scale = 1.0;
  const Score r_max_f =
      ResAccSolver(graph, config, options).effective_r_max_f();
  const double steps_per_mass =
      config.WalkCountCoefficient() * options.walk_scale / config.alpha;

  const PushRoundHook stop_at_round_one = [](std::size_t round) {
    return round >= 1;
  };
  const auto omfwd = [&](NodeId source, const PushRoundHook* hook,
                         PushState& state) {
    HHopFwdOptions hhop;
    hhop.r_max_hop = options.r_max_hop;
    hhop.num_hops = options.num_hops;
    hhop.max_hop_set_fraction = options.max_hop_set_fraction;
    HopLayers layers;
    RunHHopFwd(graph, config, source, hhop, state, &layers);
    EXPECT_FALSE(layers.layers.empty());
    return RunOmfwd(graph, config, source, r_max_f, layers.layers.back(),
                    state, nullptr, hook);
  };

  std::size_t sources = 0;
  std::uint64_t past_seed_total = 0;
  for (NodeId source = 11; sources < 8; source += 241) {
    if (graph.OutDegree(source) == 0) continue;
    ++sources;
    SCOPED_TRACE(::testing::Message() << "source=" << source);
    PushState seed_round(graph.num_nodes());
    PushState drained(graph.num_nodes());
    const PushStats seed = omfwd(source, &stop_at_round_one, seed_round);
    const PushStats all = omfwd(source, nullptr, drained);
    ASSERT_GE(all.edge_traversals, seed.edge_traversals);
    const std::uint64_t past_seed = all.edge_traversals - seed.edge_traversals;
    const double saved_steps =
        (seed_round.ResidueSum() - drained.ResidueSum()) * steps_per_mass;
    EXPECT_LE(static_cast<double>(past_seed),
              options.topk.profit_slack * saved_steps);
    past_seed_total += past_seed;
  }
  // Not vacuous: the priced threshold still lets some pushes through.
  EXPECT_GT(past_seed_total, 0u);
}

TEST(ResAccSolverTest, QueryManyMatchesIndividualQueries) {
  const Graph g = ErdosRenyi(150, 900, 13);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccSolver solver(g, config, {});
  const std::vector<NodeId> sources = {1, 5, 9};
  const auto many = solver.QueryMany(sources);
  ASSERT_EQ(many.size(), 3u);

  ResAccSolver fresh(g, config, {});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::vector<Score> single = fresh.Query(sources[i]);
    for (std::size_t v = 0; v < single.size(); ++v) {
      ASSERT_DOUBLE_EQ(many[i][v], single[v]);
    }
  }
}

TEST(ResAccSolverTest, WalkScaleZeroSkipsRemedy) {
  const Graph g = ErdosRenyi(200, 1200, 15);
  const RwrConfig config =
      AccuracyConfig(g.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccOptions options;
  options.walk_scale = 1e-12;  // effectively no walks beyond one per node
  ResAccSolver solver(g, config, options);
  const std::vector<Score> scores = solver.Query(0);
  // Still a valid distribution (remedy deposits whole residues).
  Score total = 0.0;
  for (Score s : scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace resacc
