#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/monte_carlo.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/random_walk.h"
#include "resacc/core/remedy.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_builder.h"
#include "resacc/util/cancellation.h"
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

// Slices spanning several scheduling blocks per slice plus a sub-block
// remainder — the shapes where merge order and RNG forking could diverge.
std::vector<WalkSlice> MultiBlockSlices(const Graph& g) {
  std::vector<WalkSlice> slices;
  const std::uint64_t walks[] = {3 * WalkEngine::kBlockWalks + 17,
                                 WalkEngine::kBlockWalks,
                                 WalkEngine::kBlockWalks - 1, 5};
  NodeId start = 0;
  for (std::uint64_t w : walks) {
    slices.push_back(WalkSlice{start, w, 1.0 / static_cast<Score>(w),
                               /*stream=*/start});
    start = (start + 7) % g.num_nodes();
  }
  return slices;
}

// The determinism contract (walk_engine.h): bit-identical scores for every
// thread count, including the sequential path.
TEST(WalkEngineTest, BitIdenticalAcrossThreadCounts) {
  const Graph g = ErdosRenyi(300, 1800, 11);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  const std::vector<WalkSlice> slices = MultiBlockSlices(g);
  const Rng root(12345);

  std::vector<Score> reference(g.num_nodes(), 0.0);
  WalkEngine sequential(1);
  const WalkEngineStats ref_stats =
      sequential.Run(g, config, 0, root, slices, reference);
  EXPECT_GT(ref_stats.walks, 0u);
  EXPECT_GT(ref_stats.blocks, 4u);

  for (std::size_t threads : {2u, 8u}) {
    std::vector<Score> scores(g.num_nodes(), 0.0);
    WalkEngine engine(threads);
    const WalkEngineStats stats =
        engine.Run(g, config, 0, root, slices, scores);
    EXPECT_EQ(stats.walks, ref_stats.walks);
    EXPECT_EQ(stats.steps, ref_stats.steps);
    EXPECT_EQ(stats.blocks, ref_stats.blocks);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(scores[v], reference[v])
          << "threads=" << threads << " node " << v;
    }
  }
}

// Repeated Run calls on one engine instance must not leak workspace state
// between calls.
TEST(WalkEngineTest, ReusedEngineReproducesItself) {
  const Graph g = ErdosRenyi(300, 1800, 11);
  const RwrConfig config = TestConfig(DanglingPolicy::kBackToSource);
  const std::vector<WalkSlice> slices = MultiBlockSlices(g);
  const Rng root(99);

  WalkEngine engine(4);
  std::vector<Score> first(g.num_nodes(), 0.0);
  engine.Run(g, config, 0, root, slices, first);
  std::vector<Score> second(g.num_nodes(), 0.0);
  engine.Run(g, config, 0, root, slices, second);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(first[v], second[v]) << "node " << v;
  }
}

// A slice's walks are keyed by its stream, not its position, so reordering
// slices leaves every trajectory unchanged — only the order in which block
// partials are folded into `scores` moves, which perturbs sums by rounding
// alone. (Bit-exactness is promised for a fixed slice list — and per query
// the list IS fixed, since PushState's touch order is deterministic.)
TEST(WalkEngineTest, SliceOrderOnlyPerturbsRounding) {
  const Graph g = ErdosRenyi(300, 1800, 11);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  std::vector<WalkSlice> slices = MultiBlockSlices(g);
  const Rng root(7);

  std::vector<Score> forward(g.num_nodes(), 0.0);
  WalkEngine(2).Run(g, config, 0, root, slices, forward);

  std::reverse(slices.begin(), slices.end());
  std::vector<Score> reversed(g.num_nodes(), 0.0);
  WalkEngine(2).Run(g, config, 0, root, slices, reversed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NEAR(forward[v], reversed[v], 1e-12) << "node " << v;
  }
}

// Remedy through the engine: same bit-identity, at the RunRemedy level the
// serve layer actually depends on.
TEST(WalkEngineTest, RemedyBitIdenticalAcrossThreadCounts) {
  const Graph g = ErdosRenyi(200, 1000, 3);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1.0 / 200.0;
  config.p_f = 1e-6;
  config.epsilon = 0.5;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-3, seeds, false, state);
  ASSERT_GT(state.ResidueSum(), 0.0);

  auto run = [&](std::size_t threads) {
    std::vector<Score> scores(g.num_nodes(), 0.0);
    for (NodeId v : state.touched()) scores[v] = state.reserve(v);
    Rng rng(31);  // fresh rng per run: identical walk_root each time
    WalkEngine engine(threads);
    RunRemedy(g, config, 0, state, rng, scores, 1.0, 0.0, &engine);
    return scores;
  };

  const std::vector<Score> reference = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const std::vector<Score> scores = run(threads);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(scores[v], reference[v])
          << "threads=" << threads << " node " << v;
    }
  }
}

// Solver-level determinism across walk_threads AND query order: two solvers
// differing only in walk_threads, querying sources in opposite orders, must
// agree bitwise on every source.
TEST(WalkEngineTest, SolverQueriesAgreeAcrossThreadsAndQueryOrder) {
  const Graph g = ErdosRenyi(400, 2400, 17);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1.0 / 400.0;
  config.p_f = 1e-6;
  config.epsilon = 0.5;

  ResAccOptions sequential_options;
  sequential_options.walk_threads = 1;
  ResAccOptions parallel_options;
  parallel_options.walk_threads = 8;

  const NodeId sources[] = {NodeId{5}, NodeId{123}, NodeId{77}};
  ResAccSolver sequential(g, config, sequential_options);
  ResAccSolver parallel(g, config, parallel_options);

  std::vector<std::vector<Score>> forward;
  for (NodeId s : sources) forward.push_back(sequential.Query(s));
  // Opposite order on the parallel solver.
  std::vector<std::vector<Score>> backward(3);
  for (int i = 2; i >= 0; --i) backward[i] = parallel.Query(sources[i]);

  for (int i = 0; i < 3; ++i) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(forward[i][v], backward[i][v])
          << "source " << sources[i] << " node " << v;
    }
  }
}

TEST(WalkEngineTest, MonteCarloBitIdenticalAcrossThreadCounts) {
  const Graph g = ErdosRenyi(200, 1200, 23);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1.0 / 200.0;
  config.p_f = 1e-4;

  MonteCarlo sequential(g, config, /*walk_scale=*/0.05, /*walk_threads=*/1);
  MonteCarlo parallel(g, config, /*walk_scale=*/0.05, /*walk_threads=*/4);
  const std::vector<Score> a = sequential.Query(9);
  const std::vector<Score> b = parallel.Query(9);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a[v], b[v]) << "node " << v;
  }
}

// The engine redistributes exactly the sliced mass (sum of
// num_walks * weight), parallel path included.
TEST(WalkEngineTest, ConservesSlicedMass) {
  const Graph g = testing::CycleGraph(32);  // no sinks: nothing absorbed
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  const std::vector<WalkSlice> slices = MultiBlockSlices(g);
  double expected = 0.0;
  for (const WalkSlice& s : slices) {
    expected += static_cast<double>(s.num_walks) * s.weight;
  }

  std::vector<Score> scores(g.num_nodes(), 0.0);
  WalkEngine(4).Run(g, config, 0, Rng(5), slices, scores);
  Score total = 0.0;
  for (Score s : scores) total += s;
  EXPECT_NEAR(total, expected, 1e-9);
}

// --- Geometric length sampling (satellite d) ------------------------------

class GeometricWalkTest : public ::testing::TestWithParam<DanglingPolicy> {};

// The geometric-length walk must reproduce the per-step engine's terminal
// distribution — Figure 1's graph has a sink, so this exercises the
// dangling handling of both policies inside the pre-sampled loop.
TEST_P(GeometricWalkTest, TerminalDistributionMatchesPerStepEngine) {
  const DanglingPolicy policy = GetParam();
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(policy);
  const double inv_log1m_alpha = InvLogOneMinusAlpha(config.alpha);

  const int walks = 400000;
  Rng step_rng(config.seed);
  Rng geo_rng(config.seed + 1);
  WalkStats step_stats;
  WalkStats geo_stats;
  std::vector<double> step_freq(g.num_nodes(), 0.0);
  std::vector<double> geo_freq(g.num_nodes(), 0.0);
  for (int i = 0; i < walks; ++i) {
    ++step_freq[RandomWalkTerminal(g, config, 0, 0, step_rng, step_stats)];
    ++geo_freq[RandomWalkTerminalGeometric(g, config, 0, 0, inv_log1m_alpha,
                                           geo_rng, geo_stats)];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(geo_freq[v] / walks, step_freq[v] / walks, 0.005)
        << "node " << v;
  }
  // Same walk-length law => same mean step count.
  EXPECT_NEAR(static_cast<double>(geo_stats.steps) / walks,
              static_cast<double>(step_stats.steps) / walks, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Policies, GeometricWalkTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

TEST(GeometricWalkTest, LengthMatchesGeometricLaw) {
  const double alpha = 0.2;
  const double inv = InvLogOneMinusAlpha(alpha);
  Rng rng(42);
  const int draws = 500000;
  double mean = 0.0;
  std::uint64_t zeros = 0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t len = GeometricWalkLength(rng, inv);
    mean += static_cast<double>(len);
    zeros += len == 0 ? 1 : 0;
  }
  mean /= draws;
  // E[L] = (1-alpha)/alpha = 4; P(L = 0) = alpha.
  EXPECT_NEAR(mean, (1.0 - alpha) / alpha, 0.05);
  EXPECT_NEAR(static_cast<double>(zeros) / draws, alpha, 0.005);
}

// --- Time budget (satellite a) --------------------------------------------

// Regression for the remedy budget bug: the clock used to be checked only
// between residual nodes, so ONE huge-residue node ran its full walk count
// regardless of the budget. The engine checks every block (<= kBlockWalks
// walks), so even a single-slice remedy must stop early.
TEST(WalkEngineTest, BudgetStopsInsideSingleResidualNode) {
  const Graph g = ErdosRenyi(500, 2500, 5);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1e-7;  // enormous walk demand
  config.p_f = 1e-9;

  // No push at all: the entire residue sits on one node.
  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  ASSERT_EQ(state.touched().size(), 1u);

  std::vector<Score> scores(g.num_nodes(), 0.0);
  Rng rng(2);
  WalkEngine engine(1);
  const RemedyStats stats =
      RunRemedy(g, config, 0, state, rng, scores, 1.0,
                /*time_budget_seconds=*/1e-9, &engine);
  EXPECT_TRUE(stats.budget_exhausted);
  // Far short of the target: at most a few blocks can slip through before
  // the first post-block check fires.
  EXPECT_LT(static_cast<double>(stats.walks), stats.target_walks / 2.0);
}

TEST(WalkEngineTest, BudgetStopsParallelRuns) {
  const Graph g = ErdosRenyi(500, 2500, 5);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.delta = 1e-7;
  config.p_f = 1e-9;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  std::vector<Score> scores(g.num_nodes(), 0.0);
  Rng rng(2);
  WalkEngine engine(4);
  const RemedyStats stats =
      RunRemedy(g, config, 0, state, rng, scores, 1.0,
                /*time_budget_seconds=*/1e-9, &engine);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LT(static_cast<double>(stats.walks), stats.target_walks / 2.0);
}

// --- Oracle: the engine against walks run one at a time -------------------

// The engine's schedule restated without any of its machinery: slices cut
// into blocks of at most kBlockWalks walks, block b of a slice drawing from
// root.Fork(stream).Fork(b); each block's walks run one after another and
// summed in walk order; block partials folded into `scores` in block order.
// Thread-count comparisons alone would pass an interleaving bug shared by
// every path; this reference cannot share one.
struct OracleBlock {
  std::size_t slice = 0;
  std::uint64_t walks = 0;
  std::uint64_t ordinal = 0;
};

std::vector<OracleBlock> OracleBlocks(std::span<const WalkSlice> slices) {
  std::vector<OracleBlock> blocks;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    std::uint64_t ordinal = 0;
    for (std::uint64_t done = 0; done < slices[i].num_walks; ++ordinal) {
      const std::uint64_t walks = std::min(slices[i].num_walks - done,
                                           WalkEngine::kBlockWalks);
      blocks.push_back(OracleBlock{i, walks, ordinal});
      done += walks;
    }
  }
  return blocks;
}

struct OracleRun {
  std::vector<Score> scores;
  WalkStats stats;
};

// Folds the first `num_blocks` blocks (default: all) into `scores`.
OracleRun RunOracle(const Graph& g, const RwrConfig& config,
                    NodeId restart_node, const Rng& root,
                    std::span<const WalkSlice> slices,
                    std::vector<Score> scores,
                    std::size_t num_blocks =
                        std::numeric_limits<std::size_t>::max()) {
  const std::vector<OracleBlock> blocks = OracleBlocks(slices);
  const double inv_log1m_alpha = InvLogOneMinusAlpha(config.alpha);
  OracleRun run;
  std::vector<Score> partial(g.num_nodes(), 0.0);
  for (std::size_t b = 0; b < std::min(num_blocks, blocks.size()); ++b) {
    const WalkSlice& slice = slices[blocks[b].slice];
    Rng rng = root.Fork(slice.stream).Fork(blocks[b].ordinal);
    for (std::uint64_t i = 0; i < blocks[b].walks; ++i) {
      partial[RandomWalkTerminalGeometric(g, config, restart_node,
                                          slice.start, inv_log1m_alpha, rng,
                                          run.stats)] += slice.weight;
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (partial[v] == 0.0) continue;  // untouched by this block
      scores[v] += partial[v];
      partial[v] = 0.0;
    }
  }
  run.scores = std::move(scores);
  return run;
}

// A random digraph in which every fifth node is a sink, so both dangling
// policies take their sink branch often.
Graph SinkyGraph() {
  constexpr NodeId kNodes = 60;
  GraphBuilder builder(kNodes);
  Rng rng(8);
  for (NodeId u = 0; u < kNodes; ++u) {
    if (u % 5 == 0) continue;
    for (int e = 0; e < 4; ++e) builder.AddEdge(u, rng.NextBounded32(kNodes));
  }
  return std::move(builder).Build();
}

// Every slice shape the schedule must get right: one slice of
// 3 * kBlockWalks + 1 walks, 1-walk slices, slices starting at sinks, far
// more slices than any engine keeps in flight, and more walks in all
// (about 82 full blocks' worth) than the engine's reorder window holds at
// four walk threads, so the window fills and its space is reused.
std::vector<WalkSlice> OracleSlices(const Graph& g) {
  std::vector<WalkSlice> slices;
  slices.push_back(WalkSlice{3, 3 * WalkEngine::kBlockWalks + 1,
                             0.3 / (3 * WalkEngine::kBlockWalks + 1),
                             /*stream=*/3});
  slices.push_back(WalkSlice{11, 32 * WalkEngine::kBlockWalks, 1e-6,
                             /*stream=*/11});
  for (std::uint64_t i = 0; i < 1500; ++i) {
    const std::uint64_t walks = i % 3 == 0 ? 1 : 1 + i % 397;
    slices.push_back(WalkSlice{
        static_cast<NodeId>((i * 7) % g.num_nodes()), walks,
        static_cast<Score>(1 + i % 13) / (977.0 * static_cast<Score>(walks)),
        /*stream=*/1000 + i});
  }
  return slices;
}

// Nonzero starting scores, as remedy's reserves are.
std::vector<Score> InitialScores(const Graph& g) {
  std::vector<Score> scores(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); v += 3) scores[v] = 1.0 / (v + 3);
  return scores;
}

void ExpectSameScores(const std::vector<Score>& actual,
                      const std::vector<Score>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << "node " << v;
  }
}

constexpr NodeId kOracleRestart = 7;

class WalkEngineOracleTest
    : public ::testing::TestWithParam<std::tuple<DanglingPolicy, double>> {};

TEST_P(WalkEngineOracleTest, RunEqualsWalksRunOneAtATime) {
  const Graph g = SinkyGraph();
  RwrConfig config = TestConfig(std::get<0>(GetParam()));
  config.alpha = std::get<1>(GetParam());
  const std::vector<WalkSlice> slices = OracleSlices(g);
  const Rng root(4242);
  const OracleRun oracle = RunOracle(g, config, kOracleRestart, root, slices,
                                     InitialScores(g));
  if (config.alpha > 0.99) {
    // Most walks have length zero and end where they start.
    EXPECT_LT(oracle.stats.steps, oracle.stats.walks / 10);
  }

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "walk_threads=" << threads);
    std::vector<Score> scores = InitialScores(g);
    WalkEngine engine(threads);
    const WalkEngineStats stats =
        engine.Run(g, config, kOracleRestart, root, slices, scores);
    EXPECT_EQ(stats.walks, oracle.stats.walks);
    EXPECT_EQ(stats.steps, oracle.stats.steps);
    EXPECT_EQ(stats.blocks, OracleBlocks(slices).size());
    EXPECT_EQ(stats.skipped_mass, 0.0);
    ExpectSameScores(scores, oracle.scores);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndAlphas, WalkEngineOracleTest,
    ::testing::Combine(::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource),
                       ::testing::Values(0.2, 0.999)));

// A run stopped before its first block walks nothing and reports every
// block's mass as skipped.
TEST(WalkEngineStopTest, PreCancelledRunWalksNothing) {
  const Graph g = SinkyGraph();
  const RwrConfig config = TestConfig(DanglingPolicy::kBackToSource);
  const std::vector<WalkSlice> slices = OracleSlices(g);
  Score mass = 0.0;
  for (const WalkSlice& s : slices) {
    mass += static_cast<Score>(s.num_walks) * s.weight;
  }
  CancellationToken token;
  token.Cancel();

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "walk_threads=" << threads);
    std::vector<Score> scores = InitialScores(g);
    const WalkEngineStats stats =
        WalkEngine(threads).Run(g, config, kOracleRestart, Rng(1), slices,
                                scores, /*time_budget_seconds=*/0.0, &token);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.walks, 0u);
    EXPECT_EQ(stats.steps, 0u);
    EXPECT_NEAR(stats.skipped_mass, mass, 1e-12 * mass);
    ExpectSameScores(scores, InitialScores(g));
  }
}

// A budget stop merges whole blocks only, and (sequentially) a prefix of
// them: the walk count is some first j blocks' and the scores are the
// oracle's fold of exactly those j blocks.
TEST(WalkEngineStopTest, BudgetStopMergesAPrefixOfWholeBlocks) {
  const Graph g = ErdosRenyi(2000, 16000, 5);
  RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  config.alpha = 0.15;
  std::vector<WalkSlice> slices;
  for (NodeId i = 0; i < 16; ++i) {
    slices.push_back(WalkSlice{i * 31, 4 * WalkEngine::kBlockWalks - i,
                               1.0 / (977.0 + i), /*stream=*/i * 31});
  }
  const std::vector<OracleBlock> blocks = OracleBlocks(slices);
  const Rng root(77);

  std::vector<Score> scores = InitialScores(g);
  const WalkEngineStats stats =
      WalkEngine(1).Run(g, config, 0, root, slices, scores,
                        /*time_budget_seconds=*/5e-3);
  ASSERT_TRUE(stats.budget_exhausted);

  std::size_t j = 0;
  std::uint64_t prefix_walks = 0;
  while (j < blocks.size() && prefix_walks < stats.walks) {
    prefix_walks += blocks[j++].walks;
  }
  ASSERT_EQ(prefix_walks, stats.walks) << "not a whole-block prefix";
  ASSERT_LT(j, blocks.size());
  Score skipped = 0.0;
  for (std::size_t b = j; b < blocks.size(); ++b) {
    skipped += static_cast<Score>(blocks[b].walks) *
               slices[blocks[b].slice].weight;
  }
  EXPECT_NEAR(stats.skipped_mass, skipped, 1e-12 * skipped);

  const OracleRun oracle =
      RunOracle(g, config, 0, root, slices, InitialScores(g), j);
  EXPECT_EQ(stats.steps, oracle.stats.steps);
  ExpectSameScores(scores, oracle.scores);
}

}  // namespace
}  // namespace resacc
