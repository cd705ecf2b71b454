// Tests of the benchmark-only BatchSolver adapter (batch_solver.h), which
// perfbench's traced batch replay drives: every lane answers exactly as
// ResAccSolver does, and a lane whose token fires stops alone.

#include "resacc/core/batch_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "resacc/core/resacc_solver.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

// Exact (bitwise) equality, element by element: each lane is a serial
// solve, so no tolerance is allowed.
void ExpectBitIdentical(const std::vector<Score>& serial,
                        const std::vector<Score>& batched,
                        const char* label) {
  ASSERT_EQ(serial.size(), batched.size()) << label;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], batched[i])
        << label << ": node " << i << " differs";
  }
}

std::vector<NodeId> PickSources(const Graph& graph, std::size_t count) {
  std::vector<NodeId> sources;
  const NodeId stride = std::max<NodeId>(1, graph.num_nodes() / 17);
  NodeId v = 1;
  while (sources.size() < count) {
    sources.push_back(v % graph.num_nodes());
    v += stride;
  }
  return sources;
}

RwrConfig TestConfig(NodeId num_nodes, DanglingPolicy dangling) {
  // delta well above 1/n keeps the remedy walk counts small enough for a
  // multi-size sweep while still exercising every phase.
  RwrConfig config;
  config.delta = 1e-3;
  config.p_f = 1e-3;
  config.dangling = dangling;
  config.seed = 0x7357 + num_nodes;
  return config;
}

TEST(BatchSolverTest, AblationsMatchSerial) {
  // The ablation pipelines exercise the No-SG whole-graph accumulating
  // phase and the no-loop seed path.
  const Graph graph = ChungLuPowerLaw(1000, 5000, 2.5, /*seed=*/5);
  const RwrConfig config =
      TestConfig(graph.num_nodes(), DanglingPolicy::kBackToSource);
  const std::vector<NodeId> sources = PickSources(graph, 8);

  for (int ablation = 0; ablation < 3; ++ablation) {
    ResAccOptions options;
    options.walk_scale = 0.2;
    if (ablation == 0) options.use_loop_accumulation = false;
    if (ablation == 1) options.use_hop_subgraph = false;
    if (ablation == 2) options.use_omfwd = false;
    ResAccSolver serial(graph, config, options);
    BatchSolver batch(graph, config, options);
    std::vector<BatchLane> lanes;
    for (NodeId s : sources) lanes.push_back(BatchLane{s, nullptr});
    const auto got = batch.QueryBatch(lanes);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "ablation=" << ablation << " source=" << sources[i]);
      const auto expected =
          serial.QueryControlled(sources[i], QueryControl{});
      ExpectBitIdentical(expected.scores, got[i].scores, "ablation");
    }
  }
}

TEST(BatchSolverTest, HubSourcesTakeAdaptiveHopPath) {
  // A star hub's 1-hop set is the whole graph, so the adaptive cap kicks
  // in (effective_hops shrinks) — each lane must make the serial shrink
  // decision.
  const Graph graph = testing::StarGraph(600);
  const RwrConfig config =
      TestConfig(graph.num_nodes(), DanglingPolicy::kAbsorb);
  ResAccOptions options;
  options.walk_scale = 0.2;
  ResAccSolver serial(graph, config, options);
  BatchSolver batch(graph, config, options);

  const std::vector<NodeId> sources = {0, 1, 300, 599};  // hub + leaves
  std::vector<BatchLane> lanes;
  for (NodeId s : sources) lanes.push_back(BatchLane{s, nullptr});
  const auto got = batch.QueryBatch(lanes);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto expected = serial.QueryControlled(sources[i], QueryControl{});
    ExpectBitIdentical(expected.scores, got[i].scores, "hub");
  }
}

TEST(BatchSolverTest, DuplicateSourcesProduceIdenticalLanes) {
  const Graph graph = ChungLuPowerLaw(500, 2500, 2.5, /*seed=*/3);
  const RwrConfig config =
      TestConfig(graph.num_nodes(), DanglingPolicy::kAbsorb);
  ResAccOptions options;
  options.walk_scale = 0.2;
  BatchSolver batch(graph, config, options);
  const std::vector<BatchLane> lanes = {
      {7, nullptr}, {7, nullptr}, {123, nullptr}, {7, nullptr}};
  const auto got = batch.QueryBatch(lanes);
  ExpectBitIdentical(got[0].scores, got[1].scores, "dup");
  ExpectBitIdentical(got[0].scores, got[3].scores, "dup");
}

TEST(BatchSolverTest, RepeatedBatchesAreReproducible) {
  // Workspace reuse across QueryBatch calls must not leak state, and the
  // rng must not advance (same contract as the serial solvers).
  const Graph graph = ChungLuPowerLaw(800, 4000, 2.5, /*seed=*/21);
  const RwrConfig config =
      TestConfig(graph.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccOptions options;
  options.walk_scale = 0.2;
  BatchSolver batch(graph, config, options);
  const std::vector<BatchLane> lanes = {
      {1, nullptr}, {50, nullptr}, {200, nullptr}};
  const auto first = batch.QueryBatch(lanes);
  // A different-size batch in between must not disturb the repeat.
  const std::vector<BatchLane> other = {{3, nullptr}};
  (void)batch.QueryBatch(other);
  const auto second = batch.QueryBatch(lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ExpectBitIdentical(first[i].scores, second[i].scores, "repeat");
  }
}

TEST(BatchSolverTest, PreCancelledLaneDetachesWithoutPerturbingOthers) {
  const Graph graph = ChungLuPowerLaw(1000, 6000, 2.5, /*seed=*/13);
  const RwrConfig config =
      TestConfig(graph.num_nodes(), DanglingPolicy::kBackToSource);
  ResAccOptions options;
  options.walk_scale = 0.2;
  ResAccSolver serial(graph, config, options);
  BatchSolver batch(graph, config, options);

  CancellationToken cancelled;
  cancelled.Cancel();
  const std::vector<BatchLane> lanes = {
      {5, nullptr}, {77, &cancelled}, {300, nullptr}, {450, nullptr}};
  const auto got = batch.QueryBatch(lanes);

  // The detached lane reports the serial dead-on-arrival contract: zero
  // scores, the whole unit of mass uncorrected, honest epsilon tag.
  EXPECT_FALSE(got[1].status.ok());
  EXPECT_TRUE(got[1].degraded);
  EXPECT_DOUBLE_EQ(got[1].uncorrected_mass, 1.0);
  EXPECT_DOUBLE_EQ(got[1].achieved_epsilon,
                   config.epsilon + 1.0 / config.delta);
  for (Score s : got[1].scores) EXPECT_EQ(s, 0.0);

  // Survivors are bit-identical to serial.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    const auto expected =
        serial.QueryControlled(lanes[i].source, QueryControl{});
    EXPECT_TRUE(got[i].status.ok());
    ExpectBitIdentical(expected.scores, got[i].scores, "survivor");
  }
}

TEST(BatchSolverTest, MidBatchDeadlineDetachesOnlyThatLane) {
  // A deadline that fires mid-run detaches its lane at an unpredictable
  // point; whatever the timing, the survivors must stay bit-identical and
  // the detached lane must carry an honest epsilon tag.
  const Graph graph = ChungLuPowerLaw(20000, 120000, 2.2, /*seed=*/29);
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kBackToSource;
  config.seed = 99;
  ResAccOptions options;
  options.walk_scale = 0.05;
  ResAccSolver serial(graph, config, options);
  BatchSolver batch(graph, config, options);

  CancellationToken deadline = CancellationToken::WithDeadline(1e-4);
  const std::vector<BatchLane> lanes = {
      {11, nullptr}, {2222, &deadline}, {3333, nullptr}, {4444, nullptr}};
  const auto got = batch.QueryBatch(lanes);

  if (!got[1].status.ok()) {
    EXPECT_TRUE(got[1].degraded);
    EXPECT_GT(got[1].achieved_epsilon, config.epsilon);
    EXPECT_GT(got[1].uncorrected_mass, 0.0);
  }
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    const auto expected =
        serial.QueryControlled(lanes[i].source, QueryControl{});
    EXPECT_TRUE(got[i].status.ok());
    ExpectBitIdentical(expected.scores, got[i].scores, "deadline-survivor");
  }
}

TEST(BatchSolverTest, MidBatchExplicitCancelFromAnotherThread) {
  const Graph graph = ChungLuPowerLaw(20000, 120000, 2.2, /*seed=*/31);
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 17;
  ResAccOptions options;
  options.walk_scale = 0.05;
  ResAccSolver serial(graph, config, options);
  BatchSolver batch(graph, config, options);

  CancellationToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel();
  });
  const std::vector<BatchLane> lanes = {
      {100, nullptr}, {5000, &token}, {9000, nullptr}};
  const auto got = batch.QueryBatch(lanes);
  canceller.join();

  // Lane 1 was cancelled at some point (possibly after completion); lanes
  // 0 and 2 must be exact regardless.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const auto expected =
        serial.QueryControlled(lanes[i].source, QueryControl{});
    EXPECT_TRUE(got[i].status.ok());
    ExpectBitIdentical(expected.scores, got[i].scores, "cancel-survivor");
  }
}

TEST(BatchSolverTest, SmallFixtureGraphsCoverDanglingAndLoops) {
  // Figure-1 (sink node) and Figure-3 (3-cycle, pure looping) graphs:
  // tiny shapes where dangling handling and loop accumulation dominate.
  for (const Graph& graph :
       {testing::Figure1Graph(), testing::Figure3Graph()}) {
    for (DanglingPolicy dangling :
         {DanglingPolicy::kAbsorb, DanglingPolicy::kBackToSource}) {
      RwrConfig config;
      config.delta = 0.05;
      config.p_f = 0.05;
      config.dangling = dangling;
      ResAccOptions options;
      ResAccSolver serial(graph, config, options);
      BatchSolver batch(graph, config, options);
      std::vector<BatchLane> lanes;
      for (NodeId s = 0; s < graph.num_nodes(); ++s) {
        lanes.push_back(BatchLane{s, nullptr});
      }
      const auto got = batch.QueryBatch(lanes);
      for (NodeId s = 0; s < graph.num_nodes(); ++s) {
        const auto expected = serial.QueryControlled(s, QueryControl{});
        ExpectBitIdentical(expected.scores, got[s].scores, "fixture");
      }
    }
  }
}

}  // namespace
}  // namespace resacc
