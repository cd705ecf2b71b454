// Replay oracle of the ResAcc pipeline: chains the phase kernels directly
// (RunHHopFwd -> RunOmfwd -> RunRemedy / SolveTopKFromState /
// RunDenseFinish, in the order perfbench's kernel replay uses) and requires
// ResAccSolver's answers to be bit-identical to the chain, so a change to
// the solver's phase order or finish shows here before it fails perfbench's
// traced replay. It covers full and top-k answers, local and dense (hybrid
// star hub) sources, and a query that is cancelled before it starts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/omfwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/core/remedy.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/topk_solve.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/rng.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

// One query of a case: a source, 0 (full vector) or k > 0 (top-k), and
// whether its token is cancelled before the query starts.
struct OracleQuery {
  NodeId source = 0;
  std::size_t top_k = 0;
  bool cancelled = false;
};

// A full answer (scores + Definition-1 tags) or a top-k answer.
struct Answer {
  Status status;
  std::vector<Score> scores;
  TopKResult topk;
  bool degraded = false;
  Score uncorrected_mass = 0.0;
  double achieved_epsilon = 0.0;
};

// The pipeline written out kernel by kernel, sharing no code with the
// solvers' own set-up or finish.
Answer ReplayChain(const Graph& graph, const RwrConfig& config,
                   const ResAccOptions& options, const OracleQuery& query) {
  // OMFWD's default threshold, restated (DESIGN.md "Priced OMFWD
  // threshold"): the paper's 1/(10 m), raised to 1/(price * c *
  // walk_scale) where a push saves fewer walk steps than it costs edges.
  Score r_max_f = options.r_max_f;
  if (!(r_max_f > 0.0)) {
    r_max_f = 1.0 / (10.0 * static_cast<Score>(graph.num_edges()));
    const double price = options.topk.profit_slack;
    if (price > 0.0 && options.walk_scale > 0.0) {
      const double priced = 1.0 / (price * config.WalkCountCoefficient() *
                                   options.walk_scale);
      r_max_f = std::max(r_max_f, priced);
    }
  }
  const bool hybrid = options.hybrid.enable && options.use_hop_subgraph;
  PushState state(graph.num_nodes());
  WalkEngine engine(1);
  Rng rng = Rng(config.seed).Fork(query.source);
  Answer answer;

  if (query.cancelled) {
    // Nothing ran: the whole unit of mass still sits on the source.
    CancellationToken token;
    token.Cancel();
    answer.status = token.StopStatus();
    if (query.top_k > 0) {
      state.SetResidue(query.source, 1.0);
      answer.topk = SolveTopKFromState(
          graph, config, query.source, query.top_k, r_max_f,
          options.walk_scale, options.topk, state, rng, &engine, nullptr,
          answer.status);
    } else {
      answer.scores.assign(graph.num_nodes(), 0.0);
      answer.degraded = true;
      answer.uncorrected_mass = 1.0;
      answer.achieved_epsilon = config.epsilon + 1.0 / config.delta;
    }
    return answer;
  }

  SolverPath path = SolverPath::kLocal;
  HHopFwdOptions hhop;
  hhop.r_max_hop = options.r_max_hop;
  hhop.num_hops = options.num_hops;
  hhop.use_loop_accumulation = options.use_loop_accumulation;
  hhop.use_hop_subgraph = options.use_hop_subgraph;
  hhop.max_hop_set_fraction = options.max_hop_set_fraction;
  if (hybrid) {
    hhop.dense_probe = [&](const HHopFwdStats& s) {
      path = ChooseFromHopStats(graph, config, options.hybrid, hhop.r_max_hop,
                                s.shrink_floored,
                                static_cast<double>(s.hop_set_edges));
      return path != SolverPath::kLocal;
    };
  }
  HopLayers layers;
  RunHHopFwd(graph, config, query.source, hhop, state, &layers);

  if (path == SolverPath::kLocal && !layers.layers.empty()) {
    PushRoundHook round_hook = [&](std::size_t) {
      if (!DenseBeatsRemedy(graph, config, options.hybrid, state.ResidueSum(),
                            options.walk_scale)) {
        return false;
      }
      path = SolverPath::kDenseResidueMass;
      return true;
    };
    RunOmfwd(graph, config, query.source, r_max_f, layers.layers.back(),
             state, nullptr, hybrid ? &round_hook : nullptr);
  }

  if (path != SolverPath::kLocal) {
    DenseFinish dense = RunDenseFinish(graph, config, query.source, state,
                                       options.hybrid, nullptr);
    if (query.top_k > 0) {
      answer.topk = MakeApproximateTopK(dense.scores, query.top_k,
                                        dense.achieved_epsilon, dense.degraded,
                                        dense.uncorrected_mass);
    } else {
      answer.scores = std::move(dense.scores);
      answer.degraded = dense.degraded;
      answer.uncorrected_mass = dense.uncorrected_mass;
      answer.achieved_epsilon = dense.achieved_epsilon;
    }
  } else if (query.top_k > 0) {
    answer.topk = SolveTopKFromState(graph, config, query.source, query.top_k,
                                     r_max_f, options.walk_scale, options.topk,
                                     state, rng, &engine, nullptr,
                                     Status::Ok());
  } else {
    answer.scores.assign(graph.num_nodes(), 0.0);
    for (NodeId v : state.touched()) answer.scores[v] = state.reserve(v);
    const RemedyStats remedy =
        RunRemedy(graph, config, query.source, state, rng, answer.scores,
                  options.walk_scale, 0.0, &engine, nullptr);
    EXPECT_EQ(remedy.uncorrected_mass, 0.0);
    answer.achieved_epsilon = config.epsilon;
  }
  return answer;
}

void ExpectSameTopK(const TopKResult& want, const TopKResult& got) {
  EXPECT_EQ(want.status.code(), got.status.code());
  EXPECT_EQ(want.k, got.k);
  EXPECT_EQ(want.certified, got.certified);
  EXPECT_EQ(want.degraded, got.degraded);
  EXPECT_EQ(want.uncorrected_mass, got.uncorrected_mass);
  EXPECT_EQ(want.achieved_epsilon, got.achieved_epsilon);
  EXPECT_EQ(want.outsider_upper, got.outsider_upper);
  EXPECT_EQ(want.bound_gap, got.bound_gap);
  EXPECT_EQ(want.refine_stages, got.refine_stages);
  EXPECT_EQ(want.refine_edges, got.refine_edges);
  ASSERT_EQ(want.entries.size(), got.entries.size());
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(want.entries[i].node, got.entries[i].node) << "rank " << i;
    EXPECT_EQ(want.entries[i].estimate, got.entries[i].estimate)
        << "rank " << i;
    EXPECT_EQ(want.entries[i].lower, got.entries[i].lower) << "rank " << i;
    EXPECT_EQ(want.entries[i].upper, got.entries[i].upper) << "rank " << i;
  }
}

// A full-mode ControlledQueryResult, or a top-k query's TopKResult,
// against the chain's answer.
void ExpectMatchesChain(const Answer& want, const OracleQuery& query,
                        const ControlledQueryResult& got,
                        const TopKResult* got_topk) {
  if (query.top_k > 0) {
    ASSERT_NE(got_topk, nullptr);
    ExpectSameTopK(want.topk, *got_topk);
    EXPECT_EQ(got_topk->status.ok(), !query.cancelled);
    return;
  }
  EXPECT_EQ(want.status.code(), got.status.code());
  EXPECT_EQ(want.degraded, got.degraded);
  EXPECT_EQ(want.uncorrected_mass, got.uncorrected_mass);
  EXPECT_EQ(want.achieved_epsilon, got.achieved_epsilon);
  ASSERT_EQ(want.scores.size(), got.scores.size());
  for (std::size_t v = 0; v < want.scores.size(); ++v) {
    ASSERT_EQ(want.scores[v], got.scores[v]) << "node " << v;
  }
}

// Runs `queries` through the chain and ResAccSolver, and checks every answer
// against the chain.
void ExpectSolversMatchChain(const Graph& graph, const RwrConfig& config,
                             const ResAccOptions& options,
                             const std::vector<OracleQuery>& queries) {
  CancellationToken cancelled;
  cancelled.Cancel();
  std::vector<Answer> chain;
  for (const OracleQuery& q : queries) {
    chain.push_back(ReplayChain(graph, config, options, q));
  }

  ResAccSolver serial(graph, config, options);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const OracleQuery& q = queries[i];
    SCOPED_TRACE(::testing::Message() << "source=" << q.source
                                      << " k=" << q.top_k);
    QueryControl control;
    control.cancel = q.cancelled ? &cancelled : nullptr;
    if (q.top_k > 0) {
      const TopKResult topk = serial.QueryTopK(q.source, q.top_k, control);
      ExpectMatchesChain(chain[i], q, ControlledQueryResult{}, &topk);
    } else {
      ExpectMatchesChain(chain[i], q, serial.QueryControlled(q.source, control),
                         nullptr);
    }
  }
}

TEST(ReplayOracleTest, LocalSourcesFullAndTopK) {
  const Graph graph = ChungLuPowerLaw(2000, 12000, 2.5, /*seed=*/42);
  for (const DanglingPolicy dangling :
       {DanglingPolicy::kAbsorb, DanglingPolicy::kBackToSource}) {
    SCOPED_TRACE(dangling == DanglingPolicy::kAbsorb ? "absorb"
                                                     : "back-to-source");
    RwrConfig config;
    config.delta = 1e-3;
    config.p_f = 1e-3;
    config.dangling = dangling;
    config.seed = 0x0c1e;
    ResAccOptions options;
    options.walk_scale = 0.2;
    ExpectSolversMatchChain(graph, config, options,
                            {{1, 0, false},
                             {118, 10, false},
                             {235, 0, true},
                             {352, 10, false},
                             {469, 0, false},
                             {586, 10, true},
                             {703, 0, false},
                             {820, 5, false}});
  }
}

TEST(ReplayOracleTest, HybridStarHubGoesDense) {
  // The star hub's 1-hop set is the whole graph, so the adaptive cap
  // floors and the hybrid selector hands it to the dense sweep; a cost
  // ratio > 1 keeps the leaves on the local pipeline.
  const Graph graph = testing::StarGraph(199);
  RwrConfig config;
  config.delta = 0.01;
  config.p_f = 1e-7;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  ResAccOptions options;
  options.hybrid.enable = true;
  options.hybrid.cost_ratio = 8.0;

  ResAccSolver probe(graph, config, options);
  probe.Query(0);
  ASSERT_EQ(probe.last_stats().path, SolverPath::kDenseShrinkFloor);
  probe.Query(5);
  ASSERT_EQ(probe.last_stats().path, SolverPath::kLocal);

  ExpectSolversMatchChain(graph, config, options,
                          {{0, 0, false},
                           {5, 0, false},
                           {0, 10, false},
                           {17, 10, false},
                           {0, 0, true},
                           {0, 10, true},
                           {199, 0, false},
                           {0, 3, false}});
}

TEST(ReplayOracleTest, ResidueMassTriggerGoesDense) {
  // A cycle keeps every hop set tiny, but a tiny delta makes the remedy
  // walk count enormous: the OMFWD round hook hands the query to the
  // dense sweep mid-search.
  const Graph graph = testing::CycleGraph(100);
  RwrConfig config;
  config.delta = 1e-6;
  config.p_f = 1e-7;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  ResAccOptions options;
  options.hybrid.enable = true;

  ResAccSolver probe(graph, config, options);
  probe.Query(0);
  ASSERT_EQ(probe.last_stats().path, SolverPath::kDenseResidueMass);

  ExpectSolversMatchChain(graph, config, options,
                          {{0, 0, false},
                           {25, 10, false},
                           {50, 0, true},
                           {75, 0, false}});
}

}  // namespace
}  // namespace resacc
