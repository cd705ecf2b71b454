// Cancellation/deadline coverage (PR 4 tentpole): the token itself, a
// cancel landing inside each solver phase, honesty of the degraded
// accuracy tag against ground truth, phase-metric consistency after an
// abort, and the serving layer's Cancel()/allow_degraded paths — including
// the acceptance criterion that a 10ms deadline on a sub-second solve
// returns in a small fraction of the full solve time.

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/fora.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/timer.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig TestConfig(const Graph& graph) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  return config;
}

// --- CancellationToken ----------------------------------------------------

TEST(CancellationTokenTest, DefaultNeverStops) {
  CancellationToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_TRUE(token.StopStatus().ok());
  EXPECT_FALSE(ShouldStop(static_cast<const CancellationToken*>(nullptr)));
}

TEST(CancellationTokenTest, CancelFiresWithCancelledStatus) {
  CancellationToken token;
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ExpiredDeadlineFiresWithDeadlineStatus) {
  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FutureDeadlineDoesNotFireEarly) {
  CancellationToken token = CancellationToken::WithDeadline(60.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancellationTokenTest, CancelWinsOverDeadline) {
  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  token.Cancel();
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(copy.ShouldStop());
}

// --- Cancelling inside each ResAcc phase ----------------------------------

struct PhaseCancelOutcome {
  ControlledQueryResult result;
  // Phase-histogram count deltas observed across the query.
  std::uint64_t hhop_delta = 0;
  std::uint64_t omfwd_delta = 0;
  std::uint64_t remedy_delta = 0;
  std::uint64_t queries_delta = 0;
  std::uint64_t cancelled_delta = 0;
  std::uint64_t query_hist_delta = 0;
};

// Runs one query that cancels itself at the start of `phase` (via the
// phase_hook, so the cancel lands deterministically inside the pipeline
// rather than racing a timer) and captures the solver-metric deltas.
PhaseCancelOutcome CancelAtPhase(const Graph& graph, const RwrConfig& config,
                                 NodeId source, const std::string& phase) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& queries = registry.GetCounter("resacc_solver_queries_total", "");
  Counter& cancelled =
      registry.GetCounter("resacc_solver_queries_cancelled_total", "");
  LatencyHistogram& hhop =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"hhop\"");
  LatencyHistogram& omfwd =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"omfwd\"");
  LatencyHistogram& remedy =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"remedy\"");
  LatencyHistogram& total =
      registry.GetHistogram("resacc_solver_query_seconds", "");

  const std::uint64_t queries0 = queries.Value();
  const std::uint64_t cancelled0 = cancelled.Value();
  const std::uint64_t hhop0 = hhop.count();
  const std::uint64_t omfwd0 = omfwd.count();
  const std::uint64_t remedy0 = remedy.count();
  const std::uint64_t total0 = total.count();

  CancellationToken token;
  ResAccOptions options;
  options.phase_hook = [&token, phase](const char* name) {
    if (phase == name) token.Cancel();
  };
  ResAccSolver solver(graph, config, options);
  QueryControl control;
  control.cancel = &token;

  PhaseCancelOutcome outcome;
  outcome.result = solver.QueryControlled(source, control);
  outcome.queries_delta = queries.Value() - queries0;
  outcome.cancelled_delta = cancelled.Value() - cancelled0;
  outcome.hhop_delta = hhop.count() - hhop0;
  outcome.omfwd_delta = omfwd.count() - omfwd0;
  outcome.remedy_delta = remedy.count() - remedy0;
  outcome.query_hist_delta = total.count() - total0;
  return outcome;
}

class PhaseCancelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PhaseCancelTest, PartialResultIsHonestAndMetricsStayConsistent) {
  const Graph graph = ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/11);
  const RwrConfig config = TestConfig(graph);
  const NodeId source = 3;
  const std::string phase = GetParam();

  const PhaseCancelOutcome outcome =
      CancelAtPhase(graph, config, source, phase);
  const ControlledQueryResult& result = outcome.result;

  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.uncorrected_mass, 0.0);
  EXPECT_GT(result.achieved_epsilon, config.epsilon);
  EXPECT_NEAR(result.achieved_epsilon,
              config.epsilon + result.uncorrected_mass / config.delta,
              1e-12);
  ASSERT_EQ(result.scores.size(),
            static_cast<std::size_t>(graph.num_nodes()));

  // Honesty, deterministically: a cancel at a phase *start* leaves pure
  // reserves (no walk noise), and the push invariant pi(v) = reserve(v) +
  // sum_u r(u) pi_u(v) bounds the undershoot of every node by the
  // remaining residue mass — which is exactly uncorrected_mass.
  GroundTruthCache ground_truth(graph, config);
  const std::vector<Score>& exact = ground_truth.Get(source);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_LE(result.scores[v], exact[v] + 1e-9) << "node " << v;
    EXPECT_LE(exact[v] - result.scores[v], result.uncorrected_mass + 1e-9)
        << "node " << v;
  }
  // And the advertised (much weaker) relative bound a fortiori.
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (exact[v] > config.delta) {
      EXPECT_LE(std::abs(result.scores[v] - exact[v]),
                result.achieved_epsilon * exact[v] + 1e-9)
          << "node " << v;
    }
  }

  // Metric consistency after the abort: the query is counted exactly once
  // (queries_total + the end-to-end histogram), the cancel is counted, and
  // each phase histogram recorded iff its phase started.
  EXPECT_EQ(outcome.queries_delta, 1u);
  EXPECT_EQ(outcome.query_hist_delta, 1u);
  EXPECT_EQ(outcome.cancelled_delta, 1u);
  EXPECT_EQ(outcome.hhop_delta, 1u);  // hhop always starts
  EXPECT_EQ(outcome.omfwd_delta, phase == "hhop" ? 0u : 1u);
  EXPECT_EQ(outcome.remedy_delta, phase == "remedy" ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPhases, PhaseCancelTest,
                         ::testing::Values("hhop", "omfwd", "remedy"));

// The solver series a solve can move, read together so a test can hold
// one solve's deltas.
struct SolveSeries {
  std::uint64_t full = 0;
  std::uint64_t topk = 0;
  std::uint64_t degraded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t total = 0;
  // Phase histogram counts: hhop, omfwd, remedy, dense, topk.
  std::uint64_t phases[5] = {};

  static SolveSeries Read() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    SolveSeries series;
    series.full = registry.GetCounter("resacc_solver_queries_total").Value();
    series.topk = registry.GetCounter("resacc_topk_queries_total").Value();
    series.degraded =
        registry.GetCounter("resacc_solver_queries_degraded_total").Value();
    series.cancelled =
        registry.GetCounter("resacc_solver_queries_cancelled_total").Value();
    series.total = registry.GetHistogram("resacc_solver_query_seconds").count();
    const char* const names[5] = {"hhop", "omfwd", "remedy", "dense", "topk"};
    for (int i = 0; i < 5; ++i) {
      series.phases[i] =
          registry
              .GetHistogram("resacc_solver_phase_seconds",
                            std::string("phase=\"") + names[i] + "\"")
              .count();
    }
    return series;
  }
};

// Every ResAccSolver solve, full or top-k, counts once in its mode's
// counter and the query histogram, in the degraded and cancelled counters
// when they apply, and in the histogram of each phase that ran — on the
// local path, the dense path and a path cancelled inside OMFWD alike.
TEST(SolverMetricsTest, EverySolveCountsOnceInItsModeAndPhases) {
  const Graph local_graph = ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/11);
  const Graph star = testing::StarGraph(199);
  ResAccOptions hybrid;
  hybrid.hybrid.enable = true;
  CancellationToken token;
  ResAccOptions cancel_in_omfwd;
  cancel_in_omfwd.phase_hook = [&token](const char* phase) {
    if (std::string(phase) == "omfwd") token.Cancel();
  };
  ResAccSolver local(local_graph, TestConfig(local_graph), ResAccOptions{});
  ResAccSolver dense(star, TestConfig(star), hybrid);
  ResAccSolver stopped(local_graph, TestConfig(local_graph), cancel_in_omfwd);
  QueryControl control;
  control.cancel = &token;

  struct Case {
    const char* label;
    ResAccSolver* solver;
    NodeId source;
    std::size_t k;  // 0: a full query
    // Expected deltas: full, topk, degraded, cancelled, then the phases
    // hhop, omfwd, remedy, dense, topk.
    std::uint64_t full, topk, degraded, cancelled;
    std::uint64_t phases[5];
  };
  const Case cases[] = {
      {"local full", &local, 3, 0, 1, 0, 0, 0, {1, 1, 1, 0, 0}},
      {"local top-k", &local, 3, 10, 0, 1, 0, 0, {1, 1, 0, 0, 1}},
      {"dense full", &dense, 0, 0, 1, 0, 0, 0, {1, 0, 0, 1, 0}},
      {"dense top-k", &dense, 0, 10, 0, 1, 0, 0, {1, 0, 0, 1, 0}},
      {"cancelled full", &stopped, 3, 0, 1, 0, 1, 1, {1, 1, 0, 0, 0}},
      {"cancelled top-k", &stopped, 3, 10, 0, 1, 1, 1, {1, 1, 0, 0, 1}},
  };
  for (const Case& c : cases) {
    token = CancellationToken();  // unfired for each case
    const SolveSeries before = SolveSeries::Read();
    if (c.k == 0) {
      c.solver->QueryControlled(c.source, control);
    } else {
      c.solver->QueryTopK(c.source, c.k, control);
    }
    const SolveSeries after = SolveSeries::Read();
    EXPECT_EQ(c.solver->last_stats().path != SolverPath::kLocal,
              c.solver == &dense)
        << c.label;
    EXPECT_EQ(after.full - before.full, c.full) << c.label;
    EXPECT_EQ(after.topk - before.topk, c.topk) << c.label;
    EXPECT_EQ(after.degraded - before.degraded, c.degraded) << c.label;
    EXPECT_EQ(after.cancelled - before.cancelled, c.cancelled) << c.label;
    EXPECT_EQ(after.total - before.total, 1u) << c.label;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(after.phases[i] - before.phases[i], c.phases[i])
          << c.label << ", phase " << i;
    }
  }
}

TEST(SolverCancelTest, DeadOnArrivalDeadlineReturnsZeroEstimate) {
  const Graph graph = testing::Figure1Graph();
  const RwrConfig config = TestConfig(graph);
  ResAccSolver solver(graph, config, ResAccOptions{});

  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  QueryControl control;
  control.cancel = &token;
  const ControlledQueryResult result = solver.QueryControlled(0, control);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.degraded);
  EXPECT_DOUBLE_EQ(result.uncorrected_mass, 1.0);
  ASSERT_EQ(result.scores.size(),
            static_cast<std::size_t>(graph.num_nodes()));
  for (Score s : result.scores) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SolverCancelTest, UncancelledControlledQueryMatchesQuery) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/3);
  const RwrConfig config = TestConfig(graph);
  ResAccSolver a(graph, config, ResAccOptions{});
  ResAccSolver b(graph, config, ResAccOptions{});

  CancellationToken token = CancellationToken::WithDeadline(3600.0);
  QueryControl control;
  control.cancel = &token;
  const ControlledQueryResult controlled = a.QueryControlled(5, control);
  const std::vector<Score> plain = b.Query(5);

  EXPECT_TRUE(controlled.status.ok());
  EXPECT_FALSE(controlled.degraded);
  EXPECT_DOUBLE_EQ(controlled.achieved_epsilon, config.epsilon);
  ASSERT_EQ(controlled.scores.size(), plain.size());
  for (NodeId v = 0; v < plain.size(); ++v) {
    EXPECT_DOUBLE_EQ(controlled.scores[v], plain[v]) << "node " << v;
  }
}

TEST(SolverCancelTest, ForaAndMonteCarloReportHonestPartialResults) {
  const Graph graph = ChungLuPowerLaw(300, 1500, 2.5, /*seed=*/5);
  const RwrConfig config = TestConfig(graph);

  CancellationToken token;
  token.Cancel();
  QueryControl control;
  control.cancel = &token;

  Fora fora(graph, config);
  const ControlledQueryResult fora_result = fora.QueryControlled(2, control);
  EXPECT_EQ(fora_result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(fora_result.degraded);
  EXPECT_GT(fora_result.uncorrected_mass, 0.0);
  EXPECT_NEAR(fora_result.achieved_epsilon,
              config.epsilon + fora_result.uncorrected_mass / config.delta,
              1e-12);

  MonteCarlo mc(graph, config);
  const ControlledQueryResult mc_result = mc.QueryControlled(2, control);
  EXPECT_EQ(mc_result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(mc_result.degraded);
  // MC skipped everything: the whole unit of walk mass is uncorrected.
  EXPECT_NEAR(mc_result.uncorrected_mass, 1.0, 1e-9);
}

// --- Serving layer --------------------------------------------------------

// A deliberately slow MC configuration: delta ~ 1e-5 needs ~1e7 walks, a
// solve in the hundreds of milliseconds — big enough that a 10ms deadline
// cancels mid-walk rather than after the fact.
RwrConfig SlowConfig(const Graph& graph) {
  RwrConfig config = TestConfig(graph);
  config.delta = 1e-5;
  config.p_f = 1e-5;
  return config;
}

TEST(ServeCancelTest, DeadlineMidComputeReturnsFastWithoutBlockingWorker) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.5, /*seed=*/17);
  const RwrConfig config = SlowConfig(graph);

  // Baseline: how long the full solve takes (also warms nothing — the
  // service below uses its own solver instance).
  MonteCarlo reference(graph, config);
  Timer full_timer;
  reference.Query(7);
  const double full_seconds = full_timer.ElapsedSeconds();
  ASSERT_GT(full_seconds, 0.05) << "solve too fast to observe a cancel";

  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;  // no accidental hits
  options.solver_factory = [&config](const Graph& g) {
    return std::make_unique<MonteCarlo>(g, config);
  };
  options.cache_tag = 0x51;
  QueryService service(graph, config, options);

  QueryRequest request;
  request.source = 7;
  request.deadline_seconds = 0.010;
  Timer cancel_timer;
  const QueryResponse response = service.Query(request);
  const double cancel_seconds = cancel_timer.ElapsedSeconds();

  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // The walk engine polls the token every block, so the return should be
  // deadline + a block or two — far below the full solve. Generous slack
  // for slow CI, but still a small fraction of the full solve.
  EXPECT_LT(cancel_seconds, 0.5 * full_seconds);
  EXPECT_LT(cancel_seconds, 0.25);

  // The worker is free again: a fresh no-deadline query completes OK.
  QueryRequest follow_up;
  follow_up.source = 9;
  const QueryResponse ok_response = service.Query(follow_up);
  EXPECT_TRUE(ok_response.status.ok());
  EXPECT_FALSE(ok_response.degraded);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // The latency split surfaced: both jobs were dequeued (queue_wait), and
  // at least the follow-up reached the solver (the deadline job computes
  // too unless a slow machine let the 10ms elapse before dequeue).
  EXPECT_EQ(stats.queue_wait.count, 2u);
  EXPECT_GE(stats.compute.count, 1u);
}

TEST(ServeCancelTest, AllowDegradedTurnsDeadlineIntoHonestPartialResult) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.5, /*seed=*/17);
  const RwrConfig config = SlowConfig(graph);

  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 64 << 20;
  options.solver_factory = [&config](const Graph& g) {
    return std::make_unique<MonteCarlo>(g, config);
  };
  options.cache_tag = 0x52;
  QueryService service(graph, config, options);

  QueryRequest request;
  request.source = 7;
  request.top_k = 5;
  request.deadline_seconds = 0.010;
  request.allow_degraded = true;
  const QueryResponse response = service.Query(request);

  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.degraded);
  // Top-k mode: the partial solve is salvaged as an approximate top-k
  // payload (wide epsilon brackets, never a certificate), no full vector.
  EXPECT_EQ(response.scores, nullptr);
  ASSERT_NE(response.topk, nullptr);
  EXPECT_FALSE(response.topk->certified);
  EXPECT_TRUE(response.topk->degraded);
  EXPECT_GT(response.uncorrected_mass, 0.0);
  EXPECT_GT(response.achieved_epsilon, config.epsilon);
  EXPECT_EQ(response.top.size(), 5u);

  // Degraded results must never be served from the cache: the same query
  // without a deadline computes fresh and comes back complete.
  QueryRequest retry;
  retry.source = 7;
  const QueryResponse full = service.Query(retry);
  EXPECT_TRUE(full.status.ok());
  EXPECT_FALSE(full.degraded);
  EXPECT_FALSE(full.cache_hit);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(ServeCancelTest, CancelWhileQueuedResolvesOnlyThatRequest) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/9);
  const RwrConfig config = TestConfig(graph);

  // One worker held hostage on source 0 keeps source 1 queued while we
  // cancel it — no timing races.
  std::promise<void> arrived;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.dequeue_hook = [&arrived, release_future](NodeId source) {
    if (source == 0) {
      arrived.set_value();
      release_future.wait();
    }
  };
  QueryService service(graph, config, options);

  QueryRequest blocker;
  blocker.source = 0;
  std::future<QueryResponse> blocked = service.Submit(blocker);
  arrived.get_future().wait();

  QueryRequest queued;
  queued.source = 1;
  queued.request_id = 42;
  std::future<QueryResponse> cancelled = service.Submit(queued);

  EXPECT_TRUE(service.Cancel(42));
  EXPECT_FALSE(service.Cancel(42));  // already gone
  EXPECT_FALSE(service.Cancel(777));  // never registered

  // Resolves promptly even though the worker is still held.
  ASSERT_EQ(cancelled.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const QueryResponse response = cancelled.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);

  release.set_value();
  EXPECT_TRUE(blocked.get().status.ok());

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeCancelTest, CancellingOneCoalescedWaiterKeepsTheOthersRunning) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/9);
  const RwrConfig config = TestConfig(graph);

  std::promise<void> arrived;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.coalesce = true;
  options.dequeue_hook = [&arrived, release_future](NodeId source) {
    if (source == 0) {
      arrived.set_value();
      release_future.wait();
    }
  };
  QueryService service(graph, config, options);

  QueryRequest blocker;
  blocker.source = 0;
  std::future<QueryResponse> blocked = service.Submit(blocker);
  arrived.get_future().wait();

  // Two requests coalesce onto one queued job for source 1; cancel one.
  QueryRequest a;
  a.source = 1;
  a.request_id = 1001;
  QueryRequest b;
  b.source = 1;
  b.request_id = 1002;
  std::future<QueryResponse> future_a = service.Submit(a);
  std::future<QueryResponse> future_b = service.Submit(b);

  EXPECT_TRUE(service.Cancel(1001));
  EXPECT_EQ(future_a.get().status.code(), StatusCode::kCancelled);

  release.set_value();
  const QueryResponse response_b = future_b.get();
  EXPECT_TRUE(response_b.status.ok());
  EXPECT_FALSE(response_b.degraded);
  EXPECT_TRUE(blocked.get().status.ok());
}

}  // namespace
}  // namespace resacc
