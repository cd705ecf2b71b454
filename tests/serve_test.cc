#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/monte_carlo.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/sources.h"
#include "resacc/graph/generators.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/result_cache.h"
#include "resacc/serve/workload.h"
#include "resacc/util/bounded_queue.h"
#include "resacc/util/histogram.h"

namespace resacc {
namespace {

using Clock = std::chrono::steady_clock;

RwrConfig TestConfig(const Graph& graph) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  return config;
}

// Lets a test hold a worker hostage on a chosen source, making coalescing
// and queue states deterministic instead of timing-dependent.
class Gate {
 public:
  std::function<void(NodeId)> HookBlocking(NodeId blocked_source) {
    return [this, blocked_source](NodeId source) {
      if (source != blocked_source) return;
      std::unique_lock<std::mutex> lock(mutex_);
      arrived_ = true;
      arrived_cv_.notify_all();
      open_cv_.wait(lock, [this] { return open_; });
    };
  }

  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_cv_.wait(lock, [this] { return arrived_; });
  }

  void Open() {
    std::unique_lock<std::mutex> lock(mutex_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_cv_;
  std::condition_variable open_cv_;
  bool arrived_ = false;
  bool open_ = false;
};

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: explicit refusal, no block
  int out = 0;
  EXPECT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<int> queue(8);
  queue.TryPush(1);
  queue.TryPush(2);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));  // closed
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));  // queued items survive Close
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(out));  // drained + closed
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(1);
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.TryPush(42);
  });
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 42);
  producer.join();
}

// --- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogramTest, QuantilesBracketRecordedValues) {
  LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.Record(i * 1e-3);  // 1ms .. 100ms
  const auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 100u);
  // Bucket resolution is ~8.5%; allow 10% slack around the exact order
  // statistics.
  EXPECT_NEAR(snap.p50, 0.050, 0.050 * 0.10);
  EXPECT_NEAR(snap.p99, 0.099, 0.099 * 0.10);
  EXPECT_NEAR(snap.mean, 0.0505, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 0.100);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < 1000; ++i) hist.Record(1e-3);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), 4000u);
}

TEST(LatencyHistogramTest, EmptyAndOutOfRange) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0.0);
  hist.Record(0.0);      // underflow bucket
  hist.Record(1e9);      // overflow bucket
  EXPECT_EQ(hist.count(), 2u);
  const auto snap = hist.TakeSnapshot();
  EXPECT_GT(snap.p99, 0.0);
}

// --- ResultCache ----------------------------------------------------------

ResultCache::Value MakeScores(std::size_t n, Score fill) {
  return std::make_shared<const std::vector<Score>>(n, fill);
}

TEST(ResultCacheTest, HitAfterInsertMissOtherwise) {
  ResultCache cache(1 << 20, 4);
  const CacheKey a{123, 1};
  const CacheKey b{123, 2};
  EXPECT_EQ(cache.Lookup(a), nullptr);
  cache.Insert(a, MakeScores(10, 0.5));
  const auto hit = cache.Lookup(a);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ((*hit)[0], 0.5);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.entries, 1u);
}

TEST(ResultCacheTest, DistinguishesConfigHash) {
  ResultCache cache(1 << 20, 1);
  cache.Insert(CacheKey{111, 5}, MakeScores(4, 1.0));
  EXPECT_EQ(cache.Lookup(CacheKey{222, 5}), nullptr);
  ASSERT_NE(cache.Lookup(CacheKey{111, 5}), nullptr);
}

TEST(ResultCacheTest, EvictsLruUnderByteBudget) {
  // Single shard, budget of exactly 3 vectors of 100 scores.
  const std::size_t entry_bytes = 100 * sizeof(Score);
  ResultCache cache(3 * entry_bytes, 1);
  cache.Insert(CacheKey{9, 0}, MakeScores(100, 0.0));
  cache.Insert(CacheKey{9, 1}, MakeScores(100, 1.0));
  cache.Insert(CacheKey{9, 2}, MakeScores(100, 2.0));
  ASSERT_NE(cache.Lookup(CacheKey{9, 0}), nullptr);  // 0 now MRU
  cache.Insert(CacheKey{9, 3}, MakeScores(100, 3.0));  // evicts 1 (LRU)
  EXPECT_EQ(cache.Lookup(CacheKey{9, 1}), nullptr);
  EXPECT_NE(cache.Lookup(CacheKey{9, 0}), nullptr);
  EXPECT_NE(cache.Lookup(CacheKey{9, 3}), nullptr);
  const auto counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_LE(counters.bytes, 3 * entry_bytes);
}

TEST(ResultCacheTest, HeldValueSurvivesEviction) {
  const std::size_t entry_bytes = 100 * sizeof(Score);
  ResultCache cache(entry_bytes, 1);
  cache.Insert(CacheKey{1, 0}, MakeScores(100, 7.0));
  const auto held = cache.Lookup(CacheKey{1, 0});
  ASSERT_NE(held, nullptr);
  cache.Insert(CacheKey{1, 1}, MakeScores(100, 8.0));  // evicts key 0
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0}), nullptr);
  EXPECT_DOUBLE_EQ((*held)[99], 7.0);  // still valid for the holder
}

TEST(ResultCacheTest, ZeroBudgetDisables) {
  ResultCache cache(0, 4);
  cache.Insert(CacheKey{1, 0}, MakeScores(10, 1.0));
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.counters().entries, 0u);
}

// --- ZipfianSources -------------------------------------------------------

TEST(ZipfianSourcesTest, SkewConcentratesMass) {
  ZipfianSources zipf(1000, 1.2, 5);
  Rng rng(11);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(rng)];
  int max_count = 0;
  for (int c : counts) max_count = std::max(max_count, c);
  // The hottest node of a theta=1.2 Zipf over 1000 ranks draws >> 1/1000
  // of the traffic.
  EXPECT_GT(max_count, 2000);
}

TEST(ZipfianSourcesTest, ThetaZeroIsRoughlyUniform) {
  ZipfianSources zipf(100, 0.0, 5);
  Rng rng(11);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 600);
    EXPECT_LT(c, 1400);
  }
}

// --- QueryService ---------------------------------------------------------

// The serving acceptance bar: responses under concurrency — computed,
// cached, or coalesced — are bit-identical to a fresh single-threaded
// ResAccSolver with the same configuration.
TEST(QueryServiceTest, ConcurrentClientsBitIdenticalToSingleThread) {
  const Graph graph = ChungLuPowerLaw(2000, 16000, 2.2, 9);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 8, 3);

  ResAccSolver reference(graph, config, ResAccOptions{});
  std::vector<std::vector<Score>> expected;
  for (NodeId s : sources) expected.push_back(reference.Query(s));

  ServeOptions options;
  options.num_workers = 4;
  QueryService service(graph, config, options);

  // 4 clients x 2 passes over every source: forces a mix of fresh
  // computations, coalesced joins, and cache hits.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const QueryResponse response =
              service.Query(QueryRequest{sources[i], 0, 0.0});
          if (!response.status.ok() ||
              *response.scores != expected[i]) {  // exact, bitwise
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.completed, 4u * 2u * sources.size());
  // Every OK response is exactly one of: led a computation, attached to an
  // in-flight one, or served from cache.
  EXPECT_EQ(stats.completed,
            stats.computed + stats.coalesced + stats.cache_hits);
  // Reuse must have happened: each client's second pass finds every source
  // cached (the budget fits all 8 vectors, so nothing is evicted).
  EXPECT_GT(stats.cache_hits + stats.coalesced, 0u);
}

// --- Gathered jobs --------------------------------------------------------

// The solver's process-wide series: queries_total and the per-phase
// histogram counts, read before and after a run to count its solves.
struct SolverSeries {
  std::uint64_t queries = 0;
  std::uint64_t hhop = 0;
  std::uint64_t omfwd = 0;
  std::uint64_t remedy = 0;

  static SolverSeries Read() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const auto phase = [&](const char* name) {
      return registry
          .GetHistogram("resacc_solver_phase_seconds",
                        std::string("phase=\"") + name + "\"")
          .count();
    };
    SolverSeries series;
    series.queries =
        registry.GetCounter("resacc_solver_queries_total").Value();
    series.hhop = phase("hhop");
    series.omfwd = phase("omfwd");
    series.remedy = phase("remedy");
    return series;
  }
};

// Deterministic gathering: the dequeue hook fires after the gather, so
// parking the single worker on one source lets the test queue a known set
// of jobs that the worker's next gather must pick up whole.
TEST(QueryServiceTest, BatchFormationGathersQueuedJobsAndStaysBitIdentical) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 9, 11);

  ResAccSolver reference(graph, config, ResAccOptions{});
  std::vector<std::vector<Score>> expected;
  for (NodeId s : sources) expected.push_back(reference.Query(s));
  const SolverSeries before = SolverSeries::Read();

  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;  // every response must come from a solve
  options.max_batch = 8;
  options.dequeue_hook = gate.HookBlocking(sources[0]);
  QueryService service(graph, config, options);

  // The worker gathers sources[0] alone (nothing else queued) and parks in
  // the hook; the other 8 distinct sources pile up behind it.
  auto first = service.Submit(QueryRequest{sources[0], 0, 0.0});
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> rest;
  for (std::size_t i = 1; i < sources.size(); ++i) {
    rest.push_back(service.Submit(QueryRequest{sources[i], 0, 0.0}));
  }
  gate.Open();

  // The lone job and the gather of 8 both run serial solves, so every
  // vector is bitwise equal to the fresh single-source reference.
  QueryResponse response = first.get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(*response.scores, expected[0]);
  for (std::size_t i = 1; i < sources.size(); ++i) {
    response = rest[i - 1].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(*response.scores, expected[i])  // exact, bitwise
        << "source " << sources[i];
  }

  // The 8 queued jobs ran as one gather; the hostage job was a gather of
  // 1.
  EXPECT_EQ(service.metrics()
                .GetCounter("resacc_serve_batched_queries_total", "")
                .Value(),
            sources.size() - 1);
  EXPECT_EQ(service.Snapshot().computed, sources.size());
  for (const auto& sample : service.metrics().TakeSnapshot()) {
    if (sample.name == "resacc_serve_batch_size") {
      EXPECT_EQ(sample.histogram.count, 2u);  // two gathers
      EXPECT_DOUBLE_EQ(sample.histogram.max, 8.0);
    }
  }
  // Every job, gathered or not, went through QueryControlled, so each fed
  // the solver's counter and all three phase histograms.
  const SolverSeries after = SolverSeries::Read();
  EXPECT_EQ(after.queries - before.queries, sources.size());
  EXPECT_EQ(after.hhop - before.hhop, sources.size());
  EXPECT_EQ(after.omfwd - before.omfwd, sources.size());
  EXPECT_EQ(after.remedy - before.remedy, sources.size());
}

// Gathering is a queueing policy, not a solver capability: a service
// whose workers run a custom backend gathers the same way, and each
// gathered job gets that backend's own answer.
TEST(QueryServiceTest, GathersJobsForACustomSolverFactory) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 5, 12);
  const double walk_scale = 0.05;

  MonteCarlo reference(graph, config, walk_scale);
  std::vector<std::vector<Score>> expected;
  for (NodeId s : sources) expected.push_back(reference.Query(s));

  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.max_batch = 8;
  options.dequeue_hook = gate.HookBlocking(sources[0]);
  options.solver_factory = [&config, walk_scale](const Graph& g) {
    return std::make_unique<MonteCarlo>(g, config, walk_scale);
  };
  options.cache_tag = 0x6a7;
  QueryService service(graph, config, options);

  auto first = service.Submit(QueryRequest{sources[0], 0, 0.0});
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> rest;
  for (std::size_t i = 1; i < sources.size(); ++i) {
    rest.push_back(service.Submit(QueryRequest{sources[i], 0, 0.0}));
  }
  gate.Open();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const QueryResponse response = i == 0 ? first.get() : rest[i - 1].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(*response.scores, expected[i]) << "source " << sources[i];
  }
  for (const auto& sample : service.metrics().TakeSnapshot()) {
    if (sample.name == "resacc_serve_batch_size") {
      EXPECT_EQ(sample.histogram.count, 2u);  // the hostage, then 4 jobs
      EXPECT_DOUBLE_EQ(sample.histogram.max, 4.0);
    }
  }
}

void ExpectSameTopK(const TopKResult& want, const TopKResult& got) {
  EXPECT_EQ(want.k, got.k);
  EXPECT_EQ(want.certified, got.certified);
  EXPECT_EQ(want.degraded, got.degraded);
  EXPECT_EQ(want.achieved_epsilon, got.achieved_epsilon);
  EXPECT_EQ(want.uncorrected_mass, got.uncorrected_mass);
  EXPECT_EQ(want.outsider_upper, got.outsider_upper);
  EXPECT_EQ(want.bound_gap, got.bound_gap);
  ASSERT_EQ(want.entries.size(), got.entries.size());
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(want.entries[i].node, got.entries[i].node) << "rank " << i;
    EXPECT_EQ(want.entries[i].estimate, got.entries[i].estimate)
        << "rank " << i;
    EXPECT_EQ(want.entries[i].lower, got.entries[i].lower) << "rank " << i;
    EXPECT_EQ(want.entries[i].upper, got.entries[i].upper) << "rank " << i;
  }
}

// How one job of a gather stops early.
enum class GatherStop {
  kCancelledQueued,     // Cancel() while the gather waits in the queue
  kDeadlineQueued,      // its deadline passes while the gather waits
  kCancelledComputing,  // Cancel() from its own solve's phase hook
  // Its deadline passes while an earlier job of the gather solves; the
  // request accepts degraded answers, which it must not get (no scores).
  kDeadlineBehindEarlierJob,
};

class GatherStopTest : public ::testing::TestWithParam<GatherStop> {};

INSTANTIATE_TEST_SUITE_P(Stops, GatherStopTest,
                         ::testing::Values(
                             GatherStop::kCancelledQueued,
                             GatherStop::kDeadlineQueued,
                             GatherStop::kCancelledComputing,
                             GatherStop::kDeadlineBehindEarlierJob));

// One job in the middle of a gather of 8 stops early, and it stops alone:
// every other job's answer, full vector or top-k, equals a fresh
// ResAccSolver's bit for bit.
TEST_P(GatherStopTest, OneJobStopsAndTheRestStayBitIdentical) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 9, 11);
  // Odd jobs ask for top-10, so the gather mixes both shapes.
  const auto top_k_of = [](std::size_t i) -> std::size_t {
    return i % 2 == 1 ? 10 : 0;
  };
  constexpr std::size_t kTarget = 4;
  constexpr std::uint64_t kTargetId = 77;
  const GatherStop stop = GetParam();
  const bool deadline_stop = stop == GatherStop::kDeadlineQueued ||
                             stop == GatherStop::kDeadlineBehindEarlierJob;
  // Long enough that the gather is dequeued before it passes.
  constexpr auto kBehindDeadline = std::chrono::milliseconds(1000);

  ResAccSolver reference(graph, config, ResAccOptions{});
  std::vector<std::vector<Score>> expected_full(sources.size());
  std::vector<TopKResult> expected_topk(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (top_k_of(i) > 0) {
      expected_topk[i] = reference.QueryTopK(sources[i], top_k_of(i));
    } else {
      expected_full[i] = reference.Query(sources[i]);
    }
  }

  Gate gate;
  QueryService* service_ptr = nullptr;  // set before the first Submit
  std::atomic<std::size_t> hhop_starts{0};
  // target_submitted is set before the gate opens and read by the worker
  // after it; target_dequeued is set by the worker before the target's
  // response is published and read after it arrives.
  Clock::time_point target_submitted;
  Clock::time_point target_dequeued;
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;  // every response must come from a solve
  options.max_batch = 8;
  options.dequeue_hook = [&, hook = gate.HookBlocking(sources[0])](
                             NodeId source) {
    if (source == sources[kTarget]) target_dequeued = Clock::now();
    hook(source);
  };
  // The hostage solves first and the gather runs in submission order, so
  // h-HopFWD start number kTarget (from 0) is the target's own.
  if (stop == GatherStop::kCancelledComputing) {
    options.solver.phase_hook = [&](const char* phase) {
      if (std::string_view(phase) == "hhop" &&
          hhop_starts.fetch_add(1) == kTarget) {
        EXPECT_TRUE(service_ptr->Cancel(kTargetId));
      }
    };
  }
  if (stop == GatherStop::kDeadlineBehindEarlierJob) {
    // The job just ahead of the target stalls past the target's deadline.
    options.solver.phase_hook = [&](const char* phase) {
      if (std::string_view(phase) == "hhop" &&
          hhop_starts.fetch_add(1) == kTarget - 1) {
        std::this_thread::sleep_until(target_submitted + kBehindDeadline +
                                      std::chrono::milliseconds(20));
      }
    };
  }
  QueryService service(graph, config, options);
  service_ptr = &service;

  auto first = service.Submit(QueryRequest{sources[0], top_k_of(0), 0.0});
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> rest;
  for (std::size_t i = 1; i < sources.size(); ++i) {
    QueryRequest request{sources[i], top_k_of(i), 0.0};
    if (i == kTarget) {
      request.request_id = kTargetId;
      if (stop == GatherStop::kDeadlineQueued) {
        request.deadline_seconds = 1e-3;
      }
      if (stop == GatherStop::kDeadlineBehindEarlierJob) {
        request.deadline_seconds =
            std::chrono::duration<double>(kBehindDeadline).count();
        request.allow_degraded = true;
      }
    }
    const Clock::time_point before_submit = Clock::now();
    rest.push_back(service.Submit(request));
    if (i == kTarget) target_submitted = before_submit;
  }
  if (stop == GatherStop::kCancelledQueued) {
    ASSERT_TRUE(service.Cancel(kTargetId));
  }
  if (stop == GatherStop::kDeadlineQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gate.Open();

  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i << " source "
                                      << sources[i] << " k=" << top_k_of(i));
    const QueryResponse response = i == 0 ? first.get() : rest[i - 1].get();
    if (i == kTarget) {
      EXPECT_EQ(response.status.code(),
                deadline_stop ? StatusCode::kDeadlineExceeded
                              : StatusCode::kCancelled);
      EXPECT_FALSE(response.degraded);
      EXPECT_EQ(response.scores, nullptr);
      EXPECT_EQ(response.topk, nullptr);
      continue;
    }
    ASSERT_TRUE(response.status.ok());
    if (top_k_of(i) > 0) {
      ASSERT_NE(response.topk, nullptr);
      ExpectSameTopK(expected_topk[i], *response.topk);
    } else {
      ASSERT_NE(response.scores, nullptr);
      EXPECT_EQ(*response.scores, expected_full[i]);  // exact, bitwise
    }
  }

  if (stop == GatherStop::kDeadlineBehindEarlierJob) {
    // The target left the queue with its deadline still ahead; it expired
    // behind the stalled job, not in the queue.
    EXPECT_LT(target_dequeued, target_submitted + kBehindDeadline);
  }

  // A job stopped before its solve never reaches the solver; one
  // cancelled mid-solve was computed, and its partial answer reached no
  // one.
  const ServerStats stats = service.Snapshot();
  const bool computing = stop == GatherStop::kCancelledComputing;
  EXPECT_EQ(stats.computed, computing ? sources.size() : sources.size() - 1);
  EXPECT_EQ(stats.completed, sources.size() - 1);
  EXPECT_EQ(stats.cancelled + stats.expired, 1u);
}

// Gathering under racing clients, with coalescing and caching live: gather
// membership depends on arrival timing, but the answers must not. Runs
// under TSAN in CI (serve_test is in the sanitizer job's list), covering
// concurrent gathers — Submit racing TryPop/PopFor.
TEST(QueryServiceTest, BatchedConcurrentClientsBitIdenticalToSingleThread) {
  const Graph graph = ChungLuPowerLaw(2000, 16000, 2.2, 9);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 8, 3);

  ResAccSolver reference(graph, config, ResAccOptions{});
  std::vector<std::vector<Score>> expected;
  for (NodeId s : sources) expected.push_back(reference.Query(s));

  ServeOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.batch_linger_us = 200;
  QueryService service(graph, config, options);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const QueryResponse response =
              service.Query(QueryRequest{sources[i], 0, 0.0});
          if (!response.status.ok() ||
              *response.scores != expected[i]) {  // exact, bitwise
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.completed, 4u * 2u * sources.size());
  EXPECT_EQ(stats.completed,
            stats.computed + stats.coalesced + stats.cache_hits);
}

// walk_threads is speed-only (walk_engine.h): a service whose workers run
// intra-query-parallel walk engines must answer bit-identically to a plain
// single-threaded reference solver — fresh computations and cache hits
// alike. This is why walk_threads stays out of HashQueryConfig.
TEST(QueryServiceTest, ParallelWalkEngineBitIdenticalToReference) {
  const Graph graph = ChungLuPowerLaw(2000, 16000, 2.2, 9);
  const RwrConfig config = TestConfig(graph);
  const std::vector<NodeId> sources = PickUniformSources(graph, 6, 4);

  ResAccOptions reference_options;
  reference_options.walk_threads = 1;
  ResAccSolver reference(graph, config, reference_options);
  std::vector<std::vector<Score>> expected;
  for (NodeId s : sources) expected.push_back(reference.Query(s));

  ServeOptions options;
  options.num_workers = 2;
  options.solver.walk_threads = 2;
  QueryService service(graph, config, options);

  // First pass computes (with the parallel walk engine), second pass must
  // be served from cache; both must equal the sequential reference bitwise.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const QueryResponse response =
          service.Query(QueryRequest{sources[i], 0, 0.0});
      ASSERT_TRUE(response.status.ok());
      EXPECT_EQ(*response.scores, expected[i])  // exact, bitwise
          << "pass " << pass << " source " << sources[i];
      if (pass == 1) {
        EXPECT_TRUE(response.cache_hit);
      }
    }
  }
  EXPECT_EQ(service.Snapshot().cache_hits, sources.size());
}

TEST(QueryServiceTest, CacheHitOnRepeatAndTopK) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  ServeOptions options;
  options.num_workers = 2;
  QueryService service(graph, TestConfig(graph), options);

  // Top-k mode: the response carries bound-bracketed entries, no vector.
  const QueryResponse first = service.Query(QueryRequest{3, 5, 0.0});
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.scores, nullptr);
  ASSERT_NE(first.topk, nullptr);
  ASSERT_EQ(first.top.size(), 5u);
  // Top list is descending and mirrors the certified entries.
  EXPECT_GE(first.top[0].second, first.top[4].second);
  EXPECT_DOUBLE_EQ(first.topk->entries[0].estimate, first.top[0].second);
  for (const TopKEntry& entry : first.topk->entries) {
    EXPECT_LE(entry.lower, entry.estimate);
    EXPECT_GE(entry.upper, entry.estimate);
  }

  const QueryResponse second = service.Query(QueryRequest{3, 5, 0.0});
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ASSERT_NE(second.topk, nullptr);
  EXPECT_EQ(second.top, first.top);
  EXPECT_EQ(service.Snapshot().cache_hits, 1u);
  EXPECT_EQ(service.Snapshot().computed, 1u);

  // A full-vector probe is not satisfiable by the stored top-k payload:
  // it computes fresh and upgrades the entry in place, after which both
  // shapes are cache hits.
  const QueryResponse full = service.Query(QueryRequest{3, 0, 0.0});
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.cache_hit);
  ASSERT_NE(full.scores, nullptr);
  const QueryResponse third = service.Query(QueryRequest{3, 5, 0.0});
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  ASSERT_NE(third.topk, nullptr);
  EXPECT_EQ(third.top.size(), 5u);
  EXPECT_EQ(service.Snapshot().computed, 2u);
}

// QueryResponse's contract: an OK answer carries the epsilon its
// computation achieved, whichever path delivered it. Computed, coalesced
// and cache-hit responses — full vectors, top-k payloads, and top-k
// answers bridged from a full vector — must all report the same epsilon.
TEST(QueryServiceTest, EveryOkPathReportsTheComputedEpsilon) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  const RwrConfig config = TestConfig(graph);
  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.dequeue_hook = gate.HookBlocking(/*blocked_source=*/1);
  QueryService service(graph, config, options);

  // Park the worker, then queue a leader and a coalesced follower per
  // shape: full and top-k on source 2 (the top-k one bridged from the full
  // job), top-k on source 3.
  auto blocked = service.Submit(QueryRequest{1, 0, 0.0});
  gate.AwaitArrival();
  std::vector<std::future<QueryResponse>> first_round;
  for (const QueryRequest& request :
       {QueryRequest{2, 0, 0.0}, QueryRequest{2, 0, 0.0},
        QueryRequest{2, 5, 0.0}, QueryRequest{3, 5, 0.0},
        QueryRequest{3, 5, 0.0}}) {
    first_round.push_back(service.Submit(request));
  }
  gate.Open();
  ASSERT_TRUE(blocked.get().status.ok());

  std::size_t computed = 0;
  std::size_t coalesced = 0;
  const auto expect_epsilon = [&](const QueryResponse& response,
                                  const char* path) {
    ASSERT_TRUE(response.status.ok()) << path;
    EXPECT_FALSE(response.degraded) << path;
    EXPECT_EQ(response.achieved_epsilon, config.epsilon) << path;
    if (response.topk != nullptr) {
      EXPECT_EQ(response.topk->achieved_epsilon, config.epsilon) << path;
    }
  };
  for (auto& future : first_round) {
    const QueryResponse response = future.get();
    (response.coalesced ? coalesced : computed) += 1;
    expect_epsilon(response, response.coalesced ? "coalesced" : "computed");
  }
  EXPECT_EQ(computed, 2u);
  EXPECT_EQ(coalesced, 3u);

  // Cache hits: a full entry, a top-k entry, and a top-k probe bridged
  // from the full entry.
  for (const QueryRequest& request :
       {QueryRequest{2, 0, 0.0}, QueryRequest{3, 5, 0.0},
        QueryRequest{2, 4, 0.0}}) {
    const QueryResponse response = service.Query(request);
    EXPECT_TRUE(response.cache_hit) << "source " << request.source;
    expect_epsilon(response, "cache hit");
  }
}

TEST(QueryServiceTest, CoalescesIdenticalInFlightQueries) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;  // isolate coalescing from caching
  options.dequeue_hook = gate.HookBlocking(/*blocked_source=*/1);

  QueryService service(graph, TestConfig(graph), options);
  // Worker 0 dequeues source 1 and parks in the hook...
  auto blocked = service.Submit(QueryRequest{1, 0, 0.0});
  gate.AwaitArrival();
  // ...so these all pile onto one in-flight job for source 2.
  std::vector<std::future<QueryResponse>> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(service.Submit(QueryRequest{2, 3, 0.0}));
  }
  gate.Open();

  ASSERT_TRUE(blocked.get().status.ok());
  int coalesced = 0;
  std::vector<std::pair<NodeId, Score>> canonical;
  for (auto& future : burst) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    if (response.coalesced) ++coalesced;
    // top_k = 3 requests: every waiter shares the same top-k payload.
    ASSERT_NE(response.topk, nullptr);
    if (canonical.empty()) {
      canonical = response.top;
      ASSERT_EQ(canonical.size(), 3u);
    } else {
      EXPECT_EQ(response.top, canonical);
    }
  }
  EXPECT_EQ(coalesced, 3);  // leader + 3 attached
  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.computed, 2u);  // source 1 once, source 2 once
}

TEST(QueryServiceTest, QueueOverflowReturnsBackpressureStatus) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.cache_bytes = 0;
  options.coalesce = false;  // every submit needs its own queue slot
  options.dequeue_hook = gate.HookBlocking(/*blocked_source=*/1);

  QueryService service(graph, TestConfig(graph), options);
  auto blocked = service.Submit(QueryRequest{1, 0, 0.0});  // on the worker
  gate.AwaitArrival();
  auto queued = service.Submit(QueryRequest{2, 0, 0.0});  // fills the queue
  auto rejected = service.Submit(QueryRequest{3, 0, 0.0});  // overflow

  // The overflow future resolves immediately with an explicit status — no
  // silent drop, no deadlock.
  const QueryResponse overflow = rejected.get();
  EXPECT_EQ(overflow.status.code(), StatusCode::kResourceExhausted);

  gate.Open();
  EXPECT_TRUE(blocked.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServiceTest, ExpiredRequestGetsDeadlineExceeded) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  Gate gate;
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.dequeue_hook = gate.HookBlocking(/*blocked_source=*/1);

  QueryService service(graph, TestConfig(graph), options);
  auto blocked = service.Submit(QueryRequest{1, 0, 0.0});
  gate.AwaitArrival();
  // Queued behind the parked worker with a 1ms deadline.
  auto doomed = service.Submit(QueryRequest{2, 0, 0.001});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();

  EXPECT_TRUE(blocked.get().status.ok());
  const QueryResponse expired = doomed.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.scores, nullptr);
  EXPECT_EQ(service.Snapshot().expired, 1u);
}

TEST(QueryServiceTest, InvalidSourceRejectedImmediately) {
  const Graph graph = ChungLuPowerLaw(100, 500, 2.2, 11);
  ServeOptions options;
  options.num_workers = 1;
  QueryService service(graph, TestConfig(graph), options);
  const QueryResponse response =
      service.Query(QueryRequest{graph.num_nodes(), 0, 0.0});
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, StopDrainsQueuedWorkAndRejectsNewSubmits) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  ServeOptions options;
  options.num_workers = 2;
  QueryService service(graph, TestConfig(graph), options);

  std::vector<std::future<QueryResponse>> pending;
  for (NodeId s = 0; s < 10; ++s) {
    pending.push_back(service.Submit(QueryRequest{s, 0, 0.0}));
  }
  service.Stop();
  // Everything accepted before Stop completes normally.
  for (auto& future : pending) EXPECT_TRUE(future.get().status.ok());
  // New work is refused with an explicit status.
  EXPECT_EQ(service.Query(QueryRequest{1, 0, 0.0}).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, SnapshotIsViewOfMetricsRegistry) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, 10);
  ServeOptions options;
  options.num_workers = 2;
  QueryService service(graph, TestConfig(graph), options);

  service.Query(QueryRequest{3, 0, 0.0});
  service.Query(QueryRequest{3, 0, 0.0});  // cache hit
  service.Query(QueryRequest{4, 0, 0.0});

  // Snapshot numbers and the registered series are the same objects.
  const ServerStats stats = service.Snapshot();
  std::uint64_t submitted = 0;
  std::uint64_t computed = 0;
  std::uint64_t cache_hits = 0;
  double latency_count = 0.0;
  double workers = 0.0;
  for (const auto& sample : service.metrics().TakeSnapshot()) {
    if (sample.name == "resacc_serve_submitted_total") {
      submitted = static_cast<std::uint64_t>(sample.value);
    } else if (sample.name == "resacc_serve_computed_total") {
      computed = static_cast<std::uint64_t>(sample.value);
    } else if (sample.name == "resacc_serve_cache_hits_total") {
      cache_hits = static_cast<std::uint64_t>(sample.value);
    } else if (sample.name == "resacc_serve_latency_seconds") {
      latency_count = static_cast<double>(sample.histogram.count);
    } else if (sample.name == "resacc_serve_workers") {
      workers = sample.value;
    }
  }
  EXPECT_EQ(submitted, stats.submitted);
  EXPECT_EQ(submitted, 3u);
  EXPECT_EQ(computed, stats.computed);
  EXPECT_EQ(computed, 2u);
  EXPECT_EQ(cache_hits, stats.cache_hits);
  EXPECT_EQ(cache_hits, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(latency_count), stats.latency.count);
  EXPECT_DOUBLE_EQ(workers, 2.0);

  const std::string text = service.metrics().RenderPrometheus();
  EXPECT_NE(text.find("resacc_serve_submitted_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE resacc_serve_latency_seconds summary\n"),
            std::string::npos);
}

TEST(QueryServiceTest, PrivateRegistriesIsolateServices) {
  const Graph graph = ChungLuPowerLaw(300, 1500, 2.2, 12);
  ServeOptions options;
  options.num_workers = 1;
  QueryService a(graph, TestConfig(graph), options);
  QueryService b(graph, TestConfig(graph), options);
  EXPECT_NE(&a.metrics(), &b.metrics());

  a.Query(QueryRequest{1, 0, 0.0});
  EXPECT_EQ(a.Snapshot().submitted, 1u);
  EXPECT_EQ(b.Snapshot().submitted, 0u);
}

TEST(QueryServiceTest, SharedRegistryWithDistinctPrefixes) {
  const Graph graph = ChungLuPowerLaw(300, 1500, 2.2, 12);
  MetricsRegistry registry;
  ServeOptions options;
  options.num_workers = 1;
  options.metrics_registry = &registry;
  options.metrics_prefix = "svc_a";
  {
    QueryService a(graph, TestConfig(graph), options);
    options.metrics_prefix = "svc_b";
    QueryService b(graph, TestConfig(graph), options);

    a.Query(QueryRequest{1, 0, 0.0});
    a.Query(QueryRequest{2, 0, 0.0});
    b.Query(QueryRequest{1, 0, 0.0});

    std::uint64_t a_submitted = 0;
    std::uint64_t b_submitted = 0;
    for (const auto& sample : registry.TakeSnapshot()) {
      if (sample.name == "svc_a_submitted_total") {
        a_submitted = static_cast<std::uint64_t>(sample.value);
      } else if (sample.name == "svc_b_submitted_total") {
        b_submitted = static_cast<std::uint64_t>(sample.value);
      }
    }
    EXPECT_EQ(a_submitted, 2u);
    EXPECT_EQ(b_submitted, 1u);
  }
  // Destruction detaches callback series (cache/queue/uptime gauges); the
  // plain counters persist, and scraping must not touch freed state.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("svc_a_submitted_total 2\n"), std::string::npos);
  EXPECT_EQ(text.find("svc_a_queue_depth"), std::string::npos);
  EXPECT_EQ(text.find("svc_b_uptime_seconds"), std::string::npos);
}

}  // namespace
}  // namespace resacc
