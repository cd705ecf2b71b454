#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/util/alias_table.h"
#include "resacc/util/env.h"
#include "resacc/util/fair_queue.h"
#include "resacc/util/histogram.h"
#include "resacc/util/json.h"
#include "resacc/util/rng.h"
#include "resacc/util/stats.h"
#include "resacc/util/status.h"
#include "resacc/util/table.h"
#include "resacc/util/top_k.h"

namespace resacc {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInRangeAndCoversAll) {
  Rng rng(3);
  std::vector<int> histogram(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const std::uint64_t x = rng.NextBounded(7);
    ASSERT_LT(x, 7u);
    ++histogram[x];
  }
  for (int count : histogram) EXPECT_GT(count, 700);  // ~1000 expected
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.2, 0.01);
}

TEST(RngTest, ForkProducesIndependentButReproducibleStreams) {
  const Rng base(99);
  Rng fork1 = base.Fork(1);
  Rng fork2 = base.Fork(2);
  EXPECT_NE(fork1.Next(), fork2.Next());
  // Forking again with the same stream id reproduces the stream exactly.
  Rng fork1_a = base.Fork(1);
  Rng fork1_b = base.Fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fork1_a.Next(), fork1_b.Next());
}

TEST(AliasTableTest, MatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng(5);
  std::vector<int> histogram(4, 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++histogram[table.Sample(rng)];
  for (int i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(histogram[i] / static_cast<double>(trials), expected, 0.01)
        << "bucket " << i;
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0, 1.0});
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, SingleBucket) {
  AliasTable table({3.5});
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(StatsTest, SummaryOfKnownSample) {
  const SampleSummary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).count, 0u);
  const SampleSummary one = Summarize({7.0});
  EXPECT_DOUBLE_EQ(one.min, 7.0);
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> sorted = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0), 10.0);
}

TEST(StatsTest, RunningStatMatchesBatch) {
  RunningStat rs;
  std::vector<double> values = {2.5, -1.0, 7.0, 3.25, 0.0};
  for (double v : values) rs.Add(v);
  const SampleSummary batch = Summarize(values);
  EXPECT_NEAR(rs.mean(), batch.mean, 1e-12);
  EXPECT_NEAR(rs.stddev(), batch.stddev, 1e-12);
}

TEST(TopKTest, OrdersByScoreThenId) {
  const std::vector<Score> scores = {0.5, 0.9, 0.5, 0.1};
  const std::vector<NodeId> top = TopKIndices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 0u);  // ties break toward lower id
  EXPECT_EQ(top[2], 2u);
}

TEST(TopKTest, KLargerThanSize) {
  const std::vector<Score> scores = {0.2, 0.8};
  EXPECT_EQ(TopKIndices(scores, 10).size(), 2u);
}

TEST(TopKTest, PairsCarryScores) {
  const auto pairs = TopKPairs({0.1, 0.3, 0.2}, 2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, 1u);
  EXPECT_DOUBLE_EQ(pairs[0].second, 0.3);
}

TEST(StatusTest, OkAndErrorRendering) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status::InvalidArgument("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AlignsColumns) {
  TextTable table({"a", "bb"});
  table.AddRow({"xxx", "y"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("a    bb"), std::string::npos);
  EXPECT_NE(out.find("xxx  y"), std::string::npos);
}

TEST(TableTest, FormattersProduceReadableUnits) {
  EXPECT_EQ(FmtSeconds(2.5), "2.500 s");
  EXPECT_EQ(FmtSeconds(0.002), "2.000 ms");
  EXPECT_EQ(FmtBytes(1536.0), "1.54 KB");
  EXPECT_EQ(FmtBytes(2.5e9), "2.50 GB");
  EXPECT_EQ(Fmt(1.5e-9), "1.500e-09");
}

TEST(LatencyHistogramTest, QuantileEdgesAndEmpty) {
  LatencyHistogram histogram;
  // Empty: every quantile is zero, as is the snapshot.
  EXPECT_EQ(histogram.Quantile(0.0), 0.0);
  EXPECT_EQ(histogram.Quantile(1.0), 0.0);
  EXPECT_EQ(histogram.TakeSnapshot().count, 0u);

  histogram.Record(0.001);
  histogram.Record(0.100);
  // q outside [0,1] clamps rather than reading out of range.
  EXPECT_EQ(histogram.Quantile(-1.0), histogram.Quantile(0.0));
  EXPECT_EQ(histogram.Quantile(2.0), histogram.Quantile(1.0));
  // q=0 resolves to the first occupied bucket, q=1 to the last; bucket
  // bounds overestimate by at most the ~8.5% bucket growth factor.
  EXPECT_GE(histogram.Quantile(0.0), 0.001);
  EXPECT_LE(histogram.Quantile(0.0), 0.001 * 1.1);
  EXPECT_GE(histogram.Quantile(1.0), 0.100);
  EXPECT_LE(histogram.Quantile(1.0), 0.100 * 1.1);
}

TEST(LatencyHistogramTest, UnderflowAndOverflowBuckets) {
  LatencyHistogram histogram;
  histogram.Record(0.0);     // <= 0 lands in the underflow bucket
  histogram.Record(-5.0);    // negative too, and must not poison the sum
  histogram.Record(1e-9);    // below the 1us floor
  histogram.Record(5e3);     // above the 1000s ceiling
  const LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 4u);
  // Underflow reads back as the floor, overflow as the ceiling.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1e3);
  EXPECT_DOUBLE_EQ(snapshot.max, 5e3);
  EXPECT_NEAR(snapshot.mean, (1e-9 + 5e3) / 4.0, 1e-6);
}

TEST(LatencyHistogramTest, ResetForgetsEverything) {
  LatencyHistogram histogram;
  histogram.Record(0.5);
  histogram.Record(2.0);
  ASSERT_EQ(histogram.count(), 2u);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  const LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.mean, 0.0);
  EXPECT_EQ(snapshot.max, 0.0);
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);
  // Usable after Reset.
  histogram.Record(0.25);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(LatencyHistogramTest, ConcurrentRecordVsSnapshot) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&histogram, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
      // A mid-update snapshot may be short but never corrupt: count within
      // range, quantiles within the recorded value span.
      EXPECT_LE(snapshot.count, kThreads * kPerThread);
      if (snapshot.count > 0) {
        EXPECT_GE(snapshot.p50, 1e-4);
        EXPECT_LE(snapshot.p99, 1e-2 * 1.1);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&histogram] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(i % 2 == 0 ? 1e-4 : 1e-2);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_NEAR(histogram.TakeSnapshot().mean, (1e-4 + 1e-2) / 2.0, 1e-5);
}

TEST(WeightedFairQueueTest, SingleLaneIsFifoWithCapacity) {
  WeightedFairQueue<int> queue(3, {});
  EXPECT_EQ(queue.num_lanes(), 1u);
  EXPECT_EQ(queue.capacity(), 3u);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_FALSE(queue.TryPush(4));  // lane full
  int out = 0;
  EXPECT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.TryPush(4));  // slot freed
  EXPECT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(queue.TryPop(out));
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(queue.TryPop(out));
}

TEST(WeightedFairQueueTest, BackloggedLanesDrainByWeight) {
  // Two saturated lanes at 4:1 — the drain order must interleave 4 heavy
  // items per light item, and the light lane must never starve (the
  // enqueue-time tag stamping is what guarantees this).
  WeightedFairQueue<int> queue(64, {4.0, 1.0});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(queue.TryPush(/*heavy marker*/ 1, 0));
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(queue.TryPush(/*light marker*/ 2, 1));
  }
  int heavy = 0;
  int light = 0;
  int out = 0;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(queue.TryPop(out));
    (out == 1 ? heavy : light) += 1;
  }
  EXPECT_EQ(heavy, 20);  // 4/5 of 25
  EXPECT_EQ(light, 5);   // 1/5 of 25
}

TEST(WeightedFairQueueTest, IdleLaneGetsNoCatchUpBurst) {
  // Lane 1 idles while lane 0 is served, then starts pushing: it must get
  // its steady-state half share, not a burst repaying the idle time.
  WeightedFairQueue<int> queue(64, {1.0, 1.0});
  int out = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(queue.TryPush(1, 0));
    ASSERT_TRUE(queue.TryPop(out));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.TryPush(1, 0));
    ASSERT_TRUE(queue.TryPush(2, 1));
  }
  int first = 0;
  int second = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.TryPop(out));
    (out == 1 ? first : second) += 1;
  }
  EXPECT_EQ(first, 5);
  EXPECT_EQ(second, 5);
}

TEST(WeightedFairQueueTest, PromoteIfSoonerReLanesQueuedItem) {
  WeightedFairQueue<int> queue(8, {4.0, 1.0});
  // Backlog the light lane; the item of interest (99) sits at its tail.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(100 + i, 1));
  ASSERT_TRUE(queue.TryPush(99, 1));
  // Promoting into the empty heavy lane gives 99 an earlier finish: it
  // must now be served before the light lane's older backlog.
  EXPECT_TRUE(queue.PromoteIfSooner(99, 0));
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 99);
  // A second promote finds nothing (already popped).
  EXPECT_FALSE(queue.PromoteIfSooner(99, 0));
  // A full target lane refuses the move (the item keeps its old slot).
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.TryPush(i, 0));
  EXPECT_FALSE(queue.PromoteIfSooner(100, 0));
  EXPECT_EQ(queue.lane_size(1), 5u);
  // Promoting an item into the lane it already occupies is a no-op.
  EXPECT_FALSE(queue.PromoteIfSooner(100, 1));
  EXPECT_EQ(queue.size(), 13u);
}

TEST(WeightedFairQueueTest, CloseDrainsThenReturnsFalse) {
  WeightedFairQueue<int> queue(8, {2.0, 1.0});
  ASSERT_TRUE(queue.TryPush(10, 0));
  ASSERT_TRUE(queue.TryPush(20, 1));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(30, 0));  // closed rejects pushes
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));  // queued items still drain
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_FALSE(queue.Pop(out));  // drained + closed
}

TEST(WeightedFairQueueTest, PopUnblocksOnConcurrentPush) {
  WeightedFairQueue<int> queue(4, {1.0, 3.0});
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.TryPush(7, 1);
  });
  int out = 0;
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 7);
  producer.join();
}

TEST(EnvTest, ParsesAndDefaults) {
  ::setenv("RESACC_TEST_ENV_D", "2.5", 1);
  ::setenv("RESACC_TEST_ENV_I", "42", 1);
  ::setenv("RESACC_TEST_ENV_BAD", "oops", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("RESACC_TEST_ENV_D", 1.0), 2.5);
  EXPECT_EQ(GetEnvInt("RESACC_TEST_ENV_I", 7), 42);
  EXPECT_EQ(GetEnvInt("RESACC_TEST_ENV_BAD", 7), 7);
  EXPECT_EQ(GetEnvInt("RESACC_TEST_ENV_UNSET", 9), 9);
  EXPECT_EQ(GetEnvString("RESACC_TEST_ENV_UNSET", "dft"), "dft");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter json;
  json.Value("a\"b\\c\n\t\x01\x1f \xc3\xa9/");
  EXPECT_EQ(json.str(),
            "\"a\\\"b\\\\c\\u000a\\u0009\\u0001\\u001f \xc3\xa9/\"");
}

TEST(JsonWriterTest, NonFiniteDoublesAreStringsAndFiniteOnesRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  const double third = 1.0 / 3.0;
  JsonWriter json;
  json.BeginArray()
      .Value(inf)
      .Value(-inf)
      .Value(std::numeric_limits<double>::quiet_NaN())
      .Value(0.1)
      .Value(1e-5)
      .Value(third)
      .Value(5000.0)
      .Value(-3)
      .Value(std::numeric_limits<std::uint64_t>::max())
      .Value(false)
      .EndArray();
  EXPECT_EQ(json.str(),
            "[\n  \"inf\",\n  \"-inf\",\n  \"nan\",\n  0.1,\n  1e-05,\n"
            "  0.3333333333333333,\n  5000,\n  -3,\n"
            "  18446744073709551615,\n  false\n]");
  EXPECT_EQ(std::strtod("0.3333333333333333", nullptr), third);
}

TEST(JsonWriterTest, LaysOutEmptyAndNestedContainers) {
  JsonWriter empty;
  empty.BeginArray().EndArray();
  EXPECT_EQ(empty.str(), "[]");

  JsonWriter json;
  json.BeginObject()
      .Key("empty")
      .BeginObject()
      .EndObject()
      .Field("name", "x")
      .Key("list")
      .BeginArray()
      .BeginObject()
      .Field("k", 1)
      .EndObject()
      .BeginArray()
      .EndArray()
      .EndArray()
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"empty\": {},\n"
            "  \"name\": \"x\",\n"
            "  \"list\": [\n"
            "    {\n"
            "      \"k\": 1\n"
            "    },\n"
            "    []\n"
            "  ]\n"
            "}");
}

TEST(WriteTextFileTest, WritesTheWholeText) {
  const std::string path = ::testing::TempDir() + "/resacc_write_text.json";
  ASSERT_TRUE(WriteTextFile(path, "{}\n").ok());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{}\n");
  std::remove(path.c_str());
}

TEST(WriteTextFileTest, FailsOnAMissingDirectory) {
  const Status status = WriteTextFile(
      ::testing::TempDir() + "/resacc_no_such_dir/record.json", "{}\n");
  EXPECT_FALSE(status.ok());
}

TEST(WriteTextFileTest, FailsOnAFullDevice) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  // The open succeeds; the write or the flush at close fails.
  const Status status = WriteTextFile("/dev/full", "{}\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("/dev/full"), std::string::npos);
}

}  // namespace
}  // namespace resacc
