// Google-benchmark micro suite for the library's kernels: push operations,
// random walks, BFS hop layers, generators, and the dense/sparse LA
// substrate. These guard the constants behind the paper-level numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/random_walk.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/workload.h"
#include "resacc/util/timer.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/la/dense_matrix.h"
#include "resacc/la/sparse_matrix.h"
#include "resacc/util/alias_table.h"
#include "resacc/util/rng.h"

namespace {

using namespace resacc;

const Graph& BenchGraph() {
  static const Graph& graph =
      *new Graph(ChungLuPowerLaw(50000, 500000, 2.2, 7));
  return graph;
}

RwrConfig BenchConfig() {
  RwrConfig config = RwrConfig::ForGraphSize(BenchGraph().num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  return config;
}

// Forward search from node 0 at r_max = 10^-arg, in pushed edges per
// second. At 1e-4 the rounds hold a handful of pushes each, so the
// per-round promotion walk over the mark bitmap is a visible share. Only
// RunForwardSearch is timed: the O(touched) PushState reset and the
// seeding before it are not push work.
void BM_ForwardSearch(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  const Score r_max = std::pow(10.0, -static_cast<double>(state.range(0)));
  PushState push_state(g.num_nodes());
  PushStats stats;
  for (auto _ : state) {
    push_state.Reset();
    push_state.SetResidue(0, 1.0);
    const NodeId seeds[] = {NodeId{0}};
    const Timer timer;
    stats += RunForwardSearch(g, config, 0, r_max, seeds, false, push_state);
    state.SetIterationTime(timer.ElapsedSeconds());
  }
  state.counters["pushes/iter"] =
      benchmark::Counter(static_cast<double>(stats.push_operations),
                         benchmark::Counter::kAvgIterations);
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(stats.edge_traversals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForwardSearch)->Arg(4)->Arg(5)->Arg(6)->Arg(7)->UseManualTime();

// h-HopFWD's accumulating phase from the graph's largest hub, at the
// solver's defaults (r_max_hop 1e-14, h = 2 under a 15% hop-set cap): a
// hub source, whose rounds deposit into each marked node many times.
void BM_ForwardSearchHHopHub(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  NodeId hub = 0;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(hub)) hub = v;
  }
  HHopFwdOptions options;
  options.max_hop_set_fraction = 0.15;
  PushState push_state(g.num_nodes());
  HopLayers layers;
  PushStats stats;
  for (auto _ : state) {
    push_state.Reset();
    stats += RunHHopFwd(g, config, hub, options, push_state, &layers).push;
  }
  state.counters["pushes/iter"] =
      benchmark::Counter(static_cast<double>(stats.push_operations),
                         benchmark::Counter::kAvgIterations);
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(stats.edge_traversals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForwardSearchHHopHub)->Unit(benchmark::kMillisecond);

void BM_RandomWalks(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  Rng rng(3);
  WalkStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RandomWalkTerminal(g, config, 0, 0, rng, stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.walks));
}
BENCHMARK(BM_RandomWalks);

void BM_RandomWalksGeometric(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  const double inv_log1m_alpha = InvLogOneMinusAlpha(config.alpha);
  Rng rng(3);
  WalkStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomWalkTerminalGeometric(
        g, config, 0, 0, inv_log1m_alpha, rng, stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.walks));
}
BENCHMARK(BM_RandomWalksGeometric);

// The remedy phase's walk workload: slices as RunRemedy would build them
// from a forward push on the bench graph, scaled to a fixed walk count so
// the thread sweep compares like with like.
const std::vector<WalkSlice>& RemedyBenchSlices() {
  static const std::vector<WalkSlice>& slices = *[] {
    const Graph& g = BenchGraph();
    const RwrConfig config = BenchConfig();
    auto* out = new std::vector<WalkSlice>;
    PushState state(g.num_nodes());
    state.SetResidue(0, 1.0);
    const NodeId seeds[] = {NodeId{0}};
    RunForwardSearch(g, config, 0, /*r_max=*/1e-5, seeds, false, state);
    const Score r_sum = state.ResidueSum();
    const double target_walks = 2e6;
    for (NodeId v : state.touched()) {
      const Score residue = state.residue(v);
      if (residue <= 0.0) continue;
      const std::uint64_t walks = static_cast<std::uint64_t>(
          std::ceil(residue * target_walks / r_sum));
      out->push_back(WalkSlice{v, walks,
                               residue / static_cast<Score>(walks),
                               /*stream=*/v});
    }
    return out;
  }();
  return slices;
}

void BM_RemedyWalkEngine(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  const std::vector<WalkSlice>& slices = RemedyBenchSlices();
  WalkEngine engine(static_cast<std::size_t>(state.range(0)));
  const Rng root(17);
  std::vector<Score> scores(g.num_nodes(), 0.0);
  std::uint64_t walks = 0;
  for (auto _ : state) {
    std::fill(scores.begin(), scores.end(), 0.0);
    walks += engine.Run(g, config, 0, root, slices, scores).walks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(walks));
}
BENCHMARK(BM_RemedyWalkEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Graph ingest / storage: text parse (sequential and chunk-parallel),
// RESACC01 binary load, RESACC02 snapshot save + mmap load. Fixture files
// are written once per process into the system temp directory.

std::string BenchTempPath(const char* name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + name;
}

const Graph& IoGraph() {
  static const Graph& graph =
      *new Graph(ChungLuPowerLaw(20000, 200000, 2.2, 11));
  return graph;
}

const std::string& IoTextPath() {
  static const std::string& path = *[] {
    auto* p = new std::string(BenchTempPath("resacc_bench_io.txt"));
    SaveEdgeList(IoGraph(), *p);
    return p;
  }();
  return path;
}

const std::string& IoSnapshotPath() {
  static const std::string& path = *[] {
    auto* p = new std::string(BenchTempPath("resacc_bench_io.rsg"));
    SaveSnapshot(IoGraph(), *p);
    return p;
  }();
  return path;
}

void BM_LoadEdgeList(benchmark::State& state) {
  const std::string& path = IoTextPath();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    StatusOr<Graph> graph = LoadEdgeList(path, false, threads);
    benchmark::DoNotOptimize(graph.value().num_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(IoGraph().num_edges()));
}
BENCHMARK(BM_LoadEdgeList)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_LoadSnapshotMmap(benchmark::State& state) {
  const std::string& path = IoSnapshotPath();
  for (auto _ : state) {
    StatusOr<Graph> graph = LoadSnapshot(path);
    benchmark::DoNotOptimize(graph.value().num_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(IoGraph().num_edges()));
}
BENCHMARK(BM_LoadSnapshotMmap);

void BM_HopLayers(benchmark::State& state) {
  const Graph& g = BenchGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeHopLayers(g, NodeId{0},
                         static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_HopLayers)->Arg(1)->Arg(2)->Arg(3);

void BM_ChungLuGenerate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ChungLuPowerLaw(static_cast<NodeId>(state.range(0)),
                        static_cast<EdgeId>(state.range(0)) * 10, 2.2, 5));
  }
}
BENCHMARK(BM_ChungLuGenerate)->Arg(10000)->Arg(50000);

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(100000);
  Rng rng(1);
  for (double& w : weights) w = rng.NextDouble() + 0.01;
  const AliasTable table(weights);
  Rng sample_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(sample_rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_SparseMatVec(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const SparseMatrix pt = TransitionMatrixTranspose(g);
  std::vector<double> x(g.num_nodes(), 1.0 / g.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.MultiplyVector(x));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pt.nnz()));
}
BENCHMARK(BM_SparseMatVec);

void BM_DenseLuFactor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.At(r, c) = rng.NextDouble();
    a.At(r, r) += static_cast<double>(n);  // diagonally dominant
  }
  for (auto _ : state) {
    DenseMatrix copy = a;
    const LuDecomposition lu(std::move(copy));
    benchmark::DoNotOptimize(lu.ok());
  }
}
BENCHMARK(BM_DenseLuFactor)->Arg(128)->Arg(512);

// Machine-readable record of the walk-engine thread sweep, for CI trend
// tracking (--walk_engine_json=PATH). Reports per-thread-count throughput
// (walks and steps per second), speedup over sequential, how often a
// worker with no live walk waited for the reorder window, a bitwise
// comparison against the sequential scores (the walk_engine.h contract),
// and the per-step vs geometric single-walk sampling throughput.
constexpr int kWalkEngineTimedRuns = 5;

int WriteWalkEngineJson(const std::string& path) {
  const Graph& g = BenchGraph();
  const RwrConfig config = BenchConfig();
  const std::vector<WalkSlice>& slices = RemedyBenchSlices();
  const Rng root(17);

  struct Sweep {
    std::size_t threads;
    double seconds;
    WalkEngineStats stats;
    bool bit_identical;
  };
  std::vector<Sweep> sweeps;
  std::vector<Score> reference;
  bool all_identical = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WalkEngine engine(threads);
    std::vector<Score> scores(g.num_nodes(), 0.0);
    // Warm-up run builds the pool and faults in the workspace and the
    // terminal ring; the row is the median of the timed runs (a shared
    // host drifts between runs).
    engine.Run(g, config, 0, root, slices, scores);
    std::vector<Sweep> runs;
    for (int run = 0; run < kWalkEngineTimedRuns; ++run) {
      std::fill(scores.begin(), scores.end(), 0.0);
      Timer timer;
      const WalkEngineStats stats =
          engine.Run(g, config, 0, root, slices, scores);
      const double seconds = timer.ElapsedSeconds();
      if (threads == 1 && run == 0) reference = scores;
      const bool identical = scores == reference;
      all_identical = all_identical && identical;
      runs.push_back(Sweep{threads, seconds, stats, identical});
    }
    std::sort(runs.begin(), runs.end(), [](const Sweep& a, const Sweep& b) {
      return a.seconds < b.seconds;
    });
    sweeps.push_back(runs[runs.size() / 2]);
  }

  const auto sampling_walks_per_sec = [&](auto&& walk_fn) {
    Rng rng(3);
    WalkStats stats;
    const std::uint64_t walks = 400000;
    Timer timer;
    for (std::uint64_t i = 0; i < walks; ++i) walk_fn(rng, stats);
    return static_cast<double>(walks) / timer.ElapsedSeconds();
  };
  const double per_step = sampling_walks_per_sec(
      [&](Rng& rng, WalkStats& stats) {
        benchmark::DoNotOptimize(
            RandomWalkTerminal(g, config, 0, 0, rng, stats));
      });
  const double inv_log1m_alpha = InvLogOneMinusAlpha(config.alpha);
  const double geometric = sampling_walks_per_sec(
      [&](Rng& rng, WalkStats& stats) {
        benchmark::DoNotOptimize(RandomWalkTerminalGeometric(
            g, config, 0, 0, inv_log1m_alpha, rng, stats));
      });

  JsonWriter json;
  json.BeginObject().Field("bench", "walk_engine");
  json.Key("graph")
      .BeginObject()
      .Field("nodes", g.num_nodes())
      .Field("edges", g.num_edges())
      .EndObject();
  json.Field("block_walks", WalkEngine::kBlockWalks)
      .Field("host_hardware_concurrency", std::thread::hardware_concurrency())
      .Field("timed_runs", kWalkEngineTimedRuns)
      .Field("all_bit_identical", all_identical);
  json.Key("thread_sweep").BeginArray();
  for (const Sweep& s : sweeps) {
    json.BeginObject()
        .Field("walk_threads", s.threads)
        .Field("seconds", s.seconds)
        .Field("walks", s.stats.walks)
        .Field("walks_per_sec", static_cast<double>(s.stats.walks) / s.seconds)
        .Field("steps_per_sec", static_cast<double>(s.stats.steps) / s.seconds)
        .Field("speedup", sweeps[0].seconds / s.seconds)
        .Field("reorder_stalls", s.stats.reorder_stalls)
        .Field("bit_identical", s.bit_identical)
        .EndObject();
  }
  json.EndArray();
  json.Key("sampling")
      .BeginObject()
      .Field("per_step_walks_per_sec", per_step)
      .Field("geometric_walks_per_sec", geometric)
      .Field("speedup", geometric / per_step)
      .EndObject()
      .EndObject();
  if (!bench::WriteRecord(path, json)) return 2;
  return all_identical ? 0 : 1;
}

bool SameCsr(const Graph& a, const Graph& b) {
  const auto eq = [](auto lhs, auto rhs) {
    return lhs.size() == rhs.size() &&
           std::equal(lhs.begin(), lhs.end(), rhs.begin());
  };
  return a.num_nodes() == b.num_nodes() &&
         eq(a.raw_out_offsets(), b.raw_out_offsets()) &&
         eq(a.raw_out_targets(), b.raw_out_targets()) &&
         eq(a.raw_in_offsets(), b.raw_in_offsets()) &&
         eq(a.raw_in_sources(), b.raw_in_sources());
}

// Machine-readable graph-ingest/load throughput record for CI trend
// tracking (--graph_io_json=PATH): a 1M-edge power-law graph is saved and
// reloaded through every storage path (text sequential/parallel, RESACC01
// binary, RESACC02 snapshot mmap/buffered) with edges-per-second rates and
// a CSR bit-identity check across all loads (exit 1 on mismatch).
int WriteGraphIoJson(const std::string& path) {
  const Graph graph = ChungLuPowerLaw(100000, 1000000, 2.2, 9);
  const std::string text_path = BenchTempPath("resacc_graph_io_bench.txt");
  const std::string bin_path = BenchTempPath("resacc_graph_io_bench.bin");
  const std::string rsg_path = BenchTempPath("resacc_graph_io_bench.rsg");

  struct Row {
    const char* op;
    double seconds;
    bool identical;
  };
  std::vector<Row> rows;
  bool all_identical = true;
  const auto timed = [&](const char* op, auto&& fn) {
    Timer timer;
    const bool identical = fn();
    rows.push_back(Row{op, timer.ElapsedSeconds(), identical});
    all_identical = all_identical && identical;
  };

  timed("save_text", [&] { return SaveEdgeList(graph, text_path).ok(); });
  timed("load_text_seq", [&] {
    StatusOr<Graph> loaded = LoadEdgeList(text_path, false, 1);
    return loaded.ok() && SameCsr(graph, loaded.value());
  });
  timed("load_text_parallel", [&] {
    StatusOr<Graph> loaded = LoadEdgeList(text_path, false, 0);
    return loaded.ok() && SameCsr(graph, loaded.value());
  });
  timed("save_binary", [&] { return SaveBinary(graph, bin_path).ok(); });
  timed("load_binary", [&] {
    StatusOr<Graph> loaded = LoadBinary(bin_path);
    return loaded.ok() && SameCsr(graph, loaded.value());
  });
  timed("save_snapshot", [&] { return SaveSnapshot(graph, rsg_path).ok(); });
  timed("load_snapshot_mmap", [&] {
    StatusOr<Graph> loaded = LoadSnapshot(rsg_path);
    return loaded.ok() && loaded.value().borrows_storage() &&
           SameCsr(graph, loaded.value());
  });
  timed("load_snapshot_buffered", [&] {
    SnapshotLoadOptions options;
    options.prefer_mmap = false;
    options.verify_section_checksum = true;
    StatusOr<Graph> loaded = LoadSnapshot(rsg_path, options);
    return loaded.ok() && !loaded.value().borrows_storage() &&
           SameCsr(graph, loaded.value());
  });

  JsonWriter json;
  json.BeginObject().Field("bench", "graph_io");
  json.Key("graph")
      .BeginObject()
      .Field("nodes", graph.num_nodes())
      .Field("edges", graph.num_edges())
      .EndObject();
  json.Field("parse_threads", std::thread::hardware_concurrency())
      .Field("all_loads_bit_identical", all_identical);
  json.Key("operations").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject()
        .Field("op", row.op)
        .Field("seconds", row.seconds)
        .Field("edges_per_sec",
               static_cast<double>(graph.num_edges()) / row.seconds)
        .Field("ok", row.identical)
        .EndObject();
  }
  json.EndArray().EndObject();
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  std::remove(rsg_path.c_str());
  if (!bench::WriteRecord(path, json)) return 2;
  return all_identical ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Dynamic graphs: mutation throughput through MutableGraphView (single-edge
// publishes vs ApplyBatch), compaction fold time, and the payoff of the
// guarantee-preserving cache invalidation — cache hit rate under a Zipfian
// query stream with interleaved churn, targeted promotion vs the
// flush-everything baseline.

void BM_EdgeToggle(benchmark::State& state) {
  MutableGraphView view(ChungLuPowerLaw(20000, 200000, 2.2, 11));
  const NodeId n = 20000;
  Rng rng(5);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (v == u) v = (v + 1) % n;
    // Toggle: the add either lands or tells us the edge exists.
    if (view.AddEdge(u, v).code() == StatusCode::kAlreadyExists) {
      benchmark::DoNotOptimize(view.RemoveEdge(u, v));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeToggle);

// One churn serving run: `queries` Zipfian queries with a batch of
// `kChurnBatch` cold-region edge toggles (plus an UpdateGraph) every
// `kChurnPeriod` queries. Returns the observed cache hits; kept/dropped
// come out of the service's own counters.
struct ChurnResult {
  std::size_t hits = 0;
  std::size_t queries = 0;
  std::uint64_t promoted = 0;
  std::uint64_t dropped = 0;
  std::size_t mutation_batches = 0;
};

constexpr std::size_t kChurnQueries = 400;
constexpr std::size_t kChurnPeriod = 15;
constexpr std::size_t kChurnBatch = 8;

ChurnResult RunChurnWorkload(ServeOptions::InvalidationMode mode) {
  // Fresh, identically seeded world per mode: same graph, same query
  // stream, same mutation stream — the only difference is the policy.
  Graph base = ChungLuPowerLaw(10000, 100000, 2.2, 21);
  const NodeId n = base.num_nodes();
  RwrConfig config = RwrConfig::ForGraphSize(n);
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 77;
  MutableGraphView view(std::move(base));

  ServeOptions options;
  options.num_workers = 2;
  options.invalidation = mode;
  const Graph serving = view.Snapshot();
  QueryService service(serving, config, options);

  ZipfianSources workload(n, /*theta=*/0.99, /*seed=*/31);
  Rng qrng(31);
  Rng mrng(87);

  // Churn lands on the graph's periphery: edges among nodes that start
  // with zero in-degree. No walk from any other source ever reaches those
  // rows (and edges added within the set keep it closed), so their
  // influence bound is exactly zero — the regime targeted invalidation is
  // built for, a fringe that churns while the core serves queries.
  // Queries sourced *inside* the fringe do carry mass there and are
  // correctly dropped, which keeps the comparison honest.
  std::vector<NodeId> fringe;
  {
    const Graph snapshot = view.Snapshot();
    for (NodeId u = 0; u < n; ++u) {
      if (snapshot.InDegree(u) == 0) fringe.push_back(u);
    }
  }
  if (fringe.size() < 2) return ChurnResult{};  // degenerate generator seed

  const auto mutate_batch = [&] {
    const Graph snapshot = view.Snapshot();
    GraphDelta delta;
    std::vector<EdgeMutation> batch;
    for (std::size_t i = 0; i < kChurnBatch; ++i) {
      const NodeId u = fringe[mrng.NextBounded(fringe.size())];
      NodeId v = fringe[mrng.NextBounded(fringe.size())];
      if (v == u) continue;
      batch.push_back(EdgeMutation{u, v, snapshot.HasEdge(u, v)});
    }
    if (view.ApplyBatch(batch, &delta).ok()) {
      service.UpdateGraph(view.Snapshot(), delta);
    }
  };

  ChurnResult result;
  for (std::size_t i = 0; i < kChurnQueries; ++i) {
    if (i > 0 && i % kChurnPeriod == 0) {
      mutate_batch();
      ++result.mutation_batches;
    }
    QueryRequest request;
    request.source = workload.Next(qrng);
    const QueryResponse response = service.Query(request);
    if (!response.status.ok()) continue;
    ++result.queries;
    if (response.cache_hit) ++result.hits;
  }
  result.promoted =
      service.metrics().GetCounter("resacc_serve_cache_kept_total").Value();
  result.dropped =
      service.metrics().GetCounter("resacc_serve_invalidated_total").Value();
  return result;
}

// Machine-readable record of the dynamic-graph subsystem
// (--dynamic_json=PATH): mutation publish throughput (single vs batched),
// compaction fold time, and the churn-serving hit-rate comparison. Exits 1
// unless targeted invalidation beats the flush-everything baseline
// strictly — the acceptance criterion of the live-graph PR.
int WriteDynamicJson(const std::string& path) {
  const NodeId n = 20000;
  MutableGraphView view(ChungLuPowerLaw(n, 200000, 2.2, 11));
  Rng rng(5);

  // Single-edge publishes: every op is one epoch (one overlay version).
  const std::size_t single_ops = 20000;
  Timer single_timer;
  for (std::size_t i = 0; i < single_ops; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (v == u) v = (v + 1) % n;
    if (view.AddEdge(u, v).code() == StatusCode::kAlreadyExists) {
      (void)view.RemoveEdge(u, v);
    }
  }
  const double single_seconds = single_timer.ElapsedSeconds();

  // Batched publishes: kBatch mutations amortize one epoch.
  const std::size_t kBatch = 1000;
  const std::size_t num_batches = 20;
  Timer batch_timer;
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<EdgeMutation> batch;
    const Graph snapshot = view.Snapshot();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (v == u) v = (v + 1) % n;
      batch.push_back(EdgeMutation{u, v, snapshot.HasEdge(u, v)});
    }
    std::size_t skipped = 0;
    (void)view.ApplyBatch(batch, nullptr, &skipped);
  }
  const double batch_seconds = batch_timer.ElapsedSeconds();

  const MutableGraphStats before_fold = view.stats();
  Timer compact_timer;
  const CompactionInfo fold = view.Compact();
  const double compact_seconds = compact_timer.ElapsedSeconds();

  const ChurnResult targeted =
      RunChurnWorkload(ServeOptions::InvalidationMode::kTargeted);
  const ChurnResult flush =
      RunChurnWorkload(ServeOptions::InvalidationMode::kFlushAll);
  const bool strictly_higher = targeted.hits > flush.hits;

  const auto rate = [](std::size_t hits, std::size_t queries) {
    return queries > 0
               ? static_cast<double>(hits) / static_cast<double>(queries)
               : 0.0;
  };
  JsonWriter json;
  json.BeginObject().Field("bench", "dynamic");
  json.Key("graph")
      .BeginObject()
      .Field("nodes", n)
      .Field("edges", 200000)
      .EndObject();
  json.Key("mutation_throughput")
      .BeginObject()
      .Field("single_ops", single_ops)
      .Field("single_ops_per_sec",
             static_cast<double>(single_ops) / single_seconds)
      .Field("batched_ops", kBatch * num_batches)
      .Field("batch_size", kBatch)
      .Field("batched_ops_per_sec",
             static_cast<double>(kBatch * num_batches) / batch_seconds)
      .EndObject();
  json.Key("compaction")
      .BeginObject()
      .Field("seconds", compact_seconds)
      .Field("folded_rows", fold.folded_rows)
      .Field("overlay_rows_before", before_fold.overlay_rows)
      .Field("generation", fold.generation)
      .EndObject();
  json.Key("churn_cache")
      .BeginObject()
      .Field("queries", kChurnQueries)
      .Field("zipf_theta", 0.99)
      .Field("mutation_batches", targeted.mutation_batches)
      .Field("batch_size", kChurnBatch);
  json.Key("targeted")
      .BeginObject()
      .Field("hits", targeted.hits)
      .Field("hit_rate", rate(targeted.hits, targeted.queries))
      .Field("promoted", targeted.promoted)
      .Field("dropped", targeted.dropped)
      .EndObject();
  json.Key("flush_all")
      .BeginObject()
      .Field("hits", flush.hits)
      .Field("hit_rate", rate(flush.hits, flush.queries))
      .Field("dropped", flush.dropped)
      .EndObject();
  json.Field("targeted_strictly_higher", strictly_higher)
      .EndObject()
      .EndObject();
  if (!bench::WriteRecord(path, json)) return 2;
  std::printf("targeted hits %zu vs flush %zu\n", targeted.hits, flush.hits);
  if (!strictly_higher) {
    std::fprintf(stderr,
                 "dynamic bench: targeted invalidation did not beat "
                 "flush-all (%zu <= %zu)\n",
                 targeted.hits, flush.hits);
  }
  return strictly_higher ? 0 : 1;
}

}  // namespace

// BENCHMARK_MAIN plus three extra flags, all run after the registered
// benchmarks: --walk_engine_json=PATH writes the walk-engine thread-sweep
// record, --graph_io_json=PATH the graph-ingest/storage record, and
// --dynamic_json=PATH the live-graph mutation/compaction/invalidation
// record. Each exits 1 if its built-in assertion fails (bitwise identity
// for the first two, targeted-beats-flush for the dynamic one) — these
// are the CI smoke test's assertions — and 2 if it cannot be written in
// full.
int main(int argc, char** argv) {
  const std::string walk_json_path =
      bench::TakeFlag(argc, argv, "walk_engine_json");
  const std::string io_json_path = bench::TakeFlag(argc, argv, "graph_io_json");
  const std::string dynamic_json_path =
      bench::TakeFlag(argc, argv, "dynamic_json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The worst outcome wins: 2 (a record not written) over 1 (a failed
  // assertion) over 0.
  int exit_code = 0;
  if (!walk_json_path.empty()) {
    exit_code = std::max(exit_code, WriteWalkEngineJson(walk_json_path));
  }
  if (!io_json_path.empty()) {
    exit_code = std::max(exit_code, WriteGraphIoJson(io_json_path));
  }
  if (!dynamic_json_path.empty()) {
    exit_code = std::max(exit_code, WriteDynamicJson(dynamic_json_path));
  }
  return exit_code;
}
