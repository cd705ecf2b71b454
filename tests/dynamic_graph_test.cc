// Live graphs (DESIGN.md "Dynamic graphs"): MutableGraphView's delta
// overlay, epoch snapshots, compaction, and the serving layer's
// guarantee-preserving cache invalidation.
//
// The load-bearing contract is *bit-identity*: a mutated view's Snapshot()
// must be indistinguishable — row by row, and through every solver — from
// a fresh GraphBuilder build of the same edge set. The solvers are
// deterministic given (graph, config, seed), so graph equality is checked
// both structurally and through ResAcc/FORA/MC score vectors.

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/fora.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/graph/dynamic/invalidation.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_builder.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/rng.h"

namespace resacc {
namespace {

// The edge set of a graph, read through the public accessors (i.e. the
// merged view when an overlay is present).
std::set<std::pair<NodeId, NodeId>> EdgeSet(const Graph& graph) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const NodeId v : graph.OutNeighbors(u)) edges.insert({u, v});
  }
  return edges;
}

Graph Rebuild(NodeId num_nodes,
              const std::set<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

// Row-by-row equality through the public accessors, both directions.
void ExpectGraphsIdentical(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    const auto got_out = got.OutNeighbors(u);
    const auto want_out = want.OutNeighbors(u);
    ASSERT_TRUE(std::equal(got_out.begin(), got_out.end(), want_out.begin(),
                           want_out.end()))
        << "out-row mismatch at node " << u;
    const auto got_in = got.InNeighbors(u);
    const auto want_in = want.InNeighbors(u);
    ASSERT_TRUE(std::equal(got_in.begin(), got_in.end(), want_in.begin(),
                           want_in.end()))
        << "in-row mismatch at node " << u;
  }
}

// --- Mutation API semantics ----------------------------------------------

TEST(MutableGraphViewTest, AddAndRemoveEdgeMergeIntoRows) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  MutableGraphView view(std::move(builder).Build());

  GraphDelta delta;
  ASSERT_TRUE(view.AddEdge(0, 3, &delta).ok());
  EXPECT_EQ(delta.epoch, 1u);
  EXPECT_EQ(delta.dirty_out, std::vector<NodeId>{0});
  EXPECT_EQ(delta.edges_added, 1u);
  EXPECT_FALSE(delta.nodes_added);

  const Graph snapshot = view.Snapshot();
  EXPECT_TRUE(snapshot.has_overlay());
  EXPECT_EQ(snapshot.num_edges(), 3u);
  EXPECT_EQ(snapshot.OutDegree(0), 2u);
  EXPECT_TRUE(snapshot.HasEdge(0, 3));
  EXPECT_EQ(snapshot.InDegree(3), 1u);
  // Untouched rows still come from the base spans.
  EXPECT_EQ(snapshot.OutDegree(1), 1u);

  ASSERT_TRUE(view.RemoveEdge(0, 1, &delta).ok());
  EXPECT_EQ(delta.epoch, 2u);
  EXPECT_EQ(delta.edges_removed, 1u);
  const Graph after = view.Snapshot();
  EXPECT_FALSE(after.HasEdge(0, 1));
  EXPECT_TRUE(after.HasEdge(0, 3));
  EXPECT_EQ(after.num_edges(), 2u);
}

TEST(MutableGraphViewTest, MutationValidation) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  MutableGraphView view(std::move(builder).Build());

  EXPECT_EQ(view.AddEdge(0, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(view.AddEdge(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(view.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(view.RemoveEdge(1, 0).code(), StatusCode::kNotFound);
  // None of the rejected mutations published an epoch.
  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_FALSE(view.Snapshot().has_overlay());
}

TEST(MutableGraphViewTest, ApplyBatchIsOneEpochAndSkipsInvalid) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  MutableGraphView view(std::move(builder).Build());

  const EdgeMutation batch[] = {
      {1, 2, false}, {0, 1, false},  // duplicate: skipped
      {2, 3, false}, {3, 3, false},  // self loop: skipped
      {0, 1, true},
  };
  GraphDelta delta;
  std::size_t skipped = 0;
  ASSERT_TRUE(view.ApplyBatch(batch, &delta, &skipped).ok());
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(view.epoch(), 1u);  // the whole batch is one epoch
  EXPECT_EQ(delta.edges_added, 2u);
  EXPECT_EQ(delta.edges_removed, 1u);
  EXPECT_EQ(delta.dirty_out, (std::vector<NodeId>{0, 1, 2}));

  const Graph snapshot = view.Snapshot();
  EXPECT_EQ(EdgeSet(snapshot),
            (std::set<std::pair<NodeId, NodeId>>{{1, 2}, {2, 3}}));

  // A batch where nothing applies returns the first error, no new epoch.
  const EdgeMutation bad[] = {{0, 1, true}, {2, 2, false}};
  EXPECT_EQ(view.ApplyBatch(bad, &delta, &skipped).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(skipped, 2u);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(view.epoch(), 1u);
}

TEST(MutableGraphViewTest, AddNodeGrowsTail) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  MutableGraphView view(std::move(builder).Build());

  GraphDelta delta;
  const NodeId id = view.AddNode(&delta);
  EXPECT_EQ(id, 2u);
  EXPECT_TRUE(delta.nodes_added);

  Graph snapshot = view.Snapshot();
  EXPECT_EQ(snapshot.num_nodes(), 3u);
  EXPECT_EQ(snapshot.OutDegree(id), 0u);
  EXPECT_EQ(snapshot.InDegree(id), 0u);

  // The tail node is immediately connectable, in both directions.
  ASSERT_TRUE(view.AddEdge(id, 0).ok());
  ASSERT_TRUE(view.AddEdge(1, id).ok());
  snapshot = view.Snapshot();
  EXPECT_TRUE(snapshot.HasEdge(id, 0));
  EXPECT_TRUE(snapshot.HasEdge(1, id));
  EXPECT_EQ(snapshot.InDegree(id), 1u);
  EXPECT_EQ(snapshot.num_edges(), 3u);
}

TEST(MutableGraphViewTest, SnapshotsPinTheirEpoch) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  MutableGraphView view(std::move(builder).Build());

  const Graph before = view.Snapshot();
  ASSERT_TRUE(view.AddEdge(1, 2).ok());
  ASSERT_TRUE(view.RemoveEdge(0, 1).ok());
  const Graph after = view.Snapshot();

  // The pinned snapshot still shows the old epoch's rows.
  EXPECT_TRUE(before.HasEdge(0, 1));
  EXPECT_FALSE(before.HasEdge(1, 2));
  EXPECT_EQ(before.num_edges(), 1u);
  EXPECT_FALSE(after.HasEdge(0, 1));
  EXPECT_TRUE(after.HasEdge(1, 2));
}

// --- Equivalence with a fresh build --------------------------------------

// A random churn stream: the merged view must equal a GraphBuilder build
// of the same surviving edge set at every checkpoint, including after
// compaction and across AddNode.
TEST(MutableGraphViewTest, RandomChurnMatchesRebuiltGraph) {
  Graph base = ErdosRenyi(120, 600, /*seed=*/3);
  NodeId num_nodes = base.num_nodes();
  std::set<std::pair<NodeId, NodeId>> edges = EdgeSet(base);
  MutableGraphView view(std::move(base));

  Rng rng(0xc0ffee);
  for (int step = 0; step < 600; ++step) {
    const int kind = static_cast<int>(rng.NextBounded(20));
    if (kind == 0) {
      const NodeId id = view.AddNode();
      ASSERT_EQ(id, num_nodes);
      ++num_nodes;
    } else if (kind < 8 && !edges.empty()) {
      auto it = edges.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
      ASSERT_TRUE(view.RemoveEdge(it->first, it->second).ok());
      edges.erase(it);
    } else {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
      const Status status = view.AddEdge(u, v);
      if (u == v) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      } else if (edges.count({u, v}) > 0) {
        EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(status.ok());
        edges.insert({u, v});
      }
    }
    if (step % 150 == 149) {
      ExpectGraphsIdentical(view.Snapshot(), Rebuild(num_nodes, edges));
    }
  }

  // Compaction folds the overlay without changing the merged graph.
  const CompactionInfo info = view.Compact();
  EXPECT_EQ(info.generation, 1u);
  EXPECT_GT(info.folded_rows, 0u);
  const Graph folded = view.Snapshot();
  EXPECT_FALSE(folded.has_overlay());
  ExpectGraphsIdentical(folded, Rebuild(num_nodes, edges));

  // And the view stays mutable on the new generation.
  ASSERT_TRUE(view.RemoveEdge(edges.begin()->first, edges.begin()->second)
                  .ok());
  edges.erase(edges.begin());
  ExpectGraphsIdentical(view.Snapshot(), Rebuild(num_nodes, edges));
}

// Every solver must produce bit-identical scores on the live view and on
// a fresh build of the same edge list — the acceptance criterion of the
// dynamic subsystem (a solver silently reading stale rows would diverge).
TEST(MutableGraphViewTest, SolversBitIdenticalToFreshLoad) {
  Graph base = ChungLuPowerLaw(200, 1200, 2.5, /*seed=*/11);
  std::set<std::pair<NodeId, NodeId>> edges = EdgeSet(base);
  const NodeId num_nodes = base.num_nodes();
  MutableGraphView view(std::move(base));

  Rng rng(0xd1ce);
  for (int step = 0; step < 80; ++step) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (u == v) continue;
    if (edges.count({u, v}) > 0) {
      ASSERT_TRUE(view.RemoveEdge(u, v).ok());
      edges.erase({u, v});
    } else {
      ASSERT_TRUE(view.AddEdge(u, v).ok());
      edges.insert({u, v});
    }
  }

  const Graph live = view.Snapshot();
  ASSERT_TRUE(live.has_overlay());
  const Graph fresh = Rebuild(num_nodes, edges);
  ExpectGraphsIdentical(live, fresh);

  RwrConfig config = RwrConfig::ForGraphSize(num_nodes);
  config.seed = 99;
  config.dangling = DanglingPolicy::kAbsorb;
  const NodeId sources[] = {0, 7, 42};

  {
    ResAccSolver on_live(live, config, ResAccOptions{});
    ResAccSolver on_fresh(fresh, config, ResAccOptions{});
    for (const NodeId s : sources) {
      EXPECT_EQ(on_live.Query(s), on_fresh.Query(s))
          << "ResAcc diverged at source " << s;
    }
  }
  {
    Fora on_live(live, config);
    Fora on_fresh(fresh, config);
    for (const NodeId s : sources) {
      EXPECT_EQ(on_live.Query(s), on_fresh.Query(s))
          << "FORA diverged at source " << s;
    }
  }
  {
    MonteCarlo on_live(live, config);
    MonteCarlo on_fresh(fresh, config);
    for (const NodeId s : sources) {
      EXPECT_EQ(on_live.Query(s), on_fresh.Query(s))
          << "MC diverged at source " << s;
    }
  }
}

// --- Compaction persistence ----------------------------------------------

TEST(MutableGraphViewTest, CompactionPersistsGenerationInSnapshot) {
  GraphBuilder builder(10);
  for (NodeId u = 0; u + 1 < 10; ++u) builder.AddEdge(u, u + 1);

  MutableGraphOptions options;
  options.snapshot_path_prefix =
      ::testing::TempDir() + "dynamic_gen_roundtrip";
  options.initial_generation = 4;
  MutableGraphView view(std::move(builder).Build(), options);
  EXPECT_EQ(view.generation(), 4u);

  ASSERT_TRUE(view.AddEdge(9, 0).ok());
  const CompactionInfo info = view.Compact();
  EXPECT_EQ(info.generation, 5u);
  ASSERT_TRUE(info.snapshot_status.ok()) << info.snapshot_status.ToString();
  ASSERT_FALSE(info.snapshot_path.empty());

  SnapshotLoadInfo load_info;
  const StatusOr<Graph> reloaded =
      LoadSnapshot(info.snapshot_path, SnapshotLoadOptions{}, &load_info);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(load_info.generation, 5u);
  EXPECT_EQ(load_info.format_version, 2u);
  ExpectGraphsIdentical(reloaded.value(), view.Snapshot());
}

TEST(MutableGraphViewTest, SaveSnapshotMaterializesOverlayGraphs) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  MutableGraphView view(std::move(builder).Build());
  ASSERT_TRUE(view.AddEdge(2, 3).ok());

  const Graph live = view.Snapshot();
  ASSERT_TRUE(live.has_overlay());
  const std::string path = ::testing::TempDir() + "overlay_save.rsg";
  ASSERT_TRUE(SaveSnapshot(live, path, /*generation=*/7).ok());

  SnapshotLoadInfo info;
  const StatusOr<Graph> reloaded =
      LoadSnapshot(path, SnapshotLoadOptions{}, &info);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(info.generation, 7u);
  ExpectGraphsIdentical(reloaded.value(), live);
}

// --- Concurrency (exercised under TSAN in CI) -----------------------------

TEST(MutableGraphViewTest, ConcurrentMutatorsAndReaders) {
  Graph base = ErdosRenyi(150, 900, /*seed=*/21);
  const NodeId n = base.num_nodes();
  MutableGraphOptions options;
  options.compact_threshold_rows = 64;  // background compactor in the mix
  MutableGraphView view(std::move(base), options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&view, &stop, &reads, n] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Graph snapshot = view.Snapshot();
        // A pinned snapshot must be internally consistent: the merged
        // out-degrees sum to its edge count even while mutations land.
        std::uint64_t sum = 0;
        for (NodeId u = 0; u < snapshot.num_nodes(); ++u) {
          sum += snapshot.OutDegree(u);
        }
        ASSERT_EQ(sum, snapshot.num_edges());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> mutators;
  for (int t = 0; t < 2; ++t) {
    mutators.emplace_back([&view, t, n] {
      Rng rng(0xbeef + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 400; ++i) {
        const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
        const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
        if (u == v) continue;
        if (rng.Bernoulli(0.5)) {
          (void)view.AddEdge(u, v);  // kAlreadyExists races are expected
        } else {
          (void)view.RemoveEdge(u, v);
        }
      }
    });
  }
  for (auto& t : mutators) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Settle: one final fold and the stats must reconcile.
  view.Compact();
  const MutableGraphStats stats = view.stats();
  EXPECT_EQ(stats.overlay_rows, 0u);
  EXPECT_GE(stats.compactions, 1u);
  ExpectGraphsIdentical(view.Snapshot(),
                        Rebuild(n, EdgeSet(view.Snapshot())));
}

// --- Influence bound ------------------------------------------------------

TEST(InvalidationTest, MutationInfluenceSumsDirtyMass) {
  GraphDelta delta;
  delta.dirty_out = {1, 3};
  const std::vector<Score> scores = {0.5f, 0.25f, 0.1f, 0.05f};
  // 2 * (1 - 0.2) / 0.2 * (0.25 + 0.05) = 8 * 0.3
  EXPECT_NEAR(MutationInfluence(delta, 0.2, scores), 2.4, 1e-6);

  GraphDelta grew;
  grew.nodes_added = true;
  EXPECT_TRUE(std::isinf(MutationInfluence(grew, 0.2, scores)));

  GraphDelta out_of_range;
  out_of_range.dirty_out = {9};
  EXPECT_TRUE(std::isinf(MutationInfluence(out_of_range, 0.2, scores)));
}

// --- ResultCache epoch transitions ---------------------------------------

ResultCache::Value MakeScores(std::initializer_list<Score> values) {
  return std::make_shared<const std::vector<Score>>(values);
}

TEST(ResultCacheEpochTest, LookupIsEpochPinned) {
  ResultCache cache(1 << 20, 2);
  cache.Insert(CacheKey{1, 5, 0}, MakeScores({0.5f}));
  EXPECT_NE(cache.Lookup(CacheKey{1, 5, 0}), nullptr);
  EXPECT_EQ(cache.Lookup(CacheKey{1, 5, 1}), nullptr);
}

TEST(ResultCacheEpochTest, InvalidateEpochPromotesWithinBudgetDropsBeyond) {
  ResultCache cache(1 << 20, 2);
  // Entry A: no mass on the dirty node -> influence 0, promoted.
  cache.Insert(CacheKey{1, 10, 0}, MakeScores({0.9f, 0.0f}));
  // Entry B: heavy mass on the dirty node -> dropped.
  cache.Insert(CacheKey{1, 11, 0}, MakeScores({0.1f, 0.8f}));
  // Entry C: different config hash -> untouched.
  cache.Insert(CacheKey{2, 10, 0}, MakeScores({0.9f, 0.1f}));

  const auto stats = cache.InvalidateEpoch(
      /*config_hash=*/1, /*old_epoch=*/0, /*new_epoch=*/1,
      /*drift_budget=*/0.01,
      [](const std::vector<Score>& scores) {
        return static_cast<double>(scores[1]);  // dirty node = 1
      });
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.dropped, 1u);

  EXPECT_NE(cache.Lookup(CacheKey{1, 10, 1}), nullptr);  // promoted
  EXPECT_EQ(cache.Lookup(CacheKey{1, 10, 0}), nullptr);  // old key gone
  EXPECT_EQ(cache.Lookup(CacheKey{1, 11, 1}), nullptr);  // dropped
  EXPECT_NE(cache.Lookup(CacheKey{2, 10, 0}), nullptr);  // other config
}

TEST(ResultCacheEpochTest, DriftAccumulatesAcrossPromotions) {
  ResultCache cache(1 << 20, 1);
  cache.Insert(CacheKey{1, 0, 0}, MakeScores({1.0f}));
  // Each transition adds 0.4 of drift against a budget of 1.0: the entry
  // survives two transitions and dies on the third — cumulative, not
  // per-batch, exactly the offset-tracking argument.
  const auto influence = [](const std::vector<Score>&) { return 0.4; };
  EXPECT_EQ(cache.InvalidateEpoch(1, 0, 1, 1.0, influence).promoted, 1u);
  EXPECT_EQ(cache.InvalidateEpoch(1, 1, 2, 1.0, influence).promoted, 1u);
  EXPECT_EQ(cache.InvalidateEpoch(1, 2, 3, 1.0, influence).dropped, 1u);
  EXPECT_EQ(cache.Lookup(CacheKey{1, 0, 3}), nullptr);
}

TEST(ResultCacheEpochTest, RefreshResetsAccumulatedDrift) {
  ResultCache cache(1 << 20, 1);
  cache.Insert(CacheKey{1, 0, 0}, MakeScores({1.0f}));
  const auto influence = [](const std::vector<Score>&) { return 0.6; };
  // First transition: 0.6 of the 1.0 budget, promoted carrying drift 0.6.
  EXPECT_EQ(cache.InvalidateEpoch(1, 0, 1, 1.0, influence).promoted, 1u);

  // A recompute against epoch 1 refreshes the entry (the serving layer's
  // batched and serial insert paths both land here). The new vector never
  // saw the epoch-0 perturbation, so its drift must restart at zero —
  // carrying the old 0.6 over would charge it for a batch it postdates.
  cache.Insert(CacheKey{1, 0, 1}, MakeScores({2.0f}));

  // Second transition: another 0.6. With stale drift the cumulative bound
  // would read 1.2 > 1.0 and wrongly drop the fresh entry.
  const auto stats = cache.InvalidateEpoch(1, 1, 2, 1.0, influence);
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  const auto hit = cache.Lookup(CacheKey{1, 0, 2});
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ((*hit)[0], 2.0);
}

TEST(ResultCacheEpochTest, FlushAllDropsEverythingAtOldEpoch) {
  ResultCache cache(1 << 20, 2);
  cache.Insert(CacheKey{1, 0, 0}, MakeScores({0.0f}));
  cache.Insert(CacheKey{1, 1, 0}, MakeScores({0.0f}));
  const auto stats =
      cache.InvalidateEpoch(1, 0, 1, /*drift_budget=*/1e9, nullptr,
                            /*flush_all=*/true);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.promoted, 0u);
  EXPECT_EQ(cache.counters().entries, 0u);
}

// --- QueryService over a live graph --------------------------------------

ServeOptions DynamicServeOptions() {
  ServeOptions options;
  options.num_workers = 2;
  options.coalesce = true;
  return options;
}

TEST(DynamicServeTest, MutationInvalidatesAffectedEntriesOnly) {
  Graph base = ChungLuPowerLaw(150, 900, 2.5, /*seed=*/31);
  RwrConfig config = RwrConfig::ForGraphSize(base.num_nodes());
  config.seed = 17;
  config.dangling = DanglingPolicy::kAbsorb;
  MutableGraphView view(std::move(base));
  const Graph serving = view.Snapshot();
  QueryService service(serving, config, DynamicServeOptions());

  // Warm the cache for one source.
  QueryRequest request;
  request.source = 3;
  ASSERT_TRUE(service.Query(request).status.ok());

  // AddNode changes score-vector lengths: cached entries cannot be
  // repaired and the epoch transition must flush regardless of mode.
  GraphDelta delta;
  const NodeId a = view.AddNode(&delta);
  const NodeId b = view.AddNode(&delta);
  service.UpdateGraph(view.Snapshot(), delta);

  QueryResponse response = service.Query(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.cache_hit);  // AddNode flushed (length change)

  // Re-warm at the new epoch, then apply a mutation with zero influence
  // on source 3's walk: an edge between the two isolated fresh nodes —
  // no walk from source 3 has any mass on either, so the influence bound
  // is exactly 0 and the entry must be promoted, not dropped.
  ASSERT_TRUE(service.Query(request).status.ok());
  GraphDelta edge_delta;
  ASSERT_TRUE(view.AddEdge(a, b, &edge_delta).ok());
  service.UpdateGraph(view.Snapshot(), edge_delta);

  response = service.Query(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.cache_hit)
      << "zero-influence mutation must not invalidate source 3's entry";
  EXPECT_EQ(service.metrics()
                .GetCounter("resacc_serve_cache_kept_total", "")
                .Value(),
            1u);
}

TEST(DynamicServeTest, FlushModeDropsEverythingOnAnyMutation) {
  Graph base = ErdosRenyi(100, 600, /*seed=*/41);
  RwrConfig config = RwrConfig::ForGraphSize(base.num_nodes());
  config.seed = 23;
  MutableGraphView view(std::move(base));
  const Graph serving = view.Snapshot();
  ServeOptions options = DynamicServeOptions();
  options.invalidation = ServeOptions::InvalidationMode::kFlushAll;
  QueryService service(serving, config, options);

  QueryRequest request;
  request.source = 5;
  ASSERT_TRUE(service.Query(request).status.ok());

  const NodeId u = 90;
  const NodeId v = 91;
  GraphDelta delta;
  const Status mutated = view.Snapshot().HasEdge(u, v)
                             ? view.RemoveEdge(u, v, &delta)
                             : view.AddEdge(u, v, &delta);
  ASSERT_TRUE(mutated.ok());
  service.UpdateGraph(view.Snapshot(), delta);

  const QueryResponse response = service.Query(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.cache_hit);
  EXPECT_GE(service.metrics()
                .GetCounter("resacc_serve_invalidated_total", "")
                .Value(),
            1u);
}

TEST(DynamicServeTest, CompactionSwapKeepsCacheAndAnswers) {
  Graph base = ChungLuPowerLaw(120, 700, 2.5, /*seed=*/51);
  RwrConfig config = RwrConfig::ForGraphSize(base.num_nodes());
  config.seed = 29;
  MutableGraphView view(std::move(base));
  Graph serving = view.Snapshot();
  QueryService service(serving, config, DynamicServeOptions());

  GraphDelta delta;
  ASSERT_TRUE(view.AddEdge(0, 100, &delta).ok());
  service.UpdateGraph(view.Snapshot(), delta);

  QueryRequest request;
  request.source = 2;
  const QueryResponse first = service.Query(request);
  ASSERT_TRUE(first.status.ok());

  // Compact: physical base changes, content does not.
  const CompactionInfo info = view.Compact();
  EXPECT_EQ(info.folded_rows, 2u);
  service.UpdateGraph(view.Snapshot(), GraphDelta{});
  EXPECT_EQ(service.graph_epoch(), delta.epoch);

  const QueryResponse second = service.Query(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit) << "compaction must not invalidate";
  EXPECT_EQ(*second.scores, *first.scores);

  // And a fresh compute on the folded base is still bit-identical.
  QueryRequest other;
  other.source = 9;
  const QueryResponse folded_answer = service.Query(other);
  ASSERT_TRUE(folded_answer.status.ok());
  const Graph folded = view.Snapshot();
  ResAccSolver reference(folded, config, ResAccOptions{});
  EXPECT_EQ(*folded_answer.scores, reference.Query(other.source));
}

TEST(DynamicServeTest, QueriesAgainstLiveViewMatchFreshBuild) {
  Graph base = ErdosRenyi(130, 800, /*seed=*/61);
  const NodeId n = base.num_nodes();
  RwrConfig config = RwrConfig::ForGraphSize(n);
  config.seed = 31;
  std::set<std::pair<NodeId, NodeId>> edges = EdgeSet(base);
  MutableGraphView view(std::move(base));
  const Graph serving = view.Snapshot();
  QueryService service(serving, config, DynamicServeOptions());

  Rng rng(0xfeed);
  for (int step = 0; step < 30; ++step) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    GraphDelta delta;
    if (edges.count({u, v}) > 0) {
      ASSERT_TRUE(view.RemoveEdge(u, v, &delta).ok());
      edges.erase({u, v});
    } else {
      ASSERT_TRUE(view.AddEdge(u, v, &delta).ok());
      edges.insert({u, v});
    }
    service.UpdateGraph(view.Snapshot(), delta);
  }

  const Graph fresh = Rebuild(n, edges);
  ResAccSolver reference(fresh, config, ResAccOptions{});
  for (const NodeId source : {NodeId{1}, NodeId{17}, NodeId{64}}) {
    QueryRequest request;
    request.source = source;
    const QueryResponse response = service.Query(request);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(*response.scores, reference.Query(source))
        << "served answer diverged from fresh build at source " << source;
  }
}

TEST(DynamicServeTest, PostMutationSubmitNeverCoalescesOntoStaleCompute) {
  Graph base = ErdosRenyi(120, 700, /*seed=*/71);
  RwrConfig config = RwrConfig::ForGraphSize(base.num_nodes());
  config.seed = 37;
  MutableGraphView view(std::move(base));
  const Graph serving = view.Snapshot();

  // One worker, parked inside the dequeue hook for the first job only —
  // after it pinned its graph state, i.e. mid-compute as far as the
  // coalescing decision is concerned.
  std::atomic<int> dequeues{0};
  std::promise<void> first_job_pinned;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServeOptions options;
  options.num_workers = 1;
  options.coalesce = true;
  options.dequeue_hook = [&](NodeId) {
    if (dequeues.fetch_add(1) == 0) {
      first_job_pinned.set_value();
      release_future.wait();
    }
  };
  QueryService service(serving, config, options);

  QueryRequest request;
  request.source = 3;
  std::future<QueryResponse> before = service.Submit(request);
  first_job_pinned.get_future().wait();

  // Mutate while the worker is stalled on the pre-mutation state: an
  // out-edge of the source itself, so the answer provably changes.
  GraphDelta delta;
  NodeId v = 100;
  while (!view.AddEdge(request.source, v, &delta).ok()) ++v;
  service.UpdateGraph(view.Snapshot(), delta);

  // This request arrives after the mutation. Coalescing it onto the
  // stalled job would answer it with pre-mutation scores.
  std::future<QueryResponse> after = service.Submit(request);
  release.set_value();

  const QueryResponse stale_side = before.get();
  const QueryResponse fresh_side = after.get();
  ASSERT_TRUE(stale_side.status.ok());
  ASSERT_TRUE(fresh_side.status.ok());
  EXPECT_FALSE(fresh_side.coalesced)
      << "post-mutation request coalesced onto a pre-mutation compute";
  const Graph mutated = view.Snapshot();
  ResAccSolver reference(mutated, config, ResAccOptions{});
  EXPECT_EQ(*fresh_side.scores, reference.Query(request.source));
  EXPECT_NE(*stale_side.scores, *fresh_side.scores)
      << "mutation was supposed to change the source's own out-row";
}

}  // namespace
}  // namespace resacc
