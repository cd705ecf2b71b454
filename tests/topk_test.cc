// Tests of the top-k query mode (PR 8): separation certificates audited
// against power-iteration ground truth, refinement held to the price of
// the walks it replaces, parity between QueryTopK and the full-vector
// solve for the bracket-only solvers, tie handling at rank k, degenerate
// k, batched-lane bit-identity with the serial solver, the result cache's
// k-superset reuse rules, and mixed-shape serving under concurrent
// clients (the TSAN target for shape-aware coalescing).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/fora.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/core/batch_solver.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/omfwd.h"
#include "resacc/core/push_state.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/topk.h"
#include "resacc/core/topk_solve.h"
#include "resacc/core/walk_engine.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/result_cache.h"
#include "resacc/util/rng.h"
#include "resacc/util/top_k.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig TestConfig(const Graph& graph) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  return config;
}

// Bitwise equality of two top-k results: the batched lanes' contract is a
// replay of the serial solver's FP operation sequence, so no tolerance.
void ExpectTopKBitIdentical(const TopKResult& serial, const TopKResult& batched,
                            const char* label) {
  EXPECT_EQ(serial.status.ok(), batched.status.ok()) << label;
  EXPECT_EQ(serial.k, batched.k) << label;
  EXPECT_EQ(serial.certified, batched.certified) << label;
  EXPECT_EQ(serial.degraded, batched.degraded) << label;
  EXPECT_EQ(serial.outsider_upper, batched.outsider_upper) << label;
  EXPECT_EQ(serial.bound_gap, batched.bound_gap) << label;
  EXPECT_EQ(serial.achieved_epsilon, batched.achieved_epsilon) << label;
  EXPECT_EQ(serial.uncorrected_mass, batched.uncorrected_mass) << label;
  ASSERT_EQ(serial.entries.size(), batched.entries.size()) << label;
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_EQ(serial.entries[i].node, batched.entries[i].node)
        << label << ": rank " << i;
    EXPECT_EQ(serial.entries[i].estimate, batched.entries[i].estimate)
        << label << ": rank " << i;
    EXPECT_EQ(serial.entries[i].lower, batched.entries[i].lower)
        << label << ": rank " << i;
    EXPECT_EQ(serial.entries[i].upper, batched.entries[i].upper)
        << label << ": rank " << i;
  }
}

// --- Certificates against ground truth ------------------------------------

TEST(TopKSolveTest, CertificateBracketsGroundTruth) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, /*seed=*/10);
  const RwrConfig config = TestConfig(graph);
  ResAccOptions options;
  // Unpriced refinement: on a graph this small the solver must be able to
  // push until rank k separates instead of giving up and walking.
  options.topk.min_r_max_factor = 1e-12;
  options.topk.profit_slack = 1e9;
  ResAccSolver solver(graph, config, options);
  GroundTruthCache truth(graph, config);

  constexpr std::size_t kK = 10;
  constexpr double kSlop = 1e-12;
  for (const NodeId source : {NodeId{1}, NodeId{42}, NodeId{137},
                              NodeId{256}}) {
    SCOPED_TRACE(::testing::Message() << "source=" << source);
    const TopKResult result = solver.QueryTopK(source, kK);
    ASSERT_TRUE(result.status.ok());
    ASSERT_TRUE(result.certified);
    ASSERT_EQ(result.entries.size(), kK);

    const std::vector<Score>& exact = truth.Get(source);
    std::vector<std::uint8_t> returned(graph.num_nodes(), 0);
    for (const TopKEntry& entry : result.entries) {
      // The deterministic push invariant: lower <= pi(v) <= upper.
      EXPECT_LE(entry.lower - kSlop, exact[entry.node]);
      EXPECT_GE(entry.upper + kSlop, exact[entry.node]);
      // The separation certificate: every returned entry's lower bound
      // dominates the bound on every excluded node.
      EXPECT_GE(entry.lower, result.outsider_upper);
      returned[entry.node] = 1;
    }
    EXPECT_GE(result.bound_gap, 0.0);

    // Every excluded node really sits below the outsider bound, and the
    // returned set is an exact top-k of the ground truth (modulo ties).
    const Score kth_exact = exact[TopKIndices(exact, kK).back()];
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (returned[v]) {
        EXPECT_GE(exact[v] + kSlop, kth_exact)
            << "node " << v << " returned but not in the exact top-" << kK;
      } else {
        EXPECT_LE(exact[v], result.outsider_upper + kSlop)
            << "excluded node " << v << " above the outsider bound";
      }
    }
  }
}

// --- Refinement priced against the walks ---------------------------------

TEST(TopKSolveTest, RefinementNeverOutspendsTheWalks) {
  // A small delta makes every walk step dear, yet on this Chung-Lu graph
  // rank 10 stays unseparated long after pushing stopped paying: the
  // refinement must hand the residue to the remedy once the edges it has
  // pushed reach `profit_slack` times the walk steps that residue costs.
  // The phases are chained by hand so the test holds the refined state.
  const Graph graph = ChungLuPowerLaw(2000, 40000, 2.1, /*seed=*/5);
  RwrConfig config = TestConfig(graph);
  config.delta = 1e-5;
  const ResAccOptions options;
  const Score r_max_f = 1.0 / (10.0 * static_cast<Score>(graph.num_edges()));
  const double steps_per_mass =
      config.WalkCountCoefficient() * options.walk_scale / config.alpha;
  const double m = static_cast<double>(graph.num_edges());
  constexpr std::size_t kK = 10;

  // Post-OMFWD state of `source`, then the top-k finish on it.
  const auto finish = [&](NodeId source, const TopKOptions& topk,
                          PushState& state) {
    HHopFwdOptions hhop;
    hhop.r_max_hop = options.r_max_hop;
    hhop.num_hops = options.num_hops;
    hhop.max_hop_set_fraction = options.max_hop_set_fraction;
    HopLayers layers;
    RunHHopFwd(graph, config, source, hhop, state, &layers);
    if (!layers.layers.empty()) {
      RunOmfwd(graph, config, source, r_max_f, layers.layers.back(), state);
    }
    WalkEngine engine(1);
    Rng rng = Rng(config.seed).Fork(source);
    return SolveTopKFromState(graph, config, source, kK, r_max_f,
                              options.walk_scale, topk, state, rng, &engine,
                              nullptr, Status::Ok());
  };

  std::size_t fallbacks = 0;
  for (NodeId source = 3; source < graph.num_nodes(); source += 250) {
    SCOPED_TRACE(::testing::Message() << "source=" << source);
    PushState state(graph.num_nodes());
    const TopKResult result = finish(source, options.topk, state);
    ASSERT_TRUE(result.status.ok());
    if (result.certified || result.refine_stages == 0) continue;
    ++fallbacks;

    // The allowance is checked at round boundaries, so the last round (at
    // most m edges) may run past it — and that round also drains residue,
    // shrinking the allowance the final state shows. So hold the edges to
    // the allowance where the last stage began. The rounds a refinement
    // pushes do not depend on where it stops, so an r_max floor just above
    // the last stage's threshold (shrink = 8: exact in binary) stops the
    // same refinement there.
    TopKOptions cut = options.topk;
    cut.min_r_max_factor =
        0.5 / std::pow(options.topk.shrink, result.refine_stages - 1);
    PushState before_last(graph.num_nodes());
    const TopKResult shorter = finish(source, cut, before_last);
    ASSERT_EQ(shorter.refine_stages + 1, result.refine_stages);
    const double allowance =
        options.topk.profit_slack * before_last.ResidueSum() * steps_per_mass;
    EXPECT_LT(static_cast<double>(shorter.refine_edges), allowance);
    EXPECT_LE(static_cast<double>(result.refine_edges), allowance + m);
  }
  // Not vacuous: some sources refine, fail to separate, and walk.
  EXPECT_GT(fallbacks, 0u);
}

// --- Parity with the full-vector solve -------------------------------------

TEST(TopKSolveTest, BracketSolversMatchTheirFullVector) {
  // FORA and Monte-Carlo answer top-k through the SsrwrAlgorithm default:
  // a full controlled solve plus an epsilon bracket. Queries are
  // deterministic per source, so the entries must mirror TopKPairs of the
  // solver's own full vector exactly.
  const Graph graph = ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/13);
  const RwrConfig config = TestConfig(graph);
  Fora fora(graph, config);
  MonteCarlo monte_carlo(graph, config);
  SsrwrAlgorithm* const solvers[] = {&fora, &monte_carlo};

  constexpr std::size_t kK = 10;
  for (SsrwrAlgorithm* solver : solvers) {
    for (const NodeId source : {NodeId{2}, NodeId{77}}) {
      SCOPED_TRACE(::testing::Message()
                   << solver->name() << " source=" << source);
      const std::vector<Score> full = solver->Query(source);
      const auto expected = TopKPairs(full, kK);
      const TopKResult result = solver->QueryTopK(source, kK);
      ASSERT_TRUE(result.status.ok());
      EXPECT_FALSE(result.certified);  // bracket path, never a certificate
      ASSERT_EQ(result.entries.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result.entries[i].node, expected[i].first);
        EXPECT_EQ(result.entries[i].estimate, expected[i].second);
        EXPECT_LE(result.entries[i].lower, result.entries[i].estimate);
        EXPECT_GE(result.entries[i].upper, result.entries[i].estimate);
      }
    }
  }
}

// --- Ties at rank k ---------------------------------------------------------

TEST(TopKSolveTest, TieAtRankKStaysDeterministicAndValid) {
  // Star from a leaf source: the 7 non-source leaves are exactly tied by
  // symmetry, and k = 5 cuts through that tied class. No certificate can
  // separate an exact tie, so the solver must fall back — and the result
  // must still be a valid top-k (any tied subset is) and repeatable.
  const Graph graph = testing::StarGraph(8);
  const RwrConfig config = TestConfig(graph);
  ResAccSolver solver(graph, config, ResAccOptions{});
  GroundTruthCache truth(graph, config);

  constexpr NodeId kSource = 3;
  constexpr std::size_t kK = 5;
  const TopKResult result = solver.QueryTopK(kSource, kK);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.certified);
  ASSERT_EQ(result.entries.size(), kK);

  // Descending estimates; exact ties broken by ascending node id.
  for (std::size_t i = 1; i < result.entries.size(); ++i) {
    const TopKEntry& prev = result.entries[i - 1];
    const TopKEntry& cur = result.entries[i];
    EXPECT_GE(prev.estimate, cur.estimate);
    if (prev.estimate == cur.estimate) {
      EXPECT_LT(prev.node, cur.node);
    }
  }

  // Any tied subset is a correct answer: every returned node's exact
  // value reaches the exact k-th value (up to the tie tolerance).
  const std::vector<Score>& exact = truth.Get(kSource);
  const Score kth_exact = exact[TopKIndices(exact, kK).back()];
  for (const TopKEntry& entry : result.entries) {
    EXPECT_GE(exact[entry.node] + 1e-9, kth_exact);
  }

  // Repeatable: the tie-break must not depend on hidden mutable state.
  const TopKResult again = solver.QueryTopK(kSource, kK);
  ExpectTopKBitIdentical(result, again, "repeat query");
}

// --- Degenerate k -----------------------------------------------------------

TEST(TopKSolveTest, DegenerateKValues) {
  const Graph graph = testing::Figure1Graph();
  const RwrConfig config = TestConfig(graph);
  ResAccSolver solver(graph, config, ResAccOptions{});

  // k >= n: everything is returned, there is no outsider to separate
  // from, and the result is trivially certified.
  const TopKResult all = solver.QueryTopK(0, 10);
  ASSERT_TRUE(all.status.ok());
  EXPECT_TRUE(all.certified);
  ASSERT_EQ(all.entries.size(), graph.num_nodes());
  EXPECT_EQ(all.outsider_upper, 0.0);
  std::vector<std::uint8_t> seen(graph.num_nodes(), 0);
  for (const TopKEntry& entry : all.entries) {
    ASSERT_LT(entry.node, graph.num_nodes());
    EXPECT_EQ(seen[entry.node]++, 0u);  // each node exactly once
  }

  // k = 1: agrees with the head of the everything-returned result.
  const TopKResult one = solver.QueryTopK(0, 1);
  ASSERT_TRUE(one.status.ok());
  ASSERT_EQ(one.entries.size(), 1u);
  EXPECT_EQ(one.entries[0].node, all.entries[0].node);

  // k = 0: an empty answer is vacuously certified.
  const TopKResult none = solver.QueryTopK(0, 0);
  ASSERT_TRUE(none.status.ok());
  EXPECT_TRUE(none.certified);
  EXPECT_TRUE(none.entries.empty());
}

// --- Batched lanes ----------------------------------------------------------

TEST(TopKBatchTest, MixedLanesBitIdenticalToSerialAcrossBatchSizes) {
  const Graph graph = ChungLuPowerLaw(2000, 12000, 2.5, /*seed=*/42);
  RwrConfig config;
  config.delta = 1e-3;
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 0x7357;
  ResAccOptions options;
  options.walk_scale = 0.2;

  ResAccSolver serial(graph, config, options);
  BatchSolver batch(graph, config, options);

  std::vector<NodeId> sources;
  for (NodeId v = 1; sources.size() < 16; v += 117) {
    sources.push_back(v % graph.num_nodes());
  }

  // Every odd lane asks for top-10, even lanes stay full-vector: the mix
  // is the shape the serve layer produces, and the full lanes pin down
  // that top-k lanes do not perturb their neighbours.
  std::vector<TopKResult> expected_topk(sources.size());
  std::vector<ControlledQueryResult> expected_full(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i % 2 == 1) {
      expected_topk[i] = serial.QueryTopK(sources[i], 10);
    } else {
      expected_full[i] = serial.QueryControlled(sources[i], QueryControl{});
    }
  }

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4},
                                       std::size_t{16}}) {
    for (std::size_t begin = 0; begin < sources.size(); begin += batch_size) {
      const std::size_t end = std::min(begin + batch_size, sources.size());
      std::vector<BatchLane> lanes;
      for (std::size_t i = begin; i < end; ++i) {
        BatchLane lane;
        lane.source = sources[i];
        lane.top_k = (i % 2 == 1) ? 10 : 0;
        lanes.push_back(lane);
      }
      std::vector<TopKResult> topks;
      const auto got = batch.QueryBatch(lanes, &topks);
      ASSERT_EQ(got.size(), lanes.size());
      ASSERT_EQ(topks.size(), lanes.size());
      for (std::size_t i = begin; i < end; ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "batch_size=" << batch_size << " source="
                     << sources[i]);
        if (i % 2 == 1) {
          ExpectTopKBitIdentical(expected_topk[i], topks[i - begin],
                                 "top-k lane");
          EXPECT_TRUE(got[i - begin].scores.empty());
        } else {
          ASSERT_TRUE(got[i - begin].status.ok());
          EXPECT_EQ(got[i - begin].scores, expected_full[i].scores);
          EXPECT_TRUE(topks[i - begin].entries.empty());
        }
      }
    }
  }
}

// --- Cache k-superset rules -------------------------------------------------

std::shared_ptr<const TopKResult> SyntheticTopK(std::size_t k, bool certified,
                                                Score bracket_slack) {
  auto result = std::make_shared<TopKResult>();
  result->k = k;
  result->certified = certified;
  result->outsider_upper = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const Score estimate = 1.0 / static_cast<Score>(i + 1);
    result->entries.push_back({static_cast<NodeId>(i), estimate,
                               estimate - bracket_slack,
                               estimate + bracket_slack});
  }
  return result;
}

TEST(TopKCacheTest, KSupersetReuseNeverDowngrades) {
  ResultCache cache(1 << 20, /*num_shards=*/1);
  const CacheKey key{0x123, 7, 0};

  // A certified top-100 with tight brackets answers any k <= 100 whose
  // prefix separates — which tight brackets on 1/(i+1) always do.
  cache.InsertTopK(key, SyntheticTopK(100, /*certified=*/true,
                                      /*bracket_slack=*/0.0));
  const auto hit10 = cache.LookupTopK(key, 10);
  ASSERT_NE(hit10.topk, nullptr);
  EXPECT_EQ(hit10.scores, nullptr);
  EXPECT_EQ(hit10.topk->k, 100u);  // caller cuts the prefix
  ASSERT_NE(cache.LookupTopK(key, 100).topk, nullptr);
  // Wider than stored: a miss, the entry cannot answer k = 101.
  EXPECT_EQ(cache.LookupTopK(key, 101).topk, nullptr);
  // Top-k-only entries never satisfy a full-vector probe.
  EXPECT_EQ(cache.Lookup(key), nullptr);

  // Inserting a narrower top-k under the same key is a no-op.
  cache.InsertTopK(key, SyntheticTopK(10, true, 0.0));
  ASSERT_NE(cache.LookupTopK(key, 50).topk, nullptr);

  // A full vector upgrades the entry in place and answers both shapes.
  auto full = std::make_shared<const std::vector<Score>>(
      std::vector<Score>(200, 0.001));
  cache.Insert(key, full);
  EXPECT_EQ(cache.Lookup(key), full);
  const auto after = cache.LookupTopK(key, 10);
  EXPECT_EQ(after.scores, full);
  EXPECT_EQ(after.topk, nullptr);
  // ... and a later top-k insert never downgrades it back.
  cache.InsertTopK(key, SyntheticTopK(100, true, 0.0));
  EXPECT_EQ(cache.Lookup(key), full);
}

TEST(TopKCacheTest, UnseparatedCertifiedPrefixMisses) {
  ResultCache cache(1 << 20, /*num_shards=*/1);
  const CacheKey key{0x9, 1, 0};

  // Wide brackets: rank 5's lower cannot dominate rank 6's upper, so the
  // certified top-10 cannot certify a top-5 — the probe must miss.
  cache.InsertTopK(key, SyntheticTopK(10, /*certified=*/true,
                                      /*bracket_slack=*/0.5));
  EXPECT_EQ(cache.LookupTopK(key, 5).topk, nullptr);
  ASSERT_NE(cache.LookupTopK(key, 10).topk, nullptr);

  // An approximate (bracket-only) result makes no separation claim; any
  // prefix of it is exactly as good, so the same probe hits.
  const CacheKey key2{0x9, 2, 0};
  cache.InsertTopK(key2, SyntheticTopK(10, /*certified=*/false,
                                       /*bracket_slack=*/0.5));
  ASSERT_NE(cache.LookupTopK(key2, 5).topk, nullptr);
}

// --- Serving ----------------------------------------------------------------

TEST(TopKServeTest, MixedShapeConcurrentClients) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.2, /*seed=*/10);
  ServeOptions options;
  options.num_workers = 2;
  QueryService service(graph, TestConfig(graph), options);

  // Concurrent clients mixing full, top-5, and top-50 probes over a small
  // source set: shape-aware coalescing, the either-or cache entries, and
  // the response bridging all race here (the TSAN target).
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 12;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        QueryRequest request;
        request.source = static_cast<NodeId>((t + i) % 3);
        const int shape = (t + i) % 3;
        request.top_k = shape == 0 ? 0 : (shape == 1 ? 5 : 50);
        const QueryResponse response = service.Query(request);
        if (!response.status.ok()) {
          ++failures;
          continue;
        }
        if (request.top_k > 0) {
          // Top-k mode: a payload with at least k entries (a coalesced or
          // cached wider top-k' may legitimately carry more), no vector.
          if (response.topk == nullptr || response.scores != nullptr ||
              response.top.size() < request.top_k) {
            ++failures;
          }
        } else {
          if (response.scores == nullptr || response.topk != nullptr) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.Snapshot().completed,
            static_cast<std::uint64_t>(kThreads * kQueriesPerThread));
}

}  // namespace
}  // namespace resacc
