// Schedule oracle of the forward searches: a reference search that screens
// every out-neighbour with Definition 6's push condition right after its
// deposit, stages the nodes it schedules into a next round sorted by id,
// and screens the source after every push under kBackToSource. It is built
// only from the public ForwardPushAt, SatisfiesPushCondition and PushState.
// RunForwardSearch and RunHHopFwd must match it bit for bit: reserves,
// residues, touched order, PushStats and the sequence of round-hook calls,
// including searches stopped by a hook or a cancelled token.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/push_state.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_builder.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/rng.h"

namespace resacc {
namespace {

// One round-hook call: the round it announced and the work done by then.
struct HookCall {
  std::size_t round = 0;
  std::uint64_t pushes = 0;
  std::uint64_t edges = 0;
  bool operator==(const HookCall&) const = default;
};

// Both searches poll their token once per this many pops.
constexpr std::uint64_t kPollInterval = 512;

// The per-edge discipline. `admits` is h-HopFWD's eligibility (every node
// for a plain forward search); it is checked when a node is scheduled, and
// seeds are taken as given. Returns false when a hook or the token
// stopped the search.
bool ReferenceSearch(const Graph& graph, const RwrConfig& config,
                     NodeId source, Score r_max,
                     std::span<const NodeId> seeds, bool unconditional,
                     const std::function<bool(NodeId)>& admits,
                     PushState& state, const CancellationToken* cancel,
                     std::size_t stop_round, std::vector<HookCall>* hooks,
                     PushStats& stats) {
  std::vector<std::uint8_t> scheduled(graph.num_nodes(), 0);
  std::vector<NodeId> current;
  std::vector<NodeId> next;
  for (NodeId seed : seeds) {
    if (scheduled[seed]) continue;
    scheduled[seed] = 1;
    current.push_back(seed);
  }
  const auto screen = [&](NodeId v) {
    if (!scheduled[v] && admits(v) &&
        SatisfiesPushCondition(graph, state, v, r_max)) {
      scheduled[v] = 1;
      next.push_back(v);
    }
  };
  std::uint64_t pops = 0;
  for (std::size_t round = 0; !current.empty(); ++round) {
    for (std::size_t i = 0; i < current.size(); ++i) {
      const NodeId node = current[i];
      scheduled[node] = 0;
      if (cancel != nullptr && ++pops % kPollInterval == 0 &&
          cancel->ShouldStop()) {
        return false;
      }
      if (i == 0 && round > 0 && hooks != nullptr) {
        hooks->push_back(
            HookCall{round, stats.push_operations, stats.edge_traversals});
        if (round == stop_round) return false;
      }
      if (!(unconditional && round == 0) &&
          !SatisfiesPushCondition(graph, state, node, r_max)) {
        continue;
      }
      ForwardPushAt(graph, config, source, node, state, stats);
      for (NodeId v : graph.OutNeighbors(node)) screen(v);
      if (config.dangling == DanglingPolicy::kBackToSource) screen(source);
    }
    current.swap(next);
    next.clear();
    std::sort(current.begin(), current.end());
  }
  return true;
}

// Algorithm 3 restated on top of ReferenceSearch (no adaptive cap and no
// dense probe): the first push at the source, the eligible neighbours
// that meet the condition as round 0 in CSR order (then the source itself
// when loop accumulation is off), and the loop extrapolation. `finished`
// reports whether the token left the accumulating phase alone.
HHopFwdStats ReferenceHHopFwd(const Graph& graph, const RwrConfig& config,
                              NodeId source, const HHopFwdOptions& options,
                              PushState& state, bool& finished) {
  HHopFwdStats stats;
  HopLayers layers;
  if (options.use_hop_subgraph) {
    layers = ComputeHopLayers(graph, source, options.num_hops + 1);
  }
  const auto admits = [&](NodeId v) {
    if (options.use_loop_accumulation && v == source) return false;
    return !options.use_hop_subgraph || layers.InHopSet(v, options.num_hops);
  };
  const Score r_max = options.r_max_hop;
  state.SetResidue(source, 1.0);
  ForwardPushAt(graph, config, source, source, state, stats.push);
  std::vector<NodeId> seeds;
  for (NodeId v : graph.OutNeighbors(source)) {
    if (admits(v) && SatisfiesPushCondition(graph, state, v, r_max)) {
      seeds.push_back(v);
    }
  }
  if (!options.use_loop_accumulation &&
      SatisfiesPushCondition(graph, state, source, r_max)) {
    seeds.push_back(source);
  }
  finished = ReferenceSearch(
      graph, config, source, r_max, seeds, /*unconditional=*/false, admits,
      state, options.cancel, /*stop_round=*/0, /*hooks=*/nullptr,
      stats.push);
  if (!finished || !options.use_loop_accumulation) return stats;

  const Score rho = state.residue(source);
  stats.rho = rho;
  if (rho <= 0.0) return stats;
  const double threshold =
      r_max * std::max<double>(1.0, graph.OutDegree(source));
  double loops = 1.0;
  if (threshold < 1.0 && rho >= threshold) {
    loops = std::max(1.0, std::floor(std::log(threshold) / std::log(rho)) + 1);
  }
  stats.loop_count = loops;
  const Score rho_pow = std::pow(rho, loops);
  stats.scaler = (1.0 - rho_pow) / (1.0 - rho);
  for (NodeId v : state.touched()) {
    state.ScaleReserve(v, stats.scaler);
    if (v == source) {
      state.SetResidue(v, rho_pow);
    } else {
      state.ScaleResidue(v, stats.scaler);
    }
  }
  return stats;
}

void ExpectSameBits(const std::vector<Score>& a, const std::vector<Score>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (std::memcmp(&a[v], &b[v], sizeof(Score)) != 0) {
      ADD_FAILURE() << what << " of node " << v << ": " << a[v] << " vs "
                    << b[v];
      return;
    }
  }
}

void ExpectSameState(const PushState& kernel, const PushState& reference) {
  ExpectSameBits(kernel.reserves(), reference.reserves(), "reserve");
  ExpectSameBits(kernel.residues(), reference.residues(), "residue");
  const std::span<const NodeId> a = kernel.touched();
  const std::span<const NodeId> b = reference.touched();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
      << "touched order differs (" << a.size() << " vs " << b.size() << ")";
}

void ExpectSameStats(const PushStats& kernel, const PushStats& reference) {
  EXPECT_EQ(kernel.push_operations, reference.push_operations);
  EXPECT_EQ(kernel.edge_traversals, reference.edge_traversals);
}

RwrConfig OracleConfig(DanglingPolicy dangling) {
  RwrConfig config;
  config.alpha = 0.15;
  config.dangling = dangling;
  return config;
}

// Every third node is a sink, so dangling pushes (and, under
// kBackToSource, deposits into the source) are frequent.
Graph SinkHeavyGraph() {
  constexpr NodeId kNodes = 2000;
  GraphBuilder builder(kNodes);
  Rng rng(31);
  for (NodeId u = 0; u < kNodes; ++u) {
    if (u % 3 == 0) continue;
    for (int e = 0; e < 5; ++e) builder.AddEdge(u, rng.NextBounded32(kNodes));
  }
  return std::move(builder).Build();
}

struct OracleGraph {
  std::string name;
  Graph graph;
};

std::vector<OracleGraph> OracleGraphs() {
  std::vector<OracleGraph> graphs;
  graphs.push_back({"chung-lu", ChungLuPowerLaw(3000, 30000, 2.2, 17)});
  graphs.push_back({"sink-heavy", SinkHeavyGraph()});
  return graphs;
}

// One RunForwardSearch case: the residues before the search, its seeds
// (caller order, duplicates allowed), and how it may stop.
struct SearchCase {
  std::string name;
  std::vector<std::pair<NodeId, Score>> residues;
  std::vector<NodeId> seeds;
  bool unconditional = false;
  Score r_max = 1e-6;
  std::size_t stop_round = 0;  // 0: the hook never stops the search
  bool cancelled = false;      // the token fires at the first poll
};

// Nodes with at least one out-edge and none, for building the cases.
struct NodeKinds {
  std::vector<NodeId> linked;
  std::vector<NodeId> sinks;
};

NodeKinds Kinds(const Graph& graph) {
  NodeKinds kinds;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    (graph.OutDegree(v) > 0 ? kinds.linked : kinds.sinks).push_back(v);
  }
  return kinds;
}

std::vector<SearchCase> SearchCases(const Graph& graph, NodeId source) {
  const NodeKinds kinds = Kinds(graph);
  const NodeId a = kinds.linked[kinds.linked.size() / 3];
  const NodeId b = kinds.linked[kinds.linked.size() / 2];
  const NodeId c = kinds.linked.back();
  const NodeId lone = kinds.linked[kinds.linked.size() / 4];
  const NodeId sink = kinds.sinks.empty() ? c : kinds.sinks.front();
  std::vector<SearchCase> cases;

  SearchCase fora{"unit source", {{source, 1.0}}, {source}};
  cases.push_back(fora);

  // OMFWD-style round 0: unsorted, a duplicate, a seed with no residue
  // and one far below the threshold, all pushed unconditionally.
  SearchCase omfwd{"unconditional seeds",
                   {{c, 0.4}, {a, 0.3}, {sink, 0.2}, {b, 1e-12}},
                   {c, lone, a, sink, c, b},
                   /*unconditional=*/true,
                   /*r_max=*/1e-5};
  cases.push_back(omfwd);

  // A seed with no residue pushes nothing, yet its neighbours are
  // screened as after any push: one that already meets the condition is
  // pushed in round 1.
  const auto lone_out = graph.OutNeighbors(lone);
  const NodeId held = *std::find_if(
      lone_out.begin(), lone_out.end(),
      [&graph](NodeId v) { return graph.OutDegree(v) > 0; });
  SearchCase empty_seed{"zero-residue seed", {{held, 0.5}}, {lone},
                        /*unconditional=*/true};
  cases.push_back(empty_seed);

  // A non-seed node (and, with b, the source itself) meets the condition
  // before the search: each waits for a deposit, except that the source is
  // screened after every push under kBackToSource.
  SearchCase waiting{"non-seed above threshold",
                     {{a, 0.5}, {b, 0.3}, {source, 0.2}},
                     {a}};
  cases.push_back(waiting);

  SearchCase hooked = fora;
  hooked.name = "hook stops at round 2";
  hooked.stop_round = 2;
  cases.push_back(hooked);

  SearchCase cancelled = fora;
  cancelled.name = "cancelled at the 512th pop";
  cancelled.r_max = 1e-7;
  cancelled.cancelled = true;
  cases.push_back(cancelled);
  return cases;
}

class PushScheduleOracleTest
    : public ::testing::TestWithParam<DanglingPolicy> {};

TEST_P(PushScheduleOracleTest, ForwardSearchMatchesPerEdgeScreening) {
  const RwrConfig config = OracleConfig(GetParam());
  for (const OracleGraph& g : OracleGraphs()) {
    const NodeId source = Kinds(g.graph).linked.front();
    for (const SearchCase& c : SearchCases(g.graph, source)) {
      SCOPED_TRACE(g.name + ": " + c.name);
      PushState kernel(g.graph.num_nodes());
      PushState reference(g.graph.num_nodes());
      for (const auto& [v, r] : c.residues) {
        kernel.SetResidue(v, r);
        reference.SetResidue(v, r);
      }
      CancellationToken token;
      if (c.cancelled) token.Cancel();

      std::vector<HookCall> kernel_hooks;
      PushStats progress;
      const PushRoundHook hook = [&](std::size_t round) {
        kernel_hooks.push_back(HookCall{round, progress.push_operations,
                                        progress.edge_traversals});
        return round == c.stop_round;
      };
      const PushStats kernel_stats = RunForwardSearch(
          g.graph, config, source, c.r_max, c.seeds, c.unconditional, kernel,
          &token, &hook, &progress);

      std::vector<HookCall> reference_hooks;
      PushStats reference_stats;
      const bool finished = ReferenceSearch(
          g.graph, config, source, c.r_max, c.seeds, c.unconditional,
          [](NodeId) { return true; }, reference, &token, c.stop_round,
          &reference_hooks, reference_stats);

      ExpectSameState(kernel, reference);
      ExpectSameStats(kernel_stats, reference_stats);
      EXPECT_EQ(kernel_hooks, reference_hooks);
      // The cases reach what they are meant to: enough pops for a poll,
      // a stop where one was asked for, and more than one round.
      EXPECT_EQ(finished, !c.cancelled && c.stop_round == 0);
      EXPECT_GE(reference_hooks.size(), c.stop_round == 0 ? 2u : 1u);
    }
  }
}

TEST_P(PushScheduleOracleTest, HHopFwdMatchesPerEdgeScreening) {
  const RwrConfig config = OracleConfig(GetParam());
  int stopped = 0;
  for (const OracleGraph& g : OracleGraphs()) {
    const NodeKinds kinds = Kinds(g.graph);
    for (const NodeId source : {kinds.linked.front(), kinds.linked.back()}) {
      for (const std::uint32_t hops : {1u, 2u}) {
        for (const bool loop : {true, false}) {
          for (const bool subgraph : {true, false}) {
            for (const bool cancelled : {false, true}) {
              SCOPED_TRACE(g.name + ": source " + std::to_string(source) +
                           ", h " + std::to_string(hops) +
                           (loop ? ", loop" : ", no loop") +
                           (subgraph ? ", subgraph" : ", whole graph") +
                           (cancelled ? ", cancelled" : ""));
              CancellationToken token;
              if (cancelled) token.Cancel();
              HHopFwdOptions options;
              options.num_hops = hops;
              options.r_max_hop = 1e-9;
              options.use_loop_accumulation = loop;
              options.use_hop_subgraph = subgraph;
              options.cancel = &token;

              PushState kernel(g.graph.num_nodes());
              HopLayers layers;
              const HHopFwdStats kernel_stats = RunHHopFwd(
                  g.graph, config, source, options, kernel, &layers);
              PushState reference(g.graph.num_nodes());
              bool finished = true;
              const HHopFwdStats reference_stats = ReferenceHHopFwd(
                  g.graph, config, source, options, reference, finished);
              stopped += finished ? 0 : 1;

              ExpectSameState(kernel, reference);
              ExpectSameStats(kernel_stats.push, reference_stats.push);
              EXPECT_EQ(kernel_stats.rho, reference_stats.rho);
              EXPECT_EQ(kernel_stats.loop_count, reference_stats.loop_count);
              EXPECT_EQ(kernel_stats.scaler, reference_stats.scaler);
            }
          }
        }
      }
    }
  }
  // Some of the cancelled runs pop 512 nodes and stop mid-phase.
  EXPECT_GT(stopped, 0);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, PushScheduleOracleTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource),
                         [](const auto& info) {
                           return info.param == DanglingPolicy::kAbsorb
                                      ? std::string("Absorb")
                                      : std::string("BackToSource");
                         });

}  // namespace
}  // namespace resacc
