#include "resacc/core/forward_push.h"

#include "resacc/core/frontier.h"

namespace resacc {

namespace {

// Definition 7's push at `node`, calling `on_deposit(v)` after each
// deposit into an out-neighbour v. No-op when the residue is zero.
template <typename OnDeposit>
void PushAt(const Graph& graph, const RwrConfig& config, NodeId source,
            NodeId node, PushState& state, PushStats& stats,
            const OnDeposit& on_deposit) {
  const Score residue = state.residue(node);
  if (residue <= 0.0) return;
  ++stats.push_operations;

  const auto neighbors = graph.OutNeighbors(node);
  if (neighbors.empty()) {
    // Dangling node: see DanglingPolicy. The residue is consumed *before*
    // the back-flow is credited — the source may be this very node (an
    // isolated source), in which case the flow must survive the reset.
    state.SetResidue(node, 0.0);
    if (config.dangling == DanglingPolicy::kAbsorb) {
      state.AddReserve(node, residue);
    } else {
      state.AddReserve(node, config.alpha * residue);
      state.AddResidue(source, (1.0 - config.alpha) * residue);
    }
    return;
  }

  state.AddReserve(node, config.alpha * residue);
  const Score share = (1.0 - config.alpha) * residue /
                      static_cast<Score>(neighbors.size());
  for (NodeId v : neighbors) {
    state.AddResidue(v, share);
    on_deposit(v);
  }
  stats.edge_traversals += neighbors.size();
  state.SetResidue(node, 0.0);
}

// How many work-list dequeues happen between cancellation-token polls.
// A poll is one relaxed load (plus a clock read when a deadline is
// armed); 512 pops of push work dwarf that, so the overhead is noise
// while the stop latency stays far under a millisecond.
constexpr std::uint64_t kCancelPollInterval = 512;

}  // namespace

void ForwardPushAt(const Graph& graph, const RwrConfig& config, NodeId source,
                   NodeId node, PushState& state, PushStats& stats) {
  PushAt(graph, config, source, node, state, stats, [](NodeId) {});
}

bool RunPushRounds(const Graph& graph, const RwrConfig& config, NodeId source,
                   Score r_max, std::span<const NodeId> seeds,
                   bool push_seeds_unconditionally, const PushScope& scope,
                   PushState& state, const CancellationToken* cancel,
                   const PushRoundHook* round_hook, PushStats& stats) {
  Frontier frontier(graph.num_nodes());
  for (NodeId seed : seeds) frontier.Seed(seed);
  const auto mark = [&frontier](NodeId v) { frontier.Mark(v); };
  const auto qualifies = [&](NodeId v) {
    return scope.Admits(v) && SatisfiesPushCondition(graph, state, v, r_max);
  };

  std::uint64_t pops = 0;
  std::size_t round = 0;
  NodeId node;
  while (frontier.Next(&node, qualifies)) {
    if (cancel != nullptr && (++pops % kCancelPollInterval) == 0 &&
        cancel->ShouldStop()) {
      return false;
    }
    if (frontier.round() == 0) {
      // Later rounds passed the screen at promotion and have only gained
      // residue since; the seeds are screened here.
      if (!push_seeds_unconditionally &&
          !SatisfiesPushCondition(graph, state, node, r_max)) {
        continue;
      }
    } else if (frontier.round() != round) {
      // The popped node's mark is already cleared; leaving its residue
      // unpushed is the same valid intermediate as a cancel.
      round = frontier.round();
      if (round_hook != nullptr && (*round_hook)(round)) return false;
    }
    if (state.residue(node) > 0.0) {
      PushAt(graph, config, source, node, state, stats, mark);
    } else {
      // Nothing to push, but the neighbours are marked as after any push.
      for (NodeId v : graph.OutNeighbors(node)) frontier.Mark(v);
    }
    if (config.dangling == DanglingPolicy::kBackToSource) {
      frontier.Mark(source);
    }
  }
  return true;
}

PushStats RunForwardSearch(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           const CancellationToken* cancel,
                           const PushRoundHook* round_hook,
                           PushStats* progress) {
  PushStats local;
  PushStats& stats = progress != nullptr ? *progress : local;
  stats = PushStats{};
  RunPushRounds(graph, config, source, r_max, seeds,
                push_seeds_unconditionally, PushScope{}, state, cancel,
                round_hook, stats);
  return stats;
}

}  // namespace resacc
