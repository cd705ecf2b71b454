#include "resacc/core/forward_push.h"

#include <queue>
#include <utility>
#include <vector>

#include "resacc/core/frontier.h"

namespace resacc {

void ForwardPushAt(const Graph& graph, const RwrConfig& config, NodeId source,
                   NodeId node, PushState& state, PushStats& stats) {
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
  }
  stats.edge_traversals += neighbors.size();
  state.SetResidue(node, 0.0);
}

namespace {

// How many work-list dequeues happen between cancellation-token polls.
// A poll is one relaxed load (plus a clock read when a deadline is
// armed); 512 pops of push work dwarf that, so the overhead is noise
// while the stop latency stays far under a millisecond.
constexpr std::uint64_t kCancelPollInterval = 512;

// Level-synchronous work list on the shared Frontier (see frontier.h):
// seeds form round 0 in caller order, everything after runs in canonical
// ascending-id rounds — the wavefront behaviour of the classic FIFO with a
// processing order that is a pure function of the scheduled (node, round)
// pairs, which is what lets the batched solver replay it per lane.
void ForwardSearchLevelSync(const Graph& graph, const RwrConfig& config,
                            NodeId source, Score r_max,
                            std::span<const NodeId> seeds,
                            bool push_seeds_unconditionally, PushState& state,
                            const CancellationToken* cancel,
                            const PushRoundHook* round_hook,
                            PushStats& stats) {
  Frontier frontier(graph.num_nodes());
  for (NodeId seed : seeds) frontier.Seed(seed);

  std::uint64_t pops = 0;
  std::size_t round = 0;
  NodeId node;
  while (frontier.Next(&node)) {
    if (cancel != nullptr && (++pops % kCancelPollInterval) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    if (round_hook != nullptr && frontier.round() != round) {
      // The popped node's scheduled flag is already cleared; leaving its
      // residue unpushed is the same valid intermediate as a cancel.
      round = frontier.round();
      if ((*round_hook)(round)) break;
    }
    const bool unconditional =
        push_seeds_unconditionally && frontier.round() == 0;
    if (!unconditional && !SatisfiesPushCondition(graph, state, node, r_max)) {
      continue;
    }
    ForwardPushAt(graph, config, source, node, state, stats);

    // Schedule out-neighbours (and possibly the source, under
    // kBackToSource) that now satisfy the push condition.
    for (NodeId v : graph.OutNeighbors(node)) {
      if (SatisfiesPushCondition(graph, state, v, r_max)) {
        frontier.Schedule(v);
      }
    }
    if (config.dangling == DanglingPolicy::kBackToSource &&
        SatisfiesPushCondition(graph, state, source, r_max)) {
      frontier.Schedule(source);
    }
  }
}

// Max-residue-first work list. Heap entries carry the residue observed at
// enqueue time; a node already in the heap is not re-inserted when its
// residue grows (the stale, smaller key only delays its pop — by then it
// has accumulated even more, which is exactly the intent).
void ForwardSearchMaxFirst(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           const CancellationToken* cancel, PushStats& stats) {
  std::priority_queue<std::pair<Score, NodeId>> heap;
  std::vector<std::uint8_t> in_heap(graph.num_nodes(), 0);
  std::vector<std::uint8_t> is_seed(graph.num_nodes(), 0);

  for (NodeId seed : seeds) {
    if (!in_heap[seed]) {
      in_heap[seed] = 1;
      if (push_seeds_unconditionally) is_seed[seed] = 1;
      heap.emplace(state.residue(seed), seed);
    }
  }

  auto try_enqueue = [&](NodeId v) {
    if (!in_heap[v] && SatisfiesPushCondition(graph, state, v, r_max)) {
      in_heap[v] = 1;
      heap.emplace(state.residue(v), v);
    }
  };

  std::uint64_t pops = 0;
  while (!heap.empty()) {
    if (cancel != nullptr && (++pops % kCancelPollInterval) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    const NodeId node = heap.top().second;
    heap.pop();
    in_heap[node] = 0;

    const bool unconditional = is_seed[node] != 0;
    is_seed[node] = 0;
    if (!unconditional && !SatisfiesPushCondition(graph, state, node, r_max)) {
      continue;
    }
    ForwardPushAt(graph, config, source, node, state, stats);

    for (NodeId v : graph.OutNeighbors(node)) try_enqueue(v);
    if (config.dangling == DanglingPolicy::kBackToSource) {
      try_enqueue(source);
    }
  }
}

}  // namespace

PushStats RunForwardSearch(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           PushOrder order, const CancellationToken* cancel,
                           const PushRoundHook* round_hook,
                           PushStats* progress) {
  PushStats local;
  PushStats& stats = progress != nullptr ? *progress : local;
  stats = PushStats{};
  if (order == PushOrder::kMaxResidueFirst) {
    ForwardSearchMaxFirst(graph, config, source, r_max, seeds,
                          push_seeds_unconditionally, state, cancel, stats);
  } else {
    ForwardSearchLevelSync(graph, config, source, r_max, seeds,
                           push_seeds_unconditionally, state, cancel,
                           round_hook, stats);
  }
  return stats;
}

}  // namespace resacc
