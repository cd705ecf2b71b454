#ifndef RESACC_CORE_FORWARD_PUSH_H_
#define RESACC_CORE_FORWARD_PUSH_H_

#include <cstdint>
#include <functional>
#include <span>

#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"

namespace resacc {

// Operation counters for the push engines; the benches report these and
// the complexity tests assert their bounds.
struct PushStats {
  std::uint64_t push_operations = 0;
  std::uint64_t edge_traversals = 0;

  PushStats& operator+=(const PushStats& other) {
    push_operations += other.push_operations;
    edge_traversals += other.edge_traversals;
    return *this;
  }
};

// The push condition (Definition 6): r(t) / d_out(t) >= r_max, with
// dangling nodes treated as degree 1.
inline bool SatisfiesPushCondition(const Graph& graph, const PushState& state,
                                   NodeId t, Score r_max) {
  const NodeId degree = graph.OutDegree(t);
  const Score scaled =
      degree > 0 ? state.residue(t) / static_cast<Score>(degree)
                 : state.residue(t);
  return scaled >= r_max;
}

// One forward push operation at `node` (Definition 7): moves alpha of its
// residue to its reserve and spreads the rest over out-neighbours (or per
// the dangling policy). No-op when the residue is zero.
void ForwardPushAt(const Graph& graph, const RwrConfig& config, NodeId source,
                   NodeId node, PushState& state, PushStats& stats);

// Work-list policy for the forward search.
enum class PushOrder {
  // Level-synchronous rounds on the shared Frontier (frontier.h) — the
  // classic FIFO wavefront with a canonical ascending-id order inside
  // each round, and the default everywhere. Wavefronts maximize residue
  // accumulation (a node collects from its whole in-frontier before it is
  // popped), and the canonical in-round order makes the processing
  // sequence deterministic in the scheduled (node, round) pairs alone —
  // the property the batched multi-source solver builds on. The enum name
  // is kept for the queue family it belongs to.
  kFifo,
  // Largest residue first (lazy max-heap). Measured *worse* than kFifo on
  // power-law graphs (5-7x more pushes: the greedy pop re-processes hub
  // nodes as mass trickles in) — kept as an experimentation knob and
  // pinned by push_order_test.
  kMaxResidueFirst,
};

// Invoked by the level-synchronous search each time the Frontier promotes
// to a new round (before any node of that round is pushed). Returning true
// stops the search there; the state is a valid intermediate exactly as
// with cancellation. The top-k solver hangs its separation and price
// checks here — round boundaries are the only points whose position in
// the processing sequence is a pure function of the scheduled (node,
// round) pairs, which is what keeps batched-lane replays bit-identical to
// serial. A hook that needs the work done so far reads it from the
// search's `progress` counters (RunForwardSearch).
// Ignored by kMaxResidueFirst (no round structure).
using PushRoundHook = std::function<bool(std::size_t round)>;

// Queue-driven forward search (Algorithm 1, generalized):
//  * `seeds` are enqueued first; when `push_seeds_unconditionally` they
//    are pushed even if below threshold (OMFWD seeds the accumulated
//    (h+1)-layer this way, Algorithm 4).
//  * afterwards, any node whose residue meets the push condition with
//    `r_max` is pushed until none remains.
// The state must already hold the initial residues (e.g. r(s) = 1).
// A non-null `cancel` token is polled every few hundred dequeues; when it
// fires the search stops early. The state stays a valid intermediate (the
// invariant pi(v) = reserve(v) + sum_u r(u) pi_u(v) holds after every
// individual push), so the caller can still read partial reserves and the
// remaining residue mass — the token's status says *why* it stopped.
// A non-null `progress` is zeroed and then counts this search's work as it
// runs, so a round hook can read it; the return value is its final copy.
PushStats RunForwardSearch(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           PushOrder order = PushOrder::kFifo,
                           const CancellationToken* cancel = nullptr,
                           const PushRoundHook* round_hook = nullptr,
                           PushStats* progress = nullptr);

}  // namespace resacc

#endif  // RESACC_CORE_FORWARD_PUSH_H_
