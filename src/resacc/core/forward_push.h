#ifndef RESACC_CORE_FORWARD_PUSH_H_
#define RESACC_CORE_FORWARD_PUSH_H_

#include <cstdint>
#include <functional>
#include <span>

#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/graph/hop_layers.h"
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

// Invoked by the level-synchronous search each time the Frontier promotes
// to a new round (before any node of that round is pushed). Returning true
// stops the search there; the state is a valid intermediate exactly as
// with cancellation. The top-k solver hangs its separation and price
// checks here — round boundaries are the only points whose position in
// the processing sequence is a pure function of the scheduled (node,
// round) pairs, so a hook's decisions are deterministic. A hook that
// needs the work done so far reads it from the search's `progress`
// counters (RunForwardSearch).
using PushRoundHook = std::function<bool(std::size_t round)>;

// Which nodes a search may push besides the push condition. h-HopFWD
// admits only its hop set, and not the source while it accumulates the
// loop; the default admits every node.
struct PushScope {
  const HopLayers* hop_set = nullptr;  // admit InHopSet(v, num_hops) only
  std::uint32_t num_hops = 0;
  NodeId excluded = kInvalidNode;  // never pushed

  bool Admits(NodeId v) const {
    return v != excluded &&
           (hop_set == nullptr || hop_set->InHopSet(v, num_hops));
  }
};

// Queue-driven forward search (Algorithm 1, generalized), in
// level-synchronous rounds on the shared Frontier (frontier.h): the
// classic FIFO wavefront with a canonical ascending-id order inside each
// round. A wavefront lets a node collect from its whole in-frontier before
// it is pushed, and the canonical order makes the processing sequence
// deterministic in the scheduled (node, round) pairs alone.
//  * `seeds` are round 0, in caller order; when `push_seeds_unconditionally`
//    they are pushed even if below threshold (OMFWD seeds the accumulated
//    (h+1)-layer this way, Algorithm 4). Otherwise a seed below the
//    threshold is skipped.
//  * afterwards, any node whose residue meets the push condition with
//    `r_max` is pushed until none remains.
// Rounds are built by mark and promote (frontier.h): a push marks each
// node it deposits into, plus the source under kBackToSource, and a seed
// with zero residue pushes nothing but still marks its neighbours. At a
// round boundary each marked node is screened once, and those meeting the
// push condition form the next round. Until a node pushes, its residue
// only grows, so this admits the same nodes as a screen right after every
// deposit: answers, PushStats and round-hook calls are bit-identical to
// that discipline (tests/push_schedule_oracle_test.cc). A non-seed node
// that meets the condition before the search starts waits for a deposit.
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
                           const CancellationToken* cancel = nullptr,
                           const PushRoundHook* round_hook = nullptr,
                           PushStats* progress = nullptr);

// The round loop under RunForwardSearch and h-HopFWD's accumulating phase
// (RunHHopFwd), as documented above, restricted to the nodes `scope`
// admits (seeds are taken as given). Adds its work to `stats`. Returns
// false when the token or the hook stopped the search.
bool RunPushRounds(const Graph& graph, const RwrConfig& config, NodeId source,
                   Score r_max, std::span<const NodeId> seeds,
                   bool push_seeds_unconditionally, const PushScope& scope,
                   PushState& state, const CancellationToken* cancel,
                   const PushRoundHook* round_hook, PushStats& stats);

}  // namespace resacc

#endif  // RESACC_CORE_FORWARD_PUSH_H_
