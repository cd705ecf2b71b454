#ifndef RESACC_CORE_FRONTIER_H_
#define RESACC_CORE_FRONTIER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "resacc/util/check.h"
#include "resacc/util/types.h"

namespace resacc {

// Deterministic round-based work list shared by every push-based search
// (h-HopFWD's accumulating phase, OMFWD, FORA's forward push).
//
// Discipline:
//  * Round 0 holds the seeds, processed in the order the caller supplied
//    them (OMFWD's residue-descending seed heuristic depends on this).
//  * A node scheduled while round k is being processed joins round k+1.
//  * Within every round >= 1, nodes are processed in ascending node id.
//
// This is the classic FIFO wavefront — a node enqueued during round k's
// processing lands after every round-k node, exactly as in a deque — with
// one refinement: the order *within* a round is a sorted canonical order
// instead of enqueue order. That makes the processing sequence a pure
// function of which (node, round) pairs get scheduled, never of the order
// neighbours happen to be visited in. The batched multi-source solver
// (batch_solver.h) relies on this: each lane of a batch schedules exactly
// the (node, round) pairs its serial run would, so processing the union
// frontier in the same canonical order replays every lane's serial
// floating-point operation sequence bit for bit.
//
// Updates are Gauss-Seidel: a push's residue deposits are visible to later
// pushes of the same round immediately. The push condition is monotone in
// a node's residue until the node itself pushes, so a scheduled node still
// satisfies the condition when it is popped (callers re-check anyway for
// seeds, which may be scheduled unconditionally).
class Frontier {
 public:
  explicit Frontier(NodeId num_nodes) : scheduled_(num_nodes, 0) {}

  // Appends `v` to round 0, preserving call order; duplicates are ignored.
  // Only valid before the first Next() call.
  void Seed(NodeId v) {
    RESACC_DCHECK(round_ == 0 && pos_ == 0);
    if (scheduled_[v]) return;
    scheduled_[v] = 1;
    current_.push_back(v);
  }

  // Schedules `v` for the next round unless it is already scheduled
  // (pending in the current round, or in the next one). Returns true when
  // the node was newly scheduled.
  bool Schedule(NodeId v) {
    if (scheduled_[v]) return false;
    scheduled_[v] = 1;
    next_.push_back(v);
    return true;
  }

  // Pops the next node in round order (clearing its scheduled flag, so a
  // later deposit may re-schedule it). Returns false when no work remains.
  bool Next(NodeId* v) {
    if (pos_ == current_.size()) {
      if (next_.empty()) return false;
      current_.swap(next_);
      next_.clear();
      std::sort(current_.begin(), current_.end());
      pos_ = 0;
      ++round_;
    }
    *v = current_[pos_++];
    scheduled_[*v] = 0;
    return true;
  }

  // Index of the round the most recent Next() came from (0 = seeds).
  std::size_t round() const { return round_; }

  // Nodes of the current round not yet popped, for lookahead prefetching.
  const NodeId* pending() const { return current_.data() + pos_; }
  std::size_t pending_count() const { return current_.size() - pos_; }

  // Nodes staged for the next round, in schedule order (deduplicated, not
  // yet sorted — Next() sorts on promotion). The batch solver drains each
  // lane's round 0 through a serial Frontier and hands the staged round-1
  // set over to the shared BatchFrontier.
  std::span<const NodeId> staged() const { return next_; }

  // Clears leftover scheduled flags after an early stop (cancellation), so
  // the instance can be reused. O(remaining work), not O(n).
  void Clear() {
    for (std::size_t i = pos_; i < current_.size(); ++i) {
      scheduled_[current_[i]] = 0;
    }
    for (NodeId v : next_) scheduled_[v] = 0;
    current_.clear();
    next_.clear();
    pos_ = 0;
    round_ = 0;
  }

 private:
  std::vector<std::uint8_t> scheduled_;
  std::vector<NodeId> current_;
  std::vector<NodeId> next_;
  std::size_t pos_ = 0;
  std::size_t round_ = 0;
};

// The multi-source variant: per-node lane bitmasks instead of booleans.
// A node is live in a round for the set of lanes that scheduled it; the
// batched sweep processes the union frontier once per round and applies
// each push to exactly the scheduled lanes. Because scheduling decisions
// are per-lane (a lane's bits are set only by that lane's own pushes) and
// rounds are processed in the same canonical ascending-id order as the
// serial Frontier, each lane's (node, round) processing sequence equals
// its serial one — the keystone of the batch solver's bit-identity
// guarantee (see DESIGN.md "Batched solving").
//
// Seeds are NOT routed through this class: seed order is per-lane (OMFWD
// sorts each lane's frontier by that lane's residues), so the batch solver
// runs each lane's round 0 serially on flat scratch state and Schedule()s
// the resulting round-1 set here (Next() promotes and sorts it).
class BatchFrontier {
 public:
  using LaneMask = std::uint32_t;
  static constexpr std::size_t kMaxLanes = 32;

  explicit BatchFrontier(NodeId num_nodes)
      : masks_(num_nodes, Masks{0, 0}) {}

  // Schedules `v` for the next round on the lanes of `lanes` that do not
  // already have it scheduled.
  void Schedule(NodeId v, LaneMask lanes) {
    Masks& m = masks_[v];
    const LaneMask fresh = lanes & ~m.current & ~m.next;
    if (fresh == 0) return;
    if (m.next == 0) next_.push_back(v);
    m.next |= fresh;
  }

  LaneMask scheduled(NodeId v) const {
    return masks_[v].current | masks_[v].next;
  }

  void PrefetchMasks(NodeId v) const { __builtin_prefetch(&masks_[v], 1, 1); }

  // Pops the next (node, lanes) pair in round order. All of the node's
  // pending lanes are consumed together. Returns false when drained.
  bool Next(NodeId* v, LaneMask* lanes) {
    while (true) {
      if (pos_ == current_.size()) {
        if (next_.empty()) return false;
        current_.swap(next_);
        next_.clear();
        std::sort(current_.begin(), current_.end());
        // Promote the masks with the list. Every node of the finished
        // round was popped (its current mask consumed), so overwriting is
        // safe even for nodes that sat in both rounds.
        for (NodeId n : current_) {
          masks_[n].current = masks_[n].next;
          masks_[n].next = 0;
        }
        pos_ = 0;
        ++round_;
      }
      *v = current_[pos_++];
      *lanes = masks_[*v].current;
      masks_[*v].current = 0;
      // A node can end up with an empty mask (every scheduling lane
      // detached): skip it rather than hand the caller a no-op.
      if (*lanes != 0) return true;
    }
  }

  std::size_t round() const { return round_; }

  const NodeId* pending() const { return current_.data() + pos_; }
  std::size_t pending_count() const { return current_.size() - pos_; }

  // Drops the given lanes from every future pop (lane detach on
  // cancellation). Stale bits left in the per-node masks are cleared
  // lazily by Next()/Clear().
  // (Intentionally no-op here: callers mask popped lanes themselves; this
  // class stays a pure schedule.)

  // Clears leftover masks after an early stop so the instance is reusable
  // for the next phase/batch. O(remaining work), not O(n).
  void Clear() {
    for (std::size_t i = pos_; i < current_.size(); ++i) {
      masks_[current_[i]].current = 0;
    }
    for (NodeId v : next_) masks_[v].next = 0;
    current_.clear();
    next_.clear();
    pos_ = 0;
    round_ = 0;
  }

 private:
  // The current- and next-round masks of a node live side by side in one
  // 8-byte slot: Schedule and scheduled() always read both, and the push
  // kernel hits them at random node order, so splitting them across two
  // arrays would double the cache lines touched per neighbour.
  struct Masks {
    LaneMask current;
    LaneMask next;
  };

  std::vector<Masks> masks_;
  std::vector<NodeId> current_;
  std::vector<NodeId> next_;
  std::size_t pos_ = 0;
  std::size_t round_ = 0;
};

}  // namespace resacc

#endif  // RESACC_CORE_FRONTIER_H_
