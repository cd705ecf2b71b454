#ifndef RESACC_CORE_FRONTIER_H_
#define RESACC_CORE_FRONTIER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
// neighbours happen to be visited in. The order is kept for determinism,
// and so that answers stay bit-identical with earlier releases: a change
// to how rounds are stored must still promote them in ascending id.
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

}  // namespace resacc

#endif  // RESACC_CORE_FRONTIER_H_
