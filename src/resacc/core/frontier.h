#ifndef RESACC_CORE_FRONTIER_H_
#define RESACC_CORE_FRONTIER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "resacc/util/check.h"
#include "resacc/util/types.h"

namespace resacc {

// Deterministic round-based work list shared by every forward search
// (h-HopFWD's accumulating phase, OMFWD, top-k refinement, FORA's forward
// push). Rounds are built by mark and promote:
//  * Round 0 holds the seeds, processed in the order the caller supplied
//    them (OMFWD's residue-descending seed heuristic depends on this).
//  * A deposit into a node only marks it: one bit in an n-bit bitmap
//    (Mark). Popping a node clears its bit.
//  * When a round is exhausted, Next walks the bitmap in ascending id,
//    clears it, and screens each marked node once with the caller's
//    predicate (the push condition, plus hop-set eligibility in
//    h-HopFWD). The nodes that pass form the next round, in ascending id.
//    A boundary reads all n / 64 words.
//
// This is the classic FIFO wavefront — a node that gains residue during
// round k is pushed after every round-k node — with the order *within* a
// round a canonical ascending id instead of enqueue order, so the
// processing sequence never depends on the order neighbours happen to be
// visited in.
//
// Screening once per round instead of once per deposit gives the same
// rounds. Updates are Gauss-Seidel: a push's deposits are visible to later
// pushes of the same round at once. Between two pops of a node its
// residue only grows, so its push condition is monotone there. A node
// therefore meets the condition right after some deposit of round k (the
// per-deposit screen) exactly when it meets it at the round boundary, as
// long as that deposit came after the node's last pop. Both rules put a
// node into round k+1 under the same condition: it was marked after its
// last pop and passes the screen at the boundary. A search that must
// screen a node no deposit reached (the source after every push under
// kBackToSource, the neighbours of a zero-residue pop) marks it itself.
class Frontier {
 public:
  explicit Frontier(NodeId num_nodes) : marks_((num_nodes + 63) / 64, 0) {}

  // Appends `v` to round 0, preserving call order; duplicates are ignored.
  // Only valid before the first Next() call.
  void Seed(NodeId v) {
    RESACC_DCHECK(round_ == 0 && pos_ == 0);
    if (marks_[v / 64] & Bit(v)) return;
    Mark(v);
    current_.push_back(v);
  }

  // Marks `v` for screening at the next round boundary.
  void Mark(NodeId v) { marks_[v / 64] |= Bit(v); }

  // Pops the next node in round order and clears its mark. At a round
  // boundary, promotes the marked nodes for which `qualifies(v)` holds.
  // Returns false when no marked node qualifies.
  template <typename Qualifies>
  bool Next(NodeId* v, const Qualifies& qualifies) {
    if (pos_ == current_.size()) {
      current_.clear();
      pos_ = 0;
      for (std::size_t w = 0; w < marks_.size(); ++w) {
        for (std::uint64_t word = std::exchange(marks_[w], 0); word != 0;
             word &= word - 1) {
          const NodeId u = static_cast<NodeId>(w * 64 + std::countr_zero(word));
          if (qualifies(u)) current_.push_back(u);
        }
      }
      if (current_.empty()) return false;
      ++round_;
    }
    *v = current_[pos_++];
    marks_[*v / 64] &= ~Bit(*v);
    return true;
  }

  // Index of the round the most recent Next() came from (0 = seeds).
  std::size_t round() const { return round_; }

 private:
  static std::uint64_t Bit(NodeId v) { return std::uint64_t{1} << (v % 64); }

  std::vector<std::uint64_t> marks_;
  std::vector<NodeId> current_;
  std::size_t pos_ = 0;
  std::size_t round_ = 0;
};

}  // namespace resacc

#endif  // RESACC_CORE_FRONTIER_H_
