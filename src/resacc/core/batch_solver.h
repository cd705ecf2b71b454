#ifndef RESACC_CORE_BATCH_SOLVER_H_
#define RESACC_CORE_BATCH_SOLVER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "resacc/core/frontier.h"
#include "resacc/core/push_state.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/huge_array.h"

namespace resacc {

// One lane of a batch: a source plus its own cancellation token. A fired
// token detaches only that lane — the rest of the batch keeps running.
struct BatchLane {
  NodeId source = 0;
  const CancellationToken* cancel = nullptr;
  // > 0 makes this a top-k lane: QueryBatch fills the lane's TopKResult
  // (bit-identical to the serial solver's QueryTopK) and leaves the
  // ControlledQueryResult's scores empty — skipping the n-vector is the
  // point of the mode. 0 = ordinary full-vector lane.
  std::size_t top_k = 0;
};

// Aggregate diagnostics of the most recent QueryBatch call.
struct BatchQueryStats {
  std::uint64_t push_operations = 0;  // lane pushes, summed over lanes
  std::uint64_t edge_traversals = 0;  // lane edge visits, summed over lanes
  // Union-frontier pops in the shared rounds: one CSR row read serves
  // `push_operations / shared_node_pops` lane pushes on average — the
  // amortization the batch exists for.
  std::uint64_t shared_node_pops = 0;
  // Lane pushes served by the dense all-lanes kernel (the vectorized path).
  std::uint64_t dense_lane_pushes = 0;
  // Wall-clock phase split.
  double hop_seconds = 0.0;
  double omfwd_seconds = 0.0;
  double remedy_seconds = 0.0;
};

// Structure-of-arrays push state for B lanes: residues and reserves are
// lane-major (`values[v * num_lanes + b]`), so the inner per-lane loops of
// the push kernel walk contiguous memory and compiler-vectorize. Touched
// tracking is two-level: a per-node lane bitmask plus
//   * `union_touched()`  — nodes touched by any lane, for O(touched) Reset
//     and for the updating phase's whole-batch scaling sweep;
//   * `lane_touched(b)`  — the nodes lane b touched, in the exact order the
//     serial solver's PushState would have touched them. Remedy walk slices
//     are built in touched order and merged in slice order, so preserving
//     this order per lane is what keeps the batched results bit-identical
//     to the serial solver (see DESIGN.md "Batched solving").
class BatchPushState {
 public:
  using LaneMask = BatchFrontier::LaneMask;

  // (Re)shapes the state for `num_lanes` lanes; an unchanged shape resets
  // in O(touched x lanes) instead of reallocating.
  void Configure(NodeId num_nodes, std::size_t num_lanes);
  void Reset();

  std::size_t num_lanes() const { return num_lanes_; }

  Score* ResidueRow(NodeId v) {
    return residue_.data() + static_cast<std::size_t>(v) * num_lanes_;
  }
  Score* ReserveRow(NodeId v) {
    return reserve_.data() + static_cast<std::size_t>(v) * num_lanes_;
  }
  const Score* ResidueRow(NodeId v) const {
    return residue_.data() + static_cast<std::size_t>(v) * num_lanes_;
  }
  const Score* ReserveRow(NodeId v) const {
    return reserve_.data() + static_cast<std::size_t>(v) * num_lanes_;
  }

  LaneMask touched_mask(NodeId v) const { return touched_mask_[v]; }

  // Marks `lanes`' first touches of `v`, appending v to each newly touching
  // lane's ordered list. Call BEFORE writing the row, at exactly the points
  // PushState::Touch would fire in the serial solver.
  void Touch(NodeId v, LaneMask lanes) {
    const LaneMask missing = lanes & ~touched_mask_[v];
    if (missing == 0) return;
    if (touched_mask_[v] == 0) union_touched_.push_back(v);
    touched_mask_[v] |= missing;
    for (LaneMask m = missing; m != 0; m &= m - 1) {
      lane_touched_[LaneOf(m)].push_back(v);
    }
  }

  std::span<const NodeId> union_touched() const { return union_touched_; }
  std::span<const NodeId> lane_touched(std::size_t b) const {
    return lane_touched_[b];
  }

  // Sum of lane b's residues in lane-b touched order — the same summation
  // order as PushState::ResidueSum in the serial solver.
  Score LaneResidueSum(std::size_t b) const {
    Score sum = 0.0;
    for (NodeId v : lane_touched_[b]) sum += ResidueRow(v)[b];
    return sum;
  }

  static std::size_t LaneOf(LaneMask m) {
    return static_cast<std::size_t>(std::countr_zero(m));
  }

 private:
  // Huge-page-backed (see huge_array.h): the panels are the solver's hot
  // random-access working set and dwarf the TLB reach of 4 KiB pages.
  HugeArray<Score> residue_;
  HugeArray<Score> reserve_;
  std::vector<LaneMask> touched_mask_;
  std::vector<NodeId> union_touched_;
  std::vector<std::vector<NodeId>> lane_touched_;
  NodeId num_nodes_ = 0;
  std::size_t num_lanes_ = 0;
};

// Batched multi-source ResAcc solver: runs up to kMaxLanes sources through
// ONE shared frontier sweep per OMFWD round, so each CSR row read during
// the shared rounds serves every lane that scheduled the node, and the
// per-lane residue updates run as contiguous compiler-vectorized loops
// over the SoA lanes. Everything around the shared rounds is the serial
// solver's own code: each lane runs h-HopFWD and its OMFWD seed round
// serially, and finishes through ResAccPipeline::Finish — the one finish
// ResAccSolver::QueryControlled and QueryTopK call — after one bridge of
// the lane's column into a scratch PushState. Only ResAcc batches: serving
// never batches another solver, so there are no FORA or Monte-Carlo lanes.
// QueryService still sends a lone job to ResAccSolver, because a 1-lane
// batch pays for the lane masks, screens and transplants without sharing
// a row read, and runs slower than the serial solver.
//
// Contract (the tentpole guarantees):
//  * Per-source results are BIT-IDENTICAL to ResAccSolver with the same
//    graph, config and options for every lane that runs to completion.
//    Each lane's floating-point operation sequence is replayed exactly —
//    see frontier.h's round discipline and DESIGN.md "Batched solving".
//  * Each lane carries its own epsilon accounting: a complete lane reports
//    the configured epsilon (Definition 1 holds per source); a detached
//    lane reports epsilon + uncorrected_mass / delta, exactly like a
//    cancelled serial query.
//  * A lane whose cancellation token fires detaches without perturbing the
//    other lanes (its pending work is masked out; the survivors' operation
//    sequences are unchanged).
//
// Like the serial solver, an instance is bound to one graph and is NOT
// thread-safe; give each serve worker its own instance.
class BatchSolver {
 public:
  static constexpr std::size_t kMaxLanes = BatchFrontier::kMaxLanes;

  BatchSolver(const Graph& graph, const RwrConfig& config,
              const ResAccOptions& options = {});
  BatchSolver(Graph&&, const RwrConfig&, const ResAccOptions& = {}) = delete;

  const std::string& name() const { return name_; }

  // Solves all lanes (1 <= lanes.size() <= kMaxLanes); results are indexed
  // like `lanes`. Each result is exactly what the serial solver's
  // QueryControlled would return for that lane's (source, cancel).
  //
  // Lanes with top_k > 0 require a non-null `topk_results` (resized and
  // indexed like `lanes`); each such lane gets the serial QueryTopK's
  // bit-identical TopKResult, and its ControlledQueryResult carries only
  // the status/epsilon tags (scores left empty). Full-vector lanes leave
  // their TopKResult empty.
  std::vector<ControlledQueryResult> QueryBatch(
      std::span<const BatchLane> lanes,
      std::vector<TopKResult>* topk_results = nullptr);

  // Convenience: runs `sources` through batches of at most `batch_size`
  // lanes (no cancellation tokens).
  std::vector<ControlledQueryResult> QueryAllChunked(
      std::span<const NodeId> sources, std::size_t batch_size);

  const BatchQueryStats& last_stats() const { return last_stats_; }

 private:
  using LaneMask = BatchFrontier::LaneMask;

  // Per-lane working data of one QueryBatch call.
  struct LaneRun {
    NodeId source = 0;
    const CancellationToken* cancel = nullptr;
    std::size_t top_k = 0;            // > 0: top-k lane
    bool initialized = false;         // r(source) = 1 has been planted
    bool detached = false;
    Status status;
    // Hybrid selection outcome of this lane (core/power_iter.h): a dense
    // lane skips the shared rounds, and the finish power-iterates it.
    SolverPath path = SolverPath::kLocal;
  };

  // The pipeline behind QueryBatch; fills `results` and, for top-k
  // lanes, `topk_results`.
  void RunResAccBatch(std::span<const BatchLane> lanes,
                      std::vector<ControlledQueryResult>& results,
                      std::vector<TopKResult>* topk_results);

  // Polls every live lane's token and detaches the fired ones.
  void PollLanes(std::span<LaneRun> runs);

  // Lane b's push condition (Definition 6) — kept as residue/degree >= r_max
  // exactly, never rearranged (FP equivalence with the serial check).
  bool LaneCond(NodeId v, std::size_t b, Score r_max) const {
    const NodeId degree = graph_.OutDegree(v);
    const Score residue = state_.ResidueRow(v)[b];
    const Score scaled =
        degree > 0 ? residue / static_cast<Score>(degree) : residue;
    return scaled >= r_max;
  }

  // One batched push at `u` for the lanes of `gate` (the lanes that popped
  // the node and passed their gating), plus the post-push scheduling sweep
  // when `frontier` is non-null.
  void ApplyPush(NodeId u, LaneMask gate, Score r_max,
                 std::span<LaneRun> runs, BatchFrontier* frontier);

  // Schedules into `frontier` the lanes of `candidates` whose post-deposit
  // residue row `rv` satisfies the push condition at `v` — the fused
  // scheduling step of ApplyPush's deposit loops.
  void ScheduleLanes(NodeId v, const Score* rv, LaneMask candidates,
                     Score r_max, BatchFrontier& frontier);

  // Drains the shared union rounds (>= 1) at threshold `r_max`.
  void SharedRounds(Score r_max, std::span<LaneRun> runs,
                    BatchFrontier& frontier);

  // Copies lane b's reserves and residues into scratch_ in the lane's
  // serial touched order — the PushState the serial solver would hold
  // after its push phases, r(source) = 1 for a lane dead on arrival.
  // Remedy builds walk slices in touched order and every r_sum is summed
  // in it, so this order is what keeps the finish bit-identical.
  void BridgeLane(std::size_t b, const LaneRun& run);

  const Graph& graph_;
  RwrConfig config_;
  // Options, hop-phase set-up and finish, shared with the serial solver.
  ResAccPipeline pipeline_;
  std::string name_;

  BatchPushState state_;
  BatchFrontier frontier_;
  // Per-lane scratch: hosts the lane-local serial h-HopFWD run and OMFWD
  // round 0 (neither overlaps across lanes, so both run at serial speed on
  // the flat L2-resident state and are transplanted into the SoA once) and
  // later each lane's bridge into the finish.
  PushState scratch_;
  // Serial work list for the lane-local OMFWD round 0: replays the serial
  // Frontier's exact seed-round scheduling semantics, then hands its
  // staged round-1 set to the shared frontier_.
  Frontier seed_frontier_;
  BatchQueryStats last_stats_;

  std::size_t num_lanes_ = 0;
  LaneMask detached_mask_ = 0;
  // Lanes the hybrid selector handed to the dense path: masked out of the
  // shared rounds exactly where the serial solver's round hook would have
  // stopped its search (SharedRounds), finished densely.
  LaneMask dense_mask_ = 0;
  // Software prefetch is worth its issue slots only while the SoA panels
  // overflow the fast cache levels; small graphs run the kernels without
  // the prefetch stages. Set per QueryBatch from the panel footprint.
  bool prefetch_ = true;
};

}  // namespace resacc

#endif  // RESACC_CORE_BATCH_SOLVER_H_
