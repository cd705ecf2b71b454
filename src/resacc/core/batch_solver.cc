#include "resacc/core/batch_solver.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "resacc/core/forward_push.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/util/check.h"
#include "resacc/util/timer.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace resacc {

namespace {

// Half-width of the divide-free push-condition screen, relative to
// r_max*degree (see the scheduling sweep in ApplyPush). IEEE-754 double
// rounding perturbs the compared quantities by at most ~3 ulp (~7e-16
// relative); 1e-14 brackets that with an order of magnitude to spare.
constexpr Score kCondMargin = 1e-14;

// Bitmask of the lanes whose row value is >= threshold. The bit-shift
// accumulation in the portable loop defeats autovectorization, so the
// AVX-512 path compares a whole 8-lane chunk into a predicate mask
// directly; both paths perform the identical IEEE comparisons.
inline BatchFrontier::LaneMask GeMask(const Score* row, std::size_t n,
                                      Score threshold) {
  using LaneMask = BatchFrontier::LaneMask;
  LaneMask out = 0;
  std::size_t b = 0;
#if defined(__AVX512F__)
  const __m512d t = _mm512_set1_pd(threshold);
  for (; b + 8 <= n; b += 8) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(row + b), t, _CMP_GE_OQ);
    out |= static_cast<LaneMask>(ge) << b;
  }
#endif
  for (; b < n; ++b) {
    out |= static_cast<LaneMask>(row[b] >= threshold) << b;
  }
  return out;
}

}  // namespace

void BatchPushState::Configure(NodeId num_nodes, std::size_t num_lanes) {
  if (num_nodes_ == num_nodes && num_lanes_ == num_lanes) {
    Reset();
    return;
  }
  num_nodes_ = num_nodes;
  num_lanes_ = num_lanes;
  const std::size_t cells =
      static_cast<std::size_t>(num_nodes) * num_lanes;
  residue_.Resize(cells);
  reserve_.Resize(cells);
  touched_mask_.assign(num_nodes, 0);
  union_touched_.clear();
  lane_touched_.assign(num_lanes, {});
}

void BatchPushState::Reset() {
  for (NodeId v : union_touched_) {
    Score* residue = ResidueRow(v);
    Score* reserve = ReserveRow(v);
    for (std::size_t b = 0; b < num_lanes_; ++b) {
      residue[b] = 0.0;
      reserve[b] = 0.0;
    }
    touched_mask_[v] = 0;
  }
  union_touched_.clear();
  for (auto& lane : lane_touched_) lane.clear();
}

BatchSolver::BatchSolver(const Graph& graph, const RwrConfig& config,
                         const ResAccOptions& options)
    : graph_(graph),
      config_(config),
      pipeline_(graph, config, options),
      name_("BatchResAcc"),
      frontier_(graph.num_nodes()),
      scratch_(graph.num_nodes()),
      seed_frontier_(graph.num_nodes()) {}

std::vector<ControlledQueryResult> BatchSolver::QueryBatch(
    std::span<const BatchLane> lanes, std::vector<TopKResult>* topk_results) {
  RESACC_CHECK(!lanes.empty() && lanes.size() <= kMaxLanes);
  bool any_topk = false;
  for (const BatchLane& lane : lanes) {
    RESACC_CHECK(lane.source < graph_.num_nodes());
    any_topk = any_topk || lane.top_k > 0;
  }
  RESACC_CHECK(!any_topk || topk_results != nullptr);
  if (topk_results != nullptr) {
    topk_results->assign(lanes.size(), TopKResult{});
  }
  last_stats_ = BatchQueryStats();
  num_lanes_ = lanes.size();
  // Residue + reserve panels; beyond ~2x the L2 size the row fetches miss
  // enough for the kernels' prefetch stages to pay for themselves.
  constexpr std::size_t kPrefetchPanelBytes = std::size_t{4} << 20;
  prefetch_ = static_cast<std::size_t>(graph_.num_nodes()) * lanes.size() *
                  sizeof(Score) * 2 >
              kPrefetchPanelBytes;
  detached_mask_ = 0;
  dense_mask_ = 0;

  std::vector<ControlledQueryResult> results(num_lanes_);
  state_.Configure(graph_.num_nodes(), num_lanes_);
  RunResAccBatch(lanes, results, topk_results);
  return results;
}

std::vector<ControlledQueryResult> BatchSolver::QueryAllChunked(
    std::span<const NodeId> sources, std::size_t batch_size) {
  RESACC_CHECK(batch_size >= 1 && batch_size <= kMaxLanes);
  std::vector<ControlledQueryResult> all;
  all.reserve(sources.size());
  std::vector<BatchLane> lanes;
  for (std::size_t i = 0; i < sources.size(); i += batch_size) {
    lanes.clear();
    const std::size_t end = std::min(sources.size(), i + batch_size);
    for (std::size_t j = i; j < end; ++j) {
      lanes.push_back(BatchLane{sources[j], nullptr});
    }
    std::vector<ControlledQueryResult> chunk = QueryBatch(lanes);
    for (ControlledQueryResult& r : chunk) all.push_back(std::move(r));
  }
  return all;
}

void BatchSolver::PollLanes(std::span<LaneRun> runs) {
  for (std::size_t b = 0; b < runs.size(); ++b) {
    LaneRun& run = runs[b];
    if (run.detached || run.cancel == nullptr) continue;
    if (run.cancel->ShouldStop()) {
      run.detached = true;
      run.status = run.cancel->StopStatus();
      detached_mask_ |= LaneMask{1} << b;
    }
  }
}

void BatchSolver::ScheduleLanes(NodeId v, const Score* rv,
                                LaneMask candidates, Score r_max,
                                BatchFrontier& frontier) {
  const NodeId dv = graph_.OutDegree(v);
  LaneMask sched = 0;
  if (dv == 0) {
    for (LaneMask m = candidates; m != 0; m &= m - 1) {
      const std::size_t b = BatchPushState::LaneOf(m);
      if (rv[b] >= r_max) sched |= LaneMask{1} << b;
    }
  } else {
    // Divide-free screen of the push condition: r/deg >= r_max is
    // bracketed by r >= r_max*deg*(1 -+ margin), with the margin wide
    // enough to cover both multiplications' and the division's rounding
    // (~3 ulp; the band is ~1e-14 relative). Residues clear of the band
    // decide with one multiply and a full-width predicate compare; only
    // in-band residues (astronomically rare for push residues) fall back
    // to the exact serial division, so every decision is bit-identical to
    // the serial check.
    const Score t = r_max * static_cast<Score>(dv);
    const Score hi = t * (1.0 + kCondMargin);
    const Score lo = t * (1.0 - kCondMargin);
    const LaneMask pass = GeMask(rv, num_lanes_, hi);
    sched = candidates & pass;
    for (LaneMask m = candidates & GeMask(rv, num_lanes_, lo) & ~pass;
         m != 0; m &= m - 1) {
      const std::size_t b = BatchPushState::LaneOf(m);
      if (rv[b] / static_cast<Score>(dv) >= r_max) {
        sched |= LaneMask{1} << b;
      }
    }
  }
  if (sched != 0) frontier.Schedule(v, sched);
}

void BatchSolver::ApplyPush(NodeId u, LaneMask gate, Score r_max,
                            std::span<LaneRun> runs,
                            BatchFrontier* frontier) {
  const std::size_t B = num_lanes_;
  const Score alpha = config_.alpha;
  const Score keep = 1.0 - config_.alpha;
  const auto neighbors = graph_.OutNeighbors(u);
  const NodeId degree = static_cast<NodeId>(neighbors.size());
  Score* ru = state_.ResidueRow(u);
  Score* pu = state_.ReserveRow(u);

  if (degree == 0) {
    // Dangling pushes stay scalar per lane: the kBackToSource back-flow
    // target differs per lane. Residue is consumed *before* the back-flow
    // credit — the source may be this very node (mirrors ForwardPushAt).
    for (LaneMask m = gate; m != 0; m &= m - 1) {
      const std::size_t b = BatchPushState::LaneOf(m);
      const Score residue = ru[b];
      if (residue <= 0.0) continue;
      ++last_stats_.push_operations;
      ru[b] = 0.0;
      if (config_.dangling == DanglingPolicy::kAbsorb) {
        pu[b] += residue;
      } else {
        pu[b] += alpha * residue;
        const NodeId src = runs[b].source;
        state_.Touch(src, LaneMask{1} << b);
        state_.ResidueRow(src)[b] += keep * residue;
      }
    }
  } else {
    const Score deg = static_cast<Score>(degree);
    // One pass over the CSR row for every pushing lane together: the
    // neighbour loop is the outer loop, so each SoA residue row is fetched
    // once and Touch runs once per neighbour regardless of how many lanes
    // push (per-lane touch order is still the CSR order its serial push
    // would produce — lanes' lists are independent). Shares are read from
    // the pre-deposit residues and the residues zeroed after the sweep, so
    // self-loops observe the serial push's operation order. The per-lane
    // expressions are the serial push's, verbatim — in particular
    // share = (1-alpha)*residue/deg, never rearranged.
    Score share[kMaxLanes];
    for (std::size_t b = 0; b < B; ++b) share[b] = 0.0;
    LaneMask active = 0;
    for (LaneMask m = gate; m != 0; m &= m - 1) {
      const std::size_t b = BatchPushState::LaneOf(m);
      const Score residue = ru[b];
      if (residue <= 0.0) continue;  // serial push is a no-op
      pu[b] += alpha * residue;
      share[b] = keep * residue / deg;
      active |= LaneMask{1} << b;
    }
    // Multi-lane pops take the blended row kernel: every lane's share is
    // deposited unconditionally (inactive lanes deposit exactly +0.0,
    // which leaves any IEEE double bit-identical, and Touch records only
    // the active lanes), so the inner loop is a branch-free contiguous
    // 0..B-1 sweep the compiler vectorizes. Single-lane pops (e.g. the
    // lane-local wavefront edges) skip the full-row write.
    constexpr int kBlendThreshold = 2;
    const int active_count = std::popcount(active);

    if (active_count >= kBlendThreshold) {
      // Walk-engine prefetch idiom on the deposit stream: hint the SoA
      // residue row far enough ahead to cover the memory fetch.
      // Dispatching on the batch width gives the deposit loop a
      // compile-time trip count, so it fully unrolls into straight-line
      // vector code with no loop-carried overhead.
      const auto deposit_rows = [&](auto width) {
        // Width 0 is the uncommon-batch-size fallback: a runtime trip
        // count instead of a fully unrolled one.
        constexpr std::size_t W = decltype(width)::value;
        const std::size_t row_width = W == 0 ? B : W;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (prefetch_ && i + 8 < neighbors.size()) {
            __builtin_prefetch(state_.ResidueRow(neighbors[i + 8]), 1, 1);
            if (frontier != nullptr) frontier->PrefetchMasks(neighbors[i + 8]);
          }
          const NodeId v = neighbors[i];
          state_.Touch(v, active);
          Score* rv = state_.ResidueRow(v);
          for (std::size_t b = 0; b < row_width; ++b) rv[b] += share[b];
          // Fused post-push scheduling: CSR rows are deduplicated, so this
          // deposit is the only one v receives from this push and rv already
          // holds the post-push residues the serial sweep would read.
          // Self-loops are skipped exactly: u's active residues are zeroed
          // right after this loop (and its gated-but-inactive ones are
          // non-positive), so the serial condition on u is always false.
          if (frontier == nullptr || v == u) continue;
          const LaneMask unscheduled = gate & ~frontier->scheduled(v);
          if (unscheduled == 0) continue;
          ScheduleLanes(v, rv, unscheduled, r_max, *frontier);
        }
      };
      switch (B) {
        case 4:
          deposit_rows(std::integral_constant<std::size_t, 4>{});
          break;
        case 8:
          deposit_rows(std::integral_constant<std::size_t, 8>{});
          break;
        case 16:
          deposit_rows(std::integral_constant<std::size_t, 16>{});
          break;
        case kMaxLanes:
          deposit_rows(std::integral_constant<std::size_t, kMaxLanes>{});
          break;
        default:
          deposit_rows(std::integral_constant<std::size_t, 0>{});
          break;
      }
      for (std::size_t b = 0; b < B; ++b) {
        if ((active >> b) & 1u) ru[b] = 0.0;
      }
      last_stats_.dense_lane_pushes +=
          static_cast<std::uint64_t>(active_count);
    } else if (active != 0) {
      const std::size_t b = BatchPushState::LaneOf(active);
      const Score lane_share = share[b];
      const LaneMask bit = active;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (prefetch_ && i + 8 < neighbors.size()) {
          __builtin_prefetch(state_.ResidueRow(neighbors[i + 8]), 1, 1);
          if (frontier != nullptr) frontier->PrefetchMasks(neighbors[i + 8]);
        }
        const NodeId v = neighbors[i];
        state_.Touch(v, bit);
        Score* rv = state_.ResidueRow(v);
        rv[b] += lane_share;
        // Fused scheduling, same reasoning as the blended kernel. The
        // candidates are the full gate: lanes whose push was a no-op still
        // run their serial sweep, and their rv entries are untouched here.
        if (frontier == nullptr || v == u) continue;
        const LaneMask unscheduled = gate & ~frontier->scheduled(v);
        if (unscheduled == 0) continue;
        ScheduleLanes(v, rv, unscheduled, r_max, *frontier);
      }
      ru[b] = 0.0;
    } else if (frontier != nullptr) {
      // Every gated push was a no-op (non-positive residue): nothing is
      // deposited or zeroed, but the serial search still runs its
      // scheduling sweep over the row with the residues unchanged —
      // including a self-loop back to u itself.
      for (const NodeId v : neighbors) {
        const LaneMask unscheduled = gate & ~frontier->scheduled(v);
        if (unscheduled == 0) continue;
        ScheduleLanes(v, state_.ResidueRow(v), unscheduled, r_max, *frontier);
      }
    }
    const auto active_lanes =
        static_cast<std::uint64_t>(std::popcount(active));
    last_stats_.push_operations += active_lanes;
    last_stats_.edge_traversals +=
        static_cast<std::uint64_t>(degree) * active_lanes;
  }
  if (frontier == nullptr) return;
  if (config_.dangling == DanglingPolicy::kBackToSource) {
    for (LaneMask m = gate; m != 0; m &= m - 1) {
      const std::size_t b = BatchPushState::LaneOf(m);
      const NodeId src = runs[b].source;
      if ((frontier->scheduled(src) & (LaneMask{1} << b)) != 0) continue;
      if (LaneCond(src, b, r_max)) {
        frontier->Schedule(src, LaneMask{1} << b);
      }
    }
  }
}

void BatchSolver::SharedRounds(Score r_max, std::span<LaneRun> runs,
                               BatchFrontier& frontier) {
  // Walk-engine software pipelining, extended to push. The average pop
  // touches ~degree random SoA rows, so the sweep is bound by how many row
  // fetches are in flight, not by arithmetic. Two prefetch stages run
  // ahead of the pop under process:
  //  * far stage (kRowAhead pops out): the node's CSR offsets/neighbors
  //    and its own residue row (the gate re-check reads it);
  //  * near stage (kDepositAhead pops out): the node's neighbor list is
  //    cached by the far stage by now, so the head of its *deposit rows*
  //    can be hinted — these are the misses the push kernel would
  //    otherwise eat one latency at a time.
  constexpr std::size_t kRowAhead = 12;
  constexpr std::size_t kDepositAhead = 3;
  constexpr std::size_t kDepositFanout = 16;
  // Hybrid selection point 2: the serial solver's
  // OMFWD round hook compares the remedy cost of the outstanding residues
  // against the dense bound at every wavefront promotion. A lane's
  // promotion point in the shared sweep is its first pop of each round
  // (rounds are barriers, so all of the lane's previous-round pushes are
  // done and none of the new round's), and LaneResidueSum replays the
  // serial ResidueSum's summation order — identical doubles, identical
  // decision. A lane that switches is masked out from this pop on, exactly
  // where the serial search would have stopped (before the popped node's
  // gate re-check).
  const ResAccOptions& options = pipeline_.options();
  const bool hybrid_on = options.hybrid.enable && options.use_hop_subgraph;
  std::size_t lane_round[kMaxLanes] = {};
  std::uint64_t pops = 0;
  NodeId u = 0;
  LaneMask mask = 0;
  while (frontier.Next(&u, &mask)) {
    if ((++pops & 0x1FF) == 0) PollLanes(runs);
    ++last_stats_.shared_node_pops;
    mask &= ~(detached_mask_ | dense_mask_);
    if (mask == 0) continue;
    if (hybrid_on) {
      const std::size_t round = frontier.round();
      for (LaneMask m = mask; m != 0; m &= m - 1) {
        const std::size_t b = BatchPushState::LaneOf(m);
        if (lane_round[b] == round) continue;
        lane_round[b] = round;
        if (DenseBeatsRemedy(graph_, config_, options.hybrid,
                             state_.LaneResidueSum(b), options.walk_scale)) {
          runs[b].path = SolverPath::kDenseResidueMass;
          dense_mask_ |= LaneMask{1} << b;
          mask &= ~(LaneMask{1} << b);
        }
      }
      if (mask == 0) continue;
    }
    if (prefetch_) {
      const std::size_t pending = frontier.pending_count();
      if (pending > kRowAhead) {
        const NodeId far = frontier.pending()[kRowAhead];
        graph_.PrefetchOutRow(far);
        __builtin_prefetch(state_.ResidueRow(far), 1, 1);
      }
      if (pending > kDepositAhead) {
        const NodeId near = frontier.pending()[kDepositAhead];
        const auto near_neighbors = graph_.OutNeighbors(near);
        const std::size_t fanout =
            std::min(near_neighbors.size(), kDepositFanout);
        for (std::size_t k = 0; k < fanout; ++k) {
          __builtin_prefetch(state_.ResidueRow(near_neighbors[k]), 1, 1);
        }
      }
    }
    // Per-lane re-check of the push condition, exactly as the serial
    // search re-checks at pop.
    const NodeId degree = graph_.OutDegree(u);
    const Score* ru = state_.ResidueRow(u);
    LaneMask gate = 0;
    if (degree == 0) {
      for (LaneMask m = mask; m != 0; m &= m - 1) {
        const std::size_t b = BatchPushState::LaneOf(m);
        if (ru[b] >= r_max) gate |= LaneMask{1} << b;
      }
    } else {
      // Same divide-free screen as the scheduling sweep (see ApplyPush).
      const Score t = r_max * static_cast<Score>(degree);
      const Score hi = t * (1.0 + kCondMargin);
      const Score lo = t * (1.0 - kCondMargin);
      const LaneMask pass = GeMask(ru, num_lanes_, hi);
      gate = mask & pass;
      for (LaneMask m = mask & GeMask(ru, num_lanes_, lo) & ~pass; m != 0;
           m &= m - 1) {
        const std::size_t b = BatchPushState::LaneOf(m);
        if (ru[b] / static_cast<Score>(degree) >= r_max) {
          gate |= LaneMask{1} << b;
        }
      }
    }
    if (gate == 0) continue;
    ApplyPush(u, gate, r_max, runs, &frontier);
  }
}

void BatchSolver::BridgeLane(std::size_t b, const LaneRun& run) {
  scratch_.Reset();
  const auto lane_nodes = state_.lane_touched(b);
  for (std::size_t i = 0; i < lane_nodes.size(); ++i) {
    if (i + 8 < lane_nodes.size()) {
      __builtin_prefetch(state_.ResidueRow(lane_nodes[i + 8]) + b, 0, 1);
      __builtin_prefetch(state_.ReserveRow(lane_nodes[i + 8]) + b, 0, 1);
    }
    const NodeId v = lane_nodes[i];
    scratch_.SetResidue(v, state_.ResidueRow(v)[b]);
    scratch_.AddReserve(v, state_.ReserveRow(v)[b]);
  }
  // A lane stopped before its h-HopFWD ran is dead on arrival: the whole
  // unit of mass still sits on the source, as in the serial solver.
  if (!run.initialized) scratch_.SetResidue(run.source, 1.0);
}

void BatchSolver::RunResAccBatch(std::span<const BatchLane> lanes,
                                 std::vector<ControlledQueryResult>& results,
                                 std::vector<TopKResult>* topk_results) {
  const std::size_t B = num_lanes_;
  frontier_.Clear();
  Timer phase_timer;
  std::vector<LaneRun> runs(B);
  for (std::size_t b = 0; b < B; ++b) {
    runs[b].source = lanes[b].source;
    runs[b].cancel = lanes[b].cancel;
    runs[b].top_k = lanes[b].top_k;
  }
  PollLanes(runs);  // dead-on-arrival lanes never plant r(s) = 1

  // ---- Phases 1-2a, lane-local: h-HopFWD and the OMFWD seed round. The
  // hop-restricted frontiers of distinct sources rarely overlap, and a
  // lane's OMFWD round 0 is single-lane by construction (its private
  // residue-sorted seed order), so neither gives the shared sweep anything
  // to amortize — worse, running them against the SoA panels scatters
  // unamortized single-lane writes across tens of megabytes. Each lane
  // instead runs the *serial* phases (the very same RunHHopFwd /
  // ForwardPushAt the serial solver calls, so bit-identity holds by
  // construction) on the flat L2-resident scratch state at serial speed;
  // the combined hop + seed-round state is transplanted into the SoA lane
  // once, in the lane's serial touched order, and the lane's staged
  // round-1 set feeds the shared frontier. The shared union rounds take
  // over from round 1, where the whole-graph wavefronts do overlap.
  const ResAccOptions& options = pipeline_.options();
  const Score r_max_f = pipeline_.r_max_f();
  double hop_seconds = 0.0;
  for (std::size_t b = 0; b < B; ++b) {
    LaneRun& run = runs[b];
    if (run.detached) continue;
    const double lane_start = phase_timer.ElapsedSeconds();
    scratch_.Reset();
    HopLayers layers;
    // The serial solver's own hop options, hybrid selection point 1
    // included: the probe is a pure function of the BFS-derived stats, so
    // a lane selects the dense path exactly when its serial replay would.
    const HHopFwdStats hop_stats =
        RunHHopFwd(graph_, config_, run.source,
                   pipeline_.HopOptions(run.cancel, &run.path), scratch_,
                   &layers);
    run.initialized = true;
    hop_seconds += phase_timer.ElapsedSeconds() - lane_start;
    if (hop_stats.shrink_hops > 0 || hop_stats.shrink_floored) {
      RecordHubShrink();
    }
    PollLanes(runs);  // serial phase-boundary check after this lane's hop
    if (!run.detached && run.path == SolverPath::kLocal &&
        options.use_omfwd && !layers.layers.empty()) {
      std::vector<NodeId> seeds = layers.layers.back();
      // Algorithm 4 line 1: decreasing residue (this lane's residues),
      // ties broken by id.
      std::sort(seeds.begin(), seeds.end(),
                [&](NodeId x, NodeId y) {
                  const Score rx = scratch_.residue(x);
                  const Score ry = scratch_.residue(y);
                  if (rx != ry) return rx > ry;
                  return x < y;
                });
      // Round 0: unconditional seed pushes, replayed with the serial
      // search's exact loop (pop, push, schedule sweep — see
      // ForwardSearchLevelSync) on the serial Frontier, which stages this
      // lane's round-1 set.
      PushStats seed_stats;
      for (NodeId s : seeds) seed_frontier_.Seed(s);
      std::uint64_t pops = 0;
      NodeId s = 0;
      while (seed_frontier_.pending_count() > 0) {
        seed_frontier_.Next(&s);
        if ((++pops & 0x1FF) == 0) {
          PollLanes(runs);
          if (run.detached) break;
        }
        ForwardPushAt(graph_, config_, run.source, s, scratch_, seed_stats);
        for (NodeId v : graph_.OutNeighbors(s)) {
          if (SatisfiesPushCondition(graph_, scratch_, v, r_max_f)) {
            seed_frontier_.Schedule(v);
          }
        }
        if (config_.dangling == DanglingPolicy::kBackToSource &&
            SatisfiesPushCondition(graph_, scratch_, run.source, r_max_f)) {
          seed_frontier_.Schedule(run.source);
        }
      }
      last_stats_.push_operations += seed_stats.push_operations;
      last_stats_.edge_traversals += seed_stats.edge_traversals;
    }
    // One transplant of the lane's combined hop + seed-round state.
    const LaneMask bit = LaneMask{1} << b;
    const auto touched = scratch_.touched();
    for (std::size_t i = 0; i < touched.size(); ++i) {
      if (i + 8 < touched.size()) {
        __builtin_prefetch(state_.ResidueRow(touched[i + 8]) + b, 1, 1);
        __builtin_prefetch(state_.ReserveRow(touched[i + 8]) + b, 1, 1);
      }
      const NodeId v = touched[i];
      state_.Touch(v, bit);
      state_.ResidueRow(v)[b] = scratch_.residue(v);
      state_.ReserveRow(v)[b] = scratch_.reserve(v);
    }
    if (!run.detached) {
      for (NodeId v : seed_frontier_.staged()) frontier_.Schedule(v, bit);
    }
    seed_frontier_.Clear();
    // A probe-selected dense lane carries exactly r(source) = 1 in its SoA
    // column and schedules nothing: the shared rounds never see it, and
    // the finish power-iterates it from that clean unit of mass.
    if (run.path != SolverPath::kLocal) dense_mask_ |= bit;
  }
  last_stats_.hop_seconds = hop_seconds;

  // ---- Phase 2b: the shared union rounds (>= 1) of OMFWD.
  if (options.use_omfwd) {
    SharedRounds(r_max_f, runs, frontier_);
  }

  PollLanes(runs);  // serial phase-boundary check after OMFWD
  last_stats_.omfwd_seconds =
      phase_timer.ElapsedSeconds() - last_stats_.hop_seconds;

  // ---- Phase 3, per lane (walks do not amortize across lanes): bridge
  // the lane into the scratch PushState in its serial touched order —
  // bit-identical to the state the serial solver holds after its push
  // phases — and run the serial solver's own finish on it.
  for (std::size_t b = 0; b < B; ++b) {
    LaneRun& run = runs[b];
    BridgeLane(b, run);
    results[b] = pipeline_.Finish(
        run.source, run.top_k, run.detached ? run.status : Status::Ok(),
        run.path, run.cancel, scratch_,
        run.top_k > 0 ? &(*topk_results)[b] : nullptr, /*stats=*/nullptr);
  }
  last_stats_.remedy_seconds = phase_timer.ElapsedSeconds() -
                               last_stats_.hop_seconds -
                               last_stats_.omfwd_seconds;
}

}  // namespace resacc
