#ifndef RESACC_CORE_REMEDY_H_
#define RESACC_CORE_REMEDY_H_

#include <cstdint>
#include <vector>

#include "resacc/core/push_state.h"
#include "resacc/core/random_walk.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

// Outcome counters of a remedy phase.
struct RemedyStats {
  Score residue_sum = 0.0;      // r_sum fed into the walk-count formula
  std::uint64_t walks = 0;      // total walks simulated
  std::uint64_t steps = 0;      // total walk steps
  // n_r from Theorem 3. A full run simulates ceil(n_r) walks: at most
  // n_r + 1 (float rounding aside), whatever the residual-node count.
  double target_walks = 0.0;
  std::uint64_t residual_nodes = 0;  // nodes with positive residue
  bool budget_exhausted = false;  // stopped early by the time budget
  bool cancelled = false;         // stopped early by the cancellation token
  // Residue mass whose correction walks were skipped (budget or
  // cancellation). Each skipped unit adds at most one unit of absolute
  // error to any single score, so a truncated run still satisfies
  // |pi_hat - pi| <= eps*pi + uncorrected_mass for pi > delta — the basis
  // of the serving layer's achieved-epsilon tag.
  Score uncorrected_mass = 0.0;
};

// The walks remedy runs for the residues in `state` at a walk count of
// `n_r` (> 0), and the residual-node count they came from. With
// b = r_sum / n_r:
//  * node v runs floor(r(v) / b) walks of weight b on stream v;
//  * the leftovers l(v) = r(v) - floor(r(v) / b) * b, each below b, form a
//    pool of mass L that runs K = ceil(L / b) walks of weight L / K. Their
//    starts are drawn i.i.d. in proportion to l from their own substream
//    of `root`; the walks drawn at v form one slice on stream
//    kRemedyPoolStream | v.
// Every walk weighs at most b, the weights sum to r_sum, and there are
// ceil(n_r) walks in all. The slices are a pure function of (state, n_r,
// root): floor slice, then pool slice, per node in touched order.
struct RemedyPlan {
  std::vector<WalkSlice> slices;
  std::uint64_t residual_nodes = 0;
};

// Tags the pool slices' streams apart from the floor slices' 32-bit ids.
inline constexpr std::uint64_t kRemedyPoolStream = std::uint64_t{1} << 32;

RemedyPlan PlanRemedy(const PushState& state, double n_r, const Rng& root);

// The remedy phase shared by ResAcc (Algorithm 2 lines 5-17), FORA,
// TopPPR, seed-set queries and the top-k fallback: converts the residues
// left in `state` into unbiased score corrections by running PlanRemedy's
// walks at n_r = r_sum * c * walk_scale (Theorem 3), each adding its
// weight to its terminal node. Algorithm 2 instead runs
// ceil(r(v) * n_r / r_sum) walks from every residual node, at least one
// each; PlanRemedy keeps its per-walk weight bound and its total mass with
// Theorem 3's walk count (DESIGN.md "Deviations").
//
// `scores` must be sized num_nodes; corrections are accumulated into it
// (callers pre-fill it with the reserves).
//
// `walk_scale` multiplies n_r — used by the paper's "fair comparison"
// experiments (Appendix F adjusts walk counts by n_scale) and by MC-style
// callers. 1.0 reproduces Theorem 3 exactly.
//
// `time_budget_seconds` > 0 makes the walk loop stop once the budget is
// spent, leaving later residues uncorrected (the equal-time comparison of
// Fig. 6(a) terminates FORA this way). The budget clock is checked each
// time the engine issues a block of <= WalkEngine::kBlockWalks walks, so
// even one high-residue node with millions of walks overshoots the budget
// by at most the blocks in flight.
//
// The walks run on `engine` (WalkEngine); nullptr uses a per-call
// sequential engine. The output is bit-identical for every engine thread
// count: the plan's randomness comes from one draw of `rng` (which
// advances, so repeated calls with the same Rng object stay independent),
// and the engine merges per-block partial sums in a fixed order. See
// walk_engine.h for the full determinism contract.
// A non-null `cancel` token stops the walk loop at the next block issue
// (same granularity as the budget); the skipped residue mass is reported
// as `uncorrected_mass` either way.
RemedyStats RunRemedy(const Graph& graph, const RwrConfig& config,
                      NodeId source, const PushState& state, Rng& rng,
                      std::vector<Score>& scores, double walk_scale = 1.0,
                      double time_budget_seconds = 0.0,
                      WalkEngine* engine = nullptr,
                      const CancellationToken* cancel = nullptr);

}  // namespace resacc

#endif  // RESACC_CORE_REMEDY_H_
