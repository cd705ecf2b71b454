#ifndef RESACC_CORE_TOPK_SOLVE_H_
#define RESACC_CORE_TOPK_SOLVE_H_

#include <cstddef>

#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/topk.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/rng.h"

namespace resacc {

// Finishes a top-k query from a post-OMFWD push state (ResAcc phases 1-2
// already run at threshold `r_max_start`). The push invariant
//   pi(v) = reserve(v) + sum_u r(u) pi_u(v)
// brackets every score deterministically: reserve(v) <= pi(v) <=
// reserve(v) + r_sum. The solver:
//
//  1. checks separation — k-th largest reserve >= (k+1)-th largest
//     reserve + r_sum means the current top-k BY RESERVE is the exact
//     top-k by score (>= is sound at boundary ties: an outsider can at
//     best equal the k-th score, so the returned set is still a valid
//     top-k);
//  2. while not separated, refines: reruns the forward search at
//     r_max / shrink^i, rechecking separation at every Frontier round
//     boundary (PushRoundHook) and between stages, until r_max reaches
//     its floor or the edges pushed reach the price of walking the
//     residue left (TopKOptions::profit_slack);
//  3. on separation returns a certified result WITHOUT running remedy
//     (the whole walk budget is unspent — the r_sum slack in the upper
//     bounds is what remains of it);
//  4. otherwise falls back to the normal remedy on the refined state
//     (fewer walks than an unrefined full query, since the walk count is
//     proportional to the remaining r_sum) and returns the approximate
//     top-k of the full vector.
//
// `push_status` is the status phases 1-2 stopped with; non-OK skips
// refinement and remedy and returns a degraded bracket of the partial
// reserves. `query_rng` and `engine` are only used by the fallback remedy
// (a certified result draws no randomness — Rng::Fork is const, so
// skipping remedy does not perturb later queries).
//
// Deterministic in (state, k, options) alone. `state` is consumed
// (refined in place).
TopKResult SolveTopKFromState(const Graph& graph, const RwrConfig& config,
                              NodeId source, std::size_t k, Score r_max_start,
                              double walk_scale, const TopKOptions& options,
                              PushState& state, Rng& query_rng,
                              WalkEngine* engine,
                              const CancellationToken* cancel,
                              const Status& push_status);

}  // namespace resacc

#endif  // RESACC_CORE_TOPK_SOLVE_H_
