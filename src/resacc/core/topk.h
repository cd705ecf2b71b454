#ifndef RESACC_CORE_TOPK_H_
#define RESACC_CORE_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "resacc/util/status.h"
#include "resacc/util/top_k.h"
#include "resacc/util/types.h"

namespace resacc {

// Knobs of the bound-driven top-k refinement (see topk_solve.h and
// DESIGN.md "Top-k: bound-based early termination"). Refinement keeps
// pushing while rank k has not separated, r_max is above its floor, and
// the pushing is cheaper than walking: the edges it has pushed in total
// stay below `profit_slack` times the remedy walk steps the residue left
// would cost (Theorem 3). On the walk-topk benchmark's config (Chung-Lu
// n=5000, m=734516, delta=1e-4, r_max_f=1e-5, one thread, shared 4-core
// host) a top-k@10 query then pushes 3.49M edges and takes 59-68 ms,
// against 10.8M edges and 136-144 ms under the per-stage profit check and
// 64 m edge budget this rule replaced, and 76-85 ms for a full query.
// None of the sampled sources certify there: walks are cheap at that
// delta. Traced kernel rates put one walk step at 1.4-4.5 pushed edges.
struct TopKOptions {
  // r_max divisor applied per refinement stage after OMFWD. Larger values
  // take fewer, bigger stages between separation checks.
  double shrink = 8.0;
  // Refinement gives up once r_max falls below `min_r_max_factor` times
  // the starting threshold. Exact score ties at rank k can never be
  // separated by a finite push, so a floor is mandatory and keeps
  // r_max > 0 whatever the price.
  double min_r_max_factor = 1e-7;
  // The price of one remedy walk step in pushed edges, for refinement and
  // OMFWD alike. Refinement may push at most `profit_slack` * r_sum *
  // WalkCountCoefficient() * walk_scale / alpha edges in total, at the
  // residue sum r_sum it has reached; it is checked before each stage and
  // at every round boundary inside one. The default OMFWD threshold
  // (ResAccOptions::r_max_f <= 0) is max(1/(10 m), 1 / (profit_slack *
  // WalkCountCoefficient() * walk_scale)): a push there costs at most
  // `profit_slack` edges per walk step it saves. Infinity never prices
  // refinement out (only the floor stops it) and leaves OMFWD at 1/(10 m).
  double profit_slack = 4.0;
};

// One row of a top-k answer. `lower`/`upper` bracket the true RWR value
// pi(source, node):
//  * certified results (deterministic): lower = reserve accumulated by the
//    pushes, upper = reserve + remaining residue mass — the push invariant
//    pi(v) = reserve(v) + sum_u r(u) pi_u(v) makes both sides exact bounds,
//    with no failure probability.
//  * fallback/approximate results: the epsilon-relative bracket
//    [estimate / (1 + eps), estimate / (1 - eps)] at the achieved epsilon,
//    holding with the configured failure probability for nodes above delta
//    (upper is +inf when eps >= 1).
struct TopKEntry {
  NodeId node = 0;
  Score estimate = 0.0;
  Score lower = 0.0;
  Score upper = 0.0;
};

// Outcome of a top-k query. `entries` holds min(k, n) rows in descending
// estimate order (ties by ascending node id, matching TopKIndices).
struct TopKResult {
  Status status;
  // The k that was asked for (entries may be fewer when k > n).
  std::size_t k = 0;
  std::vector<TopKEntry> entries;

  // True when the result is a separation certificate: every entry's lower
  // bound >= `outsider_upper`, an upper bound on the score of EVERY node
  // not listed. Certified results are exact top-k sets (boundary ties may
  // swap equal-scored nodes) and carry deterministic per-entry bounds.
  // False means the entries are the top-k of a full approximate solve
  // under the usual Definition-1 contract at `achieved_epsilon`.
  bool certified = false;
  // Upper bound on any excluded node's score (0 when nothing is excluded,
  // i.e. k >= n). For approximate results this is the epsilon-upper bound
  // of the best excluded estimate.
  Score outsider_upper = 0.0;
  // entries.back().lower - outsider_upper at the moment the solver
  // stopped; >= 0 iff certified. The margin the certificate closed with.
  Score bound_gap = 0.0;

  // Degradation tags, mirroring ControlledQueryResult: set when the query
  // was cancelled / deadline-stopped with probability mass uncorrected.
  bool degraded = false;
  Score uncorrected_mass = 0.0;
  double achieved_epsilon = 0.0;

  // Diagnostics: refinement stages run after OMFWD and the edges they
  // traversed (0 / 0 when the post-OMFWD state was already separated).
  std::uint32_t refine_stages = 0;
  std::uint64_t refine_edges = 0;
};

// Builds an approximate TopKResult from a full score vector — the bridge
// from any full-vector solver (the SsrwrAlgorithm::QueryTopK default, the
// serve layer's full-entry cache hits, and the ResAcc remedy fallback).
// Bounds are the epsilon-relative bracket described on TopKEntry.
inline TopKResult MakeApproximateTopK(const std::vector<Score>& scores,
                                      std::size_t k, double achieved_epsilon,
                                      bool degraded = false,
                                      Score uncorrected_mass = 0.0) {
  TopKResult result;
  result.k = k;
  result.achieved_epsilon = achieved_epsilon;
  result.degraded = degraded;
  result.uncorrected_mass = uncorrected_mass;
  const double eps = achieved_epsilon;
  const auto lower_of = [eps](Score est) { return est / (1.0 + eps); };
  const auto upper_of = [eps](Score est) {
    return eps < 1.0 ? est / (1.0 - eps)
                     : std::numeric_limits<Score>::infinity();
  };
  // One extra pair supplies the outsider bound.
  const auto pairs = TopKPairs(scores, k < scores.size() ? k + 1 : k);
  const std::size_t rows = std::min(k, pairs.size());
  result.entries.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    result.entries.push_back({pairs[i].first, pairs[i].second,
                              lower_of(pairs[i].second),
                              upper_of(pairs[i].second)});
  }
  if (pairs.size() > rows) result.outsider_upper = upper_of(pairs[rows].second);
  if (!result.entries.empty()) {
    result.bound_gap = result.entries.back().lower - result.outsider_upper;
  }
  return result;
}

// Whether a stored top-k' result can answer a top-k probe with k <= k'.
// Approximate results can (any prefix of a descending estimate list is the
// top-k of the same estimates, under the same epsilon contract). Certified
// results additionally need the *prefix* to separate: the k-th lower bound
// must dominate both the (k+1)-th entry's upper bound and the stored
// outsider bound — otherwise rows k+1..k' were only certified as a set.
inline bool TopKPrefixSatisfies(const TopKResult& result, std::size_t k) {
  if (k == 0 || k > result.k) return false;
  if (result.entries.size() <= k) return true;  // prefix is the whole list
  if (!result.certified) return true;
  const Score outsider =
      std::max(result.entries[k].upper, result.outsider_upper);
  return result.entries[k - 1].lower >= outsider;
}

// The top-k view of a stored top-k' result (caller checked
// TopKPrefixSatisfies). Demoted rows fold into the outsider bound.
inline TopKResult TopKPrefix(const TopKResult& result, std::size_t k) {
  TopKResult out = result;
  out.k = k;
  if (out.entries.size() > k) {
    out.outsider_upper =
        std::max(result.outsider_upper, result.entries[k].upper);
    out.entries.resize(k);
  }
  if (!out.entries.empty()) {
    out.bound_gap = out.entries.back().lower - out.outsider_upper;
  }
  return out;
}

}  // namespace resacc

#endif  // RESACC_CORE_TOPK_H_
