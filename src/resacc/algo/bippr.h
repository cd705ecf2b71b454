#ifndef RESACC_ALGO_BIPPR_H_
#define RESACC_ALGO_BIPPR_H_

#include <cstdint>
#include <string>

#include "resacc/core/backward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

struct BiPprOptions {
  // Backward-push threshold r_max^b; <= 0 selects a balanced default
  // sqrt(m / c) capped at 1 (pushing gets cheaper as c grows).
  Score r_max_b = 0.0;
  // Walk multiplier; walks = ceil(c * r_max^b * walk_scale).
  double walk_scale = 1.0;
};

// BiPPR (Lofgren et al. [17]): pairwise PPR estimation combining a
// backward push from the target with random walks from the source:
//
//   pi(s, t) ~= reserve_t(s) + (1/W) * sum_i residue_t(X_i),
//
// where X_i is the terminal node of the i-th walk from s. Requires
// DanglingPolicy::kAbsorb on graphs with sinks (backward push cannot see
// the query source). Adapting it to SSRWR needs one backward pass per
// node, which is exactly why the paper calls it out as too slow for
// single-source use — the bench only measures the pairwise primitive.
class BiPpr {
 public:
  BiPpr(const Graph& graph, const RwrConfig& config,
        const BiPprOptions& options = {});
  BiPpr(Graph&&, const RwrConfig&, const BiPprOptions& = {}) = delete;

  const std::string& name() const { return name_; }

  // Point estimate of pi(source, target).
  Score EstimatePair(NodeId source, NodeId target);

  Score effective_r_max_b() const { return r_max_b_; }
  const PushStats& last_backward_stats() const { return last_backward_; }
  std::uint64_t last_walks() const { return last_walks_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  BiPprOptions options_;
  Score r_max_b_;
  std::string name_;
  PushState state_;
  Rng rng_;
  PushStats last_backward_;
  std::uint64_t last_walks_ = 0;
};

}  // namespace resacc

#endif  // RESACC_ALGO_BIPPR_H_
