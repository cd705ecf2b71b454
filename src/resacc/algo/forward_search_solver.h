#ifndef RESACC_ALGO_FORWARD_SEARCH_SOLVER_H_
#define RESACC_ALGO_FORWARD_SEARCH_SOLVER_H_

#include <string>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"

namespace resacc {

// Forward Search (Andersen et al. [2]) as a standalone SSRWR baseline
// ("FWD" in the paper's tables): local push with residue threshold
// r_max^f, reserves reported as the estimate, residues dropped — hence no
// output bound (Table I "Not given"). The paper runs it with
// r_max^f = 1e-12.
class ForwardSearchSolver : public SsrwrAlgorithm {
 public:
  ForwardSearchSolver(const Graph& graph, const RwrConfig& config,
                      Score r_max = 1e-12);
  ForwardSearchSolver(Graph&&, const RwrConfig&, Score = 1e-12) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  const PushStats& last_push_stats() const { return last_push_stats_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  Score r_max_;
  std::string name_;
  PushState state_;
  PushStats last_push_stats_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_FORWARD_SEARCH_SOLVER_H_
