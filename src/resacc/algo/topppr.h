#ifndef RESACC_ALGO_TOPPPR_H_
#define RESACC_ALGO_TOPPPR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

struct TopPprOptions {
  // K of the top-K query. The paper adapts TopPPR to SSRWR with K = 1e5
  // (clamped to n here) and sweeps it in Appendix E.
  std::size_t top_k = 100000;
  // Forward-push threshold; <= 0 selects the FORA-style balanced default.
  Score r_max_f = 0.0;
  // How many boundary candidates around rank K get backward-push
  // refinement, and the refinement threshold factor relative to the
  // estimated K-th score.
  std::size_t boundary_width = 200;
  double backward_threshold_factor = 0.1;
  // Wall-clock budget in seconds for the refinement stage (0 = unlimited);
  // the equal-time comparison (Fig. 20) terminates TopPPR this way.
  double time_budget_seconds = 0.0;
};

// TopPPR (Wei et al. [29]), adapted for SSRWR as in the paper: forward push
// + random walks give rough whole-graph estimates, then backward pushes
// from the nodes straddling the rank-K boundary sharpen exactly the scores
// that decide top-K membership (the published algorithm's
// filter-and-refine structure, without its adaptive sampling schedule —
// see DESIGN.md "Baseline fidelity"). Accuracy concentrates on the top-K
// prefix: beyond it the estimates stay rough, which reproduces the paper's
// observation that TopPPR misorders the k >= 1e4 tail (Fig. 20(b)).
//
// Backward pushes require DanglingPolicy::kAbsorb on graphs with sinks.
class TopPpr : public SsrwrAlgorithm {
 public:
  TopPpr(const Graph& graph, const RwrConfig& config,
         const TopPprOptions& options = {});
  TopPpr(Graph&&, const RwrConfig&, const TopPprOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Top-K ids (descending score) from the most recent Query.
  const std::vector<NodeId>& last_top_k() const { return last_top_k_; }
  std::uint64_t last_backward_pushes() const { return last_backward_pushes_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  TopPprOptions options_;
  Score r_max_f_;
  std::string name_;
  PushState forward_state_;
  PushState backward_state_;
  Rng rng_;
  std::vector<NodeId> last_top_k_;
  std::uint64_t last_backward_pushes_ = 0;
};

}  // namespace resacc

#endif  // RESACC_ALGO_TOPPPR_H_
