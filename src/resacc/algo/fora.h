#ifndef RESACC_ALGO_FORA_H_
#define RESACC_ALGO_FORA_H_

#include <cstddef>
#include <string>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/remedy.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

// Tuning of FORA (Wang et al. [28]), the state-of-the-art index-free
// baseline: forward push with an early-termination threshold, then the
// remedy estimator over the remaining residues.
struct ForaOptions {
  // Forward-push threshold r_max^f. <= 0 selects the cost-balancing
  // default 1 / sqrt(m * c), which equalizes the push phase
  // O(1/(alpha r_max)) against the walk phase O(m r_max c / alpha).
  Score r_max = 0.0;
  // Remedy walk multiplier (Appendix F fair comparison); 1.0 = Theorem 3.
  double walk_scale = 1.0;
  // Wall-clock budget in seconds; 0 = unlimited. Used by the paper's
  // equal-time comparison (Fig. 6(a)): the remedy loop stops issuing walks
  // once the budget is exhausted, leaving the remaining residues
  // uncorrected — "FORA cannot generate random walks from most nodes when
  // the time is over". Checked each time the walk engine issues a block
  // of <= WalkEngine::kBlockWalks walks.
  double time_budget_seconds = 0.0;
  // Threads for the walk phase (0 = hardware concurrency). Speed only;
  // scores are bit-identical for every value (walk_engine.h).
  std::size_t walk_threads = 1;
};

// Per-query diagnostics.
struct ForaQueryStats {
  double push_seconds = 0.0;
  double remedy_seconds = 0.0;
  double total_seconds = 0.0;
  PushStats push;
  RemedyStats remedy;
  bool budget_exhausted = false;
};

class Fora : public SsrwrAlgorithm {
 public:
  Fora(const Graph& graph, const RwrConfig& config,
       const ForaOptions& options = {});
  Fora(Graph&&, const RwrConfig&, const ForaOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Cancellable variant: polls the token during the push phase (every few
  // hundred dequeues) and at every walk block. A stop — or the solver's
  // own time budget truncating the walk phase — reports the uncorrected
  // residue mass and achieved_epsilon = epsilon + uncorrected / delta.
  ControlledQueryResult QueryControlled(NodeId source,
                                        const QueryControl& control) override;

  const ForaQueryStats& last_stats() const { return last_stats_; }
  Score effective_r_max() const { return r_max_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  ForaOptions options_;
  Score r_max_;
  std::string name_;
  PushState state_;
  Rng rng_;
  WalkEngine walk_engine_;
  ForaQueryStats last_stats_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_FORA_H_
