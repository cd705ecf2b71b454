#include "resacc/algo/power.h"

#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/util/check.h"

namespace resacc {

PowerIteration::PowerIteration(const Graph& graph, const RwrConfig& config,
                               double tolerance,
                               std::uint32_t max_iterations)
    : graph_(graph),
      config_(config),
      tolerance_(tolerance),
      max_iterations_(max_iterations),
      name_("Power") {
  RESACC_CHECK(config_.Validate().ok());
  RESACC_CHECK(tolerance_ > 0.0);
  RESACC_CHECK(max_iterations_ > 0);
}

std::vector<Score> PowerIteration::Query(NodeId source) {
  RESACC_CHECK(source < graph_.num_nodes());
  // The hybrid solvers' dense sweep, fed a unit impulse at the source
  // instead of drained residues.
  PushState impulse(graph_.num_nodes());
  impulse.SetResidue(source, 1.0);
  HybridOptions sweep;
  sweep.tolerance = tolerance_;
  sweep.max_iterations = max_iterations_;
  std::vector<Score> scores(graph_.num_nodes(), 0.0);
  last_iterations_ =
      RunDensePowerIter(graph_, config_, source, impulse, scores, sweep)
          .iterations;
  return scores;
}

}  // namespace resacc
