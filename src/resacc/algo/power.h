#ifndef RESACC_ALGO_POWER_H_
#define RESACC_ALGO_POWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"

namespace resacc {

// Power iteration (Pan et al. [20]) — the index-free iterative baseline and
// the library's ground-truth generator.
//
// Implemented as cumulative power iteration on the exact walk semantics:
// per round, every node converts alpha of its "alive mass" into score and
// forwards the rest (dangling mass per the configured policy), which is a
// synchronous whole-graph forward push. After round k the unconverted mass
// is (1 - alpha)^k(+ policy effects), so the L1 error is below
// `tolerance` once the alive mass drops under it — that residual mass is
// the additive error bound the paper's Table I lists for Power. The sweep
// is the hybrid solvers' dense path (core/power_iter.h RunDensePowerIter)
// started from a unit impulse at the source; the library has one copy of
// the recurrence.
class PowerIteration : public SsrwrAlgorithm {
 public:
  // `max_iterations` must be > 0.
  PowerIteration(const Graph& graph, const RwrConfig& config,
                 double tolerance = 1e-9, std::uint32_t max_iterations = 10000);
  PowerIteration(Graph&&, const RwrConfig&, double = 1e-9,
                 std::uint32_t = 10000) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Iterations used by the most recent Query.
  std::uint32_t last_iterations() const { return last_iterations_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  double tolerance_;
  std::uint32_t max_iterations_;
  std::string name_;
  std::uint32_t last_iterations_ = 0;
};

}  // namespace resacc

#endif  // RESACC_ALGO_POWER_H_
