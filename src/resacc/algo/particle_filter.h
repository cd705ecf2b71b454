#ifndef RESACC_ALGO_PARTICLE_FILTER_H_
#define RESACC_ALGO_PARTICLE_FILTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

struct ParticleFilterOptions {
  // Total walks w distributed from the source. <= 0 selects the MC count
  // (WalkCountCoefficient), the paper's fair-comparison setting
  // (Section VII-C: "the total number of random walks used in PF to be
  // equal to that in MC").
  double total_walks = 0.0;
  // The switch threshold w_min: nodes carrying at least w_min * d_out
  // walks spread them deterministically, the rest spray randomly.
  // The paper tunes w_min = 1e4 on its graphs.
  double w_min = 1e4;
};

// Particle Filtering (Section VI-B): a deterministic-distribution variant
// of Monte Carlo. Walk counts are propagated like forward-push mass
// (deterministic phase); a node left with fewer than w_min * d_out walks
// instead sends floor(w_v / w_min) random sprays of w_min walks each to
// uniform out-neighbours, discarding the remainder — the quantization that
// gives PF its bias (no accuracy guarantee; larger w_min, larger error).
class ParticleFilter : public SsrwrAlgorithm {
 public:
  ParticleFilter(const Graph& graph, const RwrConfig& config,
                 const ParticleFilterOptions& options = {});
  ParticleFilter(Graph&&, const RwrConfig&,
                 const ParticleFilterOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

 private:
  const Graph& graph_;
  RwrConfig config_;
  ParticleFilterOptions options_;
  std::string name_;
  Rng rng_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_PARTICLE_FILTER_H_
