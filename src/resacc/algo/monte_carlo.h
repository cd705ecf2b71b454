#ifndef RESACC_ALGO_MONTE_CARLO_H_
#define RESACC_ALGO_MONTE_CARLO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/random_walk.h"
#include "resacc/core/walk_engine.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

// Random Walk sampling (Fogaras et al. [9]), "MC" in the paper: simulate
// walks from the source and report terminal frequencies. To match the
// relative-error guarantee of Definition 1 it uses the same concentration
// bound as the remedy phase with r_sum = 1, i.e. c = WalkCountCoefficient()
// walks (times `walk_scale`).
class MonteCarlo : public SsrwrAlgorithm {
 public:
  // walk_threads: walk-engine parallelism (0 = hardware concurrency).
  // Scores are bit-identical for every value (walk_engine.h).
  MonteCarlo(const Graph& graph, const RwrConfig& config,
             double walk_scale = 1.0, std::size_t walk_threads = 1);
  MonteCarlo(Graph&&, const RwrConfig&, double = 1.0,
             std::size_t = 1) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Cancellable variant: the token is polled at every walk block. A
  // stopped run keeps the walks already merged and scales nothing — each
  // completed walk still deposits 1/num_walks, so the estimate undershoots
  // by exactly the skipped walk mass, which is reported as
  // uncorrected_mass (r_sum = 1 for MC).
  ControlledQueryResult QueryControlled(NodeId source,
                                        const QueryControl& control) override;

  const WalkStats& last_walk_stats() const { return last_walk_stats_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  double walk_scale_;
  std::string name_;
  Rng rng_;
  WalkEngine walk_engine_;
  WalkStats last_walk_stats_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_MONTE_CARLO_H_
