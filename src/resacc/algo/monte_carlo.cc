#include "resacc/algo/monte_carlo.h"

#include <cmath>
#include <span>

#include "resacc/util/check.h"

namespace resacc {

MonteCarlo::MonteCarlo(const Graph& graph, const RwrConfig& config,
                       double walk_scale, std::size_t walk_threads)
    : graph_(graph),
      config_(config),
      walk_scale_(walk_scale),
      name_("MC"),
      rng_(config.seed),
      walk_engine_(walk_threads) {
  RESACC_CHECK(config_.Validate().ok());
  RESACC_CHECK(walk_scale_ > 0.0);
}

std::vector<Score> MonteCarlo::Query(NodeId source) {
  // Same code path as the controlled variant with no token (identical RNG
  // draws, bit-identical scores).
  return QueryControlled(source, QueryControl{}).scores;
}

ControlledQueryResult MonteCarlo::QueryControlled(NodeId source,
                                                  const QueryControl& control) {
  RESACC_CHECK(source < graph_.num_nodes());
  const std::uint64_t num_walks = static_cast<std::uint64_t>(
      std::ceil(config_.WalkCountCoefficient() * walk_scale_));
  RESACC_CHECK(num_walks > 0);

  ControlledQueryResult result;
  result.scores.assign(graph_.num_nodes(), 0.0);
  const Score weight = 1.0 / static_cast<Score>(num_walks);
  Rng query_rng = rng_.Fork(source);
  const WalkSlice slice{source, num_walks, weight, /*stream=*/source};
  const WalkEngineStats engine_stats = walk_engine_.Run(
      graph_, config_, source, query_rng, std::span(&slice, 1), result.scores,
      /*time_budget_seconds=*/0.0, control.cancel);
  last_walk_stats_ = WalkStats();
  last_walk_stats_.walks = engine_stats.walks;
  last_walk_stats_.steps = engine_stats.steps;

  if (engine_stats.cancelled) result.status = control.cancel->StopStatus();
  // MC is the remedy estimator with r_sum = 1: the skipped walk mass is
  // exactly the probability mass never deposited.
  AccuracyFor(config_, engine_stats.skipped_mass).ApplyTo(result);
  return result;
}

}  // namespace resacc
