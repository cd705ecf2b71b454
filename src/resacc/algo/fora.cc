#include "resacc/algo/fora.h"

#include <cmath>

#include "resacc/util/check.h"
#include "resacc/util/timer.h"

namespace resacc {

Fora::Fora(const Graph& graph, const RwrConfig& config,
           const ForaOptions& options)
    : graph_(graph),
      config_(config),
      options_(options),
      name_("FORA"),
      state_(graph.num_nodes()),
      rng_(config.seed),
      walk_engine_(options.walk_threads) {
  RESACC_CHECK(config_.Validate().ok());
  if (options_.r_max > 0.0) {
    r_max_ = options_.r_max;
  } else {
    const double c = config_.WalkCountCoefficient();
    r_max_ = 1.0 / std::sqrt(static_cast<double>(graph_.num_edges()) * c);
  }
}

std::vector<Score> Fora::Query(NodeId source) {
  // Same code path as the controlled variant with no token (identical RNG
  // draws, bit-identical scores).
  return QueryControlled(source, QueryControl{}).scores;
}

ControlledQueryResult Fora::QueryControlled(NodeId source,
                                            const QueryControl& control) {
  RESACC_CHECK(source < graph_.num_nodes());
  last_stats_ = ForaQueryStats();
  Timer total;
  const CancellationToken* cancel = control.cancel;

  ControlledQueryResult result;

  // Phase 1: forward push with early termination (large r_max).
  Timer phase;
  state_.Reset();
  state_.SetResidue(source, 1.0);
  const NodeId seeds[] = {source};
  last_stats_.push =
      RunForwardSearch(graph_, config_, source, r_max_, seeds,
                       /*push_seeds_unconditionally=*/false, state_, cancel);
  last_stats_.push_seconds = phase.ElapsedSeconds();
  if (ShouldStop(cancel)) {
    result.status = cancel->StopStatus();
    result.scores.assign(graph_.num_nodes(), 0.0);
    for (NodeId v : state_.touched()) result.scores[v] = state_.reserve(v);
    AccuracyFor(config_, state_.ResidueSum()).ApplyTo(result);
    last_stats_.total_seconds = total.ElapsedSeconds();
    return result;
  }

  // Phase 2: random walks from every node with non-zero residue.
  phase.Restart();
  std::vector<Score> scores(graph_.num_nodes(), 0.0);
  for (NodeId v : state_.touched()) scores[v] = state_.reserve(v);

  double remaining_budget = 0.0;
  if (options_.time_budget_seconds > 0.0) {
    remaining_budget =
        options_.time_budget_seconds - total.ElapsedSeconds();
    if (remaining_budget <= 0.0) remaining_budget = 1e-9;  // already spent
  }
  Rng query_rng = rng_.Fork(source);
  last_stats_.remedy =
      RunRemedy(graph_, config_, source, state_, query_rng, scores,
                options_.walk_scale, remaining_budget, &walk_engine_, cancel);
  last_stats_.budget_exhausted = last_stats_.remedy.budget_exhausted;
  last_stats_.remedy_seconds = phase.ElapsedSeconds();
  last_stats_.total_seconds = total.ElapsedSeconds();

  if (last_stats_.remedy.cancelled) result.status = cancel->StopStatus();
  AccuracyFor(config_, last_stats_.remedy.uncorrected_mass).ApplyTo(result);
  result.scores = std::move(scores);
  return result;
}

}  // namespace resacc
