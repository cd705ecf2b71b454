#include "resacc/core/power_iter.h"

#include <algorithm>
#include <cmath>

#include "resacc/obs/metrics_registry.h"
#include "resacc/util/check.h"

namespace resacc {
namespace {

// Hybrid selection counters (function-local statics, same pattern as
// SolverMetrics in resacc_solver.cc).
struct HybridMetrics {
  Counter& local;
  Counter& dense_shrink;
  Counter& dense_hop;
  Counter& dense_residue;
  Counter& hub_shrink;

  static HybridMetrics& Get() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static HybridMetrics metrics{
        registry.GetCounter("resacc_hybrid_local_total", "",
                            "Hybrid-enabled queries answered by the local "
                            "push + remedy pipeline."),
        registry.GetCounter("resacc_hybrid_dense_total",
                            "reason=\"shrink_floor\"",
                            "Hybrid-enabled queries handed to dense power "
                            "iteration, by selection reason."),
        registry.GetCounter("resacc_hybrid_dense_total",
                            "reason=\"hop_growth\""),
        registry.GetCounter("resacc_hybrid_dense_total",
                            "reason=\"residue_mass\""),
        registry.GetCounter("resacc_hub_shrink_total", "",
                            "Queries whose adaptive hop cap shrank the "
                            "effective h (hub sources)."),
    };
    return metrics;
  }
};

}  // namespace

const char* SolverPathName(SolverPath path) {
  switch (path) {
    case SolverPath::kLocal:
      return "local";
    case SolverPath::kDenseShrinkFloor:
      return "shrink_floor";
    case SolverPath::kDenseHopGrowth:
      return "hop_growth";
    case SolverPath::kDenseResidueMass:
      return "residue_mass";
  }
  return "unknown";
}

void RecordHybridSelection(SolverPath path) {
  HybridMetrics& metrics = HybridMetrics::Get();
  switch (path) {
    case SolverPath::kLocal:
      metrics.local.Increment();
      break;
    case SolverPath::kDenseShrinkFloor:
      metrics.dense_shrink.Increment();
      break;
    case SolverPath::kDenseHopGrowth:
      metrics.dense_hop.Increment();
      break;
    case SolverPath::kDenseResidueMass:
      metrics.dense_residue.Increment();
      break;
  }
}

void RecordHubShrink() { HybridMetrics::Get().hub_shrink.Increment(); }

double DenseTolerance(const RwrConfig& config, const HybridOptions& options) {
  return options.tolerance > 0.0 ? options.tolerance
                                 : config.epsilon * config.delta;
}

std::uint32_t DenseIterationBound(const RwrConfig& config,
                                  const HybridOptions& options) {
  if (options.max_iterations > 0) return options.max_iterations;
  const double tolerance = DenseTolerance(config, options);
  if (tolerance >= 1.0) return 1;
  // Each sweep converts at least an alpha fraction of the alive mass to
  // scores (dangling absorption only converts faster), so alive_sum decays
  // by (1 - alpha) per sweep and ceil(ln tol / ln(1 - alpha)) sweeps reach
  // the bound; +1 covers the boundary case.
  const double decay = std::log1p(-config.alpha);
  const double bound = std::ceil(std::log(tolerance) / decay) + 1.0;
  return static_cast<std::uint32_t>(std::max(1.0, bound));
}

double DenseSweepCost(const Graph& graph, const RwrConfig& config,
                      const HybridOptions& options) {
  return static_cast<double>(DenseIterationBound(config, options)) *
         (static_cast<double>(graph.num_nodes()) +
          static_cast<double>(graph.num_edges()));
}

double LocalHopCost(const RwrConfig& config, double hop_set_edges,
                    Score r_max_hop) {
  // The accumulating phase drains residues geometrically; reaching the
  // r_max_hop threshold takes ~ln(1/r_max_hop) / -ln(1-alpha) wavefronts
  // over the hop set's edges (~144 at the paper defaults — the reason a
  // whole-graph hop set is catastrophic for a local solve).
  const double sweeps =
      std::log(1.0 / static_cast<double>(r_max_hop)) / -std::log1p(-config.alpha);
  return hop_set_edges * std::max(1.0, sweeps);
}

double RemedyCost(const RwrConfig& config, Score residue_sum,
                  double walk_scale) {
  if (residue_sum <= 0.0) return 0.0;
  // Theorem 3: n_r = r_sum * c walks, each of expected length 1/alpha.
  const double walks = static_cast<double>(residue_sum) *
                       config.WalkCountCoefficient() * walk_scale;
  return walks / config.alpha;
}

SolverPath ChooseFromHopStats(const Graph& graph, const RwrConfig& config,
                              const HybridOptions& options, Score r_max_hop,
                              bool shrink_floored, double hop_set_edges) {
  if (!options.enable) return SolverPath::kLocal;
  // A floored shrink means even the 1-hop set exceeds the cap: the local
  // pipeline would either drown in the accumulating phase or dump nearly
  // all mass on remedy walks — exactly the degradation the dense path
  // exists for, so it is an unconditional trigger.
  if (shrink_floored) return SolverPath::kDenseShrinkFloor;
  if (LocalHopCost(config, hop_set_edges, r_max_hop) >
      options.cost_ratio * DenseSweepCost(graph, config, options)) {
    return SolverPath::kDenseHopGrowth;
  }
  return SolverPath::kLocal;
}

bool DenseBeatsRemedy(const Graph& graph, const RwrConfig& config,
                      const HybridOptions& options, Score residue_sum,
                      double walk_scale) {
  if (!options.enable) return false;
  return RemedyCost(config, residue_sum, walk_scale) >
         options.cost_ratio * DenseSweepCost(graph, config, options);
}

PowerIterStats RunDensePowerIter(const Graph& graph, const RwrConfig& config,
                                 NodeId source, const PushState& state,
                                 std::vector<Score>& scores,
                                 const HybridOptions& options,
                                 const CancellationToken* cancel) {
  RESACC_CHECK(source < graph.num_nodes());
  RESACC_CHECK(scores.size() == graph.num_nodes());
  const NodeId n = graph.num_nodes();
  const double alpha = config.alpha;
  const double tolerance = DenseTolerance(config, options);
  const std::uint32_t max_iterations = DenseIterationBound(config, options);

  std::vector<Score> alive(n, 0.0);
  std::vector<Score> next(n, 0.0);
  // Seed from the local state's residues, summed in touched order; the
  // sweeps below then run in fixed CSR order, independent of how the
  // state was produced.
  Score alive_sum = 0.0;
  for (NodeId v : state.touched()) {
    alive[v] = state.residue(v);
    alive_sum += alive[v];
  }

  PowerIterStats stats;
  // Each sweep converts alpha of the alive mass into scores and spreads
  // the rest, so after convergence scores == reserves + sum_u r(u) pi_u up
  // to the leftover mass.
  for (; stats.iterations < max_iterations && alive_sum > tolerance;
       ++stats.iterations) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      stats.cancelled = true;
      break;
    }
    std::fill(next.begin(), next.end(), 0.0);
    Score next_sum = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      const Score mass = alive[u];
      if (mass == 0.0) continue;
      const auto neighbors = graph.OutNeighbors(u);
      if (neighbors.empty()) {
        if (config.dangling == DanglingPolicy::kAbsorb) {
          // Walk stuck at a sink terminates there with probability 1.
          scores[u] += mass;
        } else {
          scores[u] += alpha * mass;
          const Score fly = (1.0 - alpha) * mass;
          next[source] += fly;
          next_sum += fly;
        }
        continue;
      }
      scores[u] += alpha * mass;
      const Score share =
          (1.0 - alpha) * mass / static_cast<Score>(neighbors.size());
      for (NodeId v : neighbors) next[v] += share;
      next_sum += (1.0 - alpha) * mass;
    }
    alive.swap(next);
    alive_sum = next_sum;
  }

  // Fold the leftover alive mass in by termination position so the scores
  // still sum to 1: on a completed run this is the < tolerance additive
  // error Definition 1 absorbs, on a cancelled run it is the uncorrected
  // mass the caller reports.
  for (NodeId u = 0; u < n; ++u) scores[u] += alive[u];
  stats.leftover_mass = alive_sum;
  return stats;
}

DenseFinish RunDenseFinish(const Graph& graph, const RwrConfig& config,
                           NodeId source, const PushState& state,
                           const HybridOptions& options,
                           const CancellationToken* cancel) {
  DenseFinish out;
  out.scores.assign(graph.num_nodes(), 0.0);
  for (NodeId v : state.touched()) out.scores[v] = state.reserve(v);
  out.stats = RunDensePowerIter(graph, config, source, state, out.scores,
                                options, cancel);
  // A completed sweep's leftover (< tolerance) is the additive error
  // Definition 1 absorbs; a cancelled sweep's is uncorrected mass.
  AccuracyFor(config, out.stats.cancelled ? out.stats.leftover_mass : 0.0)
      .ApplyTo(out);
  return out;
}

}  // namespace resacc
