#include "resacc/core/remedy.h"

#include <algorithm>
#include <cmath>

#include "resacc/util/check.h"

namespace resacc {
namespace {

// The substream the pool's starts are drawn from; no slice uses it.
constexpr std::uint64_t kDrawStream = std::uint64_t{2} << 32;

// floor(r / b), lowered by one where rounding put walks * b above r, so
// the leftover r - walks * b is never negative. Signed conversions: the
// unsigned ones cost a branch each on x86-64.
std::int64_t FloorWalks(Score residue, Score b) {
  auto walks = static_cast<std::int64_t>(residue / b);
  if (static_cast<Score>(walks) * b > residue) --walks;
  return walks;
}

double Exponential(Rng& rng) { return -std::log(1.0 - rng.NextDouble()); }

}  // namespace

RemedyPlan PlanRemedy(const PushState& state, double n_r, const Rng& root) {
  RESACC_CHECK(n_r > 0.0);
  RemedyPlan plan;
  const Score b = state.ResidueSum() / n_r;

  // Pass 1 sizes the plan and sums the leftovers in touched order.
  std::size_t floor_slices = 0;
  std::size_t leftover_nodes = 0;
  Score leftover = 0.0;
  NodeId last_leftover = kInvalidNode;
  for (NodeId v : state.touched()) {
    const Score residue = state.residue(v);
    if (residue <= 0.0) continue;
    ++plan.residual_nodes;
    const std::int64_t walks = FloorWalks(residue, b);
    if (walks > 0) ++floor_slices;
    const Score rest = residue - static_cast<Score>(walks) * b;
    if (rest > 0.0) {
      ++leftover_nodes;
      leftover += rest;
      last_leftover = v;
    }
  }
  std::uint64_t pool_walks = 0;
  Score pool_weight = 0.0;
  if (leftover > 0.0) {
    pool_walks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(leftover / b)));
    if (leftover / static_cast<Score>(pool_walks) > b) ++pool_walks;
    pool_weight = leftover / static_cast<Score>(pool_walks);
  }
  plan.slices.reserve(floor_slices +
                      std::min<std::uint64_t>(pool_walks, leftover_nodes));

  // The pool's starts are K sorted uniform points on [0, L), swept against
  // the leftovers' running sum: point i is L * (E_1 + ... + E_i) / (E_1 +
  // ... + E_{K+1}) for i.i.d. exponentials E. The spacings are drawn twice
  // from one substream, once for their total and once for the sweep, so
  // the points need no storage.
  Rng draws = root.Fork(kDrawStream);
  Score point_scale = 0.0;
  Score next_point = 0.0;  // in spacing units until scaled
  if (pool_walks > 0) {
    Rng total_draws = draws;
    Score total = 0.0;
    for (std::uint64_t i = 0; i <= pool_walks; ++i) {
      total += Exponential(total_draws);
    }
    point_scale = leftover / total;
    next_point = Exponential(draws);
  }

  // Pass 2 emits each node's floor slice, then its pool slice.
  std::uint64_t drawn = 0;
  Score below = 0.0;  // leftover mass up to and including v
  for (NodeId v : state.touched()) {
    const Score residue = state.residue(v);
    if (residue <= 0.0) continue;
    const std::int64_t walks = FloorWalks(residue, b);
    if (walks > 0) {
      plan.slices.push_back(
          WalkSlice{v, static_cast<std::uint64_t>(walks), b, v});
    }
    const Score rest = residue - static_cast<Score>(walks) * b;
    if (rest <= 0.0) continue;
    below += rest;
    std::uint64_t count = 0;
    if (v == last_leftover) {
      count = pool_walks - drawn;  // rounding may leave points past `below`
    } else {
      while (drawn + count < pool_walks && next_point * point_scale < below) {
        ++count;
        next_point += Exponential(draws);
      }
    }
    drawn += count;
    if (count > 0) {
      plan.slices.push_back(
          WalkSlice{v, count, pool_weight, kRemedyPoolStream | v});
    }
  }
  return plan;
}

RemedyStats RunRemedy(const Graph& graph, const RwrConfig& config,
                      NodeId source, const PushState& state, Rng& rng,
                      std::vector<Score>& scores, double walk_scale,
                      double time_budget_seconds, WalkEngine* engine,
                      const CancellationToken* cancel) {
  RESACC_CHECK(scores.size() == graph.num_nodes());
  RemedyStats stats;

  const Score r_sum = state.ResidueSum();
  stats.residue_sum = r_sum;
  if (r_sum <= 0.0) return stats;

  // n_r = r_sum * c (Algorithm 2 line 7, Theorem 3).
  const double n_r = r_sum * config.WalkCountCoefficient() * walk_scale;
  stats.target_walks = n_r;
  if (n_r <= 0.0) return stats;

  // One draw advances the caller's rng (repeated calls with the same Rng
  // stay independent runs); the plan and every walk fork from walk_root,
  // keyed by node id, so the walks are independent of query order.
  const Rng walk_root(rng.Next());
  const RemedyPlan plan = PlanRemedy(state, n_r, walk_root);
  stats.residual_nodes = plan.residual_nodes;
  WalkEngine sequential(1);
  WalkEngine& walk_engine = engine != nullptr ? *engine : sequential;
  const WalkEngineStats engine_stats =
      walk_engine.Run(graph, config, source, walk_root, plan.slices, scores,
                      time_budget_seconds, cancel);
  stats.walks = engine_stats.walks;
  stats.steps = engine_stats.steps;
  stats.budget_exhausted = engine_stats.budget_exhausted;
  stats.cancelled = engine_stats.cancelled;
  // skipped_mass counts walks x weight = the residue share of each skipped
  // block, so it is exactly the residue mass left uncorrected.
  stats.uncorrected_mass = engine_stats.skipped_mass;
  return stats;
}

}  // namespace resacc
