#include "resacc/core/topk_solve.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/remedy.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/trace.h"

namespace resacc {
namespace {

// Same function-local-static idiom as SolverMetrics (resacc_solver.cc):
// registered once, relaxed atomics per record.
struct TopKMetrics {
  Counter& queries;
  Counter& certified;
  Counter& fallback_priced;
  Counter& fallback_floor;
  LatencyHistogram& refine_rounds;
  LatencyHistogram& bound_gap;

  static TopKMetrics& Get() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static TopKMetrics metrics{
        registry.GetCounter("resacc_topk_queries_total", "",
                            "Top-k RWR queries answered (solver level)."),
        registry.GetCounter(
            "resacc_topk_certified_total", "",
            "Top-k queries answered by a separation certificate "
            "(early-terminated; remedy walks skipped entirely)."),
        registry.GetCounter(
            "resacc_topk_fallback_total", "reason=\"priced\"",
            "Top-k queries that fell back to a full approximate solve "
            "after refinement failed to separate rank k, by reason: its "
            "push allowance ran out (priced) or r_max hit its floor."),
        registry.GetCounter("resacc_topk_fallback_total",
                            "reason=\"floor\""),
        registry.GetHistogram(
            "resacc_topk_refine_rounds", "",
            "Refinement stages run before a top-k query stopped "
            "(0 = separated straight after OMFWD)."),
        registry.GetHistogram(
            "resacc_topk_bound_gap", "",
            "Certificate margin at stop: k-th lower bound minus the "
            "best outsider upper bound (certified queries only)."),
    };
    return metrics;
  }
};

// The current separation picture of `state` at rank k (k pre-clamped to
// <= n). kth_lower is the k-th largest reserve (0 when fewer than k nodes
// were touched: untouched nodes pad the answer at reserve 0), and
// outsider_upper bounds every node outside that top-k set:
// (k+1)-th largest reserve + r_sum.
struct SeparationView {
  bool separated = false;
  Score kth_lower = 0.0;
  Score outsider_upper = 0.0;
  Score r_sum = 0.0;
};

// Descending reserve, ties by ascending id — the TopKIndices order.
struct ByReserve {
  const PushState& state;
  bool operator()(NodeId a, NodeId b) const {
    const Score ra = state.reserve(a);
    const Score rb = state.reserve(b);
    if (ra != rb) return ra > rb;
    return a < b;
  }
};

SeparationView CheckSeparation(const PushState& state, NodeId num_nodes,
                               std::size_t k, std::vector<NodeId>& scratch) {
  SeparationView view;
  view.r_sum = state.ResidueSum();
  if (k >= num_nodes) {
    // Every node is in the answer; nothing to separate from.
    view.separated = true;
    return view;
  }
  const auto touched = state.touched();
  scratch.assign(touched.begin(), touched.end());
  const std::size_t top = std::min(scratch.size(), k + 1);
  std::partial_sort(scratch.begin(),
                    scratch.begin() + static_cast<long>(top), scratch.end(),
                    ByReserve{state});
  view.kth_lower = scratch.size() >= k ? state.reserve(scratch[k - 1]) : 0.0;
  // Untouched nodes have reserve 0, so when fewer than k+1 nodes are
  // touched the best outsider reserve is 0 (k < n guarantees outsiders
  // exist).
  const Score outsider_reserve =
      scratch.size() > k ? state.reserve(scratch[k]) : 0.0;
  view.outsider_upper = outsider_reserve + view.r_sum;
  view.separated = view.kth_lower >= view.outsider_upper;
  return view;
}

// Fills result.entries with the top min(k, n) nodes by reserve, bracketed
// by [reserve, reserve + r_sum]. Pads with untouched (exactly-zero when
// r_sum = 0) nodes in ascending id when fewer than min(k, n) were touched.
void EntriesFromReserves(const PushState& state, NodeId num_nodes,
                         std::size_t k, Score r_sum, TopKResult& result,
                         std::vector<NodeId>& scratch) {
  const std::size_t rows = std::min<std::size_t>(k, num_nodes);
  const auto touched = state.touched();
  scratch.assign(touched.begin(), touched.end());
  const std::size_t top = std::min(scratch.size(), rows);
  std::partial_sort(scratch.begin(),
                    scratch.begin() + static_cast<long>(top), scratch.end(),
                    ByReserve{state});
  result.entries.clear();
  result.entries.reserve(rows);
  for (std::size_t i = 0; i < top; ++i) {
    const NodeId v = scratch[i];
    const Score reserve = state.reserve(v);
    result.entries.push_back({v, reserve, reserve, reserve + r_sum});
  }
  if (result.entries.size() < rows) {
    std::vector<std::uint8_t> in_touched(num_nodes, 0);
    for (NodeId v : touched) in_touched[v] = 1;
    for (NodeId v = 0; v < num_nodes && result.entries.size() < rows; ++v) {
      if (!in_touched[v]) result.entries.push_back({v, 0.0, 0.0, r_sum});
    }
  }
}

}  // namespace

TopKResult SolveTopKFromState(const Graph& graph, const RwrConfig& config,
                              NodeId source, std::size_t k, Score r_max_start,
                              double walk_scale, const TopKOptions& options,
                              PushState& state, Rng& query_rng,
                              WalkEngine* engine,
                              const CancellationToken* cancel,
                              const Status& push_status) {
  RESACC_SPAN("topk_solve");
  TopKMetrics& metrics = TopKMetrics::Get();
  metrics.queries.Increment();

  const NodeId n = graph.num_nodes();
  TopKResult result;
  result.k = k;
  result.achieved_epsilon = config.epsilon;
  std::vector<NodeId> scratch;

  // Bracket of whatever the pushes accumulated before the stop, degraded
  // by the residue mass left. Used when phases 1-2 were cut short and when
  // refinement is cancelled.
  auto degraded_from_reserves = [&](const Status& status) {
    const Score r_sum = state.ResidueSum();
    result.status = status;
    result.certified = false;
    AccuracyFor(config, r_sum).ApplyTo(result);
    EntriesFromReserves(state, n, k, r_sum, result, scratch);
    if (k < n) {
      SeparationView sep = CheckSeparation(state, n, k, scratch);
      result.outsider_upper = sep.outsider_upper;
    }
    if (!result.entries.empty()) {
      result.bound_gap = result.entries.back().lower - result.outsider_upper;
    }
    return result;
  };

  if (!push_status.ok()) return degraded_from_reserves(push_status);
  if (k == 0) {
    result.certified = true;
    return result;
  }

  SeparationView sep = CheckSeparation(state, n, k, scratch);

  // Refinement: shrink r_max until rank k separates or a guard trips.
  //
  // Rent or buy: the remedy would still take r_sum * steps_per_mass walk
  // steps (Theorem 3), and one step is priced at `profit_slack` pushed
  // edges. Refinement stops once the edges it has pushed in total reach
  // the price of walking the residue that is left. Checked before each
  // stage and at every round boundary inside one, so refinement ends at
  // most one round (<= m edges) past the allowance that last let it go on.
  const double steps_per_mass =
      config.WalkCountCoefficient() * walk_scale / config.alpha;
  const auto over_allowance = [&](std::uint64_t edges, Score r_sum) {
    return static_cast<double>(edges) >=
           options.profit_slack * r_sum * steps_per_mass;
  };
  const Score r_max_floor =
      static_cast<Score>(r_max_start * options.min_r_max_factor);
  Score r_max = r_max_start;
  bool priced_out = false;
  std::vector<NodeId> seeds;
  while (!sep.separated && !ShouldStop(cancel)) {
    priced_out = over_allowance(result.refine_edges, sep.r_sum);
    if (priced_out) break;
    const Score next_r_max = static_cast<Score>(r_max / options.shrink);
    if (next_r_max < r_max_floor) break;

    // Stage seeds: every node meeting the push condition at the tightened
    // threshold, in canonical ascending-id order (round-0 seeds run in
    // caller order — sorting keeps the whole stage a pure function of the
    // state, the property batched replay relies on).
    seeds.clear();
    for (NodeId v : state.touched()) {
      if (state.residue(v) > 0.0 &&
          SatisfiesPushCondition(graph, state, v, next_r_max)) {
        seeds.push_back(v);
      }
    }
    std::sort(seeds.begin(), seeds.end());

    if (!seeds.empty()) {
      PushStats stage;
      PushRoundHook hook = [&](std::size_t) {
        sep = CheckSeparation(state, n, k, scratch);
        return sep.separated ||
               over_allowance(result.refine_edges + stage.edge_traversals,
                              sep.r_sum);
      };
      RunForwardSearch(graph, config, source, next_r_max, seeds,
                       /*push_seeds_unconditionally=*/false, state,
                       PushOrder::kFifo, cancel, &hook, &stage);
      result.refine_edges += stage.edge_traversals;
    }
    ++result.refine_stages;
    r_max = next_r_max;
    if (!sep.separated) sep = CheckSeparation(state, n, k, scratch);
  }

  if (!sep.separated && ShouldStop(cancel)) {
    return degraded_from_reserves(cancel->StopStatus());
  }

  if (sep.separated) {
    // Certificate holds: the top-k by reserve is an exact top-k by score.
    // Remedy is skipped wholesale — the unspent walk budget is exactly the
    // r_sum slack the upper bounds carry.
    result.certified = true;
    EntriesFromReserves(state, n, k, sep.r_sum, result, scratch);
    result.outsider_upper = k >= n ? 0.0 : sep.outsider_upper;
    if (!result.entries.empty()) {
      result.bound_gap = result.entries.back().lower - result.outsider_upper;
    }
    metrics.certified.Increment();
    metrics.refine_rounds.Record(static_cast<double>(result.refine_stages));
    metrics.bound_gap.Record(static_cast<double>(result.bound_gap));
    return result;
  }

  // Fallback: finish as a full approximate query on the refined state.
  // The remedy walk count is proportional to the remaining r_sum, so the
  // refinement's drain carries over as fewer walks.
  (priced_out ? metrics.fallback_priced : metrics.fallback_floor).Increment();
  metrics.refine_rounds.Record(static_cast<double>(result.refine_stages));
  std::vector<Score> scores(n, 0.0);
  for (NodeId v : state.touched()) scores[v] = state.reserve(v);
  RemedyStats remedy;
  {
    RESACC_SPAN("topk_remedy");
    remedy = RunRemedy(graph, config, source, state, query_rng, scores,
                       walk_scale, /*time_budget_seconds=*/0.0, engine,
                       cancel);
  }
  const Accuracy accuracy = AccuracyFor(config, remedy.uncorrected_mass);
  TopKResult approx =
      MakeApproximateTopK(scores, k, accuracy.achieved_epsilon,
                          accuracy.degraded, accuracy.uncorrected_mass);
  if (remedy.cancelled && cancel != nullptr) {
    approx.status = cancel->StopStatus();
  }
  approx.refine_stages = result.refine_stages;
  approx.refine_edges = result.refine_edges;
  return approx;
}

}  // namespace resacc
