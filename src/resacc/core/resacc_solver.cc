#include "resacc/core/resacc_solver.h"

#include <algorithm>
#include <utility>

#include "resacc/core/omfwd.h"
#include "resacc/core/topk_solve.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/trace.h"
#include "resacc/util/check.h"
#include "resacc/util/rng.h"
#include "resacc/util/timer.h"

namespace resacc {
namespace {

// Process-wide phase latency surface (Table VII as metrics). Function-local
// statics: registered once, then each Record is a handful of relaxed
// atomics — safe to leave on for every query.
struct SolverMetrics {
  Counter& queries;
  Counter& topk_queries;
  Counter& degraded;
  Counter& cancelled;
  LatencyHistogram& hhop;
  LatencyHistogram& omfwd;
  LatencyHistogram& remedy;
  LatencyHistogram& dense;
  LatencyHistogram& topk;
  LatencyHistogram& total;

  static SolverMetrics& Get() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static SolverMetrics metrics{
        registry.GetCounter("resacc_solver_queries_total", "",
                            "Full-vector single-source RWR queries "
                            "answered."),
        registry.GetCounter("resacc_topk_queries_total", "",
                            "Top-k RWR queries answered (solver level)."),
        registry.GetCounter(
            "resacc_solver_queries_degraded_total", "",
            "Queries that returned with uncorrected residual mass "
            "(achieved epsilon above the configured bound)."),
        registry.GetCounter(
            "resacc_solver_queries_cancelled_total", "",
            "Queries stopped early by a cancellation token "
            "(deadline or explicit cancel)."),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"hhop\"",
                              "Per-query phase latency (Table VII split)."),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"omfwd\""),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"remedy\""),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"dense\""),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"topk\""),
        registry.GetHistogram("resacc_solver_query_seconds", "",
                              "End-to-end single-source query latency."),
    };
    return metrics;
  }
};

// OMFWD's default r_max^f (DESIGN.md "Priced OMFWD threshold"). A push at
// v costs d(v) edges and saves r(v) * c * walk_scale remedy walk steps
// (Theorem 3), so at `profit_slack` pushed edges per walk step it pays iff
// r(v) / d(v) >= 1 / (profit_slack * c * walk_scale): Definition 6's push
// condition at that threshold. Never below the paper's 1/(10 m), which an
// infinite price gives bit for bit and a price or walk_scale <= 0 (or NaN)
// falls back to.
Score DefaultRMaxF(const Graph& graph, const RwrConfig& config,
                   const ResAccOptions& options) {
  const Score paper = 1.0 / (10.0 * static_cast<Score>(graph.num_edges()));
  const double price = options.topk.profit_slack;
  if (!(price > 0.0) || !(options.walk_scale > 0.0)) return paper;
  return std::max(paper, 1.0 / (price * config.WalkCountCoefficient() *
                                options.walk_scale));
}

}  // namespace

ResAccSolver::ResAccSolver(const Graph& graph, const RwrConfig& config,
                           const ResAccOptions& options)
    : graph_(graph),
      config_(config),
      options_(options),
      r_max_f_(options.r_max_f > 0.0 ? options.r_max_f
                                     : DefaultRMaxF(graph, config, options)),
      name_("ResAcc"),
      walk_engine_(options.walk_threads),
      state_(graph.num_nodes()) {
  RESACC_CHECK(config_.Validate().ok());
  RESACC_CHECK(options_.r_max_hop > 0.0);
  if (!options.use_loop_accumulation) name_ = "No-Loop-ResAcc";
  if (!options.use_hop_subgraph) name_ = "No-SG-ResAcc";
  if (!options.use_omfwd) name_ = "No-OFD-ResAcc";
}

HHopFwdOptions ResAccSolver::HopOptions(const CancellationToken* cancel) {
  // The No-SG ablation accumulates over the whole graph; there the practical
  // threshold is r_max^f (with r_max^hop the whole-graph search would push
  // for days — the subgraph restriction is exactly what makes the tiny
  // threshold affordable).
  HHopFwdOptions hop;
  hop.r_max_hop = options_.use_hop_subgraph ? options_.r_max_hop : r_max_f_;
  hop.num_hops = options_.num_hops;
  hop.use_loop_accumulation = options_.use_loop_accumulation;
  hop.use_hop_subgraph = options_.use_hop_subgraph;
  hop.max_hop_set_fraction = options_.max_hop_set_fraction;
  hop.cancel = cancel;
  // Hybrid selection point 1: with the hop-layer BFS done and nothing
  // pushed yet, hand hub sources to the dense path (core/power_iter.h).
  if (options_.hybrid.enable && options_.use_hop_subgraph) {
    hop.dense_probe = [this, r_max_hop = hop.r_max_hop](
                          const HHopFwdStats& hop_stats) {
      const SolverPath choice = ChooseFromHopStats(
          graph_, config_, options_.hybrid, r_max_hop,
          hop_stats.shrink_floored,
          static_cast<double>(hop_stats.hop_set_edges));
      if (choice == SolverPath::kLocal) return false;
      last_stats_.path = choice;
      return true;
    };
  }
  return hop;
}

ControlledQueryResult ResAccSolver::Finish(NodeId source, std::size_t k,
                                           const Status& push_status,
                                           const CancellationToken* cancel,
                                           TopKResult* topk) {
  if (options_.hybrid.enable) RecordHybridSelection(last_stats_.path);
  const auto start_phase = [&](const char* phase) {
    if (options_.phase_hook) options_.phase_hook(phase);
  };
  SolverMetrics& metrics = SolverMetrics::Get();
  Rng query_rng = Rng(config_.seed).Fork(source);
  ControlledQueryResult result;
  result.status = push_status;
  Score uncorrected = 0.0;

  if (push_status.ok() && last_stats_.path != SolverPath::kLocal) {
    // Dense: whole-graph power iteration (core/power_iter.h) takes the
    // drained residues as its starting alive mass; no remedy walks.
    start_phase("dense");
    Timer phase;
    DenseFinish dense;
    {
      RESACC_SPAN("dense_power_iter");
      dense = RunDenseFinish(graph_, config_, source, state_, options_.hybrid,
                             cancel);
    }
    last_stats_.dense = dense.stats;
    last_stats_.dense_seconds = phase.ElapsedSeconds();
    metrics.dense.Record(last_stats_.dense_seconds);
    if (dense.stats.cancelled) result.status = cancel->StopStatus();
    uncorrected = dense.uncorrected_mass;
    if (topk != nullptr) {
      // The dense vector is exact to an additive eps*delta, so its top-k
      // prefix with the standard epsilon-relative brackets is a valid
      // certificate at the configured epsilon.
      *topk = MakeApproximateTopK(dense.scores, k, dense.achieved_epsilon,
                                  dense.degraded, dense.uncorrected_mass);
      topk->status = result.status;
    } else {
      result.scores = std::move(dense.scores);
    }
  } else if (topk != nullptr) {
    start_phase("topk");
    Timer phase;
    *topk = SolveTopKFromState(graph_, config_, source, k, r_max_f_,
                               options_.walk_scale, options_.topk, state_,
                               query_rng, &walk_engine_, cancel, push_status);
    last_stats_.remedy_seconds = phase.ElapsedSeconds();
    metrics.topk.Record(last_stats_.remedy_seconds);
    result.status = topk->status;
    uncorrected = topk->uncorrected_mass;
  } else if (!push_status.ok()) {
    // Stopped early: the reserves so far are the answer. pi(v) = reserve(v)
    // + sum_u r(u) pi_u(v) holds after every push, so the estimate
    // undershoots by at most the remaining residue mass.
    result.scores = state_.reserves();
    uncorrected = state_.ResidueSum();
  } else {
    // Remedy (Algorithm 2 lines 5-17).
    start_phase("remedy");
    Timer phase;
    result.scores = state_.reserves();
    {
      RESACC_SPAN("remedy");
      last_stats_.remedy = RunRemedy(
          graph_, config_, source, state_, query_rng, result.scores,
          options_.walk_scale, /*time_budget_seconds=*/0.0, &walk_engine_,
          cancel);
    }
    last_stats_.remedy_seconds = phase.ElapsedSeconds();
    metrics.remedy.Record(last_stats_.remedy_seconds);
    if (last_stats_.remedy.cancelled) result.status = cancel->StopStatus();
    uncorrected = last_stats_.remedy.uncorrected_mass;
  }
  AccuracyFor(config_, uncorrected).ApplyTo(result);
  return result;
}

std::vector<Score> ResAccSolver::Query(NodeId source) {
  // Same code path as the controlled variant with no token: identical RNG
  // draws, identical phase structure, bit-identical scores.
  return QueryControlled(source, QueryControl{}).scores;
}

ControlledQueryResult ResAccSolver::QueryControlled(
    NodeId source, const QueryControl& control) {
  return Solve(source, /*k=*/0, control, nullptr);
}

ControlledQueryResult ResAccSolver::Solve(NodeId source, std::size_t k,
                                          const QueryControl& control,
                                          TopKResult* topk) {
  RESACC_CHECK(source < graph_.num_nodes());
  RESACC_SPAN(topk == nullptr ? "query" : "query_topk");
  last_stats_ = ResAccQueryStats();
  Timer total;
  const Status push_status = RunPushPhases(source, control.cancel);
  ControlledQueryResult result =
      Finish(source, k, push_status, control.cancel, topk);
  last_stats_.total_seconds = total.ElapsedSeconds();

  // Every solve, full or top-k and complete, degraded or cancelled, counts
  // here once, so the query counters and the query histogram stay
  // consistent with the per-phase histograms (each phase records iff it
  // started).
  SolverMetrics& metrics = SolverMetrics::Get();
  (topk == nullptr ? metrics.queries : metrics.topk_queries).Increment();
  if (result.degraded) metrics.degraded.Increment();
  if (!result.status.ok()) metrics.cancelled.Increment();
  metrics.total.Record(last_stats_.total_seconds);
  return result;
}

Status ResAccSolver::RunPushPhases(NodeId source,
                                   const CancellationToken* cancel) {
  state_.Reset();
  if (ShouldStop(cancel)) {
    // Dead on arrival (deadline already passed): nothing ran — the whole
    // unit of probability mass still sits on the source, uncorrected.
    state_.SetResidue(source, 1.0);
    return cancel->StopStatus();
  }
  SolverMetrics& metrics = SolverMetrics::Get();

  // Phase 1: h-HopFWD.
  if (options_.phase_hook) options_.phase_hook("hhop");
  Timer phase;
  const HHopFwdOptions hhop_options = HopOptions(cancel);
  HopLayers layers;
  {
    RESACC_SPAN("hhop_fwd");
    last_stats_.hhop =
        RunHHopFwd(graph_, config_, source, hhop_options, state_, &layers);
  }
  last_stats_.hhop_seconds = phase.ElapsedSeconds();
  metrics.hhop.Record(last_stats_.hhop_seconds);
  if (last_stats_.hhop.shrink_hops > 0 || last_stats_.hhop.shrink_floored) {
    RecordHubShrink();
  }
  if (ShouldStop(cancel)) return cancel->StopStatus();
  // Probe fired: the state holds the clean r(s) = 1 unit for the dense
  // sweep; OMFWD would only smear it back over the graph.
  if (last_stats_.path != SolverPath::kLocal) return Status::Ok();

  // Phase 2: OMFWD from the accumulated frontier. At each wavefront-round
  // boundary (selection point 2) the remedy cost of the residues still
  // outstanding is compared against the dense bound; when remedy loses,
  // the search stops and the drained state goes dense instead.
  if (options_.phase_hook) options_.phase_hook("omfwd");
  phase.Restart();
  PushRoundHook round_hook;
  const PushRoundHook* round_hook_ptr = nullptr;
  if (options_.hybrid.enable && options_.use_hop_subgraph) {
    round_hook = [&](std::size_t) {
      if (!DenseBeatsRemedy(graph_, config_, options_.hybrid,
                            state_.ResidueSum(), options_.walk_scale)) {
        return false;
      }
      last_stats_.path = SolverPath::kDenseResidueMass;
      return true;
    };
    round_hook_ptr = &round_hook;
  }
  {
    RESACC_SPAN("omfwd");
    if (options_.use_omfwd && !layers.layers.empty()) {
      last_stats_.omfwd_push =
          RunOmfwd(graph_, config_, source, r_max_f_, layers.layers.back(),
                   state_, cancel, round_hook_ptr);
    }
  }
  last_stats_.omfwd_seconds = phase.ElapsedSeconds();
  last_stats_.residue_sum_after_omfwd = state_.ResidueSum();
  metrics.omfwd.Record(last_stats_.omfwd_seconds);
  if (ShouldStop(cancel)) return cancel->StopStatus();
  return Status::Ok();
}

TopKResult ResAccSolver::QueryTopK(NodeId source, std::size_t k,
                                   const QueryControl& control) {
  TopKResult result;
  Solve(source, k, control, &result);
  return result;
}

}  // namespace resacc
