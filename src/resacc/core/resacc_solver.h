#ifndef RESACC_CORE_RESACC_SOLVER_H_
#define RESACC_CORE_RESACC_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/core/remedy.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/core/topk.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/status.h"

namespace resacc {

// Tuning knobs of the full ResAcc pipeline (Algorithm 2).
struct ResAccOptions {
  // r_max^hop of the h-HopFWD phase. Paper default: 1e-14.
  Score r_max_hop = 1e-14;
  // r_max^f of the OMFWD phase, used as given when > 0. <= 0 selects the
  // priced default max(1/(10 m), 1/(topk.profit_slack * c * walk_scale)):
  // the paper's 1/(10 m), raised where a push would cost more edges than
  // the remedy walk steps it saves (c = WalkCountCoefficient(); DESIGN.md
  // "Priced OMFWD threshold"). An infinite price gives 1/(10 m) exactly.
  Score r_max_f = 0.0;
  // h; the paper uses 2 everywhere except DBLP (3). See Fig. 21.
  std::uint32_t num_hops = 2;
  // Adaptive hop-set cap (our extension; see HHopFwdOptions): shrink the
  // effective h when the source's hop set exceeds this fraction of n —
  // keeps hub-source queries from drowning in the accumulating phase.
  // 0 disables.
  double max_hop_set_fraction = 0.15;
  // Remedy walk multiplier n_scale (Appendix F); 1.0 = Theorem 3 count.
  double walk_scale = 1.0;

  // Top-k refinement knobs. `topk.profit_slack` is also the walk-step
  // price of the default r_max_f above, so with r_max_f <= 0 it shapes
  // full queries too; the other knobs only QueryTopK reads. Part of the
  // serve-layer config hash: they shape the cached payloads.
  TopKOptions topk;

  // Hybrid local/dense selection (core/power_iter.h): when enabled, a
  // query whose hop set or residue mass makes the local pipeline cost
  // more than a whole-graph power-iteration sweep is handed to the dense
  // path instead, same (eps, delta) contract. Requires use_hop_subgraph
  // (the ablations stay pure-local). Part of the serve-layer config hash.
  HybridOptions hybrid;

  // Threads for the remedy phase's walk engine (0 = hardware concurrency).
  // Changes speed only, never the scores: remedy output is bit-identical
  // for every value (see walk_engine.h), which is why this knob is NOT
  // part of the serve-layer config hash. Keep 1 wherever one solver
  // already runs per pool worker (QueryService, ParallelQueryMany).
  std::size_t walk_threads = 1;

  // Ablation switches (Appendix K). All true = full ResAcc.
  bool use_loop_accumulation = true;  // false => "No-Loop-ResAcc"
  bool use_hop_subgraph = true;       // false => "No-SG-ResAcc"
  bool use_omfwd = true;              // false => "No-OFD-ResAcc"

  // Test hook: invoked at the start of each phase with "hhop", "omfwd",
  // "remedy" or "topk" (same precedent as ServeOptions::dequeue_hook). Lets tests
  // cancel deterministically *inside* a chosen phase instead of racing a
  // timer. Not hashed by the serve layer's config hash — hooks must not
  // change results.
  std::function<void(const char*)> phase_hook;
};

// Per-query diagnostics: phase timings (Table VII), operation counts, and
// the h-HopFWD internals (rho, T, S).
struct ResAccQueryStats {
  double hhop_seconds = 0.0;
  double omfwd_seconds = 0.0;
  double remedy_seconds = 0.0;
  double dense_seconds = 0.0;
  double total_seconds = 0.0;

  HHopFwdStats hhop;
  PushStats omfwd_push;
  RemedyStats remedy;
  Score residue_sum_after_omfwd = 0.0;

  // Hybrid selection outcome: which path answered and, when dense, the
  // sweep diagnostics.
  SolverPath path = SolverPath::kLocal;
  PowerIterStats dense;
};

// The paper's algorithm: h-HopFWD + OMFWD + remedy (Algorithm 2). One
// instance per graph; Query is repeatable and reuses workspaces.
class ResAccSolver : public SsrwrAlgorithm {
 public:
  ResAccSolver(const Graph& graph, const RwrConfig& config,
               const ResAccOptions& options);
  ResAccSolver(Graph&&, const RwrConfig&, const ResAccOptions&) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Cancellable variant: polls `control.cancel` between the three phases,
  // every few hundred pushes inside h-HopFWD/OMFWD, and at every remedy
  // walk block. On an early stop the returned scores are the reserves
  // accumulated so far (plus any merged walk corrections) and
  // achieved_epsilon = epsilon + uncorrected_mass / delta. See
  // ControlledQueryResult for the exact contract.
  ControlledQueryResult QueryControlled(NodeId source,
                                        const QueryControl& control) override;

  // Bound-driven top-k (see topk_solve.h): runs the two push phases
  // unchanged, then refines at shrinking thresholds until rank k
  // separates — a certified result skips the remedy walks entirely; an
  // unseparated one falls back to remedy on the refined state.
  TopKResult QueryTopK(NodeId source, std::size_t k,
                       const QueryControl& control = QueryControl{}) override;

  // Diagnostics of the most recent Query call.
  const ResAccQueryStats& last_stats() const { return last_stats_; }

  // Effective r_max^f: options().r_max_f when > 0, else the priced default
  // (see ResAccOptions::r_max_f).
  Score effective_r_max_f() const { return r_max_f_; }

  const RwrConfig& config() const { return config_; }
  const ResAccOptions& options() const { return options_; }

 private:
  // One query of either mode: the push phases, then Finish (a top-k
  // answer when `topk` is non-null, see Finish), then the solve's one
  // record in the query counters and the query histogram.
  ControlledQueryResult Solve(NodeId source, std::size_t k,
                              const QueryControl& control, TopKResult* topk);

  // Phases 1-2 of Algorithm 2 (h-HopFWD + OMFWD) on a reset state_, with
  // the usual per-phase stats/metrics/hooks. Returns the stop status: OK
  // when both phases completed, the token's status when one was cut short
  // or the query was dead on arrival (state_ then holds the valid partial
  // reserves/residues, or just r(source) = 1).
  Status RunPushPhases(NodeId source, const CancellationToken* cancel);

  // h-HopFWD options of one query, polling `cancel`. With the hybrid
  // selector on they carry selection point 1 (ChooseFromHopStats) as the
  // dense_probe, which writes the chosen dense path to last_stats_.path.
  HHopFwdOptions HopOptions(const CancellationToken* cancel);

  // Algorithm 2's finish from the drained push phases in state_:
  //  * `push_status` not OK — the push phases stopped early (a query dead
  //    on arrival plants r(source) = 1 first). The reserves are the
  //    answer and the residues its uncorrected mass.
  //  * last_stats_.path not kLocal — the hybrid selector chose the dense
  //    sweep (RunDenseFinish).
  //  * otherwise remedy walks over the residues, or for a top-k answer
  //    the certificate finish (SolveTopKFromState, which also brackets a
  //    stopped top-k query).
  // A non-null `topk` asks for a top-k answer: it receives the
  // TopKResult, and the returned result carries only the status and
  // accuracy tags. Calls the phase_hook ("dense", "remedy" or "topk") as
  // its phase starts, and records the phase's diagnostics in last_stats_
  // and its latency in the phase histogram.
  ControlledQueryResult Finish(NodeId source, std::size_t k,
                               const Status& push_status,
                               const CancellationToken* cancel,
                               TopKResult* topk);

  const Graph& graph_;
  RwrConfig config_;
  ResAccOptions options_;
  Score r_max_f_;
  std::string name_;
  WalkEngine walk_engine_;
  PushState state_;
  ResAccQueryStats last_stats_;
};

}  // namespace resacc

#endif  // RESACC_CORE_RESACC_SOLVER_H_
