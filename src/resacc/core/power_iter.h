#ifndef RESACC_CORE_POWER_ITER_H_
#define RESACC_CORE_POWER_ITER_H_

#include <cstdint>
#include <vector>

#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"

namespace resacc {

// The dense fallback of the hybrid local/dense design (arXiv 2101.03652,
// "Unifying the Global and Local Approaches"): a hub source whose hop set
// spans a large fraction of the graph makes the paper's local pipeline
// (h-HopFWD at r_max_hop = 1e-14, then remedy walks over the leftover
// mass) cost more than simply power-iterating the whole CSR. The solvers
// estimate both costs and hand such queries, with their drained residue
// vector as the starting state, to RunDensePowerIter below. See DESIGN.md "Hybrid local/dense solving".

// Which backend produced a query's scores under the hybrid selector, and
// (for the dense paths) why the selector switched.
enum class SolverPath : std::uint8_t {
  kLocal = 0,          // the paper's local pipeline ran to completion
  kDenseShrinkFloor,   // adaptive hop cap bottomed out at the 1-hop floor
  kDenseHopGrowth,     // hop-set edge count made local cost beat the bound
  kDenseResidueMass,   // OMFWD-round remedy estimate beat the dense bound
};

// Stable label values for the resacc_hybrid_dense_total reason labels.
const char* SolverPathName(SolverPath path);

// Hybrid selection + dense-sweep knobs. Part of the serve-layer config
// hash (result_cache.cc): a dense answer is not bitwise the same as a
// local answer, so a cached result must never cross selection policies.
struct HybridOptions {
  // Master switch; off = always the local pipeline (pre-hybrid behavior).
  bool enable = false;
  // Local-cost multiplier: the dense path is taken when the local cost
  // estimate exceeds cost_ratio x DenseSweepCost. Values > 1 bias toward
  // staying local (dense only on clear wins); < 1 switch eagerly.
  double cost_ratio = 1.0;
  // L1 residual-mass stopping bound of the dense sweep. <= 0 selects
  // epsilon * delta, the bound under which Definition 1 holds with
  // probability 1: the leftover mass is an additive error <= eps * delta,
  // hence relative error <= eps on every node with pi(v) > delta.
  double tolerance = 0.0;
  // Hard sweep cap; 0 derives ceil(ln tol / ln(1 - alpha)) + 1, which the
  // geometric decay of alive mass guarantees is enough.
  std::uint32_t max_iterations = 0;
};

struct PowerIterStats {
  std::uint32_t iterations = 0;
  // Alive mass folded into the scores when the sweep stopped: below the
  // tolerance on a completed run, arbitrary on a cancelled one.
  Score leftover_mass = 0.0;
  bool cancelled = false;
};

// Effective tolerance / sweep bound after applying the defaults above.
double DenseTolerance(const RwrConfig& config, const HybridOptions& options);
std::uint32_t DenseIterationBound(const RwrConfig& config,
                                  const HybridOptions& options);

// Cost estimates, all in edge-traversal units so they compare directly.
// Dense: every sweep scans the full CSR (n + m) until the alive mass
// decays below tolerance.
double DenseSweepCost(const Graph& graph, const RwrConfig& config,
                      const HybridOptions& options);
// Local h-HopFWD: the accumulating phase re-scans the hop set's edges
// roughly once per factor-(1-alpha) decay until residues drop below
// r_max_hop — ln(1/r_max_hop) / -ln(1-alpha) sweeps (~144 at defaults).
double LocalHopCost(const RwrConfig& config, double hop_set_edges,
                    Score r_max_hop);
// Remedy phase: residue_sum * WalkCountCoefficient * walk_scale walks of
// expected length 1/alpha.
double RemedyCost(const RwrConfig& config, Score residue_sum,
                  double walk_scale);

// Selection point 1 (after the hop-layer BFS, before any push): choose the
// dense path when the adaptive cap bottomed out at its 1-hop floor with
// the hop set still over the cap, or when the hop set's edge count makes
// the accumulating phase alone beat cost_ratio x the dense bound.
// ResAccSolver calls this from the dense_probe its HopOptions builds.
// Returns kLocal to continue locally.
SolverPath ChooseFromHopStats(const Graph& graph, const RwrConfig& config,
                              const HybridOptions& options, Score r_max_hop,
                              bool shrink_floored, double hop_set_edges);

// Selection point 2 (at each OMFWD round boundary): switch when the
// remedy walks the current residue mass implies cost more than
// cost_ratio x the dense bound. Round boundaries are the only points
// whose position is a pure function of the scheduled (node, round) pairs,
// so the decision is deterministic per source.
bool DenseBeatsRemedy(const Graph& graph, const RwrConfig& config,
                      const HybridOptions& options, Score residue_sum,
                      double walk_scale);

// Power-iterates the residues of `state` over the full CSR and adds the
// result into `scores` (which must already hold the reserves; the push
// invariant pi(v) = reserve(v) + sum_u r(u) pi_u(v) makes the sum exact up
// to the leftover mass). This is the library's one power-iteration
// recurrence: algo/power.cc's PowerIteration feeds it a unit impulse, the
// hybrid solvers their drained residues. On completion the leftover alive
// mass (< tolerance) is folded into the scores so they still sum to 1 — an
// additive error <= tolerance. A non-null `cancel` is polled once per
// sweep; an early stop folds the current alive mass in the same way
// (reported via leftover_mass so the caller can account it as
// uncorrected). Fully deterministic: no RNG, and the sweep order is the
// fixed CSR order regardless of how `state` was produced — the basis of
// the dense path's bit-identity across walk_threads.
PowerIterStats RunDensePowerIter(const Graph& graph, const RwrConfig& config,
                                 NodeId source, const PushState& state,
                                 std::vector<Score>& scores,
                                 const HybridOptions& options,
                                 const CancellationToken* cancel = nullptr);

// The dense branch of the ResAcc finish (ResAccSolver's full and top-k
// queries alike): seeds scores from the reserves
// of `state`, runs RunDensePowerIter from its residues, and fills the
// Definition-1 accounting tags.
struct DenseFinish {
  std::vector<Score> scores;
  PowerIterStats stats;
  bool degraded = false;
  Score uncorrected_mass = 0.0;
  double achieved_epsilon = 0.0;
};
DenseFinish RunDenseFinish(const Graph& graph, const RwrConfig& config,
                           NodeId source, const PushState& state,
                           const HybridOptions& options,
                           const CancellationToken* cancel);

// Process-wide hybrid observability (obs/metrics_registry.h):
// resacc_hybrid_local_total, resacc_hybrid_dense_total{reason=...} and
// resacc_hub_shrink_total.
void RecordHybridSelection(SolverPath path);
void RecordHubShrink();

}  // namespace resacc

#endif  // RESACC_CORE_POWER_ITER_H_
