#include "resacc/core/h_hop_fwd.h"

#include <cmath>
#include <vector>

#include "resacc/util/check.h"

namespace resacc {

HHopFwdStats RunHHopFwd(const Graph& graph, const RwrConfig& config,
                        NodeId source, const HHopFwdOptions& options,
                        PushState& state, HopLayers* layers) {
  RESACC_CHECK(source < graph.num_nodes());
  RESACC_CHECK(options.r_max_hop > 0.0);
  HHopFwdStats stats;

  std::uint32_t effective_hops = options.num_hops;
  if (options.use_hop_subgraph) {
    *layers = ComputeHopLayers(graph, source, options.num_hops + 1);
    if (options.max_hop_set_fraction > 0.0) {
      const std::size_t cap = std::max<std::size_t>(
          1, static_cast<std::size_t>(options.max_hop_set_fraction *
                                      static_cast<double>(graph.num_nodes())));
      // Floor the shrink at 1 hop: h = 0 left a degenerate {source} hop
      // set whose entire mass fell to remedy walks (the hub-source
      // degradation this floor fixes). When even the 1-hop set exceeds
      // the cap, shrink_floored flags it for the hybrid selector.
      while (effective_hops > 1 &&
             layers->HopSetSize(effective_hops) > cap) {
        --effective_hops;
      }
      stats.shrink_hops = options.num_hops - effective_hops;
      stats.shrink_floored = effective_hops >= 1 &&
                             layers->HopSetSize(effective_hops) > cap;
      if (effective_hops < options.num_hops) {
        // Drop the unused deeper layers so layers.back() is the frontier
        // L_(h_eff+1) that OMFWD consumes.
        layers->layers.resize(effective_hops + 2);
      }
    }
    stats.hop_set_size = layers->HopSetSize(effective_hops);
    stats.frontier_size = layers->layers.back().size();
    for (std::size_t h = 0; h <= effective_hops && h < layers->layers.size();
         ++h) {
      for (NodeId v : layers->layers[h]) {
        stats.hop_set_edges += graph.OutDegree(v);
      }
    }
  } else {
    // No-SG ablation: no BFS runs and the whole graph acts as the
    // subgraph, so the stats report n nodes / m edges of working set (see
    // the header convention) with an empty frontier.
    layers->layers.assign(options.num_hops + 2, {});
    layers->distance.clear();
    stats.hop_set_size = graph.num_nodes();
    stats.frontier_size = 0;
    stats.hop_set_edges = graph.num_edges();
  }
  stats.effective_hops = effective_hops;

  // Hybrid selection point 1 (core/power_iter.h): with the BFS-derived
  // stats known and nothing pushed yet, the caller can take the query
  // dense. Seed the unit of residue mass so the state is the exact
  // starting point of the whole computation either way.
  if (options.use_hop_subgraph && options.dense_probe &&
      options.dense_probe(stats)) {
    stats.aborted_for_dense = true;
    state.SetResidue(source, 1.0);
    return stats;
  }

  // Eligibility for pushing during the accumulating phase: the source is
  // excluded when loop accumulation is on (its residue accumulates
  // instead), and nodes beyond the h-hop set are excluded when the subgraph
  // restriction is on (they form the frontier whose residue accumulates
  // for OMFWD).
  PushScope scope;
  if (options.use_hop_subgraph) {
    scope.hop_set = layers;
    scope.num_hops = effective_hops;
  }
  if (options.use_loop_accumulation) scope.excluded = source;

  // Accumulating phase (Algorithm 3 lines 1-7): the very first push at s,
  // then exhaust the push condition over eligible nodes.
  state.SetResidue(source, 1.0);
  ForwardPushAt(graph, config, source, source, state, stats.push);

  // The source's eligible neighbours that meet the condition (plus the
  // source itself, without loop accumulation) seed round 0 in CSR order;
  // the shared round loop (forward_push.h) screens eligibility at every
  // later promotion, so a pushed node is always inside the hop set.
  std::vector<NodeId> seeds;
  for (NodeId v : graph.OutNeighbors(source)) {
    if (scope.Admits(v) &&
        SatisfiesPushCondition(graph, state, v, options.r_max_hop)) {
      seeds.push_back(v);
    }
  }
  if (!options.use_loop_accumulation &&
      SatisfiesPushCondition(graph, state, source, options.r_max_hop)) {
    seeds.push_back(source);
  }
  const bool finished = RunPushRounds(
      graph, config, source, options.r_max_hop, seeds,
      /*push_seeds_unconditionally=*/false, scope, state, options.cancel,
      /*round_hook=*/nullptr, stats.push);

  // Cancelled mid-phase: the updating phase extrapolates T completed
  // accumulating phases, which a truncated phase is not — skip it and
  // leave the mass-conserving partial state for the caller to report.
  if (!finished || !options.use_loop_accumulation) return stats;

  // Updating phase (Algorithm 3 lines 8-18): extrapolate the remaining
  // accumulating phases in O(touched).
  const Score rho = state.residue(source);
  stats.rho = rho;
  if (rho <= 0.0) return stats;
  RESACC_CHECK_MSG(rho < 1.0, "source residue must shrink per phase");

  // T = smallest integer with rho^T strictly below the push threshold of s
  // (see header; floor+1 also covers the exact-boundary case that
  // the paper's ceil formula misses).
  const double degree_s =
      std::max<double>(1.0, static_cast<double>(graph.OutDegree(source)));
  const double threshold_arg = options.r_max_hop * degree_s;
  double loop_count = 1.0;
  if (threshold_arg < 1.0 && rho >= threshold_arg) {
    loop_count = std::floor(std::log(threshold_arg) / std::log(rho)) + 1.0;
    loop_count = std::max(loop_count, 1.0);
  }
  stats.loop_count = loop_count;

  const Score rho_pow_t = std::pow(rho, loop_count);
  const Score scaler = (1.0 - rho_pow_t) / (1.0 - rho);
  stats.scaler = scaler;

  for (NodeId v : state.touched()) {
    state.ScaleReserve(v, scaler);
    if (v == source) {
      state.SetResidue(source, rho_pow_t);
    } else {
      state.ScaleResidue(v, scaler);
    }
  }
  return stats;
}

}  // namespace resacc
