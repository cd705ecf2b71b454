#ifndef RESACC_NISE_NISE_H_
#define RESACC_NISE_NISE_H_

#include <cstdint>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/types.h"

namespace resacc {

// Configuration of NISE-style overlapping community detection (Whang,
// Gleich & Dhillon [30]) — the paper's application experiment
// (Tables V-VI). This reproduction keeps NISE's pipeline — seeding by
// spread hubs, per-seed expansion ranked by SSRWR, conductance sweep cut —
// and simplifies the filtering/propagation stages (see DESIGN.md).
struct NiseOptions {
  // |C|: number of seeds, hence communities (paper: 200 for DBLP-scale,
  // 10000 for Facebook).
  std::size_t num_communities = 100;
  // Sweep-cut scan length cap; 0 = scan every positively-scored node.
  std::size_t max_sweep_length = 5000;
  // false reproduces "NISE-without-SSRWR" (Table V): candidate nodes are
  // processed in BFS-distance order from the seed instead of by RWR score.
  bool use_ssrwr_ordering = true;
  // Filtering phase: restrict seeding to the largest weakly connected
  // component (NISE's filtering stage, simplified from its biconnected
  // core — see DESIGN.md). Nodes outside it can still be absorbed by
  // propagation.
  bool filter_to_largest_component = true;
  // Propagation phase: after the sweep cuts, attach every node not covered
  // by any community to the community most of its neighbours belong to
  // (iterated until fixpoint), so the cover reaches the whole (reachable)
  // graph as in the published NISE.
  bool propagate_uncovered = true;
};

struct NiseResult {
  std::vector<std::vector<NodeId>> communities;
  // Wall-clock seconds spent inside the SSRWR solver (the cost Table VI
  // attributes to FORA vs ResAcc).
  double ssrwr_seconds = 0.0;
  double total_seconds = 0.0;
};

class Nise {
 public:
  Nise(const Graph& graph, const NiseOptions& options);
  Nise(Graph&&, const NiseOptions&) = delete;

  // Seeds by spread hubs: repeatedly take the highest-degree node not yet
  // covered by a previous seed's neighbourhood.
  std::vector<NodeId> SelectSeeds() const;

  // Runs detection using `solver` for the per-seed SSRWR queries
  // (ignored when use_ssrwr_ordering is false).
  NiseResult Detect(SsrwrAlgorithm& solver) const;

  // Neighbourhood-inflated variant (the published NISE's expansion): each
  // seed expands from the *set* {seed} ∪ N(seed) via a seed-set SSRWR
  // query (core/seed_set_query.h) instead of a single-source query.
  // Requires DanglingPolicy::kAbsorb on graphs with sinks.
  NiseResult DetectInflated(const RwrConfig& config) const;

 private:
  // Minimum-conductance prefix of `ordered` (greedy sweep cut).
  std::vector<NodeId> SweepCut(const std::vector<NodeId>& ordered) const;

  // Propagation phase: grows `communities` until every node with a
  // covered neighbour belongs somewhere.
  void Propagate(std::vector<std::vector<NodeId>>& communities) const;

  const Graph& graph_;
  NiseOptions options_;
};

}  // namespace resacc

#endif  // RESACC_NISE_NISE_H_
