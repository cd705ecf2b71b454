#include "resacc/core/omfwd.h"

#include <algorithm>

namespace resacc {

PushStats RunOmfwd(const Graph& graph, const RwrConfig& config, NodeId source,
                   Score r_max_f, std::vector<NodeId> frontier,
                   PushState& state, const CancellationToken* cancel,
                   const PushRoundHook* round_hook) {
  // Algorithm 4 line 1: decreasing order of (accumulated) residue, so the
  // largest masses flow first and downstream nodes aggregate them into
  // fewer pushes. Ties broken by id for determinism.
  std::sort(frontier.begin(), frontier.end(), [&state](NodeId a, NodeId b) {
    if (state.residue(a) != state.residue(b)) {
      return state.residue(a) > state.residue(b);
    }
    return a < b;
  });
  // Level-synchronous rounds after the sorted seeds: draining a whole
  // wavefront aggregates a node's in-frontier before the node is pushed —
  // measured 5-7x fewer pushes than keeping the whole run in max-residue
  // order (DESIGN.md "Work-list order").
  return RunForwardSearch(graph, config, source, r_max_f, frontier,
                          /*push_seeds_unconditionally=*/true, state, cancel,
                          round_hook);
}

}  // namespace resacc
