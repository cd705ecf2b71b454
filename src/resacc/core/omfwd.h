#ifndef RESACC_CORE_OMFWD_H_
#define RESACC_CORE_OMFWD_H_

#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"

namespace resacc {

// OMFWD, the "one-more forward search" (Algorithm 4): seeds the push queue
// with the accumulation frontier L_(h+1)-hop(s) in decreasing residue
// order, pushes each seed once unconditionally, then keeps pushing any
// node that satisfies the push condition with r_max_f until quiescent.
//
// `frontier` is typically layers.back() from RunHHopFwd; it is copied and
// sorted internally. A non-null `cancel` token stops the search early (see
// RunForwardSearch for the partial-state contract). A non-null
// `round_hook` fires at each wavefront-round promotion (see PushRoundHook);
// the hybrid selector hangs its residue-mass check there — round
// boundaries are the points whose residues are a pure function of the
// scheduled (node, round) pairs.
PushStats RunOmfwd(const Graph& graph, const RwrConfig& config, NodeId source,
                   Score r_max_f, std::vector<NodeId> frontier,
                   PushState& state,
                   const CancellationToken* cancel = nullptr,
                   const PushRoundHook* round_hook = nullptr);

}  // namespace resacc

#endif  // RESACC_CORE_OMFWD_H_
