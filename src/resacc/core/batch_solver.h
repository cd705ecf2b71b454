#ifndef RESACC_CORE_BATCH_SOLVER_H_
#define RESACC_CORE_BATCH_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "resacc/core/resacc_solver.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/check.h"

namespace resacc {

// Benchmark-only adapter over ResAccSolver, kept so perfbench's traced
// batch replay (perfbench/bench/kernels.cc, ReplayBatches) still builds.
// Nothing in src/ uses it; it goes with that replay in ROADMAP item 1's
// benchmark-only change. Each lane is one QueryControlled call, in lane
// order, so every answer is the serial solver's bit for bit.

// One lane: a source and its own cancellation token. top_k must be 0; the
// adapter answers full vectors only.
struct BatchLane {
  NodeId source = 0;
  const CancellationToken* cancel = nullptr;
  std::size_t top_k = 0;
};

struct BatchQueryStats {
  std::uint64_t push_operations = 0;   // OMFWD pushes, summed over lanes
  std::uint64_t shared_node_pops = 0;  // always 0: lanes share no rounds
};

class BatchSolver {
 public:
  BatchSolver(const Graph& graph, const RwrConfig& config,
              const ResAccOptions& options)
      : solver_(graph, config, options) {}
  BatchSolver(Graph&&, const RwrConfig&, const ResAccOptions&) = delete;

  std::vector<ControlledQueryResult> QueryBatch(
      std::span<const BatchLane> lanes) {
    last_stats_ = BatchQueryStats();
    std::vector<ControlledQueryResult> results;
    results.reserve(lanes.size());
    for (const BatchLane& lane : lanes) {
      RESACC_CHECK(lane.top_k == 0);
      results.push_back(
          solver_.QueryControlled(lane.source, QueryControl{lane.cancel}));
      last_stats_.push_operations +=
          solver_.last_stats().omfwd_push.push_operations;
    }
    return results;
  }

  const BatchQueryStats& last_stats() const { return last_stats_; }

 private:
  ResAccSolver solver_;
  BatchQueryStats last_stats_;
};

}  // namespace resacc

#endif  // RESACC_CORE_BATCH_SOLVER_H_
