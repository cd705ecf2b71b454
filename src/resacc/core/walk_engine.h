#ifndef RESACC_CORE_WALK_ENGINE_H_
#define RESACC_CORE_WALK_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/rng.h"
#include "resacc/util/thread_pool.h"
#include "resacc/util/types.h"

namespace resacc {

// One batch of identical-origin walks: `num_walks` walks start at `start`
// and each deposits `weight` on its terminal node. `stream` selects the RNG
// substream; callers key it by the start node id (remedy's pool slices by
// 1 << 32 | id) so a slice's randomness is a function of (root rng, stream)
// alone, never of slice order or scheduling.
struct WalkSlice {
  NodeId start = 0;
  std::uint64_t num_walks = 0;
  Score weight = 0.0;
  std::uint64_t stream = 0;
};

// Outcome of a WalkEngine::Run call.
struct WalkEngineStats {
  std::uint64_t walks = 0;
  std::uint64_t steps = 0;
  std::uint64_t blocks = 0;          // scheduling blocks formed
  std::uint64_t reorder_stalls = 0;  // worker waits on a full reorder window
  bool budget_exhausted = false;     // stopped early by the time budget
  bool cancelled = false;            // stopped early by the cancellation token
  // Deposit mass of the blocks that were skipped (sum of walks x weight
  // over unissued blocks). This is exactly the probability mass the caller
  // asked for but did not get, so remedy/MC can derive an honest achieved
  // accuracy bound for a truncated run (Theorem 3's residual term).
  Score skipped_mass = 0.0;
};

// Deterministic, intra-query-parallel random-walk executor — the shared hot
// loop of ResAcc's remedy phase, FORA's walk phase, and Monte Carlo.
//
// Determinism contract: for a fixed (graph, config, root rng, slices), the
// score vector produced by Run is bit-identical for every `walk_threads`
// value (including 1) and every scheduling of blocks onto threads. This is
// what lets the serve layer mix cached, coalesced, and freshly computed
// responses, and lets `walk_threads` stay out of the result-cache config
// hash. Three mechanisms make it hold:
//
//   1. RNG substreams. Slices are split into blocks of at most kBlockWalks
//      walks; block b of slice s draws from root.Fork(s.stream).Fork(b), so
//      a block's walks do not depend on which thread runs it, when, or
//      which other blocks' walks are interleaved with them.
//   2. Fixed reduction grouping. A block records its terminals in walk
//      order; once every earlier block has been merged, the terminals are
//      replayed into a sparse workspace (dense array + touched list, the
//      PushState pattern), giving the block's partial sums, which are
//      folded into `scores`. Blocks merge strictly in block-index order.
//      Floating-point addition is non-associative, so the grouping —
//      per-block partials, merged in order — is the contract; kBlockWalks
//      is therefore a constant, not a knob.
//   3. No atomics on the hot path. Walks only write their block's stretch
//      of the terminal ring (below); the calling thread does the ordered
//      merge.
//
// One walk kernel serves both the sequential path and every worker of the
// parallel path: a runner that keeps 16 blocks in flight (a compile-time
// constant) and advances their current walks in two passes per turn —
// every walk draws its move and prefetches the target slot, then every
// walk takes its move and prefetches the CSR row of the node it reached.
// A lone walk is a chain of dependent cache misses; interleaving walks of
// *different* blocks overlaps them without touching any block's draw
// sequence or summation order. Walk lengths are sampled geometrically (one
// uniform draw via inversion instead of a Bernoulli(alpha) draw per step).
//
// Terminals are recorded in a ring, each block in the stretch its walk
// indices map to; a block is issued only once its stretch is free, i.e.
// merged. The ring holds 16 blocks' worth of walks (256 KB) per runner, so
// memory is bounded by that many blocks x kBlockWalks x 4 bytes per walk
// thread (plus one O(n) workspace), whatever the walk count.
//
// The time budget and the cancellation token are checked whenever a block
// is issued, so a single high-residue node can overshoot the budget by at
// most the blocks in flight. An issued block always runs to the end and is
// merged, so a stopped run has merged exactly its issued blocks — a prefix
// in block order. Budget-truncated runs are the one case that is *not*
// reproducible (where the prefix ends depends on wall-clock timing).
//
// An engine instance is NOT thread-safe: it owns a workspace and a terminal
// ring that are reused across Run calls. Give each solver its own engine
// (the same one-instance-per-worker rule as the solvers themselves). Nested
// parallelism rule: code that already runs one solver per pool worker
// (QueryService, ParallelQueryMany) should keep walk_threads = 1 so a
// machine-sized worker pool is not multiplied by a machine-sized walk pool.
class WalkEngine {
 public:
  // Scheduling/budget granularity; see the determinism contract above for
  // why this is a constant.
  static constexpr std::uint64_t kBlockWalks = 4096;

  // walk_threads = 1 runs on the calling thread (no pool is created);
  // 0 means ThreadPool::DefaultThreads(). The pool is created lazily on the
  // first Run that has more than one block to schedule.
  explicit WalkEngine(std::size_t walk_threads = 1);
  ~WalkEngine();

  WalkEngine(const WalkEngine&) = delete;
  WalkEngine& operator=(const WalkEngine&) = delete;

  std::size_t walk_threads() const { return walk_threads_; }

  // Simulates every slice's walks and accumulates the deposits into
  // `scores` (sized num_nodes). `restart_node` is where kBackToSource
  // dangling walks jump. `time_budget_seconds` > 0 stops issuing blocks
  // once the budget is spent; a non-null `cancel` token is polled at every
  // block boundary and stops the run the same way (already-merged blocks
  // stay in `scores`, skipped mass is reported in the stats). Slice
  // weights must be positive.
  WalkEngineStats Run(const Graph& graph, const RwrConfig& config,
                      NodeId restart_node, const Rng& root,
                      std::span<const WalkSlice> slices,
                      std::vector<Score>& scores,
                      double time_budget_seconds = 0.0,
                      const CancellationToken* cancel = nullptr);

 private:
  // Sparse accumulator for one block's partial sums: dense score array +
  // touched list, reset in O(touched) and reused across blocks and Runs.
  struct Workspace {
    std::vector<Score> dense;
    std::vector<NodeId> touched;

    void EnsureSize(NodeId num_nodes) {
      if (dense.size() != num_nodes) {
        dense.assign(num_nodes, 0.0);
        touched.clear();
      }
    }
    // Valid for positive deposits only: a zero entry means "untouched".
    void Add(NodeId v, Score w) {
      if (dense[v] == 0.0) touched.push_back(v);
      dense[v] += w;
    }
    // Folds the partial sums into `scores` (in touch order) and resets.
    void DrainInto(std::vector<Score>& scores) {
      for (NodeId v : touched) {
        scores[v] += dense[v];
        dense[v] = 0.0;
      }
      touched.clear();
    }
  };

  std::size_t walk_threads_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily; walk_threads_ > 1
  Workspace workspace_;               // the merge's, on the calling thread
  // Terminal ring shared by the blocks in flight; grows to at most
  // kBlockWalks x (a few blocks per walk thread), whatever the walk count.
  std::vector<NodeId> terminals_;
};

}  // namespace resacc

#endif  // RESACC_CORE_WALK_ENGINE_H_
