#include "resacc/core/walk_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "resacc/core/random_walk.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/trace.h"
#include "resacc/util/check.h"
#include "resacc/util/fault_injection.h"
#include "resacc/util/timer.h"

namespace resacc {
namespace {

// A scheduling unit: up to kBlockWalks walks of one slice. `ordinal` is the
// block's index within its slice and selects the second-level RNG fork;
// `first_walk` is the number of walks in all earlier blocks.
struct Block {
  std::uint32_t slice = 0;
  std::uint64_t walks = 0;
  std::uint64_t ordinal = 0;
  std::uint64_t first_walk = 0;
};

std::vector<Block> BuildBlocks(std::span<const WalkSlice> slices) {
  std::vector<Block> blocks;
  std::uint64_t first_walk = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const WalkSlice& slice = slices[i];
    RESACC_DCHECK(slice.weight > 0.0 || slice.num_walks == 0);
    std::uint64_t remaining = slice.num_walks;
    std::uint64_t ordinal = 0;
    while (remaining > 0) {
      const std::uint64_t walks =
          std::min<std::uint64_t>(remaining, WalkEngine::kBlockWalks);
      blocks.push_back(
          Block{static_cast<std::uint32_t>(i), walks, ordinal, first_walk});
      first_walk += walks;
      remaining -= walks;
      ++ordinal;
    }
  }
  return blocks;
}

// Blocks each runner keeps in flight. Any value gives the same scores (a
// block's walks never depend on their neighbours in the rotation); this
// one is the fastest of a 4/8/16 sweep (DESIGN.md "Walk engine").
constexpr std::size_t kInFlightBlocks = 16;

// Terminal-ring capacity per runner, in walks (256 KB): the reorder window,
// i.e. how far a runner's blocks may run ahead of the merge frontier. It
// must leave room for kInFlightBlocks blocks behind a long frontier block,
// or the rotation thins out while that block finishes.
constexpr std::uint64_t kRingWalksPerRunner = 16 * WalkEngine::kBlockWalks;

constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

// What every runner of one Run shares, read-only.
struct RunContext {
  const Graph& graph;
  NodeId restart_node;
  bool absorb;  // DanglingPolicy::kAbsorb
  double inv_log1m_alpha;
  const Rng& root;
  std::span<const WalkSlice> slices;
  std::span<const Block> blocks;
  // Terminal ring, a power of two in size: walk w of the run (counting
  // across blocks) records its terminal at w & ring_mask.
  std::span<NodeId> ring;
  std::uint64_t ring_mask;
};

// The current walk of one in-flight block.
struct Lane {
  Rng rng{0};
  NodeId node = 0;               // where the walk stands
  NodeId start = 0;
  const NodeId* move = nullptr;  // target slot of the move Choose drew
  std::uint64_t steps_left = 0;  // moves before the restart fires
  std::uint64_t walk = 0;        // the walk's index within the run
  std::uint64_t end_walk = 0;    // one past the block's last walk
  std::size_t block = 0;
};

// Starts the lane's next walk, recording zero-length walks on the spot.
// False once the block has recorded all its walks.
bool NextWalk(const RunContext& ctx, Lane& lane) {
  while (lane.walk != lane.end_walk) {
    lane.steps_left = GeometricWalkLength(lane.rng, ctx.inv_log1m_alpha);
    if (lane.steps_left > 0) {
      lane.node = lane.start;
      return true;
    }
    ctx.ring[lane.walk++ & ctx.ring_mask] = lane.start;
  }
  return false;
}

// Points `lane` at block `index`: its substream, its stretch of the ring,
// and its first live walk. False if the block finished without one.
bool StartBlock(const RunContext& ctx, std::size_t index, Lane& lane,
                WalkStats& stats) {
  const Block& block = ctx.blocks[index];
  const WalkSlice& slice = ctx.slices[block.slice];
  lane.rng = ctx.root.Fork(slice.stream).Fork(block.ordinal);
  lane.start = slice.start;
  lane.walk = block.first_walk;
  lane.end_walk = block.first_walk + block.walks;
  lane.block = index;
  ctx.graph.PrefetchOutRow(slice.start);
  stats.walks += block.walks;
  return NextWalk(ctx, lane);
}

// RandomWalkTerminalGeometric's loop, sink handling included, split in two
// halves so that neither waits on memory. Choose reads the node's CSR row,
// draws the move and prefetches the chosen target slot; Take, one pass over
// the other lanes later, makes the move and prefetches the new node's row.
// Both return false once the walk has ended.
bool Choose(const RunContext& ctx, Lane& lane, WalkStats& stats) {
  for (;;) {
    const std::span<const NodeId> row = ctx.graph.OutNeighbors(lane.node);
    if (!row.empty()) {
      const NodeId degree = static_cast<NodeId>(row.size());
      lane.move = &row[lane.rng.NextBounded32(degree)];
      __builtin_prefetch(lane.move, /*rw=*/0, /*locality=*/3);
      return true;
    }
    if (ctx.absorb) return false;  // ends at the sink; not a step
    lane.node = ctx.restart_node;
    ++stats.steps;
    if (--lane.steps_left == 0) return false;
  }
}

bool Take(const RunContext& ctx, Lane& lane, WalkStats& stats) {
  lane.node = *lane.move;
  ++stats.steps;
  if (--lane.steps_left == 0) return false;
  ctx.graph.PrefetchOutRow(lane.node);
  return true;
}

// The one walk kernel. Keeps up to kInFlightBlocks blocks in flight and
// advances their current walks in two passes per turn — every lane Chooses,
// then every lane Takes — so the CSR misses of independent walks overlap and
// no lane waits on its own prefetch. A walk that ends starts the block's
// next walk, which joins the next Choose pass (or this one, if it ended
// while choosing). `issue(idle)` hands out the next block index or kNoBlock;
// `idle` says the runner has no live walk, so kNoBlock then ends the run
// (and issue may wait instead). `retire(index)` is told once a block's
// terminals are all recorded. After a kNoBlock, new blocks are asked for
// again only when a block retires.
template <typename Issue, typename Retire>
void RunBlocks(const RunContext& ctx, Issue&& issue, Retire&& retire,
               WalkStats& stats) {
  Lane lanes[kInFlightBlocks];
  std::size_t live = 0;
  bool top_up = true;
  for (;;) {
    while (top_up && live < kInFlightBlocks) {
      const std::size_t index = issue(/*idle=*/live == 0);
      if (index == kNoBlock) {
        top_up = false;
      } else if (StartBlock(ctx, index, lanes[live], stats)) {
        ++live;
      } else {
        retire(index);
      }
    }
    if (live == 0) return;
    for (std::size_t k = 0; k < live;) {
      Lane& lane = lanes[k];
      bool walking = true;
      while (walking && !Choose(ctx, lane, stats)) {
        ctx.ring[lane.walk++ & ctx.ring_mask] = lane.node;
        walking = NextWalk(ctx, lane);
      }
      if (walking) {
        ++k;
        continue;
      }
      retire(lane.block);
      top_up = true;
      lane = lanes[--live];
    }
    for (std::size_t k = 0; k < live;) {
      Lane& lane = lanes[k];
      if (Take(ctx, lane, stats)) {
        ++k;
        continue;
      }
      ctx.ring[lane.walk++ & ctx.ring_mask] = lane.node;
      if (NextWalk(ctx, lane)) {
        ++k;
        continue;
      }
      retire(lane.block);
      top_up = true;
      lane = lanes[--live];
    }
  }
}

// Per-Run flush of engine totals into the process-wide registry: the hot
// loop never touches an atomic, so instrumentation stays within the <=2%
// overhead budget (ISSUE 3 acceptance; verified by bench_micro).
void FlushGlobalMetrics(const WalkEngineStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& runs = registry.GetCounter(
      "resacc_walk_engine_runs_total", "",
      "WalkEngine::Run invocations (one per remedy phase).");
  static Counter& blocks = registry.GetCounter(
      "resacc_walk_engine_blocks_total", "",
      "Walk blocks scheduled (<= kBlockWalks walks each).");
  static Counter& walks = registry.GetCounter(
      "resacc_walk_engine_walks_total", "", "Random walks simulated.");
  static Counter& steps = registry.GetCounter(
      "resacc_walk_engine_steps_total", "", "Random-walk steps taken.");
  static Counter& stalls = registry.GetCounter(
      "resacc_walk_engine_reorder_stalls_total", "",
      "Worker waits because the ordered-merge reorder window was full.");
  static Counter& exhausted = registry.GetCounter(
      "resacc_walk_engine_budget_exhausted_total", "",
      "Runs truncated by the walk time budget.");
  static Counter& cancelled = registry.GetCounter(
      "resacc_walk_engine_cancelled_total", "",
      "Runs truncated by a cancellation token (deadline or Cancel).");
  runs.Increment();
  blocks.Increment(stats.blocks);
  walks.Increment(stats.walks);
  steps.Increment(stats.steps);
  stalls.Increment(stats.reorder_stalls);
  if (stats.budget_exhausted) exhausted.Increment();
  if (stats.cancelled) cancelled.Increment();
}

Score BlockMass(const Block& block, std::span<const WalkSlice> slices) {
  return static_cast<Score>(block.walks) * slices[block.slice].weight;
}

}  // namespace

WalkEngine::WalkEngine(std::size_t walk_threads)
    : walk_threads_(walk_threads > 0 ? walk_threads
                                     : ThreadPool::DefaultThreads()) {}

WalkEngine::~WalkEngine() = default;

WalkEngineStats WalkEngine::Run(const Graph& graph, const RwrConfig& config,
                                NodeId restart_node, const Rng& root,
                                std::span<const WalkSlice> slices,
                                std::vector<Score>& scores,
                                double time_budget_seconds,
                                const CancellationToken* cancel) {
  RESACC_CHECK(scores.size() == graph.num_nodes());
  RESACC_SPAN("walk_engine");
  WalkEngineStats stats;
  const std::vector<Block> blocks = BuildBlocks(slices);
  if (blocks.empty()) return stats;
  stats.blocks = blocks.size();

  Timer budget_timer;
  const std::size_t workers = std::min(walk_threads_, blocks.size());
  const std::uint64_t total_walks =
      blocks.back().first_walk + blocks.back().walks;
  const std::uint64_t ring_size = std::bit_ceil(
      std::min<std::uint64_t>(kRingWalksPerRunner * workers, total_walks));
  if (terminals_.size() < ring_size) terminals_.resize(ring_size);
  const RunContext ctx{graph,
                       restart_node,
                       config.dangling == DanglingPolicy::kAbsorb,
                       InvLogOneMinusAlpha(config.alpha),
                       root,
                       slices,
                       blocks,
                       std::span(terminals_).first(ring_size),
                       ring_size - 1};
  workspace_.EnsureSize(graph.num_nodes());

  // Blocks [0, next_block) are issued; blocks [end, size) never will be.
  // Issue is the one place the budget and the token are checked, so a
  // stopped run has issued, and will merge, exactly a prefix of blocks.
  std::size_t next_block = 0;
  std::size_t end = blocks.size();
  // Block `next_block` fits in the ring behind the first unmerged walk.
  auto fits = [&](std::uint64_t merged_walks) {
    const Block& block = blocks[next_block];
    return block.first_walk + block.walks <= merged_walks + ring_size;
  };
  auto stop_issuing = [&] {
    if (ShouldStop(cancel)) {
      stats.cancelled = true;
    } else if (time_budget_seconds > 0.0 &&
               budget_timer.ElapsedSeconds() >= time_budget_seconds) {
      stats.budget_exhausted = true;
    } else {
      return false;
    }
    end = next_block;
    return true;
  };
  // Folds block `index`'s terminals, replayed in walk order, into `scores`.
  auto merge = [&](std::size_t index) {
    const Block& block = blocks[index];
    const Score weight = slices[block.slice].weight;
    for (std::uint64_t w = block.first_walk; w < block.first_walk + block.walks;
         ++w) {
      workspace_.Add(ctx.ring[w & ctx.ring_mask], weight);
    }
    workspace_.DrainInto(scores);
  };
  // retired[i]: block i has recorded all its terminals.
  std::vector<char> retired(blocks.size(), 0);

  WalkStats walk_stats;
  if (workers <= 1) {
    // Sequential path: the same runner, merging in block order as blocks
    // retire, so walk_threads = 1 is bit-identical to walk_threads = N by
    // construction.
    std::size_t merged = 0;
    RunBlocks(
        ctx,
        [&](bool /*idle*/) {
          if (next_block >= end || !fits(blocks[merged].first_walk) ||
              stop_issuing()) {
            return kNoBlock;
          }
          return next_block++;
        },
        [&](std::size_t index) {
          retired[index] = 1;
          while (merged < next_block && retired[merged]) merge(merged++);
        },
        walk_stats);
  } else {
    if (pool_ == nullptr || pool_->num_threads() < workers) {
      pool_ = std::make_unique<ThreadPool>(walk_threads_);
    }
    // Parallel path: every worker runs the same runner, pulling block
    // indices from a shared counter and publishing finished blocks; the
    // calling thread merges them in block order. A worker waits for ring
    // space only when it has no live walk; the ring holds
    // kRingWalksPerRunner walks per worker, so kInFlightBlocks x workers
    // blocks can be in flight behind the merge frontier.
    std::mutex mutex;
    std::condition_variable ring_freed;   // merge frontier advanced
    std::condition_variable block_ready;  // a block published its terminals
    std::uint64_t merged_walks = 0;       // walks of the merged blocks
    std::vector<WalkStats> worker_stats(workers);

    for (std::size_t k = 0; k < workers; ++k) {
      WalkStats* local_stats = &worker_stats[k];
      pool_->Submit([&, local_stats] {
        RunBlocks(
            ctx,
            [&](bool idle) {
              std::unique_lock<std::mutex> lock(mutex);
              if (next_block < end && !fits(merged_walks)) {
                if (!idle) return kNoBlock;  // keep walking the live ones
                ++stats.reorder_stalls;
                ring_freed.wait(lock, [&] {
                  return next_block >= end || fits(merged_walks);
                });
              }
              if (next_block >= end) return kNoBlock;
              if (stop_issuing()) {
                // `end` moved down to the frontier of issued blocks.
                block_ready.notify_one();
                ring_freed.notify_all();
                return kNoBlock;
              }
              return next_block++;
            },
            [&](std::size_t index) {
              // Chaos site: delay publishing a finished block so merge-order
              // robustness (and ring backpressure) gets exercised. Must not
              // change the deposits — determinism is the invariant
              // chaos_test asserts survives these stalls.
              if (RESACC_FAULT("walk_engine.block_stall")) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              {
                std::lock_guard<std::mutex> lock(mutex);
                retired[index] = 1;
              }
              block_ready.notify_one();
            },
            *local_stats);
      });
    }

    // Merge in block order. Ring space is handed back only after the
    // replay, so a worker never overwrites terminals not yet merged.
    std::size_t frontier = 0;
    for (;;) {
      std::size_t ready_end = frontier;
      {
        std::unique_lock<std::mutex> lock(mutex);
        merged_walks = frontier < blocks.size() ? blocks[frontier].first_walk
                                                : total_walks;
        ring_freed.notify_all();
        block_ready.wait(lock,
                         [&] { return frontier >= end || retired[frontier]; });
        while (ready_end < end && retired[ready_end]) ++ready_end;
      }
      if (ready_end == frontier) break;  // frontier reached end
      for (; frontier < ready_end; ++frontier) merge(frontier);
    }
    pool_->Wait();
    for (const WalkStats& ws : worker_stats) walk_stats += ws;
  }

  for (std::size_t b = end; b < blocks.size(); ++b) {
    stats.skipped_mass += BlockMass(blocks[b], slices);
  }
  stats.walks = walk_stats.walks;
  stats.steps = walk_stats.steps;
  FlushGlobalMetrics(stats);
  return stats;
}

}  // namespace resacc
