// Kernel replay for the traced run: drives the core kernels directly, in
// ResAccSolver's order, around benchmark-owned spans, and proves each
// replayed answer bit-identical to the solver so the kernel timings
// describe the same computation the service runs.
#ifndef PERFBENCH_KERNELS_H_
#define PERFBENCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bench.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"

namespace perfbench {

struct ReplayQuery {
  resacc::NodeId source = 0;
  std::size_t top_k = 0;  // 0 = full vector
};

// Work counters the kernels return, summed over the replay.
struct KernelCounters {
  std::uint64_t queries = 0;
  std::uint64_t hhop_edges = 0;
  std::uint64_t omfwd_edges = 0;
  std::uint64_t remedy_queries = 0;
  std::uint64_t remedy_walks = 0;
  std::uint64_t remedy_steps = 0;
  std::uint64_t topk_queries = 0;
  std::uint64_t topk_certified = 0;
  std::uint64_t topk_refine_edges = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_lane_pushes = 0;
  std::uint64_t batch_shared_pops = 0;
  std::size_t mismatches = 0;  // replays that differ from ResAccSolver
};

// Field-by-field bit equality of two top-k answers.
bool SameTopK(const resacc::TopKResult& a, const resacc::TopKResult& b);

// A certified top-k answer against ground truth (power iteration): every
// entry's bracket contains its true score, and no unlisted node scores above
// the outsider bound.
bool CertificateHolds(const resacc::TopKResult& topk,
                      const std::vector<resacc::Score>& truth);

// RunHHopFwd -> RunOmfwd -> RunRemedy / SolveTopKFromState / RunDenseFinish
// per query, each call a span ("core.hhop", "core.omfwd", ...).
void ReplayKernels(const resacc::Graph& graph, const resacc::RwrConfig& config,
                   const resacc::ResAccOptions& options,
                   std::span<const ReplayQuery> queries, Tracer& tracer,
                   KernelCounters& counters);

// BatchSolver::QueryBatch over chunks of `batch` full-vector sources, each
// call a "core.batch" span, checked against ResAccSolver lane by lane.
void ReplayBatches(const resacc::Graph& graph, const resacc::RwrConfig& config,
                   const resacc::ResAccOptions& options,
                   std::span<const ReplayQuery> queries, std::size_t batch,
                   Tracer& tracer, KernelCounters& counters);

// core.{hhop,omfwd,remedy,topk,batch}.* metrics from the spans and counters.
void AddKernelMetrics(const Tracer& tracer, const KernelCounters& counters,
                      Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_KERNELS_H_
