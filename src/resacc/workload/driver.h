#ifndef RESACC_WORKLOAD_DRIVER_H_
#define RESACC_WORKLOAD_DRIVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/histogram.h"
#include "resacc/util/status.h"
#include "resacc/workload/op_stream.h"
#include "resacc/workload/workload_spec.h"

namespace resacc {

// Outcome tallies for one (tenant, class) cell — or a per-class aggregate
// across tenants. Counts partition `sent`; the flag counts (degraded,
// stale, cache_hits, certified) annotate the `ok` subset.
struct OpStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;           // kResourceExhausted (backpressure)
  std::uint64_t deadline_exceeded = 0;  // kDeadlineExceeded
  std::uint64_t errors = 0;             // anything else non-OK
  std::uint64_t degraded = 0;
  std::uint64_t stale = 0;
  std::uint64_t cache_hits = 0;
  // Top-k responses whose payload covers the requested k (certified
  // prefix or the documented wider certified set).
  std::uint64_t certified = 0;
  LatencyHistogram::Snapshot latency;

  // Adds `other`'s counts; latency is left as it is.
  OpStats& operator+=(const OpStats& other);
};

// What one driver run measured. ToJson renders the BENCH_workload.json
// document; CheckBounds (below) gates it against a committed baseline.
struct WorkloadReport {
  std::string spec_origin;
  double wall_seconds = 0.0;
  std::uint64_t seed = 0;
  std::vector<std::string> tenant_names;
  // [tenant][class] cells and per-class aggregates across tenants.
  std::vector<std::array<OpStats, kNumOpClasses>> tenants;
  std::array<OpStats, kNumOpClasses> classes;
  // Per tenant: OK query completions that actually consumed a worker
  // (excludes cache hits and coalesced followers, which bypass the fair
  // queue) — the number weighted-fair-queueing shares are measured on.
  std::vector<std::uint64_t> computed_ok;

  std::string ToJson() const;

  // Aggregate convenience counts over `classes`.
  std::uint64_t TotalSent() const;
  std::uint64_t TotalOk() const;
  std::uint64_t TotalErrors() const;  // errors only; not rejected/deadline
};

// Gates a report against the line-oriented bounds format of
// bench/workload/baseline.bounds (docs/WORKLOADS.md "Updating the
// baseline"):
//   max_error_rate <v>                   errors / sent, over all ops
//   min_ok_total <n>
//   min_ok_per_tenant <n>
//   min_qps <v>                          TotalOk / wall_seconds
//   max_p99_ms <class> <v>               per-class aggregate p99
//   max_p999_ms <class> <v>
//   min_certified_rate <v>               certified / ok over topk class
//   min_fairness_ratio <heavy> <light> <v>   computed_ok ratio of the two
// Unknown keys and malformed lines are kInvalidArgument ("line N: ...").
// Violations are collected — the status message lists every failed bound,
// not just the first.
Status CheckBounds(const WorkloadReport& report, const std::string& text,
                   const std::string& origin = "<bounds>");
Status CheckBoundsFile(const WorkloadReport& report, const std::string& path);

// One op's outcome as a driver saw it, in-process or through the pipe.
struct OpOutcome {
  StatusCode code = StatusCode::kOk;
  bool cache_hit = false;
  bool coalesced = false;
  bool degraded = false;
  bool stale = false;
  std::size_t entries = 0;  // top-k entries the answer carried
  double latency_seconds = 0.0;
};

// Folds op outcomes into a WorkloadReport; the in-process driver and
// RunProtocolWorkload both count through it. Calls for one tenant must
// come from one thread at a time; tenants may record concurrently.
class WorkloadTally {
 public:
  explicit WorkloadTally(const WorkloadSpec& spec);

  void Sent(const WorkloadOp& op);
  // kOk counts as ok, with its flags and latency; kResourceExhausted as
  // rejected; kDeadlineExceeded as deadline_exceeded; any other code as an
  // error. A top-k answer is certified when it carries at least the k the
  // op asked for; OK queries neither hit nor coalesced are computed_ok.
  void Record(const WorkloadOp& op, const OpOutcome& outcome);

  // Everything tallied so far; spec_origin is left empty.
  WorkloadReport Report(double wall_seconds) const;

 private:
  struct Cell {
    OpStats counts;  // latency comes from the histogram at Report time
    LatencyHistogram latency;  // atomic
  };

  std::uint64_t seed_;
  std::vector<std::string> tenant_names_;
  // [tenant][class]; unique_ptr array because Cell's histogram holds
  // atomics and cannot be moved, which std::vector would require.
  std::unique_ptr<std::array<Cell, kNumOpClasses>[]> cells_;
  // Shared by all tenants' recorders; records are atomic.
  std::array<LatencyHistogram, kNumOpClasses> class_latency_;
  std::vector<std::uint64_t> computed_ok_;  // per tenant
};

// Multi-tenant closed+open-loop driver over an in-process QueryService.
// One thread per tenant: open-loop tenants (rate > 0) pace submissions on
// the wall clock and park futures; closed-loop tenants keep `concurrency`
// ops in flight. Mutation ops go through the MutableGraphView (when one
// is provided) and re-point the service at the fresh snapshot, exactly as
// resacc_serve's mutation verbs do; without a view they are skipped and
// counted as errors=0/sent=0 so query-only harnesses can run the same
// spec.
class WorkloadDriver {
 public:
  // `service` must outlive the driver. `view` may be null (no mutations)
  // but must be the view whose snapshots `service` serves when given.
  WorkloadDriver(const WorkloadSpec& spec, QueryService* service,
                 MutableGraphView* view);

  // Runs the spec to completion (duration_seconds of wall time, then
  // drains in-flight ops) and returns the measurements. Call once.
  WorkloadReport Run();

 private:
  void TenantLoop(std::size_t tenant_index);
  void ApplyMutation(const WorkloadOp& op);

  const WorkloadSpec spec_;
  QueryService* const service_;
  MutableGraphView* const view_;
  NodeId num_nodes_;
  WorkloadTally tally_;
};

}  // namespace resacc

#endif  // RESACC_WORKLOAD_DRIVER_H_
