#ifndef RESACC_WORKLOAD_DRIVER_H_
#define RESACC_WORKLOAD_DRIVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
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

// Folds answers into a WorkloadReport; every front-end counts through it.
// Calls for one tenant must come from one thread at a time; tenants may
// record concurrently.
class WorkloadTally {
 public:
  explicit WorkloadTally(const WorkloadSpec& spec);

  void Sent(const WorkloadOp& op);
  // kOk counts as ok, with its flags and latency; kResourceExhausted as
  // rejected; kDeadlineExceeded as deadline_exceeded; any other code as an
  // error. A top-k answer is certified when its `top` carries at least the
  // k the op asked for; OK queries neither hit nor coalesced are
  // computed_ok.
  void Record(const WorkloadOp& op, const QueryResponse& answer);

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

// How a WorkloadDriver issues an op and learns its answer: ServiceTransport
// (below) in process, PipeTransport (protocol_client.h) over resacc_serve's
// line protocol.
class WorkloadTransport {
 public:
  WorkloadTransport() = default;
  virtual ~WorkloadTransport() = default;
  WorkloadTransport(const WorkloadTransport&) = delete;
  WorkloadTransport& operator=(const WorkloadTransport&) = delete;

  // Issues `op`, billed to `tenant`. The future always resolves: with the
  // answer's status, flags, top-k entries and latency. Called from every
  // tenant's thread at once.
  virtual std::future<QueryResponse> Submit(const WorkloadOp& op,
                                            const std::string& tenant) = 0;

  // OK while ops can still be carried; otherwise why not (the server
  // closed). Tenants stop issuing once it is not OK.
  virtual Status status() const { return Status::Ok(); }
};

// In process: queries go to QueryService::Submit. A mutation edits `view`
// and re-points the service at the fresh snapshot, as resacc_serve's
// mutation verbs do, and answers at once; a validated no-op (adding an
// edge already there, removing one already gone) is OK, like the server's
// `applied=0`. Without a view a mutation answers kFailedPrecondition.
class ServiceTransport : public WorkloadTransport {
 public:
  // `service` must outlive the transport; `view`, when given, must be the
  // view whose snapshots `service` serves.
  ServiceTransport(QueryService* service, MutableGraphView* view);

  std::future<QueryResponse> Submit(const WorkloadOp& op,
                                    const std::string& tenant) override;

 private:
  QueryService* const service_;
  MutableGraphView* const view_;
};

// Replays a spec through a transport, one thread per tenant. An open-loop
// tenant (rate > 0) issues op i at start + i / rate, whatever is still
// outstanding; a closed-loop tenant keeps `concurrency` ops, mutations
// included, outstanding. Each tenant settles its answers in the order it
// issued the ops.
class WorkloadDriver {
 public:
  // `transport` must outlive the driver; op sources are drawn from
  // [0, num_nodes).
  WorkloadDriver(const WorkloadSpec& spec, WorkloadTransport* transport,
                 NodeId num_nodes);

  // Runs the spec to completion (duration_seconds of wall time, or until
  // the transport fails, then drains outstanding ops) and returns the
  // measurements. Call once.
  WorkloadReport Run();

 private:
  void TenantLoop(std::size_t tenant_index);

  const WorkloadSpec spec_;
  WorkloadTransport* const transport_;
  const NodeId num_nodes_;
  WorkloadTally tally_;
};

}  // namespace resacc

#endif  // RESACC_WORKLOAD_DRIVER_H_
