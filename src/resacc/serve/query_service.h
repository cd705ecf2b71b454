#ifndef RESACC_SERVE_QUERY_SERVICE_H_
#define RESACC_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resacc/core/resacc_solver.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph.h"
#include "resacc/serve/result_cache.h"
#include "resacc/serve/server_stats.h"
#include "resacc/util/fair_queue.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/histogram.h"
#include "resacc/util/status.h"
#include "resacc/util/thread_pool.h"
#include "resacc/util/timer.h"
#include "resacc/util/types.h"

namespace resacc {

// Configuration of a QueryService instance.
struct ServeOptions {
  // Worker threads, each owning a private solver instance (the
  // parallel_msrwr pattern: solvers keep per-query workspaces and are not
  // thread-safe). 0 means ThreadPool::DefaultThreads().
  std::size_t num_workers = 0;

  // Capacity of the submission queue. A Submit that finds the queue full
  // fails fast with kResourceExhausted — backpressure is explicit, never a
  // silent drop or an unbounded buffer. With tenants configured (below)
  // the capacity applies per tenant lane, so one tenant's backlog never
  // consumes another's admission budget.
  std::size_t queue_capacity = 1024;

  // Multi-tenant QoS: named tenants with scheduling weights. When
  // non-empty, the submission queue becomes a weighted fair queue
  // (util/fair_queue.h): each tenant gets its own bounded lane, workers
  // dequeue in start-time-fair order, and under saturation tenant i's
  // share of solver time is weight_i / sum(weights) — a weight-4 tenant
  // sustains 4x a weight-1 tenant's throughput instead of whoever bursts
  // hardest winning. Requests whose QueryRequest::tenant is empty or
  // unknown ride an implicit "default" lane of weight 1. Each tenant
  // (including default) also gets labeled series on the registry:
  // `<prefix>_tenant_{submitted,completed,rejected}_total{tenant="x"}`
  // and `<prefix>_tenant_latency_seconds{tenant="x"}`. Names must be
  // unique and weights positive. Empty (the default) keeps the single
  // FIFO lane and registers no tenant series.
  std::vector<std::pair<std::string, double>> tenant_weights;

  // Byte budget of the result cache (score payload bytes); 0 disables
  // caching.
  std::size_t cache_bytes = static_cast<std::size_t>(64) << 20;

  // Single-flight: concurrent requests for a source already queued or
  // computing attach to that computation instead of enqueuing a duplicate.
  bool coalesce = true;

  // Gathering: a worker that dequeues a job keeps gathering queued jobs —
  // up to `max_batch`, lingering at most `batch_linger_us` microseconds
  // for stragglers once the queue runs dry — then runs them one after
  // another on its own solver, each with its own token, answering each job
  // as soon as its solve ends. A gather of N is N serial solves, so every
  // answer is bit-identical to a lone query's; gathering shapes queueing
  // and latency, never answers. 1 (the default) disables it. Nothing is
  // shared between the solves, so gathering gains no throughput: on
  // perfbench's push-batch, 16 gave the qps of 1 and a worse p95. It
  // stays while that workload and `resacc_serve --max-batch` set it
  // (ROADMAP item 1).
  std::size_t max_batch = 1;
  std::uint64_t batch_linger_us = 0;

  // Deadline applied to requests that do not set one; 0 means none. The
  // deadline is enforced end-to-end: a request whose deadline passes while
  // queued (or behind earlier jobs of its gather) completes with
  // kDeadlineExceeded without a solve, and one that expires mid-compute
  // stops the solver cooperatively at the next phase/block boundary
  // (util/cancellation.h) instead of blocking its worker for the full
  // solve.
  double default_deadline_seconds = 0.0;

  // Age at which a cached result counts as stale; 0 (default) means
  // entries never go stale. Fresh-enough entries are always served; stale
  // ones are recomputed — except under overload: while the submission
  // queue is at or past 3/4 of its capacity, a stale entry is served
  // (tagged QueryResponse::stale) instead of deepening the backlog.
  double cache_ttl_seconds = 0.0;

  // Solver knobs shared by every worker.
  ResAccOptions solver;

  // Optional solver factory for serving a non-ResAcc backend. Invoked
  // with the graph snapshot the solver must answer against — again after
  // every UpdateGraph, since workers rebuild their solver when the graph
  // changes. Every instance must be deterministic per source and
  // configured identically, or caching/coalescing would conflate
  // different answers; set cache_tag to a value identifying the backend +
  // its configuration.
  std::function<std::unique_ptr<SsrwrAlgorithm>(const Graph&)> solver_factory;
  std::uint64_t cache_tag = 0;

  // Cache policy applied by UpdateGraph when the graph content changes.
  //   kTargeted: per-entry influence bound (dynamic/invalidation.h) —
  //     entries whose cached walk mass never touches the mutated rows are
  //     promoted to the new epoch; the rest are dropped.
  //   kFlushAll: drop every entry of the old epoch (the baseline
  //     bench_micro's dynamic section compares against).
  enum class InvalidationMode { kTargeted, kFlushAll };
  InvalidationMode invalidation = InvalidationMode::kTargeted;
  // Drift budget for promotion, as a fraction of epsilon * delta: an
  // entry survives while its cumulative L1 perturbation bound stays under
  // invalidation_slack * epsilon * delta, i.e. every score above the
  // paper's delta threshold still meets a (1 + slack) * epsilon relative
  // bound (docs/API.md "Dynamic graphs: mutations and invalidation").
  double invalidation_slack = 0.5;

  // Observability/test hook, invoked on the worker thread right after a
  // job is dequeued (before the deadline check and the solver call).
  std::function<void(NodeId)> dequeue_hook;

  // Registry the service's metrics live in. Null (the default) gives the
  // service a private registry, so counts are exactly this instance's —
  // what the unit tests assert against. Pass &MetricsRegistry::Global()
  // (as resacc_serve does) to expose the service alongside the solver and
  // walk-engine series in one scrape. Two services sharing one registry
  // must use distinct prefixes, or their series collide.
  MetricsRegistry* metrics_registry = nullptr;

  // Prefix of every metric this service registers, e.g.
  // `resacc_serve_completed_total`.
  std::string metrics_prefix = "resacc_serve";
};

struct QueryRequest {
  NodeId source = 0;
  // 0 requests the full score vector. k > 0 selects top-k mode: the
  // response carries the k best entries with per-entry bound certificates
  // (QueryResponse::topk, mirrored into ::top) and `scores` stays null —
  // the solver terminates early on a separation certificate instead of
  // materializing the n-vector (docs/QUERY_MODES.md "Top-k").
  std::size_t top_k = 0;
  // Relative deadline from submission; 0 falls back to the service
  // default. Coalesced requests share the leader's deadline.
  double deadline_seconds = 0.0;
  // Nonzero registers the request for Cancel(request_id). Ids are chosen
  // by the caller and must be unique among in-flight requests (a reused id
  // simply re-points the registration). Requests answered synchronously
  // (cache hit, rejection) are never registered — there is nothing left
  // to cancel.
  std::uint64_t request_id = 0;
  // Accept a partial result instead of an error when the deadline fires
  // mid-compute: the response comes back status-OK with `degraded` set and
  // `achieved_epsilon` reporting the honest (weaker) accuracy bound.
  bool allow_degraded = false;
  // Tenant this request bills to (ServeOptions::tenant_weights): selects
  // its fair-queue lane and metric labels. Empty or unknown names map to
  // the default lane. Ignored when no tenants are configured.
  std::string tenant{};
};

struct QueryResponse {
  Status status;
  // Full RWR vector, shared with the cache (immutable; eviction never
  // invalidates it). Null unless status.ok() — and null in top-k mode,
  // where `topk` is the payload.
  std::shared_ptr<const std::vector<Score>> scores;
  // Top-k mode payload: entries with bound certificates, shared with the
  // cache. May carry MORE than top_k entries when the request coalesced
  // onto (or hit) a wider stored top-k' whose k-prefix alone does not
  // separate (topk->k says how many; the set is still certified/bounded
  // as documented on TopKResult).
  std::shared_ptr<const TopKResult> topk;
  // Convenience (node, estimate) pairs, descending; filled in top-k mode.
  std::vector<std::pair<NodeId, Score>> top;

  bool cache_hit = false;
  bool coalesced = false;
  // Submit-to-completion wall seconds as observed by this client.
  double latency_seconds = 0.0;

  // Set on OK responses whose computation was truncated (deadline with
  // allow_degraded, or a solver-level time budget): `scores` misses
  // `uncorrected_mass` of probability mass and satisfies the weaker bound
  // `achieved_epsilon` instead of the configured epsilon. Degraded
  // results are never cached — only full-accuracy vectors enter the
  // cache. achieved_epsilon is also filled on complete responses, cache
  // hits included (then it equals the configured epsilon; a computed
  // answer from a backend that predates the contract reports 0).
  bool degraded = false;
  double achieved_epsilon = 0.0;
  Score uncorrected_mass = 0.0;
  // Served from a cache entry older than cache_ttl_seconds because the
  // queue was past the overload high-water mark.
  bool stale = false;
  // The latency split: seconds the job waited for a worker vs. seconds
  // inside the solver. Zero for cache hits (neither happened) and for
  // coalesced followers (they share the leader's job).
  double queue_wait_seconds = 0.0;
  double compute_seconds = 0.0;
};

// Long-lived, thread-safe serving front-end over the index-free solver —
// the property that makes serving attractive here: there is no index to
// rebuild, so a service is just workers + graph, ready at construction.
//
// Lifecycle: construct (spins up workers) -> Submit/Query from any number
// of client threads -> Stop (drains the queue, joins workers; also run by
// the destructor). After Stop, Submit fails with kFailedPrecondition.
//
// Determinism: workers run identically-configured solvers whose randomness
// is forked per source (resacc_solver.cc), so a response is bit-identical
// to a fresh single-threaded ResAccSolver::Query with the same config —
// regardless of which worker ran it, of interleaving, and of whether it
// was served from the cache or a coalesced computation. The walk engine is
// itself bit-identical for every options.solver.walk_threads value
// (walk_engine.h), so that knob may differ between service and reference
// without breaking the equality — but leave it at 1 here: the service
// already runs one solver per worker, and nesting walk parallelism inside
// worker parallelism oversubscribes the machine without helping latency.
class QueryService {
 public:
  QueryService(const Graph& graph, const RwrConfig& config,
               const ServeOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Non-blocking submission. The returned future always becomes ready:
  // with scores, or with a non-OK status (kResourceExhausted on queue
  // overflow, kDeadlineExceeded on expiry, kCancelled via Cancel(),
  // kInvalidArgument, kFailedPrecondition after Stop).
  std::future<QueryResponse> Submit(const QueryRequest& request);

  // Blocking convenience wrapper around Submit.
  QueryResponse Query(const QueryRequest& request);

  // Cancels the in-flight request registered under `request_id` (see
  // QueryRequest::request_id): its future resolves promptly with
  // kCancelled. Only that caller is affected — a coalesced computation
  // keeps running for its other waiters and is itself cancelled
  // (cooperatively, at the next phase/block boundary) only when its last
  // waiter leaves. Returns false when the id is unknown — never submitted,
  // already completed, or already cancelled.
  bool Cancel(std::uint64_t request_id);

  // Point-in-time view of the service assembled from the metrics registry
  // — the registry is the single source of truth; this struct is a
  // convenience projection of it (server_stats.h renders it for humans).
  ServerStats Snapshot() const;

  // The registry holding this service's series (owned or shared per
  // ServeOptions::metrics_registry). Scrape with RenderPrometheus().
  MetricsRegistry& metrics() const { return registry_; }

  // Drains queued work, stops the workers. Idempotent, thread-safe.
  void Stop();

  // Dynamic graphs: points the service at a new graph version.
  // `snapshot` must be self-contained (MutableGraphView::Snapshot() —
  // it keeps its base alive); `delta` is what changed since the previous
  // call, with delta.epoch the snapshot's content epoch.
  //
  // Three situations, distinguished by the delta:
  //   * content changed (delta non-empty): workers rebuild their solver
  //     before their next job, and the cache runs the epoch transition —
  //     targeted promotion or full flush per ServeOptions::invalidation.
  //     In-flight jobs that already started keep computing against their
  //     pinned older snapshot and insert under the OLD epoch, where new
  //     lookups (which use the new epoch) can no longer see them, and
  //     Submit refuses to coalesce new requests onto them (Job::
  //     compute_epoch): a mutation can never cause a stale answer, only
  //     a wasted compute.
  //   * compaction swap (delta empty, epoch unchanged): workers re-point
  //     to the folded base; the cache is untouched — the content is
  //     identical, so every entry stays valid.
  //   * AddNode (delta.nodes_added): score-vector lengths change; every
  //     old-epoch entry is dropped regardless of mode.
  void UpdateGraph(Graph snapshot, const GraphDelta& delta);

  std::size_t num_workers() const { return solvers_.size(); }
  // The graph version the service currently answers against (pinned; safe
  // to use after further UpdateGraph calls) and its content epoch.
  Graph graph() const;
  std::uint64_t graph_epoch() const;
  const RwrConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One graph version. Workers pin the state their solver was built
  // against; UpdateGraph publishes a new one.
  struct GraphState {
    Graph graph;
    std::uint64_t epoch = 0;
    GraphState(Graph g, std::uint64_t e) : graph(std::move(g)), epoch(e) {}
  };

  struct Waiter {
    std::promise<QueryResponse> promise;
    std::size_t top_k = 0;
    Clock::time_point submit_time;
    bool coalesced = false;
    std::uint64_t request_id = 0;
    bool allow_degraded = false;
    // Fair-queue lane / tenant the waiter bills to. A waiter coalesced
    // onto another tenant's job still carries its own lane, so tenant
    // metrics attribute by requester, not by whichever job computed.
    std::size_t lane = 0;
  };

  // One scheduled computation; coalesced requests append Waiters. The
  // token carries the job's deadline into the solver and is tripped by
  // Cancel() once no waiter remains.
  struct Job {
    // compute_epoch value while the job is still queued: no worker has
    // pinned a graph state for it yet, so it will compute against the
    // newest state at dequeue time.
    static constexpr std::uint64_t kEpochUnset = ~std::uint64_t{0};

    NodeId source = 0;
    // 0 = full-vector job; > 0 = top-k job producing a TopKResult with
    // that k. Submit only coalesces shape-compatible requests (full onto
    // full; top-k onto full or onto top-k' with k' >= k).
    std::size_t top_k = 0;
    CancellationToken token;
    Clock::time_point enqueue_time;
    std::vector<Waiter> waiters;
    // Epoch of the graph state the worker pinned for this job, stamped at
    // dequeue. Submit refuses to coalesce onto a job already computing
    // against an older epoch than the current one — otherwise a request
    // arriving after UpdateGraph could be answered with pre-mutation
    // scores (the one path where coalescing could serve a stale answer).
    std::atomic<std::uint64_t> compute_epoch{kEpochUnset};
  };

  // What the worker (or the queued-expiry path) hands to FinalizeJob: the
  // solver outcome plus the latency split.
  struct Completion {
    Status status;
    // Exactly one is set on a successful compute: `scores` for full jobs,
    // `topk` for top-k jobs (a waiter coalesced across shapes is bridged
    // in MakeResponse).
    std::shared_ptr<const std::vector<Score>> scores;
    std::shared_ptr<const TopKResult> topk;
    bool degraded = false;
    double achieved_epsilon = 0.0;
    Score uncorrected_mass = 0.0;
    double queue_wait_seconds = 0.0;
    double compute_seconds = 0.0;
  };

  // Lane index for a request's tenant name: configured tenants in
  // declaration order, then the implicit default lane (also the answer
  // for empty/unknown names). Always 0 when no tenants are configured.
  std::size_t LaneFor(const std::string& tenant) const;

  std::shared_ptr<const GraphState> CurrentState() const;
  // Builds a worker's solver against `state` (factory or ResAccSolver).
  std::unique_ptr<SsrwrAlgorithm> MakeSolver(const GraphState& state) const;

  void WorkerLoop(std::size_t worker_index);
  // Solves `job` on worker `worker_index`'s solver and finalizes it;
  // `epoch` is the pinned graph epoch cache inserts go under, `gathered`
  // whether the job came in a gather of two or more. A job that stopped
  // (deadline or Cancel) before its solve is finalized with the error
  // instead, without a solve.
  void RunJob(std::size_t worker_index, const std::shared_ptr<Job>& job,
              std::uint64_t epoch, bool gathered);
  // Publishes the completion to every remaining waiter and retires the job
  // from the in-flight and request-id tables. Waiters that set
  // allow_degraded receive a deadline-truncated partial result as OK +
  // degraded; the rest receive the bare error.
  void FinalizeJob(const std::shared_ptr<Job>& job,
                   const Completion& completion);
  QueryResponse MakeResponse(const Completion& completion,
                             const Waiter& waiter) const;

  const RwrConfig config_;
  const ServeOptions options_;
  const std::uint64_t config_hash_;

  // Current graph version; swapped whole by UpdateGraph under mutex_.
  // Workers pin the state each solver was built against, so a swap never
  // pulls the graph out from under a running solve.
  std::shared_ptr<const GraphState> graph_state_;

  // Worker-private solvers; slot i is rebuilt by worker i when it
  // observes a newer graph state (worker_states_[i] tracks which state
  // slot i's solver answers against).
  std::vector<std::unique_ptr<SsrwrAlgorithm>> solvers_;
  std::vector<std::shared_ptr<const GraphState>> worker_states_;
  // Per-tenant lanes with weighted fair service; one weight-1 lane when
  // no tenants are configured (then it is exactly the old FIFO queue).
  WeightedFairQueue<std::shared_ptr<Job>> queue_;
  ResultCache cache_;
  std::unique_ptr<ThreadPool> pool_;

  // Guards inflight_; never held during a solver call. stopped_ is also
  // only written under it, but read lock-free for the Submit fast path.
  mutable std::mutex mutex_;
  std::unordered_map<NodeId, std::shared_ptr<Job>> inflight_;
  // request_id -> the job carrying that waiter, maintained for Cancel();
  // entries are erased when the job finalizes or the waiter is cancelled.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> by_request_id_;
  std::atomic<bool> stopped_{false};

  Timer uptime_;

  // Service metrics, owned by the registry (ServerStats is a view of
  // these, not a parallel set of counters). Declared after registry_ —
  // the references are bound from it in the constructor init list.
  std::unique_ptr<MetricsRegistry> owned_registry_;  // null when shared
  MetricsRegistry& registry_;
  Counter& submitted_;
  Counter& completed_;
  Counter& rejected_;
  Counter& expired_;
  Counter& coalesced_;
  Counter& computed_;
  Counter& degraded_;
  Counter& cancelled_;
  Counter& stale_served_;
  Counter& invalidated_;
  Counter& cache_kept_;
  Counter& batched_queries_;
  Counter& topk_queries_;
  LatencyHistogram& latency_;
  LatencyHistogram& queue_wait_;
  LatencyHistogram& compute_hist_;
  // Gather sizes recorded as plain numbers (jobs per gather); the mean is
  // exact and the quantiles bucket-resolution (~8%), which is enough to
  // see whether gathers are forming.
  LatencyHistogram& batch_size_;
  // Per-tenant labeled series, indexed by lane; empty when no tenants are
  // configured. The last lane is the implicit default tenant.
  struct TenantMetrics {
    Counter* submitted = nullptr;
    Counter* completed = nullptr;
    Counter* rejected = nullptr;
    LatencyHistogram* latency = nullptr;
  };
  std::vector<std::string> tenant_names_;  // lane -> name ("" pre-tenants)
  std::vector<TenantMetrics> tenant_metrics_;
  // Callback series (cache/queue/uptime gauges) to unregister before the
  // state they borrow dies.
  std::vector<std::uint64_t> callback_ids_;
};

}  // namespace resacc

#endif  // RESACC_SERVE_QUERY_SERVICE_H_
