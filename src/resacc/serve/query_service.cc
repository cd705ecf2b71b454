#include "resacc/serve/query_service.h"

#include <algorithm>
#include <thread>

#include "resacc/graph/dynamic/invalidation.h"
#include "resacc/util/check.h"
#include "resacc/util/fault_injection.h"
#include "resacc/util/top_k.h"

namespace resacc {
namespace {

constexpr std::size_t kCacheShards = 8;
// Admission control: a stale cache entry is served, not recomputed, while
// the submission queue is at or past this fraction of its capacity.
constexpr double kOverloadHighWater = 0.75;

std::future<QueryResponse> ReadyResponse(QueryResponse response) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Fair-queue lane weights: configured tenants in order plus the implicit
// default lane. Empty when no tenants are configured — the queue then
// builds its single weight-1 FIFO lane.
std::vector<double> LaneWeights(const ServeOptions& options) {
  std::vector<double> weights;
  if (!options.tenant_weights.empty()) {
    weights.reserve(options.tenant_weights.size() + 1);
    for (const auto& [name, weight] : options.tenant_weights) {
      (void)name;
      weights.push_back(weight);
    }
    weights.push_back(1.0);  // default lane for unknown/empty tenants
  }
  return weights;
}

}  // namespace

QueryService::QueryService(const Graph& graph, const RwrConfig& config,
                           const ServeOptions& options)
    : config_(config),
      options_(options),
      config_hash_(HashQueryConfig(config, options.solver) ^
                   options.cache_tag),
      // The initial state is a shallow view: the caller's graph must stay
      // alive while the service runs (the same contract the old const
      // Graph& member had). UpdateGraph replaces it with self-contained
      // snapshots.
      graph_state_(
          std::make_shared<const GraphState>(graph.ShallowView(), 0)),
      queue_(std::max<std::size_t>(options.queue_capacity, 1),
             LaneWeights(options)),
      cache_(options.cache_bytes, kCacheShards),
      owned_registry_(options.metrics_registry
                          ? nullptr
                          : std::make_unique<MetricsRegistry>()),
      registry_(options.metrics_registry ? *options.metrics_registry
                                         : *owned_registry_),
      submitted_(registry_.GetCounter(
          options_.metrics_prefix + "_submitted_total", "",
          "Requests accepted (cache hits and coalesced included).")),
      completed_(registry_.GetCounter(
          options_.metrics_prefix + "_completed_total", "",
          "Requests answered OK (any path: cache, coalesce, compute).")),
      rejected_(registry_.GetCounter(
          options_.metrics_prefix + "_rejected_total", "",
          "Requests refused with kResourceExhausted (queue full).")),
      expired_(registry_.GetCounter(
          options_.metrics_prefix + "_expired_total", "",
          "Requests expired with kDeadlineExceeded (queued or "
          "mid-compute, without allow_degraded).")),
      coalesced_(registry_.GetCounter(
          options_.metrics_prefix + "_coalesced_total", "",
          "Requests attached to an in-flight computation.")),
      computed_(registry_.GetCounter(
          options_.metrics_prefix + "_computed_total", "",
          "Solver runs (cache/coalesce suppress these).")),
      degraded_(registry_.GetCounter(
          options_.metrics_prefix + "_degraded_total", "",
          "Requests answered OK with a truncated result whose "
          "achieved epsilon is above the configured bound.")),
      cancelled_(registry_.GetCounter(
          options_.metrics_prefix + "_cancelled_total", "",
          "Requests resolved with kCancelled via Cancel(request_id).")),
      stale_served_(registry_.GetCounter(
          options_.metrics_prefix + "_stale_served_total", "",
          "Stale cache entries served because the queue was past the "
          "overload high-water mark.")),
      invalidated_(registry_.GetCounter(
          options_.metrics_prefix + "_invalidated_total", "",
          "Cache entries dropped by graph-mutation epoch transitions.")),
      cache_kept_(registry_.GetCounter(
          options_.metrics_prefix + "_cache_kept_total", "",
          "Cache entries promoted across a graph-mutation epoch "
          "transition (influence bound within the drift budget).")),
      batched_queries_(registry_.GetCounter(
          options_.metrics_prefix + "_batched_queries_total", "",
          "Queries computed in gathers of >= 2 jobs.")),
      topk_queries_(registry_.GetCounter(
          options_.metrics_prefix + "_topk_queries_total", "",
          "Requests accepted in top-k mode (top_k > 0), any path.")),
      latency_(registry_.GetHistogram(
          options_.metrics_prefix + "_latency_seconds", "",
          "Submit-to-completion latency of OK responses.")),
      queue_wait_(registry_.GetHistogram(
          options_.metrics_prefix + "_queue_wait_seconds", "",
          "Time a job waited until its solve began (or it was dropped), "
          "behind earlier jobs of its gather included.")),
      compute_hist_(registry_.GetHistogram(
          options_.metrics_prefix + "_compute_seconds", "",
          "Time a job spent inside the solver.")),
      batch_size_(registry_.GetHistogram(
          options_.metrics_prefix + "_batch_size", "",
          "Jobs per gather on workers with max_batch > 1.")) {
  const std::string& prefix = options_.metrics_prefix;
  auto add_callback = [this](MetricKind kind, const std::string& name,
                             const std::string& help,
                             std::function<double()> fn) {
    callback_ids_.push_back(
        registry_.RegisterCallback(kind, name, "", help, std::move(fn)));
  };
  add_callback(MetricKind::kCounter, prefix + "_cache_hits_total",
               "Result-cache hits.",
               [this] { return static_cast<double>(cache_.counters().hits); });
  add_callback(
      MetricKind::kCounter, prefix + "_cache_misses_total",
      "Result-cache misses.",
      [this] { return static_cast<double>(cache_.counters().misses); });
  add_callback(
      MetricKind::kCounter, prefix + "_cache_evictions_total",
      "Result-cache evictions.",
      [this] { return static_cast<double>(cache_.counters().evictions); });
  add_callback(
      MetricKind::kGauge, prefix + "_cache_bytes",
      "Result-cache resident payload bytes.",
      [this] { return static_cast<double>(cache_.counters().bytes); });
  add_callback(
      MetricKind::kGauge, prefix + "_cache_entries",
      "Result-cache resident entries.",
      [this] { return static_cast<double>(cache_.counters().entries); });
  add_callback(MetricKind::kGauge, prefix + "_queue_depth",
               "Jobs waiting in the submission queue.",
               [this] { return static_cast<double>(queue_.size()); });
  add_callback(MetricKind::kGauge, prefix + "_queue_capacity",
               "Submission queue capacity.",
               [this] { return static_cast<double>(queue_.capacity()); });
  add_callback(MetricKind::kGauge, prefix + "_workers", "Worker threads.",
               [this] { return static_cast<double>(solvers_.size()); });
  add_callback(MetricKind::kGauge, prefix + "_uptime_seconds",
               "Seconds since service construction.",
               [this] { return uptime_.ElapsedSeconds(); });
  add_callback(MetricKind::kGauge, prefix + "_graph_epoch",
               "Content epoch of the graph version being served.",
               [this] { return static_cast<double>(graph_epoch()); });

  // Per-tenant labeled series, one set per lane (configured tenants plus
  // the implicit default). Registered eagerly so a scrape shows every
  // tenant from the start, zeroes included.
  if (!options_.tenant_weights.empty()) {
    tenant_names_.reserve(options_.tenant_weights.size() + 1);
    for (const auto& [name, weight] : options_.tenant_weights) {
      RESACC_CHECK(weight > 0.0);
      RESACC_CHECK(!name.empty() && name != "default");
      for (const std::string& seen : tenant_names_) {
        RESACC_CHECK(seen != name);  // duplicate tenant
      }
      tenant_names_.push_back(name);
    }
    tenant_names_.push_back("default");
    tenant_metrics_.reserve(tenant_names_.size());
    for (const std::string& name : tenant_names_) {
      const std::string label = "tenant=\"" + name + "\"";
      TenantMetrics tm;
      tm.submitted = &registry_.GetCounter(
          prefix + "_tenant_submitted_total", label,
          "Requests accepted, by tenant (cache hits and coalesced "
          "included).");
      tm.completed = &registry_.GetCounter(
          prefix + "_tenant_completed_total", label,
          "Requests answered OK, by tenant (any path).");
      tm.rejected = &registry_.GetCounter(
          prefix + "_tenant_rejected_total", label,
          "Requests refused with kResourceExhausted because the tenant's "
          "fair-queue lane was full.");
      tm.latency = &registry_.GetHistogram(
          prefix + "_tenant_latency_seconds", label,
          "Submit-to-completion latency of OK responses, by tenant.");
      tenant_metrics_.push_back(tm);
    }
  }

  const std::size_t workers = options.num_workers > 0
                                  ? options.num_workers
                                  : ThreadPool::DefaultThreads();
  solvers_.reserve(workers);
  worker_states_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    solvers_.push_back(MakeSolver(*graph_state_));
    RESACC_CHECK(solvers_.back() != nullptr);
    worker_states_.push_back(graph_state_);
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    pool_->Submit([this, i] { WorkerLoop(i); });
  }
}

std::unique_ptr<SsrwrAlgorithm> QueryService::MakeSolver(
    const GraphState& state) const {
  if (options_.solver_factory) return options_.solver_factory(state.graph);
  return std::make_unique<ResAccSolver>(state.graph, config_,
                                        options_.solver);
}

std::size_t QueryService::LaneFor(const std::string& tenant) const {
  if (tenant_names_.empty()) return 0;
  if (!tenant.empty()) {
    for (std::size_t i = 0; i + 1 < tenant_names_.size(); ++i) {
      if (tenant_names_[i] == tenant) return i;
    }
  }
  return tenant_names_.size() - 1;  // implicit default lane
}

std::shared_ptr<const QueryService::GraphState> QueryService::CurrentState()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_state_;
}

Graph QueryService::graph() const {
  std::shared_ptr<const GraphState> state = CurrentState();
  return state->graph.ShallowView(
      std::shared_ptr<const void>(state, &state->graph));
}

std::uint64_t QueryService::graph_epoch() const {
  return CurrentState()->epoch;
}

void QueryService::UpdateGraph(Graph snapshot, const GraphDelta& delta) {
  std::uint64_t old_epoch = 0;
  std::uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old_epoch = graph_state_->epoch;
    // A compaction swap (empty delta) changes the physical base but not
    // the content: keep the epoch so cached entries stay addressable.
    new_epoch = delta.empty() ? old_epoch : delta.epoch;
    graph_state_ =
        std::make_shared<const GraphState>(std::move(snapshot), new_epoch);
  }
  if (new_epoch == old_epoch) return;

  const bool flush =
      options_.invalidation == ServeOptions::InvalidationMode::kFlushAll ||
      delta.nodes_added;
  ResultCache::InvalidationStats stats;
  if (flush) {
    stats = cache_.InvalidateEpoch(config_hash_, old_epoch, new_epoch,
                                   /*drift_budget=*/0.0, nullptr,
                                   /*flush_all=*/true);
  } else {
    // The budget keeps every promoted entry's score error under
    // slack * epsilon * delta — scores above the paper's delta threshold
    // still meet a (1 + slack) * epsilon relative bound.
    const double budget =
        options_.invalidation_slack * config_.epsilon * config_.delta;
    GraphDelta batch;
    batch.dirty_out = delta.dirty_out;
    const double alpha = config_.alpha;
    stats = cache_.InvalidateEpoch(
        config_hash_, old_epoch, new_epoch, budget,
        [&batch, alpha](const std::vector<Score>& scores) {
          return MutationInfluence(batch, alpha, scores);
        });
  }
  invalidated_.Increment(stats.dropped);
  cache_kept_.Increment(stats.promoted);
}

QueryService::~QueryService() {
  Stop();
  // The callbacks borrow cache_/queue_/uptime_; detach them before those
  // members die (a no-op consequence for an owned registry, essential for
  // a shared one that outlives this service).
  for (std::uint64_t id : callback_ids_) registry_.UnregisterCallback(id);
}

void QueryService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_.load(std::memory_order_relaxed)) return;
    stopped_.store(true, std::memory_order_relaxed);
  }
  // Close lets the workers drain everything already accepted — queued
  // requests complete normally rather than being dropped — then Pop
  // returns false and the worker loops exit.
  queue_.Close();
  pool_->Wait();
}

QueryResponse QueryService::MakeResponse(const Completion& completion,
                                         const Waiter& waiter) const {
  QueryResponse response;
  response.status = completion.status;
  response.coalesced = waiter.coalesced;
  response.degraded = completion.degraded;
  response.achieved_epsilon = completion.achieved_epsilon;
  response.uncorrected_mass = completion.uncorrected_mass;
  response.queue_wait_seconds = completion.queue_wait_seconds;
  response.compute_seconds = completion.compute_seconds;
  // Graceful degradation: a deadline/cancel that fired mid-compute left a
  // usable partial result (vector or top-k bracket); a waiter that opted
  // in takes it as OK + degraded instead of the error.
  if (!completion.status.ok() &&
      (completion.scores != nullptr || completion.topk != nullptr) &&
      waiter.allow_degraded) {
    response.status = Status::Ok();
    response.degraded = true;
  }
  if (response.status.ok() && completion.topk != nullptr) {
    // Top-k completion (computed, cached, or coalesced onto a top-k job).
    // A narrower waiter gets the k-prefix view when that prefix still
    // separates/brackets on its own; otherwise the wider stored result is
    // handed out as-is (documented on QueryResponse::topk).
    if (waiter.top_k > 0 && waiter.top_k < completion.topk->k &&
        TopKPrefixSatisfies(*completion.topk, waiter.top_k)) {
      response.topk = std::make_shared<const TopKResult>(
          TopKPrefix(*completion.topk, waiter.top_k));
    } else {
      response.topk = completion.topk;
    }
  } else if (response.status.ok() && completion.scores != nullptr) {
    if (waiter.top_k > 0) {
      // Top-k waiter bridged from a full vector (full-entry cache hit or
      // coalesced onto a full job): epsilon-bracketed approximate result.
      const double eps = completion.achieved_epsilon > 0.0
                             ? completion.achieved_epsilon
                             : config_.epsilon;
      auto bridged = std::make_shared<TopKResult>(
          MakeApproximateTopK(*completion.scores, waiter.top_k, eps,
                              response.degraded,
                              completion.uncorrected_mass));
      bridged->status = response.status;
      response.topk = std::move(bridged);
    } else {
      response.scores = completion.scores;
    }
  }
  if (response.topk != nullptr) {
    response.top.reserve(response.topk->entries.size());
    for (const TopKEntry& entry : response.topk->entries) {
      response.top.emplace_back(entry.node, entry.estimate);
    }
  }
  response.latency_seconds = SecondsSince(waiter.submit_time);
  return response;
}

std::future<QueryResponse> QueryService::Submit(const QueryRequest& request) {
  const Clock::time_point t0 = Clock::now();
  const std::size_t lane = LaneFor(request.tenant);
  TenantMetrics* tenant =
      tenant_metrics_.empty() ? nullptr : &tenant_metrics_[lane];

  if (stopped_.load(std::memory_order_relaxed)) {
    QueryResponse response;
    response.status = Status::FailedPrecondition("QueryService is stopped");
    return ReadyResponse(std::move(response));
  }
  const std::shared_ptr<const GraphState> state = CurrentState();
  if (request.source >= state->graph.num_nodes()) {
    QueryResponse response;
    response.status = Status::InvalidArgument("source out of range");
    return ReadyResponse(std::move(response));
  }

  // The lookup is pinned to the current content epoch: after a mutation
  // batch, entries not promoted by UpdateGraph are unreachable here.
  // Top-k probes additionally hit a stored top-k' payload whose prefix
  // satisfies k (result_cache.h LookupTopK).
  const CacheKey key{config_hash_, request.source, state->epoch};
  ResultCache::AgedTopK hit;
  if (request.top_k > 0) {
    hit = cache_.LookupTopK(key, request.top_k);
  } else {
    const ResultCache::AgedValue full = cache_.LookupWithAge(key);
    hit.scores = full.value;
    hit.age_seconds = full.age_seconds;
  }
  if (hit.scores != nullptr || hit.topk != nullptr) {
    const bool fresh = options_.cache_ttl_seconds <= 0.0 ||
                       hit.age_seconds <= options_.cache_ttl_seconds;
    // Admission control: a stale entry is normally recomputed, but once
    // the queue passes the high-water mark a slightly-old answer now
    // beats a fresh one that would deepen the backlog.
    const bool overloaded =
        queue_.size() >= static_cast<std::size_t>(
                             kOverloadHighWater *
                             static_cast<double>(queue_.capacity()));
    if (fresh || overloaded) {
      Waiter waiter;
      waiter.top_k = request.top_k;
      waiter.submit_time = t0;
      // Only full-accuracy results are cached, so a hit reports what its
      // computation did: the configured epsilon for a full vector, the
      // stored one for a top-k payload.
      Completion completion;
      completion.scores = hit.scores;
      completion.topk = hit.topk;
      completion.achieved_epsilon = hit.topk != nullptr
                                        ? hit.topk->achieved_epsilon
                                        : config_.epsilon;
      QueryResponse response = MakeResponse(completion, waiter);
      response.cache_hit = true;
      response.stale = !fresh;
      submitted_.Increment();
      completed_.Increment();
      if (request.top_k > 0) topk_queries_.Increment();
      if (!fresh) stale_served_.Increment();
      latency_.Record(response.latency_seconds);
      if (tenant != nullptr) {
        tenant->submitted->Increment();
        tenant->completed->Increment();
        tenant->latency->Record(response.latency_seconds);
      }
      return ReadyResponse(std::move(response));
    }
    // Stale and no overload: fall through; the recompute refreshes the
    // entry.
  }

  Waiter waiter;
  waiter.top_k = request.top_k;
  waiter.submit_time = t0;
  waiter.request_id = request.request_id;
  waiter.allow_degraded = request.allow_degraded;
  waiter.lane = lane;
  std::future<QueryResponse> future = waiter.promise.get_future();

  const double deadline_seconds = request.deadline_seconds > 0.0
                                      ? request.deadline_seconds
                                      : options_.default_deadline_seconds;

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_.load(std::memory_order_relaxed)) {
    waiter.promise.set_value([&] {
      QueryResponse response;
      response.status =
          Status::FailedPrecondition("QueryService is stopped");
      response.latency_seconds = SecondsSince(t0);
      return response;
    }());
    return future;
  }

  if (options_.coalesce) {
    auto it = inflight_.find(request.source);
    if (it != inflight_.end()) {
      // Coalescing is epoch-checked: a job still queued (kEpochUnset)
      // will compute against the newest state at dequeue, and a job
      // computing at the current epoch answers this request exactly. A
      // job pinned to an older epoch must not absorb a post-mutation
      // request — fall through and schedule a fresh computation, which
      // replaces the in-flight entry below (FinalizeJob's identity check
      // keeps the old job from erasing it).
      //
      // It is also shape-checked: a full job answers any waiter, but a
      // top-k job produces no score vector, so a full request (or one
      // wanting a larger k) schedules a fresh computation the same way.
      const bool shape_ok =
          it->second->top_k == 0 ||
          (request.top_k > 0 && it->second->top_k >= request.top_k);
      const std::uint64_t compute_epoch =
          it->second->compute_epoch.load(std::memory_order_acquire);
      if (shape_ok && (compute_epoch == Job::kEpochUnset ||
                       compute_epoch == graph_state_->epoch)) {
        waiter.coalesced = true;
        if (waiter.request_id != 0) {
          by_request_id_[waiter.request_id] = it->second;
        }
        it->second->waiters.push_back(std::move(waiter));
        // A job still waiting in the queue now serves this tenant too: if
        // this tenant's lane would schedule it sooner (higher weight /
        // shorter backlog), move it there. Otherwise a hot source first
        // submitted by a backlogged low-weight tenant would drag every
        // coalesced high-weight request to the back of the slow lane —
        // exactly the priority inversion tenant_weights exists to prevent.
        if (compute_epoch == Job::kEpochUnset) {
          queue_.PromoteIfSooner(it->second, lane);
        }
        submitted_.Increment();
        coalesced_.Increment();
        if (request.top_k > 0) topk_queries_.Increment();
        if (tenant != nullptr) tenant->submitted->Increment();
        return future;
      }
    }
  }

  auto job = std::make_shared<Job>();
  job->source = request.source;
  job->top_k = request.top_k;
  job->enqueue_time = t0;
  if (deadline_seconds > 0.0) {
    // Armed on the token relative to submission, so the same deadline
    // covers queue wait and compute: the worker sees it at dequeue and the
    // solver polls it between phases/blocks.
    job->token.SetDeadlineAt(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(deadline_seconds)));
  }
  const std::uint64_t request_id = waiter.request_id;
  job->waiters.push_back(std::move(waiter));

  if (!queue_.TryPush(job, lane)) {
    rejected_.Increment();
    if (tenant != nullptr) tenant->rejected->Increment();
    QueryResponse response;
    response.status = Status::ResourceExhausted(
        "submission queue full (" +
        std::to_string(queue_.lane_capacity()) + " pending); retry later");
    response.latency_seconds = SecondsSince(t0);
    job->waiters.front().promise.set_value(std::move(response));
    return future;
  }
  if (options_.coalesce) inflight_[request.source] = job;
  if (request_id != 0) by_request_id_[request_id] = job;
  submitted_.Increment();
  if (request.top_k > 0) topk_queries_.Increment();
  if (tenant != nullptr) tenant->submitted->Increment();
  return future;
}

QueryResponse QueryService::Query(const QueryRequest& request) {
  return Submit(request).get();
}

bool QueryService::Cancel(std::uint64_t request_id) {
  if (request_id == 0) return false;
  Waiter waiter;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_request_id_.find(request_id);
    if (it == by_request_id_.end()) return false;
    std::shared_ptr<Job> job = std::move(it->second);
    by_request_id_.erase(it);
    auto w = std::find_if(
        job->waiters.begin(), job->waiters.end(),
        [&](const Waiter& x) { return x.request_id == request_id; });
    // FinalizeJob erases the id under this lock before moving the
    // waiters out, so a registered id implies the waiter is still here.
    RESACC_CHECK(w != job->waiters.end());
    waiter = std::move(*w);
    job->waiters.erase(w);
    if (job->waiters.empty()) {
      // Nobody wants the answer anymore: trip the token so a running
      // solve unwinds at its next phase/block boundary, and retire the
      // in-flight entry so later Submits schedule a fresh computation
      // instead of coalescing onto a doomed job.
      job->token.Cancel();
      auto inf = inflight_.find(job->source);
      if (inf != inflight_.end() && inf->second == job) inflight_.erase(inf);
    }
  }
  cancelled_.Increment();
  QueryResponse response;
  response.status = Status::Cancelled("cancelled by caller");
  response.coalesced = waiter.coalesced;
  response.latency_seconds = SecondsSince(waiter.submit_time);
  waiter.promise.set_value(std::move(response));
  return true;
}

void QueryService::WorkerLoop(std::size_t worker_index) {
  const std::size_t max_batch = options_.max_batch;
  std::vector<std::shared_ptr<Job>> jobs;
  std::shared_ptr<Job> job;
  while (queue_.Pop(job)) {
    jobs.clear();
    jobs.push_back(std::move(job));
    if (max_batch > 1) {
      // Gathering: drain whatever is already queued, then linger for
      // stragglers until the budget runs out. Lingering only ever waits
      // on an empty queue while holding a partial gather — a full gather
      // or an exhausted budget goes immediately.
      const Clock::time_point gather_deadline =
          Clock::now() + std::chrono::microseconds(options_.batch_linger_us);
      while (jobs.size() < max_batch) {
        std::shared_ptr<Job> extra;
        if (queue_.TryPop(extra)) {
          jobs.push_back(std::move(extra));
          continue;
        }
        const Clock::time_point now = Clock::now();
        if (options_.batch_linger_us == 0 || now >= gather_deadline ||
            !queue_.PopFor(extra, gather_deadline - now)) {
          break;
        }
        jobs.push_back(std::move(extra));
      }
      batch_size_.Record(static_cast<double>(jobs.size()));
    }

    // Catch up with graph updates: rebuild this worker's solver when a
    // newer state was published. State identity (not epoch) is compared,
    // so a compaction swap also re-points the solver at the folded base.
    std::shared_ptr<const GraphState> state = CurrentState();
    if (state != worker_states_[worker_index]) {
      solvers_[worker_index] = MakeSolver(*state);
      worker_states_[worker_index] = std::move(state);
    }
    const std::uint64_t epoch = worker_states_[worker_index]->epoch;

    // Publish which epoch these jobs now compute against: from here on,
    // Submit must not coalesce a post-mutation request onto them (the
    // pinned state predates the mutation). Stamped before the hook so a
    // hook that parks the worker models a mid-compute stall faithfully.
    for (const std::shared_ptr<Job>& j : jobs) {
      j->compute_epoch.store(epoch, std::memory_order_release);
      if (options_.dequeue_hook) options_.dequeue_hook(j->source);
    }
    // Chaos site: a worker pausing between dequeue and compute (GC-style
    // hiccup). Must only add latency, never change any answer.
    if (RESACC_FAULT("serve.worker_stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // The gathered jobs run one after another, each finalized as soon as
    // its own solve ends.
    for (const std::shared_ptr<Job>& j : jobs) {
      RunJob(worker_index, j, epoch, jobs.size() > 1);
    }
  }
}

void QueryService::RunJob(std::size_t worker_index,
                          const std::shared_ptr<Job>& job,
                          std::uint64_t epoch, bool gathered) {
  // A gathered job waits until the jobs ahead of it have solved, so its
  // queue wait runs until its own solve starts.
  Completion completion;
  completion.queue_wait_seconds = SecondsSince(job->enqueue_time);
  queue_wait_.Record(completion.queue_wait_seconds);
  if (job->token.ShouldStop()) {
    // Expired (or fully cancelled) while waiting: resolve without touching
    // the solver. No scores exist, so even allow_degraded waiters get the
    // error.
    completion.status = job->token.StopStatus();
    FinalizeJob(job, completion);
    return;
  }

  SsrwrAlgorithm& solver = *solvers_[worker_index];
  const QueryControl control{&job->token};
  Timer compute_timer;
  // Only full-accuracy results enter the cache (both branches below): a
  // degraded result is honest for the waiter that accepted it, but caching
  // it would hand weaker answers to future requests that never opted in
  // (and break the bit-identity-with-a-fresh-solver contract). Inserts go
  // under the epoch the solver computed against. If the graph moved on
  // mid-compute, that is an old epoch current lookups no longer use — the
  // entry is stranded, never stale-served.
  if (job->top_k > 0) {
    TopKResult tk = solver.QueryTopK(job->source, job->top_k, control);
    completion.compute_seconds = compute_timer.ElapsedSeconds();
    completion.status = tk.status;
    completion.degraded = tk.degraded;
    completion.achieved_epsilon = tk.achieved_epsilon;
    completion.uncorrected_mass = tk.uncorrected_mass;
    completion.topk = std::make_shared<const TopKResult>(std::move(tk));
    if (completion.status.ok() && !completion.degraded) {
      cache_.InsertTopK(CacheKey{config_hash_, job->source, epoch},
                        completion.topk);
    }
  } else {
    ControlledQueryResult result = solver.QueryControlled(job->source, control);
    completion.compute_seconds = compute_timer.ElapsedSeconds();
    completion.status = result.status;
    completion.scores = std::make_shared<const std::vector<Score>>(
        std::move(result.scores));
    completion.degraded = result.degraded;
    completion.achieved_epsilon = result.achieved_epsilon;
    completion.uncorrected_mass = result.uncorrected_mass;
    if (result.status.ok() && !result.degraded) {
      cache_.Insert(CacheKey{config_hash_, job->source, epoch},
                    completion.scores);
    }
  }
  compute_hist_.Record(completion.compute_seconds);
  computed_.Increment();
  if (gathered) batched_queries_.Increment();
  FinalizeJob(job, completion);
}

void QueryService::FinalizeJob(const std::shared_ptr<Job>& job,
                               const Completion& completion) {
  std::vector<Waiter> waiters;
  {
    // Retire the in-flight entry before publishing: after this point an
    // identical Submit either hits the cache (insert precedes Finalize) or
    // schedules a fresh computation — never attaches to a finished job.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(job->source);
    if (it != inflight_.end() && it->second == job) inflight_.erase(it);
    for (const Waiter& waiter : job->waiters) {
      if (waiter.request_id == 0) continue;
      auto rit = by_request_id_.find(waiter.request_id);
      if (rit != by_request_id_.end() && rit->second == job) {
        by_request_id_.erase(rit);
      }
    }
    waiters = std::move(job->waiters);
  }
  for (Waiter& waiter : waiters) {
    QueryResponse response = MakeResponse(completion, waiter);
    if (response.status.ok()) {
      completed_.Increment();
      if (response.degraded) degraded_.Increment();
      latency_.Record(response.latency_seconds);
      if (!tenant_metrics_.empty()) {
        TenantMetrics& tenant = tenant_metrics_[waiter.lane];
        tenant.completed->Increment();
        tenant.latency->Record(response.latency_seconds);
      }
    } else if (response.status.code() == StatusCode::kCancelled) {
      cancelled_.Increment();
    } else {
      expired_.Increment();
    }
    waiter.promise.set_value(std::move(response));
  }
}

ServerStats QueryService::Snapshot() const {
  // A projection of the metrics registry: every number below is read from
  // (or is the state behind) a registered series, never a second copy.
  ServerStats stats;
  stats.submitted = submitted_.Value();
  stats.completed = completed_.Value();
  stats.rejected = rejected_.Value();
  stats.expired = expired_.Value();
  stats.coalesced = coalesced_.Value();
  stats.computed = computed_.Value();
  stats.degraded = degraded_.Value();
  stats.cancelled = cancelled_.Value();
  stats.stale_served = stale_served_.Value();

  const ResultCache::Counters cache = cache_.counters();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_evictions = cache.evictions;
  stats.cache_bytes = cache.bytes;
  stats.cache_entries = cache.entries;

  stats.queue_depth = queue_.size();
  stats.queue_capacity = queue_.capacity();
  stats.num_workers = solvers_.size();

  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(stats.completed) /
                        stats.uptime_seconds
                  : 0.0;
  stats.latency = latency_.TakeSnapshot();
  stats.queue_wait = queue_wait_.TakeSnapshot();
  stats.compute = compute_hist_.TakeSnapshot();
  return stats;
}

}  // namespace resacc
