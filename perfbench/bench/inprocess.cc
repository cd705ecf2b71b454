// push-batch and walk-topk: closed-loop clients driving QueryService
// in-process, with answers checked against a fresh ResAccSolver and
// certified top-k brackets audited against power iteration.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "kernels.h"
#include "resacc/algo/power.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/serve/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace resacc;

constexpr double kWarmupSeconds = 1.0;
// Responses kept per class for the bit-identity check, and certified top-k
// answers audited against power iteration.
constexpr std::size_t kSamplesPerClass = 8;
constexpr std::size_t kAudits = 2;

struct InProcessSpec {
  RwrConfig config;
  ResAccOptions solver;
  ServeOptions serve;
  std::size_t outstanding = 1;
  double topk_share = 0.0;
};

std::optional<InProcessSpec> SpecFor(const std::string& workload) {
  InProcessSpec spec;
  // The BENCH_batch / BENCH_topk configuration family.
  spec.config.alpha = 0.15;
  spec.config.epsilon = 0.5;
  spec.config.p_f = 1e-3;
  spec.config.dangling = DanglingPolicy::kAbsorb;
  spec.config.seed = 7;
  spec.solver.num_hops = 1;
  spec.serve.num_workers = 4;
  spec.serve.cache_bytes = 0;
  spec.serve.coalesce = false;
  if (workload == "push-batch") {
    spec.config.delta = 0.01;
    spec.solver.walk_scale = 0.01;
    spec.serve.max_batch = 16;
    // Lingering 2 ms for stragglers (against ~200 ms per batch) lets the
    // closed loop's resubmissions form full batches instead of whatever
    // happened to be queued when a worker woke.
    spec.serve.batch_linger_us = 2000;
    spec.outstanding = 64;
  } else if (workload == "walk-topk") {
    spec.config.delta = 1e-4;
    spec.solver.walk_scale = 1.0;
    spec.solver.r_max_f = 1e-5;
    spec.serve.max_batch = 1;
    spec.outstanding = 8;
    spec.topk_share = 0.5;
  } else {
    return std::nullopt;
  }
  spec.serve.solver = spec.solver;
  return spec;
}

struct Op {
  NodeId source = 0;
  std::size_t top_k = 0;
};

// Distinct sources in a seeded order; each is a top-k@10 query with
// probability `topk_share`, else a full-vector query.
std::vector<Op> MakeOps(NodeId n, std::uint64_t seed, double topk_share,
                        StreamHash& hash) {
  const std::vector<std::uint32_t> order = Permutation(n, seed ^ 0x9e11ULL);
  StreamRng coin(seed * 0x2545f4914f6cdd1dULL + 1);
  std::vector<Op> ops(n);
  for (NodeId i = 0; i < n; ++i) {
    ops[i].source = order[i];
    ops[i].top_k = coin.Unit() < topk_share ? kTopK : 0;
    hash.Mix(ops[i].source);
    hash.Mix(ops[i].top_k);
  }
  return ops;
}

// The serving stack as resacc_serve assembles it: snapshot load, live-graph
// view, service. Members die in reverse order, service first.
struct Deployment {
  std::optional<StatusOr<Graph>> loaded;
  std::unique_ptr<MutableGraphView> view;
  Graph serving;
  std::unique_ptr<QueryService> service;
  double load_seconds = 0.0;
};

// A graph that cannot be loaded ends the run: there is nothing to measure.
std::unique_ptr<Deployment> Deploy(const std::string& path,
                                   const InProcessSpec& spec) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point start = Clock::now();
  d->loaded.emplace(LoadSnapshot(path, SnapshotLoadOptions{}));
  d->load_seconds = SecondsBetween(start, Clock::now());
  if (!d->loaded->ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 d->loaded->status().ToString().c_str());
    std::exit(2);
  }
  d->view =
      std::make_unique<MutableGraphView>(d->loaded->value().ShallowView());
  d->serving = d->view->Snapshot();
  d->service = std::make_unique<QueryService>(d->serving, spec.config,
                                              spec.serve);
  return d;
}

struct Outcome {
  explicit Outcome(double seconds) : timeline(Clock::now(), seconds) {}
  Timeline timeline;
  std::vector<double> topk_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t eps_mismatch = 0;
  std::vector<std::pair<Op, QueryResponse>> samples;
};

// A response in the documented outcome set for its mode, at full accuracy.
bool WellFormed(const QueryResponse& r, const Op& op, NodeId n) {
  if (!r.status.ok() || r.degraded) return false;
  if (op.top_k > 0) {
    return r.topk != nullptr &&
           r.topk->entries.size() == std::min<std::size_t>(op.top_k, n);
  }
  return r.scores != nullptr && r.scores->size() == n;
}

// Closed loop: keeps `outstanding` requests in flight, submitting the next
// op as each completes, until `seconds` pass; then drains. Completions are
// polled, so a latency is client-observed to within the poll interval.
Outcome ClosedLoop(QueryService& service, const std::vector<Op>& ops,
                   std::size_t& cursor, std::size_t outstanding,
                   double seconds, double epsilon, Tracer& tracer) {
  struct Slot {
    std::future<QueryResponse> future;
    std::size_t index = 0;
    Clock::time_point submitted;
    bool live = false;
  };
  Outcome out(seconds);
  const NodeId n = service.graph().num_nodes();
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::size_t kept_full = 0;
  std::size_t kept_topk = 0;
  std::size_t kept_certified = 0;

  std::vector<Slot> slots(outstanding);
  auto submit = [&](Slot& slot) {
    slot.index = cursor++;
    const Op& op = ops[slot.index % ops.size()];
    QueryRequest request;
    request.source = op.source;
    request.top_k = op.top_k;
    slot.submitted = Clock::now();
    slot.future = service.Submit(request);
    slot.live = true;
    ++out.attempted;
  };
  for (Slot& slot : slots) submit(slot);

  std::size_t live = slots.size();
  while (live > 0) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.live || slot.future.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
        continue;
      }
      progressed = true;
      const Clock::time_point done = Clock::now();
      QueryResponse response = slot.future.get();
      slot.live = false;
      --live;
      const Op& op = ops[slot.index % ops.size()];
      tracer.Record("serve.request", slot.index, 0, slot.submitted, done);
      if (!WellFormed(response, op, n)) {
        ++out.failed;
      } else {
        const double ms = SecondsBetween(slot.submitted, done) * 1e3;
        out.timeline.Add(done, ms, op.top_k == 0);
        if (op.top_k > 0) out.topk_ms.push_back(ms);
        if (response.achieved_epsilon != epsilon) ++out.eps_mismatch;
        // Every 37th answer per class, plus the first certified top-k
        // answers (certificates are rare) for the ground-truth audit.
        std::size_t& kept = op.top_k > 0 ? kept_topk : kept_full;
        const bool certified = op.top_k > 0 && response.topk->certified &&
                               kept_certified < kAudits;
        if (certified || (slot.index % 37 == 0 && kept < kSamplesPerClass)) {
          ++(certified ? kept_certified : kept);
          out.samples.emplace_back(op, std::move(response));
        }
      }
      if (done < end) {
        submit(slot);
        ++live;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out;
}

// Sampled responses must equal a fresh single-threaded ResAccSolver bit for
// bit (the QueryService contract); certified top-k answers must hold
// against power-iteration ground truth. Returns the number of wrong answers.
std::uint64_t CheckAnswers(const Graph& graph, const InProcessSpec& spec,
                           const Outcome& outcome) {
  ResAccSolver reference(graph, spec.config, spec.solver);
  PowerIteration power(graph, spec.config, /*tolerance=*/1e-11);
  std::uint64_t wrong = 0;
  std::size_t audits = 0;
  for (const auto& [op, response] : outcome.samples) {
    if (op.top_k == 0) {
      if (*response.scores != reference.Query(op.source)) ++wrong;
      continue;
    }
    if (!SameTopK(*response.topk, reference.QueryTopK(op.source, op.top_k))) {
      ++wrong;
    } else if (response.topk->certified && audits < kAudits) {
      ++audits;
      if (!CertificateHolds(*response.topk, power.Query(op.source))) {
        ++wrong;
      }
    }
  }
  std::printf("checks: %zu sampled answers vs ResAccSolver, %zu certified "
              "top-k audits vs power iteration, %llu wrong\n",
              outcome.samples.size(), audits,
              static_cast<unsigned long long>(wrong));
  return wrong;
}

Scrape Scraped(const MetricsRegistry& registry) {
  Scrape scrape;
  ParseExposition(registry.RenderPrometheus(), scrape);
  return scrape;
}

}  // namespace

bool RunInProcess(const RunArgs& args, RunResult& result) {
  const std::optional<InProcessSpec> spec = SpecFor(args.workload);
  if (!spec) return false;
  const std::string path = args.data_dir + "/" + kDenseGraph.file;
  Report& report = result.report;

  StreamHash hash;
  const std::vector<Op> ops =
      MakeOps(kDenseGraph.nodes, args.seed, spec->topk_share, hash);
  std::printf("stream: workload=%s seed=%llu ops=%zu hash=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              ops.size(), static_cast<unsigned long long>(hash.value()));

  // Set-up: snapshot load -> view -> service -> first answered query.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Deployment> d = Deploy(path, *spec);
    QueryRequest probe;
    probe.source = kSetupProbeSource;
    const QueryResponse r = d->service->Query(probe);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    load_ms.push_back(d->load_seconds * 1e3);
    ++result.attempted;
    if (!WellFormed(r, Op{probe.source, 0}, kDenseGraph.nodes)) ++result.failed;
  }

  // One measured phase on a fresh deployment: warm-up, then the loop. Every
  // phase replays the stream from its start.
  Tracer off(false);
  auto phase = [&](double seconds, Tracer& tracer, Scrape* before,
                   Scrape* after) {
    std::size_t cursor = 0;
    std::unique_ptr<Deployment> d = Deploy(path, *spec);
    if (before != nullptr) *before = Scraped(MetricsRegistry::Global());
    ClosedLoop(*d->service, ops, cursor, spec->outstanding, kWarmupSeconds,
               spec->config.epsilon, off);
    Outcome outcome = ClosedLoop(*d->service, ops, cursor, spec->outstanding,
                                 seconds, spec->config.epsilon, tracer);
    if (after != nullptr) {
      *after = Scraped(MetricsRegistry::Global());
      ParseExposition(d->service->metrics().RenderPrometheus(), *after);
    }
    return outcome;
  };

  Tracer tracer(args.trace);
  // Untraced runs measure the whole time; traced runs split it into an
  // untraced and a traced half, whose difference is the tracing cost.
  Outcome measured = phase(args.trace ? args.seconds / 2 : args.seconds, off,
                           nullptr, nullptr);
  if (!args.trace) {
    report.Add("setup_s", Quantile(setup_s, 0.5), "s");
    report.Add("qps", measured.timeline.Qps(), "1/s");
    report.Add("full_p50_ms", measured.timeline.FullQuantile(0.5), "ms");
    report.Add("full_p95_ms", measured.timeline.FullQuantile(0.95), "ms");
    report.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
  } else {
    const Outcome plain = std::move(measured);
    Scrape before;
    Scrape after;
    measured = phase(args.seconds / 2, tracer, &before, &after);
    AddServeMetrics(before, after, 0.0, report);

    std::vector<ReplayQuery> replay;
    for (std::size_t i = 0; i < kReplayQueries; ++i) {
      replay.push_back({ops[i].source, ops[i].top_k});
    }
    std::unique_ptr<Deployment> d = Deploy(path, *spec);
    KernelCounters counters;
    ReplayKernels(d->serving, spec->config, spec->solver, replay, tracer,
                  counters);
    if (spec->serve.max_batch > 1) {
      ReplayBatches(d->serving, spec->config, spec->solver, replay,
                    spec->serve.max_batch, tracer, counters);
    }
    AddKernelMetrics(tracer, counters, report);
    result.failed += counters.mismatches;
    std::printf("replay: %llu kernel queries, %llu batches, %zu differ from "
                "ResAccSolver\n",
                static_cast<unsigned long long>(counters.queries),
                static_cast<unsigned long long>(counters.batches),
                counters.mismatches);

    report.Add("graph.load_ms", Quantile(load_ms, 0.5), "ms");
    report.Add("graph.update_p50_us", 0.0, "us");
    report.Add("protocol.overhead_p50_us", 0.0, "us");
    report.Add("protocol.overhead_p99_us", 0.0, "us");
    report.Add("protocol.eps_tag_mismatch",
               static_cast<double>(plain.eps_mismatch + measured.eps_mismatch),
               "count");
    report.Add("loadgen.lag_p99_ms", 0.0, "ms");
    AddTraceOverhead(plain.timeline, measured.timeline, report);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
  }
  std::printf("classes:%s%s eps_tag_mismatch=%llu\n",
              LatencySummary("full", measured.timeline.full_ms()).c_str(),
              LatencySummary("topk", measured.topk_ms).c_str(),
              static_cast<unsigned long long>(measured.eps_mismatch));

  std::unique_ptr<Deployment> d = Deploy(path, *spec);
  result.failed += CheckAnswers(d->serving, *spec, measured);
  result.attempted += measured.attempted;
  result.failed += measured.failed;
  if (args.trace) {
    tracer.WriteJson(args.data_dir + "/trace-" + args.workload + ".json");
  }
  return true;
}

}  // namespace perfbench
