// serve-zipf: an open-loop client driving a spawned resacc_serve over the
// line protocol with Zipf-skewed full / top-k reads and edge mutations.
// Every response must parse into the documented outcome set.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "kernels.h"
#include "resacc/algo/power.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/workload/protocol_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace resacc;

// Offered load: about a quarter of what this mix (45% full, 45% top-k@10,
// 10% mutations) sustained closed-loop on a busy shared 4-core host (~93
// ops/s; ~130 when quiet), so the server needs about one core. Queueing
// amplifies host drift, and responses leave in request order, so a slow
// answer also holds back the ones behind it: at 50 ops/s the full-query
// median moved 22-30% between runs and rose 42 -> 202 ms with two of the
// four cores taken by other work; at 25 ops/s it rose 39 -> 43 ms.
constexpr double kRate = 25.0;
constexpr double kWarmupSeconds = 2.0;
constexpr double kFullShare = 0.45;
constexpr double kTopKShare = 0.45;
constexpr double kZipfTheta = 0.99;
// Certified top-k answers audited against power iteration, and how many
// stream sources may be tried to find them.
constexpr std::size_t kAudits = 2;
constexpr std::size_t kAuditTries = 32;
// Which nodes are popular and which edges flap are part of the workload,
// like the graph: both are fixed, and the run seed draws the sequence.
constexpr std::uint64_t kWorkloadSeed = 7;
constexpr std::size_t kFlappingEdges = 256;
// resacc_serve's defaults: epsilon 0.5, seed 0x5eed, dangling absorb.
constexpr double kEpsilon = 0.5;

// The solver configuration `resacc_serve --hybrid` runs on this graph.
RwrConfig ServeConfig() {
  RwrConfig config = RwrConfig::ForGraphSize(kServeGraph.nodes);
  config.epsilon = kEpsilon;
  config.seed = 0x5eed;
  config.dangling = DanglingPolicy::kAbsorb;
  return config;
}
ResAccOptions ServeSolverOptions() {
  ResAccOptions options;
  options.hybrid.enable = true;
  return options;
}

// Every run asks each class and popularity rank exactly its expected
// share: the class labels are an exact 45/45/10 split and the query
// sources are the midpoints of the N equal slices of the Zipf
// distribution, and the seed shuffles both into the run's order. Every
// seed then asks the same sources, so seeds do not differ in how many
// expensive ones they draw; the order, and with it cache hits and
// invalidations, does. A
// mutation toggles one edge of a fixed pool: added when this stream has
// not added it, removed when it has, so the graph churns instead of
// growing.
std::vector<WorkloadOp> MakeOps(NodeId n, std::uint64_t seed,
                                std::size_t count, StreamHash& hash) {
  StreamRng pool_rng(kWorkloadSeed);
  std::vector<WorkloadOp> pool(kFlappingEdges);
  for (WorkloadOp& edge : pool) {
    edge.cls = OpClass::kMutation;
    edge.source = static_cast<NodeId>(pool_rng.Below(n));
    edge.target = static_cast<NodeId>(pool_rng.Below(n - 1));
    if (edge.target >= edge.source) ++edge.target;
  }

  StreamRng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  const auto share = [count](double s) {
    return static_cast<std::size_t>(std::llround(s * count));
  };
  std::vector<OpClass> classes(count, OpClass::kMutation);
  std::fill_n(classes.begin(), share(kFullShare), OpClass::kFull);
  std::fill_n(classes.begin() + share(kFullShare), share(kTopKShare),
              OpClass::kTopK);
  Shuffle(classes, rng);
  const ZipfSampler zipf(n, kZipfTheta, kWorkloadSeed);
  const std::size_t queries = share(kFullShare) + share(kTopKShare);
  std::vector<NodeId> sources(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    sources[i] = zipf.At((static_cast<double>(i) + 0.5) /
                         static_cast<double>(queries));
  }
  Shuffle(sources, rng);

  std::vector<bool> added(pool.size(), false);
  std::vector<WorkloadOp> ops(count);
  std::size_t next_source = 0;
  for (std::size_t i = 0; i < count; ++i) {
    WorkloadOp& op = ops[i];
    if (classes[i] == OpClass::kMutation) {
      const std::size_t e = rng.Below(pool.size());
      op = pool[e];
      op.remove = added[e];
      added[e] = !added[e];
    } else {
      op.cls = classes[i];
      op.source = sources[next_source++];
      op.top_k = op.cls == OpClass::kTopK ? kTopK : 0;
    }
    hash.Mix(static_cast<std::uint64_t>(op.cls) | (op.remove ? 8 : 0));
    hash.Mix(op.source);
    hash.Mix(op.target);
  }
  return ops;
}

std::vector<std::string_view> Split(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  while (!line.empty()) {
    const std::size_t at = line.find(sep);
    out.push_back(line.substr(0, at));
    if (at == std::string_view::npos) break;
    line.remove_prefix(at + 1);
  }
  return out;
}

bool Number(std::string_view text, double& out) {
  const std::string s(text);
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

// `key=<number>`; flags must read exactly 0 or 1.
bool Field(std::string_view token, std::string_view key, double& out) {
  return token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
         token[key.size()] == '=' &&
         Number(token.substr(key.size() + 1), out);
}
bool Flag(std::string_view token, std::string_view key, bool& out) {
  double v = 0.0;
  if (!Field(token, key, v) || (v != 0.0 && v != 1.0) ||
      token.size() != key.size() + 2) {
    return false;
  }
  out = v == 1.0;
  return true;
}

// What a full-accuracy OK response line says.
struct Answer {
  bool hit = false;
  bool applied = false;
  double eps = 0.0;
  double server_us = 0.0;
};

// Checks one response line against the documented OK shape for `op`
// (tools/resacc_serve.cc header, docs/QUERY_MODES.md): the echoed source,
// 0/1 flags, numeric fields, k descending `top` entries with ordered
// brackets, and the mutation echo. No request carries a deadline, so
// anything else (an err line, a degraded answer) is a failure.
bool Classify(const std::string& line, const WorkloadOp& op, NodeId n,
              Answer& a) {
  const std::vector<std::string_view> t = Split(line, ' ');
  double number = 0.0;
  if (op.cls == OpClass::kMutation) {
    const char* verb = op.remove ? "rmedge" : "addedge";
    return t.size() == 6 && t[0] == "ok" && t[1] == verb &&
           t[2] == std::to_string(op.source) &&
           t[3] == std::to_string(op.target) &&
           Flag(t[4], "applied", a.applied) && Field(t[5], "epoch", number);
  }
  const bool topk = op.cls == OpClass::kTopK;
  const std::size_t head = topk ? 12 : 9;  // tokens up to and incl. "top"
  bool degraded = true;
  bool flag = false;
  bool good = t.size() == head + kTopK && t[0] == "ok" &&
              t[1] == std::to_string(op.source) && Flag(t[2], "hit", a.hit) &&
              Flag(t[3], "coalesced", flag) &&
              Flag(t[4], "degraded", degraded) && !degraded &&
              Flag(t[5], "stale", flag) && t[head - 1] == "top";
  if (good && topk) {
    good = Flag(t[6], "certified", flag) && Field(t[7], "k", number) &&
           number == kTopK && Field(t[8], "eps", a.eps) &&
           Field(t[9], "gap", number) && Field(t[10], "us", a.server_us);
  } else if (good) {
    good = Field(t[6], "eps", a.eps) && Field(t[7], "us", a.server_us);
  }
  double previous = INFINITY;
  for (std::size_t i = head; good && i < t.size(); ++i) {
    const std::vector<std::string_view> parts = Split(t[i], ':');
    double node = 0.0;
    double est = 0.0;
    good = parts.size() == (topk ? 4u : 2u) && Number(parts[0], node) &&
           node < n && Number(parts[1], est) && est <= previous;
    previous = est;
    if (good && topk) {
      // Brackets print with 7 significant digits.
      double lower = 0.0;
      double upper = 0.0;
      good = Number(parts[2], lower) && Number(parts[3], upper) &&
             lower <= est * (1 + 1e-6) && est <= upper * (1 + 1e-6);
    }
  }
  return good;
}

std::string ServeCommand(const std::string& serve_bin,
                         const std::string& graph) {
  // `exec` so the spawned pid is the server itself (for its peak RSS).
  return "exec " + serve_bin + " " + graph + " --hybrid";
}

bool ScrapeMetrics(ProtocolClient& client, Scrape& out) {
  client.SendLine("metrics");
  client.Flush();
  std::string line;
  std::string text;
  while (client.ReadLine(line)) {
    if (line == "# EOF") {
      ParseExposition(text, out);
      return true;
    }
    text += line;
    text += '\n';
  }
  return false;
}

struct LoopStats {
  // Measured window: set by OpenLoop.
  Timeline timeline{Clock::now(), 0.0};
  std::vector<double> topk_ms;
  std::vector<double> mutation_ms;
  std::vector<double> overhead_us;
  std::vector<double> lag_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t eps_mismatch = 0;
  std::uint64_t hits = 0;
  std::uint64_t applied = 0;  // mutations that changed the graph
};

// Open loop: op i is due at i / kRate after the start, whatever the server
// is doing. Latency runs from the due time, so a stall also charges the
// requests queued behind it; the generator's own lateness is `lag_ms`.
// The first kWarmupSeconds of ops fill the cache and are not timed.
bool OpenLoop(ProtocolClient& client, const std::vector<WorkloadOp>& ops,
              NodeId n, double seconds, Tracer& tracer, LoopStats& out) {
  struct Sent {
    Clock::time_point due;
    Clock::time_point sent;
  };
  std::vector<Sent> sent(ops.size());
  // num_sent publishes sent[]; `total` is set before the closing `info`
  // line, whose answer tells the reader the stream is over.
  std::atomic<std::size_t> num_sent{0};
  std::atomic<std::size_t> total{ops.size() + 1};
  const Clock::time_point start = Clock::now();
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point measure_from = at(kWarmupSeconds);
  const Clock::time_point end = at(kWarmupSeconds + seconds);
  out.timeline = Timeline(measure_from, seconds);

  // The sender only writes the pipe and the reader only reads it; each
  // direction is its own FILE stream.
  std::jthread sender([&] {
    std::size_t i = 0;
    for (; i < ops.size(); ++i) {
      const Clock::time_point due = at(static_cast<double>(i) / kRate);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const std::string line = ProtocolClient::FormatOp(ops[i], "");
      sent[i] = {due, Clock::now()};
      num_sent.store(i + 1, std::memory_order_release);
      client.SendLine(line);
      client.Flush();
    }
    total.store(i, std::memory_order_release);
    client.SendLine("info");
    client.Flush();
  });

  bool alive = true;
  std::string line;
  for (std::size_t i = 0;; ++i) {
    if (!client.ReadLine(line)) {
      alive = false;
      break;
    }
    const Clock::time_point received = Clock::now();
    // Both loads see the sender's stores: the answer came after them.
    if (i == total.load(std::memory_order_acquire)) break;
    if (i >= num_sent.load(std::memory_order_acquire)) {
      alive = false;
      break;
    }
    const WorkloadOp& op = ops[i];
    Answer answer;
    ++out.attempted;
    if (!Classify(line, op, n, answer)) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: bad response to '%s': %s\n",
                   ProtocolClient::FormatOp(op, "").c_str(), line.c_str());
      continue;
    }
    if (op.cls == OpClass::kMutation) {
      out.applied += answer.applied ? 1 : 0;
    } else {
      if (answer.eps != kEpsilon) ++out.eps_mismatch;
      if (answer.hit) ++out.hits;
    }
    if (sent[i].due < measure_from) continue;
    tracer.Record("protocol.request", i, 0, sent[i].sent, received);
    const double ms = SecondsBetween(sent[i].due, received) * 1e3;
    out.lag_ms.push_back(SecondsBetween(sent[i].due, sent[i].sent) * 1e3);
    if (op.cls == OpClass::kMutation) {
      out.mutation_ms.push_back(ms);
      continue;
    }
    out.timeline.Add(received, ms, op.cls == OpClass::kFull);
    if (op.cls == OpClass::kTopK) out.topk_ms.push_back(ms);
    out.overhead_us.push_back(
        SecondsBetween(sent[i].sent, received) * 1e6 - answer.server_us);
  }
  return alive;
}

// Replays the stream's mutations on an in-process MutableGraphView, timing
// each edit plus the snapshot the server would publish after it.
std::vector<double> TimeGraphUpdates(const Graph& base,
                                     const std::vector<WorkloadOp>& ops,
                                     Tracer& tracer) {
  MutableGraphView view(base.ShallowView());
  std::vector<double> us;
  std::uint64_t request = 0;
  for (const WorkloadOp& op : ops) {
    if (op.cls != OpClass::kMutation) continue;
    const Clock::time_point start = Clock::now();
    GraphDelta delta;
    const Status status = op.remove
                              ? view.RemoveEdge(op.source, op.target, &delta)
                              : view.AddEdge(op.source, op.target, &delta);
    if (status.ok()) view.Snapshot();
    const Clock::time_point done = Clock::now();
    tracer.Record("graph.update", ++request, 0, start, done);
    us.push_back(SecondsBetween(start, done) * 1e6);
  }
  return us;
}

// The server's answers are computed on a graph that mutates under them, so
// its top-k certificates are audited at the solver: the same configuration
// on the graph the server loaded, for the stream's first top-k sources,
// until kAudits certified answers were checked. Returns the wrong ones.
std::uint64_t AuditCertificates(const Graph& graph,
                                const std::vector<WorkloadOp>& ops) {
  ResAccSolver solver(graph, ServeConfig(), ServeSolverOptions());
  PowerIteration power(graph, ServeConfig(), /*tolerance=*/1e-11);
  std::size_t tried = 0;
  std::size_t audited = 0;
  std::uint64_t wrong = 0;
  for (const WorkloadOp& op : ops) {
    if (op.cls != OpClass::kTopK) continue;
    if (audited == kAudits || tried++ == kAuditTries) break;
    const TopKResult topk = solver.QueryTopK(op.source, op.top_k);
    if (!topk.certified) continue;
    ++audited;
    if (!CertificateHolds(topk, power.Query(op.source))) ++wrong;
  }
  std::printf("audit: %zu certified top-k answers (of %zu tried) vs power "
              "iteration, %llu wrong\n",
              audited, tried, static_cast<unsigned long long>(wrong));
  return wrong;
}

}  // namespace

bool RunServeZipf(const RunArgs& args, const std::string& serve_bin,
                  RunResult& result) {
  const std::string path = args.data_dir + "/" + kServeGraph.file;
  const std::string command = ServeCommand(serve_bin, path);
  const NodeId n = kServeGraph.nodes;
  Report& report = result.report;

  StreamHash hash;
  const std::size_t count = static_cast<std::size_t>(
      std::ceil(kRate * (kWarmupSeconds + args.seconds))) + 1;
  const std::vector<WorkloadOp> ops = MakeOps(n, args.seed, count, hash);
  std::printf("stream: workload=%s seed=%llu ops=%zu hash=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              ops.size(), static_cast<unsigned long long>(hash.value()));
  WorkloadOp probe;
  probe.source = kSetupProbeSource;

  // Set-up: spawn -> `info` handshake -> first answered query.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    ProtocolClient client;
    std::string line;
    if (!client.Spawn(command).ok() || !client.Handshake().ok()) return false;
    client.SendLine(ProtocolClient::FormatOp(probe, ""));
    client.Flush();
    if (!client.ReadLine(line)) return false;
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    ++result.attempted;
    Answer answer;
    if (!Classify(line, probe, n, answer)) ++result.failed;
    Scrape scrape;
    if (!ScrapeMetrics(client, scrape)) return false;
    load_ms.push_back(SeriesValue(scrape, "resacc_graph_load_seconds") * 1e3);
    client.Shutdown();
  }

  // One measured phase against a fresh server.
  auto phase = [&](double seconds, Tracer& tracer, LoopStats& stats,
                   Scrape* scrape, double* peak_rss_mb) {
    ProtocolClient client;
    if (!client.Spawn(command).ok() || !client.Handshake().ok()) return false;
    if (!OpenLoop(client, ops, n, seconds, tracer, stats)) return false;
    if (scrape != nullptr && !ScrapeMetrics(client, *scrape)) return false;
    if (peak_rss_mb != nullptr) *peak_rss_mb = ProcessPeakRssMb(client.pid());
    return client.Shutdown() == 0;
  };

  StatusOr<Graph> base = LoadSnapshot(path);
  if (!base.ok()) return false;
  Tracer tracer(args.trace);
  Tracer off(false);
  LoopStats measured;
  if (!args.trace) {
    double rss = 0.0;
    if (!phase(args.seconds, off, measured, nullptr, &rss)) return false;
    report.Add("setup_s", Quantile(setup_s, 0.5), "s");
    report.Add("qps", measured.timeline.Qps(), "1/s");
    report.Add("full_p50_ms", measured.timeline.FullQuantile(0.5), "ms");
    report.Add("full_p95_ms", measured.timeline.FullQuantile(0.95), "ms");
    report.Add("peak_rss_mb", rss, "MB");
  } else {
    LoopStats plain;
    Scrape after;
    if (!phase(args.seconds / 2, off, plain, nullptr, nullptr) ||
        !phase(args.seconds / 2, tracer, measured, &after, nullptr)) {
      return false;
    }
    AddServeMetrics(Scrape{}, after, static_cast<double>(measured.applied),
                    report);

    std::vector<ReplayQuery> replay;
    for (const WorkloadOp& op : ops) {
      if (replay.size() == kReplayQueries) break;
      if (op.cls != OpClass::kMutation) replay.push_back({op.source, op.top_k});
    }
    KernelCounters counters;
    ReplayKernels(base.value(), ServeConfig(), ServeSolverOptions(), replay,
                  tracer, counters);
    AddKernelMetrics(tracer, counters, report);
    result.failed += counters.mismatches;
    std::printf("replay: %llu kernel queries, %zu differ from ResAccSolver\n",
                static_cast<unsigned long long>(counters.queries),
                counters.mismatches);

    report.Add("graph.load_ms", Quantile(load_ms, 0.5), "ms");
    report.Add("graph.update_p50_us",
               Quantile(TimeGraphUpdates(base.value(), ops, tracer), 0.5),
               "us");
    report.Add("protocol.overhead_p50_us", Quantile(measured.overhead_us, 0.5),
               "us");
    report.Add("protocol.overhead_p99_us",
               Quantile(measured.overhead_us, 0.99), "us");
    report.Add("protocol.eps_tag_mismatch",
               static_cast<double>(plain.eps_mismatch + measured.eps_mismatch),
               "count");
    report.Add("loadgen.lag_p99_ms", Quantile(measured.lag_ms, 0.99), "ms");
    AddTraceOverhead(plain.timeline, measured.timeline, report);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    tracer.WriteJson(args.data_dir + "/trace-" + args.workload + ".json");
  }
  std::printf("classes:%s%s%s hits=%llu eps_tag_mismatch=%llu\n",
              LatencySummary("full", measured.timeline.full_ms()).c_str(),
              LatencySummary("topk", measured.topk_ms).c_str(),
              LatencySummary("mutation", measured.mutation_ms).c_str(),
              static_cast<unsigned long long>(measured.hits),
              static_cast<unsigned long long>(measured.eps_mismatch));
  std::printf("checks: %llu of %llu responses not a full-accuracy OK answer\n",
              static_cast<unsigned long long>(measured.failed),
              static_cast<unsigned long long>(measured.attempted));
  result.attempted += measured.attempted;
  result.failed += measured.failed + AuditCertificates(base.value(), ops);
  return true;
}

}  // namespace perfbench
