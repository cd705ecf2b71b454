// loadgen — load generator for resacc_serve. Spawns the server, streams a
// query workload through its stdin/stdout line protocol with a bounded
// pipelining window, and reports client-side throughput and latency
// percentiles plus the server's own stats line.
//
//   loadgen --cmd="build/tools/resacc_serve graph.bin --workers=4"
//           [--queries=1000] [--zipf=0.99] [--topk=10] [--topk-mode]
//           [--window=16] [--closed-loop-burst=B] [--seed=7] [--mutate=F]
//           [--spec=FILE]
//           [--chaos] [--chaos-prob=P] [--chaos-seed=S]
//
// --spec=FILE replaces the ad-hoc flags with a declarative WorkloadSpec
// (docs/WORKLOADS.md): the spec's tenants are merged into one
// deterministic op stream — mixed full/topk/deadline/degraded/mutation
// classes with tenant= tokens — and replayed through the pipe for the
// spec's duration. Pair it with a --cmd that passes --tenants=... so the
// server actually runs the spec's QoS weights. Per-class results are
// reported from the same accounting as bench_workload.
//
// --topk-mode issues `topk <src> <k>` lines (the server's first-class
// top-k query mode, docs/QUERY_MODES.md) instead of full-solve `query`
// lines; --topk then sets the k each request asks for.
//
// --closed-loop-burst=B replaces the streaming window with closed-loop
// bursts: B queries are sent together, then all B responses are drained
// before the next burst goes out. That is the arrival pattern the
// server's gathering (resacc_serve --max-batch/--batch-linger-us) collects
// into one gather, so burst mode is how gathering is exercised (and
// measured) end to end through the line protocol.
//
// --mutate=F interleaves graph mutations into the stream: each operation
// is, with probability F, an `addedge`/`rmedge` line (edges previously
// added by this client are preferentially removed, so the graph churns
// rather than only growing) instead of a query. Queries and mutations get
// separate latency histograms — mutation round-trips measure the reader
// thread's synchronous apply, not solver time, and folding them into the
// query percentiles would flatter the tail.
//
// After the run, the server's stats line is parsed for its queue-wait vs
// compute p95 split, so a fat client-side tail is attributable: queueing
// (raise --workers / lower the offered load) versus solving (tune the
// config) without re-running under a profiler.
//
// --chaos spawns the server with deterministic fault injection armed
// (RESACC_FAULTS=1, see util/fault_injection.h): queue rejections, forced
// cache misses, spurious evictions, walk stalls, and worker hiccups fire
// at --chaos-prob per site hit. The run then asserts liveness rather than
// a clean log: every query must get *a* response line, err lines are
// counted but tolerated, and the exit code is 0 iff no response went
// missing.
//
// POSIX-only (fork/exec + pipes, via the workload library's
// ProtocolClient); the server command is run through /bin/sh.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "resacc/serve/workload.h"
#include "resacc/util/args.h"
#include "resacc/util/histogram.h"
#include "resacc/util/timer.h"
#include "resacc/workload/protocol_client.h"
#include "resacc/workload/workload_spec.h"

namespace {

using namespace resacc;

// Parses `key=<float>` out of the server stats line; -1 when absent.
double StatsValue(const std::string& stats, const char* key) {
  const char* hit = std::strstr(stats.c_str(), key);
  if (hit == nullptr) return -1.0;
  return std::atof(hit + std::strlen(key));
}

void PrintServerSplit(const std::string& server_stats) {
  if (server_stats.empty()) return;
  std::printf("server:  %s\n", server_stats.c_str());
  const double queue_wait = StatsValue(server_stats, "queue_wait_p95_ms=");
  const double compute = StatsValue(server_stats, "compute_p95_ms=");
  if (queue_wait >= 0.0 && compute >= 0.0) {
    std::printf("split:   queue_wait_p95=%.3fms compute_p95=%.3fms "
                "(server-side; fat queue wait means saturation, fat "
                "compute means the solver)\n",
                queue_wait, compute);
  }
}

// --spec mode: deterministic multi-class replay through the pipe.
int RunSpecMode(ProtocolClient& client, const std::string& spec_path,
                NodeId nodes, std::size_t window) {
  const StatusOr<WorkloadSpec> spec = WorkloadSpec::ParseFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::printf("loadgen: spec %s, %zu tenants, %.0fs over %u nodes\n",
              spec_path.c_str(), spec.value().tenants.size(),
              spec.value().duration_seconds, nodes);
  WorkloadReport report;
  report.spec_origin = spec_path;
  const Status run =
      RunProtocolWorkload(spec.value(), client, nodes, window, &report);
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", run.ToString().c_str());
    return 1;
  }

  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  for (const OpStats& s : report.classes) {
    rejected += s.rejected;
    expired += s.deadline_exceeded;
  }
  std::printf(
      "client:  %llu ok, %llu rejected, %llu expired, %llu errors "
      "in %.2fs -> %.1f qps\n",
      static_cast<unsigned long long>(report.TotalOk()),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(report.TotalErrors()),
      report.wall_seconds,
      report.wall_seconds > 0.0
          ? static_cast<double>(report.TotalOk()) / report.wall_seconds
          : 0.0);
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    const OpStats& s = report.classes[c];
    if (s.sent == 0) continue;
    std::printf("%-9s %s hits=%llu\n", OpClassName(static_cast<OpClass>(c)),
                s.latency.ToString().c_str(),
                static_cast<unsigned long long>(s.cache_hits));
  }
  for (std::size_t t = 0; t < report.tenant_names.size(); ++t) {
    std::printf("tenant %-10s computed_ok=%llu\n",
                report.tenant_names[t].c_str(),
                static_cast<unsigned long long>(report.computed_ok[t]));
  }

  client.SendLine("stats");
  client.Flush();
  std::string line;
  if (client.ReadLine(line) && line.rfind("stats ", 0) == 0) {
    PrintServerSplit(line.substr(6));
  }
  client.Shutdown();
  return report.TotalErrors() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string command = args.GetString("cmd", "");
  if (command.empty()) {
    std::fprintf(stderr,
                 "usage: loadgen --cmd=\"resacc_serve <graph> [opts]\" "
                 "[--queries=N] [--zipf=T] [--topk=K] [--topk-mode] "
                 "[--window=W] [--seed=S] [--spec=FILE]\n");
    return 2;
  }
  const std::size_t num_queries =
      static_cast<std::size_t>(args.GetInt("queries", 1000));
  const double theta = args.GetDouble("zipf", 0.99);
  const std::size_t top_k =
      static_cast<std::size_t>(args.GetInt("topk", 10));
  const bool topk_mode = args.HasFlag("topk-mode");
  const char* query_verb = topk_mode ? "topk" : "query";
  const std::size_t window =
      static_cast<std::size_t>(args.GetInt("window", 16));
  const std::size_t burst =
      static_cast<std::size_t>(args.GetInt("closed-loop-burst", 0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 7));
  const double mutate = args.GetDouble("mutate", 0.0);
  const std::string spec_path = args.GetString("spec", "");
  const bool chaos = args.HasFlag("chaos");
  const double chaos_prob = args.GetDouble("chaos-prob", 0.02);
  const std::uint64_t chaos_seed = static_cast<std::uint64_t>(
      args.GetInt("chaos-seed", static_cast<std::int64_t>(seed)));

  std::string spawn_command = command;
  if (chaos) {
    // /bin/sh -c treats leading NAME=value words as environment for the
    // command, which is how the server's pre-main fault-injection init
    // (util/fault_injection.cc) gets armed without any server flag.
    char env[128];
    std::snprintf(env, sizeof(env),
                  "RESACC_FAULTS=1 RESACC_FAULT_PROB=%.6f "
                  "RESACC_FAULT_SEED=%llu ",
                  chaos_prob, static_cast<unsigned long long>(chaos_seed));
    spawn_command = std::string(env) + command;
    std::printf("loadgen: chaos mode, prob=%.3f seed=%llu\n", chaos_prob,
                static_cast<unsigned long long>(chaos_seed));
  }

  ProtocolClient client;
  if (!client.Spawn(spawn_command).ok()) {
    std::fprintf(stderr, "loadgen: failed to spawn '%s'\n",
                 spawn_command.c_str());
    return 1;
  }
  const StatusOr<NodeId> handshake = client.Handshake();
  if (!handshake.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 handshake.status().ToString().c_str());
    return 1;
  }
  const NodeId nodes = handshake.value();

  if (!spec_path.empty()) {
    return RunSpecMode(client, spec_path, nodes, window);
  }

  ZipfianSources workload(nodes, theta, seed);
  Rng rng(seed ^ 0x10adULL);
  const std::vector<NodeId> sources = workload.Sample(num_queries, rng);

  std::printf("loadgen: %zu %s queries, zipf=%.2f over %u nodes, "
              "window=%zu\n",
              num_queries, query_verb, theta, nodes, window);

  // Per-class accounting: queries and mutations answer different
  // questions (solver latency vs. mutation-apply round-trip), so each op
  // kind gets its own histogram instead of sharing — or skipping — one.
  LatencyHistogram query_latency;
  LatencyHistogram mutation_latency;
  struct InFlight {
    Timer timer;
    bool is_query = true;
  };
  std::deque<InFlight> in_flight;
  std::size_t sent = 0;
  std::size_t received = 0;       // query responses
  std::size_t mutations = 0;      // mutation responses
  std::size_t mutation_errors = 0;
  std::size_t errors = 0;
  std::size_t hits = 0;
  Timer wall;
  std::string line;

  // Edges this client added and can later remove; churn, not just growth.
  Rng mrng(seed ^ 0x0edce5ULL);
  std::vector<std::pair<NodeId, NodeId>> our_edges;

  auto receive_one = [&]() -> bool {
    if (!client.ReadLine(line)) return false;
    const InFlight& op = in_flight.front();
    const bool ok = line.rfind("ok ", 0) == 0;
    if (op.is_query) {
      query_latency.Record(op.timer.ElapsedSeconds());
      ++received;
      if (ok) {
        if (line.find("hit=1") != std::string::npos) ++hits;
      } else {
        ++errors;
      }
    } else {
      mutation_latency.Record(op.timer.ElapsedSeconds());
      ++mutations;
      if (!ok) ++mutation_errors;
    }
    in_flight.pop_front();
    return true;
  };

  char buf[96];
  auto send_mutation = [&]() {
    const bool remove = !our_edges.empty() && mrng.Bernoulli(0.5);
    if (remove) {
      const std::size_t pick = mrng.NextBounded(our_edges.size());
      const auto [u, v] = our_edges[pick];
      our_edges[pick] = our_edges.back();
      our_edges.pop_back();
      std::snprintf(buf, sizeof(buf), "rmedge %u %u", u, v);
    } else {
      const NodeId u = static_cast<NodeId>(mrng.NextBounded(nodes));
      NodeId v = static_cast<NodeId>(mrng.NextBounded(nodes));
      if (v == u) v = (v + 1) % nodes;
      our_edges.emplace_back(u, v);
      std::snprintf(buf, sizeof(buf), "addedge %u %u", u, v);
    }
    client.SendLine(buf);
    in_flight.push_back(InFlight{Timer(), /*is_query=*/false});
  };

  auto send_query = [&]() {
    std::snprintf(buf, sizeof(buf), "%s %u %zu", query_verb, sources[sent],
                  top_k);
    client.SendLine(buf);
    ++sent;
    in_flight.push_back(InFlight{Timer(), /*is_query=*/true});
  };

  if (burst > 1) {
    // Closed-loop bursts: every burst is fully in flight before the first
    // drain, so the server's workers see `burst` simultaneous jobs.
    while (received < num_queries) {
      const std::size_t n = std::min(burst, num_queries - sent);
      for (std::size_t i = 0; i < n; ++i) {
        if (mutate > 0.0 && mrng.Bernoulli(mutate)) send_mutation();
        send_query();
      }
      client.Flush();
      while (!in_flight.empty()) {
        if (!receive_one()) {
          std::fprintf(stderr, "loadgen: server closed after %zu responses\n",
                       received + mutations);
          return 1;
        }
      }
    }
  } else {
    while (received < num_queries) {
      while (sent < num_queries && in_flight.size() < window) {
        if (mutate > 0.0 && mrng.Bernoulli(mutate)) {
          send_mutation();
          if (in_flight.size() >= window) break;
        }
        send_query();
      }
      client.Flush();
      if (!receive_one()) {
        std::fprintf(stderr, "loadgen: server closed after %zu responses\n",
                     received + mutations);
        return 1;
      }
    }
  }
  const double elapsed = wall.ElapsedSeconds();

  client.SendLine("stats");
  client.Flush();
  std::string server_stats;
  if (client.ReadLine(line) && line.rfind("stats ", 0) == 0) {
    server_stats = line.substr(6);
  }
  client.Shutdown();

  const LatencyHistogram::Snapshot snap = query_latency.TakeSnapshot();
  std::printf("client:  %zu ok, %zu errors in %.2fs -> %.1f qps\n",
              received - errors, errors, elapsed,
              static_cast<double>(received) / elapsed);
  std::printf("latency: %s\n", snap.ToString().c_str());
  if (mutations > 0) {
    const LatencyHistogram::Snapshot msnap = mutation_latency.TakeSnapshot();
    std::printf("mutate:  %s (%zu errors)\n", msnap.ToString().c_str(),
                mutation_errors);
  }
  std::printf("hits:    %zu/%zu (%.1f%%)\n", hits, received,
              received > 0 ? 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(received)
                           : 0.0);
  PrintServerSplit(server_stats);
  // Chaos asserts liveness, not a spotless log: injected faults surface as
  // err lines (queue rejections, deadline expiries), but every query got a
  // response and the receive loop above would have exited 1 otherwise.
  if (chaos) {
    std::printf("chaos:   all %zu responses arrived (%zu errors tolerated)\n",
                received, errors);
    return 0;
  }
  return errors == 0 && mutation_errors == 0 ? 0 : 1;
}
