// loadgen — load generator for resacc_serve. Spawns the server, replays a
// declarative workload spec through its stdin/stdout line protocol, and
// reports client-side throughput and per-class latency plus the server's
// own stats line.
//
//   loadgen --cmd="build/tools/resacc_serve graph.bin --workers=4"
//           --spec=FILE [--chaos] [--chaos-prob=P] [--chaos-seed=S]
//
// The spec (docs/WORKLOADS.md) declares tenants, their class mixes and
// their offered load; WorkloadDriver replays it over a PipeTransport with
// tenant= tokens for the spec's duration: open-loop tenants at their
// rate, closed-loop ones with `concurrency` ops each in flight, the same
// rule and accounting as bench_workload in process. Pair it with a --cmd
// that passes --tenants=... so the server runs the spec's QoS weights.
// The exit code is 0 iff no answer was an error and the server stayed up;
// an unknown option exits 2 before the server is spawned.
// The server's stats line then splits the p95 into queue wait
// (saturation) and compute (the solver).
//
// --chaos spawns the server with deterministic fault injection armed
// (RESACC_FAULTS=1, see util/fault_injection.h) at --chaos-prob per site
// hit, seeded by --chaos-seed (default: the spec's seed). The run then
// asserts liveness rather than a clean log: err answers are tolerated,
// and the exit code is 0 iff every request got its answer.
//
// POSIX-only (fork/exec + pipes, via the workload library's
// ProtocolClient); the server command is run through /bin/sh.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "resacc/serve/protocol.h"
#include "resacc/util/args.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/protocol_client.h"
#include "resacc/workload/workload_spec.h"

namespace {

using namespace resacc;

// Prints the server's stats line and its queue-wait vs compute p95 split.
void PrintServerSplit(ProtocolClient& client) {
  client.SendLine(protocol::FormatRequest(protocol::Verb::kStats));
  client.Flush();
  std::string line;
  if (!client.ReadLine(line)) return;
  const StatusOr<protocol::Response> stats = protocol::ParseResponse(line);
  if (!stats.ok() || stats.value().tag != "stats") return;
  std::printf("server:  %s\n", line.c_str());
  const std::optional<double> queue_wait =
      stats.value().Field("queue_wait_p95_ms");
  const std::optional<double> compute = stats.value().Field("compute_p95_ms");
  if (queue_wait.has_value() && compute.has_value()) {
    std::printf("split:   queue_wait_p95=%.3fms compute_p95=%.3fms "
                "(server-side; fat queue wait means saturation, fat "
                "compute means the solver)\n",
                *queue_wait, *compute);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string command = args.GetString("cmd", "");
  const std::string spec_path = args.GetString("spec", "");
  if (command.empty() || spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: loadgen --cmd=\"resacc_serve <graph> [opts]\" "
                 "--spec=FILE [--chaos] [--chaos-prob=P] [--chaos-seed=S]\n");
    return 2;
  }
  const StatusOr<WorkloadSpec> spec = WorkloadSpec::ParseFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  const bool chaos = args.HasFlag("chaos");
  const double chaos_prob = args.GetDouble("chaos-prob", 0.02);
  const std::uint64_t chaos_seed = static_cast<std::uint64_t>(args.GetInt(
      "chaos-seed", static_cast<std::int64_t>(spec.value().seed)));
  const std::vector<std::string> unknown = args.UnusedOptions();
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "loadgen: unknown option --%s\n", name.c_str());
  }
  if (!unknown.empty()) return 2;

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

  // A server that dies mid-run must surface as an error, not kill loadgen
  // on its next write.
  std::signal(SIGPIPE, SIG_IGN);
  ProtocolClient client;
  if (!client.Spawn(spawn_command).ok()) {
    std::fprintf(stderr, "loadgen: failed to spawn '%s'\n",
                 spawn_command.c_str());
    return 1;
  }
  const StatusOr<NodeId> nodes = client.Handshake();
  if (!nodes.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", nodes.status().ToString().c_str());
    return 1;
  }

  std::printf("loadgen: spec %s, %zu tenants, %.0fs over %u nodes\n",
              spec_path.c_str(), spec.value().tenants.size(),
              spec.value().duration_seconds, nodes.value());
  WorkloadReport report;
  Status run;
  {
    PipeTransport transport(&client);
    report = WorkloadDriver(spec.value(), &transport, nodes.value()).Run();
    run = transport.status();
  }
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
  PrintServerSplit(client);
  client.Shutdown();

  // Chaos asserts liveness, not a spotless log: injected faults surface as
  // err answers, but every request got one — a server that closed fails
  // the run above.
  if (chaos) {
    std::printf("chaos:   all %llu answers arrived (%llu errors tolerated)\n",
                static_cast<unsigned long long>(report.TotalSent()),
                static_cast<unsigned long long>(report.TotalErrors()));
    return 0;
  }
  return report.TotalErrors() == 0 ? 0 : 1;
}
