// bench_workload — LinkBench-style serving benchmark and regression gate.
//
//   bench_workload [--spec=FILE] [--out=BENCH_workload.json]
//                  [--check] [--bounds=FILE]
//                  [--nodes=N] [--edges=M] [--workers=W] [--queue=C]
//                  [--cache-mb=M] [--no-coalesce] [--max-batch=B]
//                  [--serve-cmd="build/tools/resacc_serve ..."]
//
// Default mode builds the standard power-law serving graph (1M edges),
// stands up an in-process QueryService with the spec's tenants mapped to
// weighted-fair-queue lanes, and runs the multi-tenant open/closed-loop
// WorkloadDriver (src/resacc/workload/driver.h) against it. The report —
// per-class and per-tenant p50/p99/p999, rejection/deadline/degraded/
// stale/certified rates, per-tenant fair-share throughput — is written to
// --out as BENCH_workload.json (docs/WORKLOADS.md explains every field).
//
// --check gates the report against --bounds (default
// bench/workload/baseline.bounds) and exits nonzero on any violation;
// that is the CI serving-regression gate.
//
// --serve-cmd switches to protocol mode: the same spec is replayed over a
// spawned resacc_serve's line protocol, open-loop tenants at their rate
// and closed-loop ones as one deterministic merged stream (tenant/deadline
// tokens included), measuring the full pipe instead of the in-process
// API. Give the command --tenants=... matching the spec,
// or every op lands on the default lane.
//
// Without --spec, a built-in 4-tenant smoke spec runs (the same mix as
// bench/workload/smoke.spec).

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "resacc/core/rwr_config.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/args.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/protocol_client.h"
#include "resacc/workload/workload_spec.h"

namespace {

using namespace resacc;

// Mirrors bench/workload/smoke.spec so a bare `bench_workload` run needs
// no files. Two closed-loop tenants at 4:1 weight carry the fairness
// assertion; an open-loop tenant exercises pacing; "churn" mixes all five
// classes including mutations.
const char kDefaultSpec[] = R"(duration_seconds 10
seed 42
source zipfian 0.99
top_k 10
deadline_ms 40

tenant gold
  weight 4
  concurrency 8
  class full 0.5
  class topk 0.5
end

tenant bronze
  weight 1
  concurrency 8
  class full 0.5
  class topk 0.5
end

tenant paced
  weight 2
  rate 50
  class full 0.4
  class topk 0.2
  class deadline 0.2
  class degraded 0.2
end

tenant churn
  weight 1
  concurrency 2
  class full 0.3
  class topk 0.2
  class deadline 0.1
  class degraded 0.1
  class mutation 0.3
end
)";

// Protocol mode: replay the spec through a spawned resacc_serve, open-loop
// tenants at their rate and closed-loop ones through a pipelining window
// (RunProtocolWorkload does the accounting, shared with loadgen --spec).
int RunProtocolMode(const WorkloadSpec& spec, const std::string& command,
                    WorkloadReport& report) {
  ProtocolClient client;
  const Status status = client.Spawn(command);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n", status.ToString().c_str());
    return 1;
  }
  const StatusOr<NodeId> nodes = client.Handshake();
  if (!nodes.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n",
                 nodes.status().ToString().c_str());
    return 1;
  }
  const Status run =
      RunProtocolWorkload(spec, client, nodes.value(), /*window=*/16, &report);
  if (!run.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n", run.ToString().c_str());
    return 1;
  }
  client.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);

  const std::string spec_path = args.GetString("spec", "");
  StatusOr<WorkloadSpec> spec =
      spec_path.empty() ? WorkloadSpec::Parse(kDefaultSpec, "<built-in>")
                        : WorkloadSpec::ParseFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }

  WorkloadReport report;
  report.spec_origin = spec_path.empty() ? "<built-in>" : spec_path;

  const std::string serve_cmd = args.GetString("serve-cmd", "");
  if (!serve_cmd.empty()) {
    const int rc = RunProtocolMode(spec.value(), serve_cmd, report);
    if (rc != 0) return rc;
    report.spec_origin += " via " + serve_cmd;
  } else {
    // In-process mode on the standard power-law serving graph.
    const NodeId nodes =
        static_cast<NodeId>(args.GetInt("nodes", 100000));
    const EdgeId edges =
        static_cast<EdgeId>(args.GetInt("edges", 1000000));
    std::fprintf(stderr, "[bench_workload] generating graph: %u nodes, "
                 "%llu edges...\n", nodes,
                 static_cast<unsigned long long>(edges));
    Graph graph = ChungLuPowerLaw(nodes, edges, 2.1, /*seed=*/7);
    const RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());

    ServeOptions options;
    options.num_workers =
        static_cast<std::size_t>(args.GetInt("workers", 0));
    options.queue_capacity =
        static_cast<std::size_t>(args.GetInt("queue", 256));
    options.cache_bytes =
        static_cast<std::size_t>(args.GetInt("cache-mb", 64)) * 1024 * 1024;
    options.coalesce = !args.HasFlag("no-coalesce");
    options.max_batch =
        static_cast<std::size_t>(args.GetInt("max-batch", 1));
    for (const TenantSpec& tenant : spec.value().tenants) {
      options.tenant_weights.emplace_back(tenant.name, tenant.weight);
    }

    MutableGraphView view(graph.ShallowView());
    QueryService service(view.Snapshot(), config, options);
    std::fprintf(stderr, "[bench_workload] %zu workers, %zu tenants, "
                 "%.0fs run...\n", service.num_workers(),
                 spec.value().tenants.size(),
                 spec.value().duration_seconds);

    WorkloadDriver driver(spec.value(), &service, &view);
    WorkloadReport measured = driver.Run();
    measured.spec_origin = report.spec_origin;
    report = std::move(measured);
  }

  const std::string out_path =
      args.GetString("out", "BENCH_workload.json");
  const std::string json = report.ToJson();
  if (FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::fprintf(stderr, "[bench_workload] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "bench_workload: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  // Headline numbers on stdout; the JSON has the full breakdown.
  std::printf("wall=%.1fs sent=%llu ok=%llu errors=%llu qps=%.1f\n",
              report.wall_seconds,
              static_cast<unsigned long long>(report.TotalSent()),
              static_cast<unsigned long long>(report.TotalOk()),
              static_cast<unsigned long long>(report.TotalErrors()),
              report.wall_seconds > 0.0
                  ? static_cast<double>(report.TotalOk()) / report.wall_seconds
                  : 0.0);
  for (std::size_t t = 0; t < report.tenant_names.size(); ++t) {
    std::printf("tenant %-10s computed_ok=%llu\n",
                report.tenant_names[t].c_str(),
                static_cast<unsigned long long>(report.computed_ok[t]));
  }

  if (args.HasFlag("check")) {
    const std::string bounds =
        args.GetString("bounds", "bench/workload/baseline.bounds");
    const Status verdict = CheckBoundsFile(report, bounds);
    if (!verdict.ok()) {
      std::fprintf(stderr, "bench_workload: %s\n",
                   verdict.ToString().c_str());
      return 1;
    }
    std::printf("check: all bounds in %s hold\n", bounds.c_str());
  }
  return 0;
}
