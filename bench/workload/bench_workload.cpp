// bench_workload — LinkBench-style serving benchmark and regression gate.
//
//   bench_workload [--spec=bench/workload/smoke.spec]
//                  [--out=BENCH_workload.json] [--check] [--bounds=FILE]
//                  [--nodes=N] [--edges=M] [--workers=W] [--queue=C]
//                  [--cache-mb=M] [--no-coalesce] [--max-batch=B]
//
// Builds the standard power-law serving graph (1M edges), stands up an
// in-process QueryService with the spec's tenants mapped to
// weighted-fair-queue lanes, and replays the spec through WorkloadDriver
// (src/resacc/workload/driver.h) over a ServiceTransport. loadgen replays
// the same specs over resacc_serve's line protocol through the same
// driver. The report — per-class and per-tenant p50/p99/p999,
// rejection/deadline/degraded/stale/certified rates, per-tenant fair-share
// throughput — is written to --out as BENCH_workload.json
// (docs/WORKLOADS.md explains every field).
//
// --check gates the report against --bounds (default
// bench/workload/baseline.bounds) and exits nonzero on any violation;
// that is the CI serving-regression gate. An unknown option exits 2
// before the graph is built, and so does a report that cannot be written
// in full, after the run.
//
// Run once with --cache-mb=0 --no-coalesce and once with the defaults on
// a Zipfian spec to measure what the result cache and single-flight
// coalescing save through the same QueryService.

#include <cstdio>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/args.h"
#include "resacc/util/json.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/workload_spec.h"

using namespace resacc;

int main(int argc, char** argv) {
  ArgParser args(argc, argv, {"no-coalesce", "check"});

  const std::string spec_path =
      args.GetString("spec", "bench/workload/smoke.spec");
  const StatusOr<WorkloadSpec> spec = WorkloadSpec::ParseFile(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }

  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 100000));
  const EdgeId edges = static_cast<EdgeId>(args.GetInt("edges", 1000000));
  ServeOptions options;
  options.num_workers = static_cast<std::size_t>(args.GetInt("workers", 0));
  options.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue", 256));
  options.cache_bytes =
      static_cast<std::size_t>(args.GetInt("cache-mb", 64)) * 1024 * 1024;
  options.coalesce = !args.HasFlag("no-coalesce");
  options.max_batch = static_cast<std::size_t>(args.GetInt("max-batch", 1));
  for (const TenantSpec& tenant : spec.value().tenants) {
    options.tenant_weights.emplace_back(tenant.name, tenant.weight);
  }
  const std::string out_path =
      args.GetString("out", "BENCH_workload.json");
  const bool check = args.HasFlag("check");
  const std::string bounds =
      args.GetString("bounds", "bench/workload/baseline.bounds");
  const std::vector<std::string> errors = args.Errors();
  for (const std::string& error : errors) {
    std::fprintf(stderr, "bench_workload: %s\n", error.c_str());
  }
  if (!errors.empty()) return 2;

  std::fprintf(stderr, "[bench_workload] generating graph: %u nodes, "
               "%llu edges...\n", nodes,
               static_cast<unsigned long long>(edges));
  Graph graph = ChungLuPowerLaw(nodes, edges, 2.1, /*seed=*/7);
  const RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());

  MutableGraphView view(graph.ShallowView());
  QueryService service(view.Snapshot(), config, options);
  std::fprintf(stderr, "[bench_workload] %zu workers, %zu tenants, "
               "%.0fs run...\n", service.num_workers(),
               spec.value().tenants.size(), spec.value().duration_seconds);

  ServiceTransport transport(&service, &view);
  WorkloadReport report =
      WorkloadDriver(spec.value(), &transport, graph.num_nodes()).Run();
  report.spec_origin = spec_path;

  const Status written = WriteTextFile(out_path, report.ToJson() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "bench_workload: %s\n", written.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "[bench_workload] wrote %s\n", out_path.c_str());
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

  if (check) {
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
