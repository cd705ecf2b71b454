#include "workloads.h"

#include <cstdio>
#include <filesystem>

#include "resacc/graph/generators.h"
#include "resacc/graph/graph_snapshot.h"

namespace perfbench {

bool MakeGraphs(const std::string& data_dir) {
  std::filesystem::create_directories(data_dir);
  for (const GraphSpec& spec : {kDenseGraph, kServeGraph}) {
    const std::string path = data_dir + "/" + spec.file;
    if (std::filesystem::exists(path)) continue;
    const resacc::Graph graph = resacc::ChungLuPowerLaw(
        spec.nodes, spec.sampled_edges, spec.exponent, spec.seed);
    // Write-then-rename, so an interrupted run never leaves half a graph.
    const std::string partial = path + ".partial";
    const resacc::Status status = resacc::SaveSnapshot(graph, partial);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return false;
    }
    std::filesystem::rename(partial, path);
    std::fprintf(stderr, "perfbench: wrote %s (n=%u, m=%llu)\n", path.c_str(),
                 graph.num_nodes(),
                 static_cast<unsigned long long>(graph.num_edges()));
  }
  return true;
}

void AddServeMetrics(const Scrape& before, const Scrape& after,
                     double mutations, Report& report) {
  const auto delta = [&](const std::string& series) {
    return SeriesValue(after, series) - SeriesValue(before, series);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::string p = "resacc_serve_";
  const double hits = delta(p + "cache_hits_total");
  const double misses = delta(p + "cache_misses_total");
  const double kept = delta(p + "cache_kept_total");
  const double invalidated = delta(p + "invalidated_total");
  report.Add("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  report.Add("serve.coalesced_ratio",
             ratio(delta(p + "coalesced_total"), delta(p + "completed_total")),
             "ratio");
  report.Add("serve.cache_kept_ratio", ratio(kept, kept + invalidated),
             "ratio");
  report.Add("serve.invalidated_per_mutation", ratio(invalidated, mutations),
             "count");
  report.Add("serve.batch_size_mean",
             ratio(delta(p + "batch_size_sum"), delta(p + "batch_size_count")),
             "count");
  // Quantiles cannot be differenced; `after` comes from a fresh service.
  const auto ms = [&](const std::string& name, const char* q) {
    return SeriesValue(after, p + name + "{quantile=\"" + q + "\"}") * 1e3;
  };
  report.Add("serve.queue_wait_p50_ms", ms("queue_wait_seconds", "0.5"), "ms");
  report.Add("serve.queue_wait_p99_ms", ms("queue_wait_seconds", "0.99"),
             "ms");
  report.Add("serve.compute_p50_ms", ms("compute_seconds", "0.5"), "ms");
  report.Add("serve.compute_p99_ms", ms("compute_seconds", "0.99"), "ms");

  const double dense = FamilyTotal(after, "resacc_hybrid_dense_total") -
                       FamilyTotal(before, "resacc_hybrid_dense_total");
  const double local = delta("resacc_hybrid_local_total");
  const std::string phase = "{phase=\"dense\"}";
  report.Add("core.dense.ms_per_query",
             ratio(delta("resacc_solver_phase_seconds_sum" + phase),
                   delta("resacc_solver_phase_seconds_count" + phase)) *
                 1e3,
             "ms");
  report.Add("core.dense.share", ratio(dense, dense + local), "ratio");
}

void AddTraceOverhead(const Timeline& plain, const Timeline& traced,
                      Report& report) {
  const auto pct = [](double traced, double plain) {
    return plain > 0.0 ? (traced - plain) / plain * 1e2 : 0.0;
  };
  report.Add("trace.overhead_full_p50_pct",
             pct(traced.FullQuantile(0.5), plain.FullQuantile(0.5)), "%");
  report.Add("trace.overhead_qps_pct", pct(traced.Qps(), plain.Qps()), "%");
}

}  // namespace perfbench
