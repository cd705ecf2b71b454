// Serving benchmark: QueryService under a closed-loop Zipfian workload.
//
// Replays the same skewed source distribution against a cold service
// (cache disabled) and a warm service (cache + coalescing on) and reports
// QPS, p50/p95/p99 latency, and the cache hit rate — the quantitative
// case for the serving layer: with zero index to build (the paper's
// index-free property), reuse across repeated sources is pure win.
//
// Extra env knobs on top of bench_common's:
//   RESACC_SERVE_QUERIES  queries per phase            (default 256)
//   RESACC_SERVE_CLIENTS  concurrent client threads    (default 8)
//   RESACC_SERVE_ZIPF     Zipfian theta                (default 0.99)
//   RESACC_SERVE_TOPK     top-k mode k; 0 = full-vector (default 0)
//
// With `--topk_json=PATH` the binary records the top-k-vs-full-vector
// solver comparison (docs/QUERY_MODES.md "Top-k"): ResAccSolver::QueryTopK
// at k in {10, 100} against full QueryControlled on a 1M-edge graph, in a
// remedy-dominant configuration (tight delta, walk_scale 1) — the regime
// the early-termination certificate is built to win in. Also verifies the
// bound certificates against power-iteration ground truth on a source
// subsample. Exits non-zero unless every checked certificate holds and
// top-k@10 beats full-vector throughput. Knobs:
//   RESACC_TOPK_NODES        graph nodes               (default 5000)
//   RESACC_TOPK_EDGES        graph edges               (default 1000000)
//   RESACC_TOPK_SOURCES      query sources             (default 32)
//   RESACC_TOPK_ALPHA        restart probability       (default 0.15)
//   RESACC_TOPK_DELTA        RWR threshold delta       (default 1e-5)
//   RESACC_TOPK_RMAXF        OMFWD threshold r_max^f   (default 1e-5)
//   RESACC_TOPK_HOPS         h-HopFWD hop count        (default 1)
//   RESACC_TOPK_WALK_SCALE   remedy walk scale         (default 1.0)
//   RESACC_TOPK_PROFIT_SLACK walk-step price in edges  (default inf)
//   RESACC_TOPK_REPS         best-of repetitions       (default 3)
//   RESACC_TOPK_VERIFY       sources checked vs truth  (default 8)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/eval/sources.h"
#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/workload.h"
#include "resacc/util/stats.h"

namespace {

using namespace resacc;
using namespace resacc::bench;

struct PhaseResult {
  double seconds = 0.0;
  ServerStats stats;
};

PhaseResult RunPhase(const Graph& graph, const RwrConfig& config,
                     const ServeOptions& options,
                     const std::vector<NodeId>& sources,
                     std::size_t num_clients, std::size_t top_k) {
  QueryService service(graph, config, options);
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Client c issues sources {c, c + C, c + 2C, ...}, closed-loop.
      for (std::size_t i = c; i < sources.size(); i += num_clients) {
        QueryRequest request;
        request.source = sources[i];
        request.top_k = top_k;
        const QueryResponse response = service.Query(request);
        if (!response.status.ok()) {
          std::fprintf(stderr, "[bench_serve] query failed: %s\n",
                       response.status.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  PhaseResult result;
  result.seconds = wall.ElapsedSeconds();
  result.stats = service.Snapshot();
  return result;
}

void AddRow(TextTable& table, const char* phase, const PhaseResult& r,
            std::size_t queries) {
  char qps[32], p50[32], p95[32], p99[32], hit[32], saved[32];
  std::snprintf(qps, sizeof(qps), "%.1f",
                static_cast<double>(queries) / r.seconds);
  std::snprintf(p50, sizeof(p50), "%.2f", r.stats.latency.p50 * 1e3);
  std::snprintf(p95, sizeof(p95), "%.2f", r.stats.latency.p95 * 1e3);
  std::snprintf(p99, sizeof(p99), "%.2f", r.stats.latency.p99 * 1e3);
  std::snprintf(hit, sizeof(hit), "%.1f%%", r.stats.CacheHitRate() * 100);
  std::snprintf(saved, sizeof(saved), "%llu",
                static_cast<unsigned long long>(r.stats.completed -
                                                r.stats.computed));
  table.AddRow({phase, qps, p50, p95, p99, hit, saved});
}

// Times one solver mode (thunk called once per source) over `reps`
// repetitions and returns the best rep's QPS (the solvers are
// deterministic, so every rep computes identical results; best-of-N
// suppresses scheduler/VM interference, and every mode gets the same
// treatment).
template <typename PerSourceFn>
double ModeQps(const std::vector<NodeId>& sources, int reps,
               PerSourceFn&& per_source) {
  double best_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    for (NodeId s : sources) per_source(s, rep == 0);
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(sources.size()) / best_seconds;
}

int RunTopKRecord(const std::string& json_path) {
  const NodeId nodes =
      static_cast<NodeId>(GetEnvInt("RESACC_TOPK_NODES", 5000));
  const std::uint64_t edges =
      static_cast<std::uint64_t>(GetEnvInt("RESACC_TOPK_EDGES", 1000000));
  const std::size_t num_sources =
      static_cast<std::size_t>(GetEnvInt("RESACC_TOPK_SOURCES", 32));

  std::fprintf(stderr, "[bench_serve] generating top-k bench graph "
               "(n=%u, m=%llu)...\n", nodes,
               static_cast<unsigned long long>(edges));
  const Graph graph = ChungLuPowerLaw(nodes, edges, 2.1, /*seed=*/7);
  // Remedy-dominant configuration: a loose r_max^f leaves substantial
  // residue for the walk phase and a tight delta makes the Theorem-3 walk
  // count expensive — exactly the work the separation certificate (or the
  // residue-draining fallback) avoids.
  RwrConfig config;
  config.alpha = GetEnvDouble("RESACC_TOPK_ALPHA", 0.15);
  config.epsilon = 0.5;
  config.delta = GetEnvDouble("RESACC_TOPK_DELTA", 1e-5);
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  ResAccOptions options;
  options.num_hops =
      static_cast<std::uint32_t>(GetEnvInt("RESACC_TOPK_HOPS", 1));
  options.walk_scale = GetEnvDouble("RESACC_TOPK_WALK_SCALE", 1.0);
  options.r_max_f = GetEnvDouble("RESACC_TOPK_RMAXF", 1e-5);
  // Unpriced by default: refinement runs until rank k separates or r_max
  // hits its floor, so the record measures what a certificate is worth at
  // this config. The library default prices a walk step at 4 pushed edges
  // and hands a query to the walks once its pushes cost more than they
  // would; set RESACC_TOPK_PROFIT_SLACK to measure a price.
  options.topk.profit_slack = GetEnvDouble(
      "RESACC_TOPK_PROFIT_SLACK", std::numeric_limits<double>::infinity());

  ResAccSolver solver(graph, config, options);
  const std::vector<NodeId> sources =
      PickUniformSources(graph, num_sources, /*seed=*/7 ^ 0x70b1);
  const int reps =
      std::max(1, static_cast<int>(GetEnvInt("RESACC_TOPK_REPS", 3)));

  const double full_qps = ModeQps(sources, reps, [&](NodeId s, bool) {
    const ControlledQueryResult r = solver.QueryControlled(s, QueryControl{});
    if (!r.status.ok()) {
      std::fprintf(stderr, "[bench_serve] full query failed: %s\n",
                   r.status.ToString().c_str());
    }
  });

  std::vector<TopKResult> topk10(sources.size());
  std::vector<TopKResult> topk100(sources.size());
  std::size_t next = 0;
  const double topk10_qps = ModeQps(sources, reps, [&](NodeId s, bool first) {
    TopKResult r = solver.QueryTopK(s, 10);
    if (first) topk10[next++] = std::move(r);
  });
  next = 0;
  const double topk100_qps = ModeQps(sources, reps, [&](NodeId s, bool first) {
    TopKResult r = solver.QueryTopK(s, 100);
    if (first) topk100[next++] = std::move(r);
  });

  // Certificate audit against power-iteration ground truth on a source
  // subsample (full coverage would dominate the smoke's runtime): every
  // certified entry's [lower, upper] must bracket the true score, and no
  // excluded node may exceed outsider_upper — the Definition-1 exactness
  // the certificate claims, with no failure probability.
  const std::size_t verify = std::min(
      sources.size(),
      static_cast<std::size_t>(GetEnvInt("RESACC_TOPK_VERIFY", 8)));
  GroundTruthCache truth(graph, config);
  bool cert_ok = true;
  std::size_t certified10 = 0, certified100 = 0;
  for (const TopKResult& r : topk10) certified10 += r.certified ? 1 : 0;
  for (const TopKResult& r : topk100) certified100 += r.certified ? 1 : 0;
  for (std::size_t i = 0; i < verify; ++i) {
    const std::vector<Score>& exact = truth.Get(sources[i]);
    for (const std::vector<TopKResult>* batch : {&topk10, &topk100}) {
      const TopKResult& r = (*batch)[i];
      if (!r.certified) continue;
      std::vector<bool> listed(exact.size(), false);
      for (const TopKEntry& e : r.entries) {
        listed[e.node] = true;
        if (exact[e.node] < e.lower - 1e-12 ||
            exact[e.node] > e.upper + 1e-12) {
          cert_ok = false;
          std::fprintf(stderr,
                       "[bench_serve] CERT VIOLATION source=%u node=%u "
                       "true=%.3e not in [%.3e, %.3e]\n",
                       sources[i], e.node, exact[e.node], e.lower, e.upper);
        }
      }
      for (NodeId v = 0; v < static_cast<NodeId>(exact.size()); ++v) {
        if (!listed[v] && exact[v] > r.outsider_upper + 1e-12) {
          cert_ok = false;
          std::fprintf(stderr,
                       "[bench_serve] CERT VIOLATION source=%u excluded "
                       "node=%u true=%.3e > outsider_upper=%.3e\n",
                       sources[i], v, exact[v], r.outsider_upper);
        }
      }
    }
  }

  const bool topk_wins = topk10_qps > full_qps;
  std::printf("top-k vs full-vector (ResAcc, n=%u, m=%llu, %zu sources, "
              "delta=%g, r_max_f=%g):\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              sources.size(), config.delta, options.r_max_f);
  std::printf("  full      %8.2f qps\n", full_qps);
  std::printf("  topk@10   %8.2f qps  (%.2fx, %zu/%zu certified)\n",
              topk10_qps, topk10_qps / full_qps, certified10,
              sources.size());
  std::printf("  topk@100  %8.2f qps  (%.2fx, %zu/%zu certified)\n",
              topk100_qps, topk100_qps / full_qps, certified100,
              sources.size());
  std::printf("  certificates vs ground truth (%zu sources): %s\n", verify,
              cert_ok ? "ok" : "VIOLATED");

  // JSON has no infinity: an unpriced run records the price as "inf".
  char profit_slack[32] = "\"inf\"";
  if (std::isfinite(options.topk.profit_slack)) {
    std::snprintf(profit_slack, sizeof(profit_slack), "%g",
                  options.topk.profit_slack);
  }
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"topk_vs_full\",\n"
                 "  \"graph\": {\"nodes\": %u, \"edges\": %llu,"
                 " \"generator\": \"chung_lu_powerlaw_2.1\"},\n"
                 "  \"config\": {\"alpha\": %g, \"epsilon\": %g,"
                 " \"delta\": %g, \"p_f\": %g, \"num_hops\": %u,"
                 " \"walk_scale\": %g, \"r_max_f\": %g,"
                 " \"profit_slack\": %s},\n"
                 "  \"sources\": %zu,\n"
                 "  \"full_qps\": %.4f,\n"
                 "  \"topk10_qps\": %.4f,\n"
                 "  \"topk100_qps\": %.4f,\n"
                 "  \"speedup_topk10\": %.4f,\n"
                 "  \"speedup_topk100\": %.4f,\n"
                 "  \"certified_topk10\": %zu,\n"
                 "  \"certified_topk100\": %zu,\n"
                 "  \"verified_sources\": %zu,\n"
                 "  \"certificates_ok\": %s\n"
                 "}\n",
                 graph.num_nodes(),
                 static_cast<unsigned long long>(graph.num_edges()),
                 config.alpha, config.epsilon, config.delta, config.p_f,
                 options.num_hops, options.walk_scale, options.r_max_f,
                 profit_slack,
                 sources.size(), full_qps, topk10_qps, topk100_qps,
                 topk10_qps / full_qps, topk100_qps / full_qps, certified10,
                 certified100, verify, cert_ok ? "true" : "false");
    std::fclose(f);
    std::printf("  record written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "[bench_serve] cannot write %s\n",
                 json_path.c_str());
    return 2;
  }
  return (cert_ok && topk_wins) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char kTopKFlag[] = "--topk_json=";
    if (std::strncmp(argv[i], kTopKFlag, sizeof(kTopKFlag) - 1) == 0) {
      return RunTopKRecord(argv[i] + sizeof(kTopKFlag) - 1);
    }
  }
  const BenchEnv env = BenchEnv::FromEnv();
  PrintPreamble("bench_serve: QueryService under Zipfian load", env);

  const std::size_t queries = static_cast<std::size_t>(
      GetEnvInt("RESACC_SERVE_QUERIES", 256));
  const std::size_t clients = static_cast<std::size_t>(
      GetEnvInt("RESACC_SERVE_CLIENTS", 8));
  const double theta = GetEnvDouble("RESACC_SERVE_ZIPF", 0.99);
  // top_k > 0 now selects the serve layer's first-class top-k mode
  // (QueryRequest::top_k), so the default stays a full-vector bench.
  const std::size_t top_k =
      static_cast<std::size_t>(GetEnvInt("RESACC_SERVE_TOPK", 0));

  const auto datasets = LoadDatasets({"dblp-sim"}, env);
  const Graph& graph = datasets[0].graph;
  const RwrConfig config = BenchConfig(graph, env.seed);

  ZipfianSources workload(graph.num_nodes(), theta, env.seed ^ 0x21Af);
  Rng rng(env.seed);
  const std::vector<NodeId> sources = workload.Sample(queries, rng);

  std::printf("%s: %zu queries, %zu clients, zipf theta=%.2f, top-%zu\n\n",
              DatasetLabel(datasets[0]).c_str(), queries, clients, theta,
              top_k);

  ServeOptions cold;
  cold.num_workers = ThreadPool::DefaultThreads();
  cold.cache_bytes = 0;
  cold.coalesce = false;

  ServeOptions warm = cold;
  warm.cache_bytes = static_cast<std::size_t>(256) << 20;
  warm.coalesce = true;

  const PhaseResult cold_result =
      RunPhase(graph, config, cold, sources, clients, top_k);
  const PhaseResult warm_result =
      RunPhase(graph, config, warm, sources, clients, top_k);

  TextTable table(
      {"phase", "qps", "p50 ms", "p95 ms", "p99 ms", "hit rate", "saved"});
  AddRow(table, "cold (no cache)", cold_result, queries);
  AddRow(table, "warm (cache+coalesce)", warm_result, queries);
  table.Print(stdout);

  std::printf("\nwarm speedup: %.2fx  (saved = completed - computed: "
              "queries answered without running the solver)\n",
              cold_result.seconds / warm_result.seconds);
  std::printf("\nserver stats (warm phase):\n%s\n",
              warm_result.stats.ToString().c_str());
  return 0;
}
