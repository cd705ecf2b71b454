// resacc — command-line front end for the library.
//
//   resacc generate --type=chunglu --nodes=100000 --edges=1000000 out.bin
//   resacc stats graph.txt
//   resacc query graph.txt --source=42 --topk=10 [--algo=resacc]
//                [--trace-json=out.json]
//   resacc msrwr graph.txt --sources=1,2,3 [--threads=4]
//   resacc communities graph.txt --count=50
//   resacc convert graph.txt graph.rsg
//
// Graph files ending in .rsg use the mmap'd RESACC02 snapshot, .bin the
// RESACC01 binary format; anything else is read as a SNAP-style edge
// list. `--undirected` symmetrizes on load (text only).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "resacc/algo/fora.h"
#include "resacc/algo/fora_plus.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/algo/power.h"
#include "resacc/algo/topppr.h"
#include "resacc/algo/tpa.h"
#include "resacc/core/parallel_msrwr.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/community_metrics.h"
#include "resacc/graph/datasets.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/graph/graph_stats.h"
#include "resacc/nise/nise.h"
#include "resacc/obs/trace.h"
#include "resacc/util/args.h"
#include "resacc/util/table.h"
#include "resacc/util/timer.h"
#include "resacc/util/top_k.h"

namespace {

using namespace resacc;

// Extension dispatch lives in graph_io.h: .rsg = RESACC02 snapshot,
// .bin = RESACC01 binary, anything else = edge-list text.

// walk_threads: intra-query parallelism of the walk phase (resacc, fora,
// mc; the other solvers have no walk phase). 0 = hardware concurrency.
// Scores do not depend on it (walk_engine.h).
std::unique_ptr<SsrwrAlgorithm> MakeSolver(const std::string& name,
                                           const Graph& graph,
                                           const RwrConfig& config,
                                           std::size_t walk_threads,
                                           const HybridOptions& hybrid = {}) {
  if (name == "resacc") {
    ResAccOptions options;
    options.walk_threads = walk_threads;
    // Hybrid local/dense selection (core/power_iter.h); the other algos
    // have no local/dense split, so the flag only applies here.
    options.hybrid = hybrid;
    return std::make_unique<ResAccSolver>(graph, config, options);
  }
  if (name == "fora") {
    ForaOptions options;
    options.walk_threads = walk_threads;
    return std::make_unique<Fora>(graph, config, options);
  }
  if (name == "mc") {
    return std::make_unique<MonteCarlo>(graph, config, /*walk_scale=*/1.0,
                                        walk_threads);
  }
  if (name == "power") {
    return std::make_unique<PowerIteration>(graph, config);
  }
  if (name == "topppr") return std::make_unique<TopPpr>(graph, config);
  if (name == "fora+") {
    auto solver = std::make_unique<ForaPlus>(graph, config);
    const Status status = solver->BuildIndex();
    if (!status.ok()) {
      std::fprintf(stderr, "FORA+ index: %s\n", status.ToString().c_str());
      return nullptr;
    }
    return solver;
  }
  if (name == "tpa") {
    auto solver = std::make_unique<Tpa>(graph, config);
    const Status status = solver->BuildIndex();
    if (!status.ok()) {
      std::fprintf(stderr, "TPA index: %s\n", status.ToString().c_str());
      return nullptr;
    }
    return solver;
  }
  std::fprintf(stderr,
               "unknown --algo=%s (want resacc|fora|fora+|mc|power|topppr|"
               "tpa)\n",
               name.c_str());
  return nullptr;
}

RwrConfig ConfigFromArgs(const ArgParser& args, const Graph& graph) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.alpha = args.GetDouble("alpha", config.alpha);
  config.epsilon = args.GetDouble("epsilon", config.epsilon);
  config.delta = args.GetDouble("delta", config.delta);
  config.p_f = args.GetDouble("pf", config.p_f);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0x5eed));
  if (args.GetString("dangling", "absorb") == "source") {
    config.dangling = DanglingPolicy::kBackToSource;
  } else {
    config.dangling = DanglingPolicy::kAbsorb;
  }
  return config;
}

int CmdGenerate(const ArgParser& args) {
  if (args.positionals().size() < 2) {
    std::fprintf(stderr, "usage: resacc generate --type=... <out>\n");
    return 2;
  }
  const std::string type = args.GetString("type", "chunglu");
  const NodeId n = static_cast<NodeId>(args.GetInt("nodes", 10000));
  const EdgeId m = static_cast<EdgeId>(args.GetInt("edges", 100000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 42));

  Graph graph;
  if (type == "chunglu") {
    graph = ChungLuPowerLaw(n, m, args.GetDouble("exponent", 2.2), seed,
                            args.HasFlag("undirected"));
  } else if (type == "er") {
    graph = ErdosRenyi(n, m, seed, args.HasFlag("undirected"));
  } else if (type == "ba") {
    graph = BarabasiAlbert(n, static_cast<NodeId>(args.GetInt("attach", 3)),
                           seed);
  } else if (type == "ws") {
    graph = WattsStrogatz(n, static_cast<NodeId>(args.GetInt("k", 4)),
                          args.GetDouble("beta", 0.1), seed);
  } else if (type == "sbm") {
    graph = PlantedPartition(
        n, static_cast<NodeId>(args.GetInt("blocks", 10)),
        args.GetDouble("deg-in", 10.0), args.GetDouble("deg-out", 2.0), seed);
  } else if (type == "dataset") {
    const StatusOr<DatasetSpec> spec =
        FindDataset(args.GetString("name", "dblp-sim"));
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    graph = MakeDataset(spec.value(), args.GetDouble("scale", 1.0), seed);
  } else {
    std::fprintf(stderr, "unknown --type=%s\n", type.c_str());
    return 2;
  }

  const std::string& out = args.positionals()[1];
  const Status status = SaveGraphAuto(graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %s\n", out.c_str(),
              ComputeGraphStats(graph).ToString().c_str());
  return 0;
}

int CmdStats(const ArgParser& args, const Graph& graph) {
  std::printf("%s\n", ComputeGraphStats(graph).ToString().c_str());
  if (args.HasFlag("histogram")) {
    std::printf("out-degree histogram (log2 buckets):\n");
    const auto histogram = DegreeHistogramLog2(graph);
    for (std::size_t bucket = 0; bucket < histogram.size(); ++bucket) {
      std::printf("  [%7u, %7u): %zu\n", 1u << bucket, 2u << bucket,
                  histogram[bucket]);
    }
  }
  return 0;
}

int CmdQuery(const ArgParser& args, const Graph& graph) {
  const RwrConfig config = ConfigFromArgs(args, graph);
  const NodeId source = static_cast<NodeId>(args.GetInt("source", 0));
  if (source >= graph.num_nodes()) {
    std::fprintf(stderr, "--source out of range\n");
    return 2;
  }
  const std::size_t walk_threads =
      static_cast<std::size_t>(args.GetInt("walk-threads", 0));
  // --hybrid arms the local/dense selector (resacc only): hub sources
  // whose local cost beats --hybrid-ratio x the dense-sweep bound are
  // answered by whole-graph power iteration, same (eps, delta) contract.
  HybridOptions hybrid;
  hybrid.enable = args.HasFlag("hybrid");
  hybrid.cost_ratio = args.GetDouble("hybrid-ratio", 1.0);
  auto solver = MakeSolver(args.GetString("algo", "resacc"), graph, config,
                           walk_threads, hybrid);
  if (solver == nullptr) return 1;

  // --trace-json=FILE records the query's span tree (phase nesting and
  // durations) and writes it as JSON; docs/OBSERVABILITY.md documents the
  // schema. Tracing stays off otherwise.
  const std::string trace_path = args.GetString("trace-json", "");
  if (!trace_path.empty()) Trace::Enable();

  Timer timer;
  const std::vector<Score> scores = solver->Query(source);
  const double total_seconds = timer.ElapsedSeconds();
  std::printf("%s query from %u: %s\n", solver->name().c_str(), source,
              FmtSeconds(total_seconds).c_str());

  if (!trace_path.empty()) {
    Trace::Disable();
    const std::uint64_t dropped = Trace::DroppedThreadEvents();
    const std::vector<TraceEvent> events = Trace::DrainThreadEvents();
    std::FILE* out = std::fopen(trace_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"tool\": \"resacc_cli\",\n  \"algo\": \"%s\",\n"
                 "  \"source\": %u,\n  \"total_seconds\": %.9f,\n"
                 "  \"dropped_events\": %llu,\n  \"spans\": %s\n}\n",
                 solver->name().c_str(), source, total_seconds,
                 static_cast<unsigned long long>(dropped),
                 Trace::ToJson(events).c_str());
    std::fclose(out);
    std::fprintf(stderr, "[trace] %zu spans -> %s\n", events.size(),
                 trace_path.c_str());
  }

  const std::size_t k = static_cast<std::size_t>(args.GetInt("topk", 10));
  TextTable table({"rank", "node", "rwr score"});
  int rank = 1;
  for (const auto& [node, score] : TopKPairs(scores, k)) {
    table.AddRow({std::to_string(rank++), std::to_string(node), Fmt(score)});
  }
  table.Print(stdout);
  return 0;
}

int CmdMsrwr(const ArgParser& args, const Graph& graph) {
  const RwrConfig config = ConfigFromArgs(args, graph);
  std::vector<NodeId> sources;
  for (std::int64_t s : args.GetIntList("sources")) {
    if (s >= 0 && static_cast<NodeId>(s) < graph.num_nodes()) {
      sources.push_back(static_cast<NodeId>(s));
    }
  }
  if (sources.empty()) {
    std::fprintf(stderr, "usage: resacc msrwr <graph> --sources=1,2,3\n");
    return 2;
  }
  const std::size_t threads = static_cast<std::size_t>(
      args.GetInt("threads", static_cast<std::int64_t>(
                                 ThreadPool::DefaultThreads())));
  // Split the machine between query-level and walk-level parallelism:
  // each of the `threads` solvers gets hw/threads walk threads unless
  // overridden. With a full pool this degenerates to walk_threads = 1,
  // the one-solver-per-worker rule of walk_engine.h.
  const std::size_t default_walk_threads =
      std::max<std::size_t>(1, ThreadPool::DefaultThreads() / threads);
  const std::size_t walk_threads = static_cast<std::size_t>(args.GetInt(
      "walk-threads", static_cast<std::int64_t>(default_walk_threads)));
  ThreadPool pool(threads);
  Timer timer;
  const auto results = ParallelQueryMany(pool, sources, [&] {
    ResAccOptions options;
    options.walk_threads = walk_threads;
    return std::make_unique<ResAccSolver>(graph, config, options);
  });
  std::printf("MSRWR over %zu sources on %zu threads: %s\n", sources.size(),
              threads, FmtSeconds(timer.ElapsedSeconds()).c_str());
  TextTable table({"source", "top node", "score"});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto top = TopKPairs(results[i], 1);
    table.AddRow({std::to_string(sources[i]), std::to_string(top[0].first),
                  Fmt(top[0].second)});
  }
  table.Print(stdout);
  return 0;
}

int CmdCommunities(const ArgParser& args, const Graph& graph) {
  const RwrConfig config = ConfigFromArgs(args, graph);
  NiseOptions options;
  options.num_communities =
      static_cast<std::size_t>(args.GetInt("count", 50));
  ResAccSolver solver(graph, config, ResAccOptions{});
  Timer timer;
  const NiseResult result = Nise(graph, options).Detect(solver);
  std::printf(
      "NISE found %zu communities in %s (SSRWR time %s)\n"
      "avg normalized cut %.4f, avg conductance %.4f\n",
      result.communities.size(), FmtSeconds(timer.ElapsedSeconds()).c_str(),
      FmtSeconds(result.ssrwr_seconds).c_str(),
      AverageNormalizedCut(graph, result.communities),
      AverageConductance(graph, result.communities));
  if (args.HasFlag("print")) {
    for (std::size_t c = 0; c < result.communities.size(); ++c) {
      std::printf("community %zu (%zu nodes):", c,
                  result.communities[c].size());
      for (NodeId v : result.communities[c]) std::printf(" %u", v);
      std::printf("\n");
    }
  }
  return 0;
}

int CmdConvert(const ArgParser& args, const Graph& graph) {
  if (args.positionals().size() < 3) {
    std::fprintf(stderr, "usage: resacc convert <in> <out>\n");
    return 2;
  }
  const Status status = SaveGraphAuto(graph, args.positionals()[2]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.positionals()[2].c_str());
  return 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "resacc — index-free Random Walk with Restart queries\n\n"
      "commands:\n"
      "  generate --type=chunglu|er|ba|ws|sbm|dataset [opts] <out>\n"
      "  stats <graph> [--histogram]\n"
      "  query <graph> --source=N [--algo=resacc|fora|fora+|mc|power|topppr|tpa]\n"
      "                [--topk=K] [--alpha=A] [--epsilon=E] [--walk-threads=W]\n"
      "                (W threads for the walk phase; 0 = all cores;\n"
      "                 scores are identical for every W)\n"
      "                [--hybrid] [--hybrid-ratio=R]\n"
      "                (resacc only: dense power-iteration fallback for\n"
      "                 hub sources; R scales the local-vs-dense cost bar)\n"
      "  msrwr <graph> --sources=1,2,3 [--threads=T] [--walk-threads=W]\n"
      "                (default W = cores/T, walk parallelism per solver)\n"
      "  communities <graph> [--count=C] [--print]\n"
      "  convert <in> <out>\n\n"
      "graphs: *.rsg = RESACC02 mmap snapshot (fastest to load),\n"
      "        *.bin = RESACC01 binary, otherwise edge-list text\n"
      "        (--undirected symmetrizes on load, text only)\n");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positionals().empty()) {
    PrintUsage();
    return 2;
  }
  const std::string& command = args.positionals()[0];

  if (command == "generate") return CmdGenerate(args);

  if (args.positionals().size() < 2) {
    PrintUsage();
    return 2;
  }
  const StatusOr<Graph> graph =
      LoadGraphAuto(args.positionals()[1], args.HasFlag("undirected"));
  const Status valid = graph.ok() ? ValidateCsr(graph.value()) : graph.status();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }

  if (command == "stats") return CmdStats(args, graph.value());
  if (command == "query") return CmdQuery(args, graph.value());
  if (command == "msrwr") return CmdMsrwr(args, graph.value());
  if (command == "communities") return CmdCommunities(args, graph.value());
  if (command == "convert") return CmdConvert(args, graph.value());

  PrintUsage();
  return 2;
}
