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
// list. `--undirected` symmetrizes on load (text only). An option the
// command does not know exits 2 before a graph is loaded or made.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

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
#include "resacc/util/json.h"
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

// Reads the query-configuration flags and returns the function that makes
// the config for the loaded graph (--delta and --pf default to 1/n there),
// or null after a message when --dangling is not absorb or source.
std::function<RwrConfig(const Graph&)> ConfigFromArgs(const ArgParser& args) {
  RwrConfig flags;
  flags.alpha = args.GetDouble("alpha", flags.alpha);
  flags.epsilon = args.GetDouble("epsilon", flags.epsilon);
  flags.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0x5eed));
  const std::string dangling = args.GetString("dangling", "absorb");
  if (dangling != "absorb" && dangling != "source") {
    std::fprintf(stderr, "resacc: --dangling=%s (want absorb|source)\n",
                 dangling.c_str());
    return nullptr;
  }
  flags.dangling = dangling == "source" ? DanglingPolicy::kBackToSource
                                        : DanglingPolicy::kAbsorb;
  const double unset = std::numeric_limits<double>::quiet_NaN();
  const double delta = args.GetDouble("delta", unset);
  const double p_f = args.GetDouble("pf", unset);
  return [=](const Graph& graph) {
    const RwrConfig sized = RwrConfig::ForGraphSize(graph.num_nodes());
    RwrConfig config = flags;
    config.delta = std::isnan(delta) ? sized.delta : delta;
    config.p_f = std::isnan(p_f) ? sized.p_f : p_f;
    return config;
  };
}

// Each command reads every option it accepts, on every path, and returns
// the function that does its work: main rejects unknown options before a
// graph is loaded or made. A null command means a bad option value.
using Command = std::function<int(const Graph&)>;

Command CmdGenerate(const ArgParser& args) {
  const std::string type = args.GetString("type", "chunglu");
  const NodeId n = static_cast<NodeId>(args.GetInt("nodes", 10000));
  const EdgeId m = static_cast<EdgeId>(args.GetInt("edges", 100000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const bool undirected = args.HasFlag("undirected");
  const double exponent = args.GetDouble("exponent", 2.2);
  const NodeId attach = static_cast<NodeId>(args.GetInt("attach", 3));
  const NodeId k = static_cast<NodeId>(args.GetInt("k", 4));
  const double beta = args.GetDouble("beta", 0.1);
  const NodeId blocks = static_cast<NodeId>(args.GetInt("blocks", 10));
  const double deg_in = args.GetDouble("deg-in", 10.0);
  const double deg_out = args.GetDouble("deg-out", 2.0);
  const std::string name = args.GetString("name", "dblp-sim");
  const double scale = args.GetDouble("scale", 1.0);
  const std::string out = args.positionals()[1];
  return [=](const Graph&) {
    Graph graph;
    if (type == "chunglu") {
      graph = ChungLuPowerLaw(n, m, exponent, seed, undirected);
    } else if (type == "er") {
      graph = ErdosRenyi(n, m, seed, undirected);
    } else if (type == "ba") {
      graph = BarabasiAlbert(n, attach, seed);
    } else if (type == "ws") {
      graph = WattsStrogatz(n, k, beta, seed);
    } else if (type == "sbm") {
      graph = PlantedPartition(n, blocks, deg_in, deg_out, seed);
    } else if (type == "dataset") {
      const StatusOr<DatasetSpec> spec = FindDataset(name);
      if (!spec.ok()) {
        std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
        return 1;
      }
      graph = MakeDataset(spec.value(), scale, seed);
    } else {
      std::fprintf(stderr, "unknown --type=%s\n", type.c_str());
      return 2;
    }
    const Status status = SaveGraphAuto(graph, out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: %s\n", out.c_str(),
                ComputeGraphStats(graph).ToString().c_str());
    return 0;
  };
}

Command CmdStats(const ArgParser& args) {
  const bool histogram = args.HasFlag("histogram");
  return [=](const Graph& graph) {
    std::printf("%s\n", ComputeGraphStats(graph).ToString().c_str());
    if (histogram) {
      std::printf("out-degree histogram (log2 buckets):\n");
      const auto buckets = DegreeHistogramLog2(graph);
      for (std::size_t bucket = 0; bucket < buckets.size(); ++bucket) {
        std::printf("  [%7u, %7u): %zu\n", 1u << bucket, 2u << bucket,
                    buckets[bucket]);
      }
    }
    return 0;
  };
}

Command CmdQuery(const ArgParser& args) {
  const auto make_config = ConfigFromArgs(args);
  if (!make_config) return nullptr;
  const NodeId source = static_cast<NodeId>(args.GetInt("source", 0));
  const std::size_t k = static_cast<std::size_t>(args.GetInt("topk", 10));
  const std::string algo = args.GetString("algo", "resacc");
  const std::size_t walk_threads =
      static_cast<std::size_t>(args.GetInt("walk-threads", 0));
  // --hybrid arms the local/dense selector (resacc only): hub sources
  // whose local cost beats --hybrid-ratio x the dense-sweep bound are
  // answered by whole-graph power iteration, same (eps, delta) contract.
  HybridOptions hybrid;
  hybrid.enable = args.HasFlag("hybrid");
  hybrid.cost_ratio = args.GetDouble("hybrid-ratio", 1.0);
  // --trace-json=FILE records the query's span tree (phase nesting and
  // durations) and writes it as JSON; docs/OBSERVABILITY.md documents the
  // schema. Tracing stays off otherwise.
  const std::string trace_path = args.GetString("trace-json", "");
  return [=](const Graph& graph) {
    if (source >= graph.num_nodes()) {
      std::fprintf(stderr, "--source out of range\n");
      return 2;
    }
    auto solver =
        MakeSolver(algo, graph, make_config(graph), walk_threads, hybrid);
    if (solver == nullptr) return 1;

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
      JsonWriter json;
      json.BeginObject()
          .Field("tool", "resacc_cli")
          .Field("algo", solver->name())
          .Field("source", source)
          .Field("total_seconds", total_seconds)
          .Field("dropped_events", dropped)
          .Key("spans");
      Trace::WriteJson(events, json);
      json.EndObject();
      const Status written = WriteTextFile(trace_path, json.str() + "\n");
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 2;
      }
      std::fprintf(stderr, "[trace] %zu spans -> %s\n", events.size(),
                   trace_path.c_str());
    }

    TextTable table({"rank", "node", "rwr score"});
    int rank = 1;
    for (const auto& [node, score] : TopKPairs(scores, k)) {
      table.AddRow({std::to_string(rank++), std::to_string(node), Fmt(score)});
    }
    table.Print(stdout);
    return 0;
  };
}

Command CmdMsrwr(const ArgParser& args) {
  const auto make_config = ConfigFromArgs(args);
  if (!make_config) return nullptr;
  const std::vector<std::int64_t> requested = args.GetIntList("sources");
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
  return [=](const Graph& graph) {
    std::vector<NodeId> sources;
    for (std::int64_t s : requested) {
      if (s >= 0 && static_cast<NodeId>(s) < graph.num_nodes()) {
        sources.push_back(static_cast<NodeId>(s));
      }
    }
    if (sources.empty()) {
      std::fprintf(stderr, "usage: resacc msrwr <graph> --sources=1,2,3\n");
      return 2;
    }
    const RwrConfig config = make_config(graph);
    ThreadPool pool(threads);
    Timer timer;
    const auto results = ParallelQueryMany(pool, sources, [&] {
      ResAccOptions options;
      options.walk_threads = walk_threads;
      return std::make_unique<ResAccSolver>(graph, config, options);
    });
    std::printf("MSRWR over %zu sources on %zu threads: %s\n",
                sources.size(), threads,
                FmtSeconds(timer.ElapsedSeconds()).c_str());
    TextTable table({"source", "top node", "score"});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto top = TopKPairs(results[i], 1);
      table.AddRow({std::to_string(sources[i]), std::to_string(top[0].first),
                    Fmt(top[0].second)});
    }
    table.Print(stdout);
    return 0;
  };
}

Command CmdCommunities(const ArgParser& args) {
  const auto make_config = ConfigFromArgs(args);
  if (!make_config) return nullptr;
  NiseOptions options;
  options.num_communities =
      static_cast<std::size_t>(args.GetInt("count", 50));
  const bool print = args.HasFlag("print");
  return [=](const Graph& graph) {
    ResAccSolver solver(graph, make_config(graph), ResAccOptions{});
    Timer timer;
    const NiseResult result = Nise(graph, options).Detect(solver);
    std::printf(
        "NISE found %zu communities in %s (SSRWR time %s)\n"
        "avg normalized cut %.4f, avg conductance %.4f\n",
        result.communities.size(), FmtSeconds(timer.ElapsedSeconds()).c_str(),
        FmtSeconds(result.ssrwr_seconds).c_str(),
        AverageNormalizedCut(graph, result.communities),
        AverageConductance(graph, result.communities));
    if (print) {
      for (std::size_t c = 0; c < result.communities.size(); ++c) {
        std::printf("community %zu (%zu nodes):", c,
                    result.communities[c].size());
        for (NodeId v : result.communities[c]) std::printf(" %u", v);
        std::printf("\n");
      }
    }
    return 0;
  };
}

Command CmdConvert(const ArgParser& args) {
  if (args.positionals().size() < 3) {
    std::fprintf(stderr, "usage: resacc convert <in> <out>\n");
    return nullptr;
  }
  const std::string out = args.positionals()[2];
  return [=](const Graph& graph) {
    const Status status = SaveGraphAuto(graph, out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
  };
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
  ArgParser args(argc, argv, {"undirected", "histogram", "hybrid", "print"});
  if (args.positionals().size() < 2) {
    PrintUsage();
    return 2;
  }
  const std::string& command = args.positionals()[0];
  // Only edge-list loads read --undirected, and generate reads it too.
  const bool undirected = args.HasFlag("undirected");
  Command run;
  if (command == "generate") {
    run = CmdGenerate(args);
  } else if (command == "stats") {
    run = CmdStats(args);
  } else if (command == "query") {
    run = CmdQuery(args);
  } else if (command == "msrwr") {
    run = CmdMsrwr(args);
  } else if (command == "communities") {
    run = CmdCommunities(args);
  } else if (command == "convert") {
    run = CmdConvert(args);
  } else {
    PrintUsage();
    return 2;
  }
  if (!run) return 2;
  const std::vector<std::string> errors = args.Errors();
  for (const std::string& error : errors) {
    std::fprintf(stderr, "resacc: %s\n", error.c_str());
  }
  if (!errors.empty()) return 2;
  if (command == "generate") return run(Graph());

  const StatusOr<Graph> graph =
      LoadGraphAuto(args.positionals()[1], undirected);
  const Status valid = graph.ok() ? ValidateCsr(graph.value()) : graph.status();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }
  return run(graph.value());
}
