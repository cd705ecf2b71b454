// resacc_serve — line-protocol RWR query server over stdin/stdout.
//
//   resacc_serve <graph> [--undirected] [--workers=N] [--queue=N]
//                [--cache-mb=M] [--cache-ttl=SECONDS] [--no-coalesce]
//                [--deadline-ms=D] [--allow-degraded] [--window=W]
//                [--alpha=A] [--epsilon=E] [--seed=S]
//                [--dangling=absorb|source] [--walk-threads=W]
//                [--hybrid] [--hybrid-ratio=R]
//                [--max-batch=B] [--batch-linger-us=U]
//                [--stats-interval=SECONDS] [--compact-threshold=R]
//                [--snapshot-prefix=PATH]
//                [--invalidation=targeted|flush] [--invalidation-slack=S]
//                [--tenants=name:weight,...]
//
// --tenants configures multi-tenant QoS (ServeOptions::tenant_weights):
// each named tenant gets its own bounded admission lane and a weighted
// fair share of the workers; requests name their tenant with a trailing
// `tenant=<name>` token (below). Unknown or absent tenants ride the
// implicit weight-1 default lane. A configured name is one or more of
// [A-Za-z0-9_.-] (IsValidTenantName). An unknown option, or a --dangling
// or --invalidation value outside its set, exits 2 before the graph loads.
//
// The graph's CSR is checked in O(n + m) right after loading (ValidateCsr,
// graph_snapshot.h); a corrupt graph exits 1 before `ready` instead of
// crashing the first query that reads it.
//
// Protocol (one request per line on stdin, one response line on stdout,
// responses in request order; serve/protocol.h parses and formats every
// line, this file only wires the process):
//   query <source> [top-k]  ->  ok <source> hit=0|1 coalesced=0|1
//                                degraded=0|1 stale=0|1 eps=<achieved>
//                                us=<latency> top <node>:<score> ...
//                               (full solve; the top list is formatted
//                                client-side from the full vector)
//   topk <source> [k]       ->  ok <source> hit=0|1 coalesced=0|1
//                                degraded=0|1 stale=0|1 certified=0|1
//                                k=<k> eps=<achieved> gap=<bound-gap>
//                                us=<latency> top <node>:<est>:<lb>:<ub> ...
//                               (top-k mode, docs/QUERY_MODES.md: the
//                                solver stops on a separation certificate;
//                                each entry carries its score bracket)
//   info                    ->  info nodes=<n> edges=<m> workers=<w>
//                                epoch=<e> gen=<g> overlay=<rows>
//   addedge <u> <v>         ->  ok addedge <u> <v> applied=0|1 epoch=<e>
//   rmedge <u> <v>          ->  ok rmedge <u> <v> applied=0|1 epoch=<e>
//   addnode                 ->  ok addnode <id> epoch=<e>
//   compact                 ->  ok compact gen=<g> folded=<rows> ms=<t>
//   stats                   ->  stats <key=value ...>
//   metrics                 ->  Prometheus text exposition (multi-line),
//                               terminated by a line reading `# EOF`
//   quit                    ->  bye (and exit 0)
//   anything else           ->  err <message>
//
// A request line may be up to 4096 bytes long, newline excluded; a longer
// line is read to its end and answered with one `err line longer than
// 4096 bytes`. Lines are split into whitespace-separated tokens. Node ids,
// top-k and k are unsigned decimal numbers below 2^32: a sign, a non-digit
// or a wider value gets one err line instead of a truncated id. `query` and
// `topk` lines accept optional trailing tokens after the positional
// fields, in any order (the workload harness emits these —
// docs/WORKLOADS.md):
//   tenant=<name>       bill the request to this tenant's lane
//   deadline_ms=<D>     per-request deadline overriding --deadline-ms
//   degraded=0|1        accept a deadline-truncated partial result
// Each is matched as a whole token; a bad value is an err line, and other
// words are ignored so the grammar stays forward-compatible.
//
// Mutations (docs/API.md "Dynamic graphs") are applied synchronously in
// the reader thread before later lines are parsed, so a query sent after
// a mutation always sees it. applied=0 means the mutation validated but
// was a no-op (duplicate add, missing remove); malformed or out-of-range
// mutations come back as err lines. --compact-threshold=R additionally
// folds the delta overlay into a fresh base on a background thread once
// it carries R dirty rows; `compact` forces a fold now.
// --snapshot-prefix=PATH persists every compacted generation as
// PATH.gen<G>.rsg with the generation stamped in the RESACC02 header.
//
// The service registers its metrics in MetricsRegistry::Global(), so a
// `metrics` scrape carries the serve series next to the solver phase
// histograms and walk-engine counters (docs/OBSERVABILITY.md catalogs
// them). --stats-interval=S additionally prints the `stats` key=value
// line to stderr every S seconds.
//
// The reader thread submits queries asynchronously (up to --window in
// flight) while a writer thread streams responses back in order, so a
// pipelining client keeps every worker busy through a plain pipe and a
// stop-and-wait client still gets each answer immediately.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/stats_reporter.h"
#include "resacc/serve/protocol.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/args.h"
#include "resacc/util/bounded_queue.h"
#include "resacc/util/timer.h"

namespace {

using namespace resacc;
using protocol::Verb;

// One stdout line, or the metrics frame: the answer to a query or topk
// request waiting on its future, a deferred stats or metrics snapshot, or
// an already-formatted line (any other verb, or an err). A single writer
// thread consumes these in submission order, which is what lets clients
// correlate responses by position — and what makes a `stats` line reflect
// every query answered before it.
struct OutputItem {
  protocol::Request request;
  std::future<QueryResponse> future;
  std::string literal;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: resacc_serve <graph> [--workers=N] [--queue=N] "
                 "[--cache-mb=M] [--no-coalesce] [--deadline-ms=D] "
                 "[--window=W] [--walk-threads=W] "
                 "[--stats-interval=SECONDS]\n");
    return 2;
  }

  // Every option is read before the graph loads, so an unknown option or
  // a bad value exits 2 before any work.
  RwrConfig config;  // delta and p_f follow the graph's size once it loads
  config.alpha = args.GetDouble("alpha", config.alpha);
  config.epsilon = args.GetDouble("epsilon", config.epsilon);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0x5eed));
  // Same default as `resacc query`, so the two tools agree on sink graphs.
  const std::string dangling = args.GetString("dangling", "absorb");
  if (dangling != "absorb" && dangling != "source") {
    std::fprintf(stderr, "resacc_serve: --dangling=%s (want absorb|source)\n",
                 dangling.c_str());
    return 2;
  }
  config.dangling = dangling == "source" ? DanglingPolicy::kBackToSource
                                         : DanglingPolicy::kAbsorb;

  ServeOptions options;
  options.num_workers = static_cast<std::size_t>(args.GetInt("workers", 0));
  options.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue", 1024));
  options.cache_bytes =
      static_cast<std::size_t>(args.GetInt("cache-mb", 64)) * 1024 * 1024;
  options.coalesce = !args.HasFlag("no-coalesce");
  options.default_deadline_seconds =
      args.GetDouble("deadline-ms", 0.0) / 1e3;
  // Staleness/degradation knobs (docs/API.md): a TTL turns on the
  // serve-stale-under-overload admission control; --allow-degraded makes
  // every query accept a deadline-truncated partial result (tagged
  // degraded=1 with its honest eps) instead of an err line.
  options.cache_ttl_seconds = args.GetDouble("cache-ttl", 0.0);
  const bool allow_degraded = args.HasFlag("allow-degraded");
  // Walk-phase threads per worker solver. Default 1: the service already
  // runs one solver per worker, and scores never depend on this knob
  // (walk_engine.h), so raising it only trades worker throughput for
  // single-query latency — useful with --workers=1 on a big machine.
  options.solver.walk_threads =
      static_cast<std::size_t>(args.GetInt("walk-threads", 1));
  // --hybrid arms the local/dense selector (core/power_iter.h): hub
  // sources go to whole-graph power iteration when their local cost beats
  // --hybrid-ratio x the dense bound. The knobs are part of the result
  // cache's config hash, so cached entries never cross selection policies.
  options.solver.hybrid.enable = args.HasFlag("hybrid");
  options.solver.hybrid.cost_ratio = args.GetDouble("hybrid-ratio", 1.0);
  // Gathering (docs/API.md "Batched solving"): a worker gathers up to
  // --max-batch queued queries — lingering --batch-linger-us for
  // stragglers — and runs them as that many serial solves, answering each
  // as its solve ends. Answers are bit-identical to lone queries; the
  // knobs only shape queueing and latency.
  options.max_batch = static_cast<std::size_t>(args.GetInt("max-batch", 1));
  options.batch_linger_us =
      static_cast<std::uint64_t>(args.GetInt("batch-linger-us", 0));
  // One process, one service: share the process-wide registry so the
  // `metrics` verb sees serve, solver, and walk-engine series together.
  options.metrics_registry = &MetricsRegistry::Global();
  const std::string invalidation =
      args.GetString("invalidation", "targeted");
  if (invalidation != "targeted" && invalidation != "flush") {
    std::fprintf(stderr,
                 "resacc_serve: --invalidation=%s (want targeted|flush)\n",
                 invalidation.c_str());
    return 2;
  }
  options.invalidation = invalidation == "flush"
                             ? ServeOptions::InvalidationMode::kFlushAll
                             : ServeOptions::InvalidationMode::kTargeted;
  options.invalidation_slack = args.GetDouble("invalidation-slack", 0.5);
  // Multi-tenant QoS: --tenants=gold:4,bronze:1 maps each name to a fair
  // queue lane with that weight (see the header comment's protocol notes).
  const std::string tenants_flag = args.GetString("tenants", "");
  for (std::size_t pos = 0; pos < tenants_flag.size();) {
    std::size_t comma = tenants_flag.find(',', pos);
    if (comma == std::string::npos) comma = tenants_flag.size();
    const std::string item = tenants_flag.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    const std::string name =
        colon == std::string::npos ? item : item.substr(0, colon);
    const double weight =
        colon == std::string::npos
            ? 1.0
            : std::atof(item.c_str() + colon + 1);
    if (!IsValidTenantName(name) || !(weight > 0.0)) {
      std::fprintf(stderr, "resacc_serve: bad --tenants item '%s'\n",
                   item.c_str());
      return 2;
    }
    options.tenant_weights.emplace_back(name, weight);
  }

  MutableGraphOptions view_options;
  view_options.compact_threshold_rows =
      static_cast<std::size_t>(args.GetInt("compact-threshold", 0));
  view_options.snapshot_path_prefix = args.GetString("snapshot-prefix", "");
  // Negative: twice the resolved worker count, known once the service runs.
  const std::int64_t window_flag = args.GetInt("window", -1);
  const double stats_interval = args.GetDouble("stats-interval", 0.0);
  // Only edge-list text loads symmetrize.
  const bool undirected = args.HasFlag("undirected");
  const std::vector<std::string> unknown = args.UnusedOptions();
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "resacc_serve: unknown option --%s\n", name.c_str());
  }
  if (!unknown.empty()) return 2;

  // Startup graph load: .rsg snapshots mmap in O(header) time
  // (graph_snapshot.h), .bin / text formats parse as before. Load time and
  // resident bytes land in the metrics registry so a `metrics` scrape — or
  // an operator diffing restarts — sees what startup cost.
  const std::string& path = args.positionals()[0];
  const bool snapshot =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".rsg") == 0;
  Timer load_timer;
  SnapshotLoadInfo load_info;
  const StatusOr<Graph> graph =
      snapshot ? LoadSnapshot(path, SnapshotLoadOptions{}, &load_info)
               : LoadGraphAuto(path, undirected);
  const double load_seconds = load_timer.ElapsedSeconds();
  // The snapshot load read only the header and the offset anchors; a
  // corrupt edge section would otherwise crash the first query to reach it.
  Timer check_timer;
  const Status valid = graph.ok() ? ValidateCsr(graph.value()) : graph.status();
  const double check_seconds = check_timer.ElapsedSeconds();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }
  MetricsRegistry::Global()
      .GetGauge("resacc_graph_load_seconds", "",
                "Wall-clock seconds loading the serving graph at startup")
      .Set(load_seconds);
  MetricsRegistry::Global()
      .GetGauge("resacc_graph_resident_bytes", "",
                "CSR bytes resident for the serving graph (heap or mapped)")
      .Set(static_cast<double>(graph.value().MemoryBytes()));
  Gauge& generation_gauge = MetricsRegistry::Global().GetGauge(
      "resacc_graph_generation", "",
      "Compaction generation of the serving graph's base CSR");
  generation_gauge.Set(static_cast<double>(load_info.generation));
  std::fprintf(stderr,
               "[serve] graph loaded in %.3fs, CSR checked in %.3fms "
               "(resident=%zu bytes, mmap=%d)\n",
               load_seconds, check_seconds * 1e3, graph.value().MemoryBytes(),
               load_info.mmap_used ? 1 : 0);
  if (snapshot) {
    std::fprintf(stderr, "[serve] snapshot header: format=RESACC%02u "
                 "generation=%llu\n",
                 load_info.format_version,
                 static_cast<unsigned long long>(load_info.generation));
  }
  const RwrConfig sized = RwrConfig::ForGraphSize(graph.value().num_nodes());
  config.delta = sized.delta;
  config.p_f = sized.p_f;

  // The live-graph layer: mutations go through the view; the service is
  // re-pointed at a fresh epoch snapshot after every applied batch. Held
  // in a unique_ptr so the compactor thread can be joined (reset) before
  // the service — whose UpdateGraph the compaction callback calls — is
  // destroyed.
  view_options.initial_generation = load_info.generation;
  auto view = std::make_unique<MutableGraphView>(graph.value().ShallowView(),
                                                 view_options);
  const Graph serving_graph = view->Snapshot();

  QueryService service(serving_graph, config, options);
  view->set_compaction_callback(
      [&service, &generation_gauge, view_ptr = view.get()](
          const CompactionInfo& info) {
        // Same content, new physical base: epoch unchanged, empty delta.
        service.UpdateGraph(view_ptr->Snapshot(), GraphDelta{});
        generation_gauge.Set(static_cast<double>(info.generation));
        std::fprintf(stderr,
                     "[serve] compacted: gen=%llu folded=%zu ms=%.1f%s%s\n",
                     static_cast<unsigned long long>(info.generation),
                     info.folded_rows, info.seconds * 1e3,
                     info.snapshot_path.empty() ? "" : " -> ",
                     info.snapshot_path.c_str());
      });
  const std::size_t window = window_flag >= 0
                                 ? static_cast<std::size_t>(window_flag)
                                 : 2 * service.num_workers();

  std::fprintf(stderr, "[serve] ready: nodes=%u edges=%llu workers=%zu\n",
               graph.value().num_nodes(),
               static_cast<unsigned long long>(graph.value().num_edges()),
               service.num_workers());

  // Periodic one-line stats on stderr (stdout carries the protocol).
  std::unique_ptr<StatsReporter> reporter;
  if (stats_interval > 0.0) {
    reporter = std::make_unique<StatsReporter>(
        stats_interval,
        [&service] { return "[serve] stats " + service.Snapshot().ToLine(); },
        stderr);
  }

  BoundedQueue<OutputItem> output(window > 0 ? window : 1);
  std::thread writer([&output, &service] {
    const auto put_line = [](std::string_view line) {
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fputc('\n', stdout);
    };
    OutputItem item;
    while (output.Pop(item)) {
      const protocol::Request& request = item.request;
      switch (request.verb) {
        case Verb::kQuery:
          put_line(protocol::FormatQueryAnswer(request.source, request.count,
                                               item.future.get()));
          break;
        case Verb::kTopK:
          put_line(
              protocol::FormatTopKAnswer(request.source, item.future.get()));
          break;
        case Verb::kStats:
          put_line(protocol::FormatStats(service.Snapshot()));
          break;
        case Verb::kMetrics:
          // Multi-line frame; `# EOF` tells the client the scrape is done.
          std::fputs(service.metrics().RenderPrometheus().c_str(), stdout);
          put_line(protocol::kMetricsEnd);
          break;
        default:
          put_line(item.literal);
          break;
      }
      std::fflush(stdout);
    }
  });

  auto emit_literal = [&output](std::string text) {
    OutputItem item;
    item.literal = std::move(text);
    output.Push(std::move(item));
  };

  // One byte past the cap is kept, so ParseRequest sees a longer line.
  std::string line;
  bool quit = false;
  while (!quit &&
         protocol::ReadLine(stdin, &line, protocol::kMaxRequestBytes + 1)) {
    StatusOr<protocol::Request> parsed = protocol::ParseRequest(line);
    if (!parsed.ok()) {
      emit_literal(protocol::FormatError(parsed.status().message()));
      continue;
    }
    protocol::Request& request = parsed.value();
    switch (request.verb) {
      case Verb::kNone:
        break;
      case Verb::kQuery:
      case Verb::kTopK:
      case Verb::kStats:
      case Verb::kMetrics: {
        // A `query` is a full solve whose printed top list is cut from the
        // full vector; a `topk` runs the solver's top-k mode.
        OutputItem item;
        if (request.verb == Verb::kQuery || request.verb == Verb::kTopK) {
          item.future = service.Submit(request.ToQueryRequest(allow_degraded));
        }
        item.request = std::move(request);
        output.Push(std::move(item));  // blocks once `window` are in flight
        break;
      }
      case Verb::kInfo: {
        const Graph live = view->Snapshot();
        const MutableGraphStats graph_stats = view->stats();
        emit_literal(protocol::FormatInfo(
            live.num_nodes(), live.num_edges(), service.num_workers(),
            graph_stats.epoch, graph_stats.generation,
            graph_stats.overlay_rows));
        break;
      }
      case Verb::kAddEdge:
      case Verb::kRmEdge: {
        const bool remove = request.verb == Verb::kRmEdge;
        const NodeId u = request.source;
        const NodeId v = request.target;
        GraphDelta delta;
        const Status status = remove ? view->RemoveEdge(u, v, &delta)
                                     : view->AddEdge(u, v, &delta);
        if (!status.ok() && status.code() != StatusCode::kAlreadyExists &&
            status.code() != StatusCode::kNotFound) {
          emit_literal(protocol::FormatError(status.ToString()));
          break;
        }
        // A no-op mutation (duplicate add / missing remove) publishes no
        // epoch and needs no service update.
        if (status.ok()) service.UpdateGraph(view->Snapshot(), delta);
        emit_literal(protocol::FormatEdgeAnswer(remove, u, v, status.ok(),
                                                view->epoch()));
        break;
      }
      case Verb::kAddNode: {
        GraphDelta delta;
        const NodeId id = view->AddNode(&delta);
        service.UpdateGraph(view->Snapshot(), delta);
        emit_literal(protocol::FormatAddNodeAnswer(id, view->epoch()));
        break;
      }
      case Verb::kCompact: {
        // The compaction callback re-points the service and the gauge; this
        // verb just reports what the fold did.
        const CompactionInfo compaction = view->Compact();
        emit_literal(protocol::FormatCompactAnswer(compaction.generation,
                                                   compaction.folded_rows,
                                                   compaction.seconds));
        break;
      }
      case Verb::kQuit:
        emit_literal(std::string(protocol::kBye));
        quit = true;
        break;
    }
  }

  output.Close();
  writer.join();
  // Join the compactor before `service` (declared later, destroyed first)
  // goes away: its callback re-points the service.
  view.reset();
  return 0;
}
