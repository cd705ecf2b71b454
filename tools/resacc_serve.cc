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
// implicit weight-1 default lane.
//
// Protocol (one request per line on stdin, one response line on stdout,
// responses in request order):
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

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/stats_reporter.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/args.h"
#include "resacc/util/bounded_queue.h"
#include "resacc/util/timer.h"
#include "resacc/util/top_k.h"

namespace {

using namespace resacc;

// One stdout line: a query response waiting on its future, an
// already-formatted line (info/err/bye), or a deferred stats snapshot. A
// single writer thread consumes these in submission order, which is what
// lets clients correlate responses by position — and what makes a `stats`
// line reflect every query answered before it.
struct OutputItem {
  enum class Kind { kResponse, kLiteral, kStats, kMetrics };
  Kind kind = Kind::kLiteral;
  NodeId source = 0;
  // `query` verb: how many pairs to format from the full vector.
  // `topk` verb (topk_mode): the response carries the entries itself.
  std::size_t top_k = 0;
  bool topk_mode = false;
  std::future<QueryResponse> future;
  std::string literal;
};

// Longest request line accepted, newline excluded. A longer line is still
// read to its end and answered with exactly one err line, so responses stay
// aligned with requests.
constexpr std::size_t kMaxLineBytes = 4096;

// Reads the next whole line of `in` into `line`, without its newline.
// Returns false at end of input. Sets `*too_long` when the line exceeds
// kMaxLineBytes; `line` then holds no more than its first kMaxLineBytes.
bool ReadLine(std::FILE* in, std::string& line, bool* too_long) {
  line.clear();
  *too_long = false;
  char chunk[512];
  bool read_any = false;
  while (std::fgets(chunk, sizeof(chunk), in) != nullptr) {
    read_any = true;
    std::size_t length = std::strlen(chunk);
    const bool complete = length > 0 && chunk[length - 1] == '\n';
    if (complete) --length;
    if (*too_long || line.size() + length > kMaxLineBytes) {
      *too_long = true;
    } else {
      line.append(chunk, length);
    }
    if (complete) break;
  }
  return read_any;
}

// A request line split at whitespace.
std::vector<std::string_view> SplitTokens(const char* line) {
  std::vector<std::string_view> tokens;
  const char* p = line;
  while (*p != '\0') {
    while (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n') ++p;
    const char* begin = p;
    while (*p != '\0' && *p != ' ' && *p != '\t' && *p != '\r' &&
           *p != '\n') {
      ++p;
    }
    if (p != begin) {
      tokens.emplace_back(begin, static_cast<std::size_t>(p - begin));
    }
  }
  return tokens;
}

// An unsigned decimal below 2^32, the whole token: no sign, no suffix, and
// no silent truncation of a wider value.
bool ParseU32(std::string_view token, std::uint32_t* value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

// A parsed `query` / `topk` line: `<verb> <source> [count] [key=value
// ...]`. The trailing tokens (tenant=, deadline_ms=, degraded=) are
// order-independent; unknown words are ignored so the verb grammar stays
// forward-compatible.
struct RequestLine {
  NodeId source = 0;
  std::uint32_t count = 10;
  std::string tenant;
  double deadline_seconds = 0.0;
  bool allow_degraded = false;

  // The service request (top_k left 0); `server_allows_degraded` is the
  // --allow-degraded flag.
  QueryRequest ToRequest(bool server_allows_degraded) const {
    QueryRequest request;
    request.source = source;
    request.deadline_seconds = deadline_seconds;
    request.allow_degraded = server_allows_degraded || allow_degraded;
    request.tenant = tenant;
    return request;
  }
};

// The count (default 10) is the token after the source unless that token
// is a key=value word. False when the source or count is not a 32-bit unsigned
// decimal or a known key has a bad value.
bool ParseRequestLine(std::span<const std::string_view> tokens,
                      RequestLine* request) {
  if (tokens.size() < 2 || !ParseU32(tokens[1], &request->source)) {
    return false;
  }
  std::size_t next = 2;
  if (next < tokens.size() &&
      tokens[next].find('=') == std::string_view::npos) {
    if (!ParseU32(tokens[next], &request->count)) return false;
    ++next;
  }
  for (const std::string_view token : tokens.subspan(next)) {
    if (token.starts_with("tenant=")) {
      request->tenant = std::string(token.substr(7));
    } else if (token.starts_with("deadline_ms=")) {
      const std::string value(token.substr(12));
      char* end = nullptr;
      const double ms = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !std::isfinite(ms) || ms < 0.0) {
        return false;
      }
      request->deadline_seconds = ms / 1e3;
    } else if (token == "degraded=1" || token == "degraded=0") {
      request->allow_degraded = token.back() == '1';
    } else if (token.starts_with("degraded=")) {
      return false;
    }
  }
  return true;
}

void PrintResponse(NodeId source, std::size_t top_k,
                   const QueryResponse& response) {
  if (!response.status.ok()) {
    std::printf("err %s\n", response.status.ToString().c_str());
    return;
  }
  std::printf("ok %u hit=%d coalesced=%d degraded=%d stale=%d eps=%.3g "
              "us=%.0f top",
              source, response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0,
              response.degraded ? 1 : 0, response.stale ? 1 : 0,
              response.achieved_epsilon, response.latency_seconds * 1e6);
  if (response.scores != nullptr) {
    for (const auto& [node, score] : TopKPairs(*response.scores, top_k)) {
      std::printf(" %u:%.6e", node, score);
    }
  }
  std::printf("\n");
}

void PrintTopKResponse(NodeId source, const QueryResponse& response) {
  if (!response.status.ok() || response.topk == nullptr) {
    std::printf("err %s\n", response.status.ok()
                                ? "top-k response missing payload"
                                : response.status.ToString().c_str());
    return;
  }
  const TopKResult& tk = *response.topk;
  std::printf("ok %u hit=%d coalesced=%d degraded=%d stale=%d certified=%d "
              "k=%zu eps=%.3g gap=%.3e us=%.0f top",
              source, response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0,
              response.degraded ? 1 : 0, response.stale ? 1 : 0,
              tk.certified ? 1 : 0, tk.k, response.achieved_epsilon,
              tk.bound_gap, response.latency_seconds * 1e6);
  for (const TopKEntry& entry : tk.entries) {
    std::printf(" %u:%.6e:%.6e:%.6e", entry.node, entry.estimate, entry.lower,
                entry.upper);
  }
  std::printf("\n");
}

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
               : LoadGraphAuto(path, args.HasFlag("undirected"));
  const double load_seconds = load_timer.ElapsedSeconds();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
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
               "[serve] graph loaded in %.3fs (resident=%zu bytes, mmap=%d)\n",
               load_seconds, graph.value().MemoryBytes(),
               load_info.mmap_used ? 1 : 0);
  if (snapshot) {
    std::fprintf(stderr, "[serve] snapshot header: format=RESACC%02u "
                 "generation=%llu\n",
                 load_info.format_version,
                 static_cast<unsigned long long>(load_info.generation));
  }

  RwrConfig config = RwrConfig::ForGraphSize(graph.value().num_nodes());
  config.alpha = args.GetDouble("alpha", config.alpha);
  config.epsilon = args.GetDouble("epsilon", config.epsilon);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0x5eed));
  // Same default as `resacc query`, so the two tools agree on sink graphs.
  config.dangling = args.GetString("dangling", "absorb") == "source"
                        ? DanglingPolicy::kBackToSource
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
  options.invalidation =
      args.GetString("invalidation", "targeted") == "flush"
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
    if (name.empty() || name == "default" || !(weight > 0.0)) {
      std::fprintf(stderr, "resacc_serve: bad --tenants item '%s'\n",
                   item.c_str());
      return 2;
    }
    options.tenant_weights.emplace_back(name, weight);
  }

  // The live-graph layer: mutations go through the view; the service is
  // re-pointed at a fresh epoch snapshot after every applied batch. Held
  // in a unique_ptr so the compactor thread can be joined (reset) before
  // the service — whose UpdateGraph the compaction callback calls — is
  // destroyed.
  MutableGraphOptions view_options;
  view_options.compact_threshold_rows =
      static_cast<std::size_t>(args.GetInt("compact-threshold", 0));
  view_options.snapshot_path_prefix = args.GetString("snapshot-prefix", "");
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
  const std::size_t window = static_cast<std::size_t>(args.GetInt(
      "window", static_cast<std::int64_t>(2 * service.num_workers())));

  std::fprintf(stderr, "[serve] ready: nodes=%u edges=%llu workers=%zu\n",
               graph.value().num_nodes(),
               static_cast<unsigned long long>(graph.value().num_edges()),
               service.num_workers());

  // Periodic one-line stats on stderr (stdout carries the protocol).
  std::unique_ptr<StatsReporter> reporter;
  const double stats_interval = args.GetDouble("stats-interval", 0.0);
  if (stats_interval > 0.0) {
    reporter = std::make_unique<StatsReporter>(
        stats_interval,
        [&service] { return "[serve] stats " + service.Snapshot().ToLine(); },
        stderr);
  }

  BoundedQueue<OutputItem> output(window > 0 ? window : 1);
  std::thread writer([&output, &service] {
    OutputItem item;
    while (output.Pop(item)) {
      switch (item.kind) {
        case OutputItem::Kind::kLiteral:
          std::printf("%s\n", item.literal.c_str());
          break;
        case OutputItem::Kind::kResponse:
          if (item.topk_mode) {
            PrintTopKResponse(item.source, item.future.get());
          } else {
            PrintResponse(item.source, item.top_k, item.future.get());
          }
          break;
        case OutputItem::Kind::kStats:
          std::printf("stats %s\n", service.Snapshot().ToLine().c_str());
          break;
        case OutputItem::Kind::kMetrics:
          // Multi-line frame; `# EOF` tells the client the scrape is done.
          std::fputs(service.metrics().RenderPrometheus().c_str(), stdout);
          std::printf("# EOF\n");
          break;
      }
      std::fflush(stdout);
    }
  });

  auto emit_literal = [&output](std::string text) {
    OutputItem item;
    item.kind = OutputItem::Kind::kLiteral;
    item.literal = std::move(text);
    output.Push(std::move(item));
  };

  std::string line;
  bool too_long = false;
  bool quit = false;
  while (!quit && ReadLine(stdin, line, &too_long)) {
    if (too_long) {
      emit_literal("err line longer than " + std::to_string(kMaxLineBytes) +
                   " bytes");
      continue;
    }
    const std::vector<std::string_view> tokens = SplitTokens(line.c_str());
    if (tokens.empty()) continue;
    const std::string_view command = tokens[0];

    if (command == "query") {
      RequestLine parsed;
      if (!ParseRequestLine(tokens, &parsed)) {
        emit_literal("err malformed query line");
        continue;
      }
      // Full-solve semantics: top_k stays 0 on the request (top-k mode is
      // the `topk` verb); the printed top list is cut client-side.
      const QueryRequest request = parsed.ToRequest(allow_degraded);
      OutputItem item;
      item.kind = OutputItem::Kind::kResponse;
      item.source = request.source;
      item.top_k = parsed.count;
      item.future = service.Submit(request);
      output.Push(std::move(item));  // blocks once `window` are in flight
    } else if (command == "topk") {
      RequestLine parsed;
      if (!ParseRequestLine(tokens, &parsed) || parsed.count == 0) {
        emit_literal("err malformed topk line");
        continue;
      }
      QueryRequest request = parsed.ToRequest(allow_degraded);
      request.top_k = parsed.count;
      OutputItem item;
      item.kind = OutputItem::Kind::kResponse;
      item.source = request.source;
      item.topk_mode = true;
      item.future = service.Submit(request);
      output.Push(std::move(item));
    } else if (command == "info") {
      const Graph live = view->Snapshot();
      const MutableGraphStats graph_stats = view->stats();
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "info nodes=%u edges=%llu workers=%zu epoch=%llu "
                    "gen=%llu overlay=%zu",
                    live.num_nodes(),
                    static_cast<unsigned long long>(live.num_edges()),
                    service.num_workers(),
                    static_cast<unsigned long long>(graph_stats.epoch),
                    static_cast<unsigned long long>(graph_stats.generation),
                    graph_stats.overlay_rows);
      emit_literal(buf);
    } else if (command == "addedge" || command == "rmedge") {
      NodeId u = 0;
      NodeId v = 0;
      if (tokens.size() < 3 || !ParseU32(tokens[1], &u) ||
          !ParseU32(tokens[2], &v)) {
        emit_literal("err malformed mutation line");
        continue;
      }
      const bool remove = command == "rmedge";
      GraphDelta delta;
      const Status status = remove ? view->RemoveEdge(u, v, &delta)
                                   : view->AddEdge(u, v, &delta);
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists &&
          status.code() != StatusCode::kNotFound) {
        emit_literal("err " + status.ToString());
        continue;
      }
      // A no-op mutation (duplicate add / missing remove) publishes no
      // epoch and needs no service update.
      if (status.ok()) service.UpdateGraph(view->Snapshot(), delta);
      char buf[128];
      std::snprintf(buf, sizeof(buf), "ok %s %u %u applied=%d epoch=%llu",
                    remove ? "rmedge" : "addedge", u, v, status.ok() ? 1 : 0,
                    static_cast<unsigned long long>(view->epoch()));
      emit_literal(buf);
    } else if (command == "addnode") {
      GraphDelta delta;
      const NodeId id = view->AddNode(&delta);
      service.UpdateGraph(view->Snapshot(), delta);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "ok addnode %u epoch=%llu", id,
                    static_cast<unsigned long long>(view->epoch()));
      emit_literal(buf);
    } else if (command == "compact") {
      // The compaction callback re-points the service and the gauge; this
      // verb just reports what the fold did.
      const CompactionInfo compaction = view->Compact();
      char buf[128];
      std::snprintf(buf, sizeof(buf), "ok compact gen=%llu folded=%zu ms=%.1f",
                    static_cast<unsigned long long>(compaction.generation),
                    compaction.folded_rows, compaction.seconds * 1e3);
      emit_literal(buf);
    } else if (command == "stats") {
      OutputItem item;
      item.kind = OutputItem::Kind::kStats;
      output.Push(std::move(item));
    } else if (command == "metrics") {
      OutputItem item;
      item.kind = OutputItem::Kind::kMetrics;
      output.Push(std::move(item));
    } else if (command == "quit") {
      emit_literal("bye");
      quit = true;
    } else {
      emit_literal("err unknown command '" + std::string(command) + "'");
    }
  }

  output.Close();
  writer.join();
  // Join the compactor before `service` (declared later, destroyed first)
  // goes away: its callback re-points the service.
  view.reset();
  return 0;
}
