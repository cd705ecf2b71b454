#ifndef RESACC_SERVE_PROTOCOL_H_
#define RESACC_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "resacc/core/topk.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/server_stats.h"
#include "resacc/util/status.h"
#include "resacc/util/types.h"

// resacc_serve's line protocol, the one place that knows the wire format:
// the server reads requests and writes answers through it, ProtocolClient
// (workload/protocol_client.h) the other way round. The grammar is
// documented at the top of tools/resacc_serve.cc. No line carries its
// newline.
namespace resacc::protocol {

// Longest request line the server accepts, newline excluded.
inline constexpr std::size_t kMaxRequestBytes = 4096;

// The answer to `quit`, and the line that ends a `metrics` scrape.
inline constexpr std::string_view kBye = "bye";
inline constexpr std::string_view kMetricsEnd = "# EOF";

// Reads the next line of `in` into `line`, keeping at most `keep` bytes:
// the rest of a longer line is read and dropped, so the next call starts
// on the next line. False at end of input.
bool ReadLine(std::FILE* in, std::string* line,
              std::size_t keep = std::string::npos);

enum class Verb : std::uint8_t {
  kNone,  // a blank line: no request, no answer
  kQuery, kTopK, kInfo, kAddEdge, kRmEdge, kAddNode, kCompact, kStats,
  kMetrics, kQuit,
};

// One parsed request line. Fields its verb does not take keep their
// defaults; tokens a verb does not know are ignored.
struct Request {
  Verb verb = Verb::kNone;
  // query/topk: the source. addedge/rmedge: the edge's tail.
  NodeId source = 0;
  // addedge/rmedge: the edge's head.
  NodeId target = 0;
  // query: how many entries of the full vector to print. topk: k (> 0).
  std::uint32_t count = 10;
  // query/topk key=value tokens, accepted in any order; the last wins.
  std::string tenant;                 // tenant=<name>
  std::optional<double> deadline_ms;  // deadline_ms=<D>: finite, >= 0
  bool degraded = false;              // degraded=0|1

  // query/topk: the service request (top_k = count for topk).
  // `server_allows_degraded` is resacc_serve's --allow-degraded.
  QueryRequest ToQueryRequest(bool server_allows_degraded) const;

  bool operator==(const Request&) const = default;
};

// A bad line is kInvalidArgument whose message is its err answer's text:
// "line longer than 4096 bytes", "malformed query line", "malformed topk
// line", "malformed mutation line" or "unknown command '<verb>'".
StatusOr<Request> ParseRequest(std::string_view line);

// The verb and positional fields, then deadline_ms=, degraded=1 and
// tenant= when set; ParseRequest reads it back as `request`. A deadline
// prints with three decimals unless it needs more to read back exactly.
std::string FormatRequest(const Request& request);
// info, addnode, compact, stats, metrics or quit.
std::string FormatRequest(Verb verb);

// The answer lines, in the shapes the grammar documents. The query and
// topk answers are err lines when the response failed (or, for topk,
// carries no payload); a query answer lists the `count` best entries of
// the full vector.
std::string FormatError(std::string_view message);
std::string FormatQueryAnswer(NodeId source, std::size_t count,
                              const QueryResponse& response);
std::string FormatTopKAnswer(NodeId source, const QueryResponse& response);
std::string FormatEdgeAnswer(bool remove, NodeId u, NodeId v, bool applied,
                             std::uint64_t epoch);
std::string FormatAddNodeAnswer(NodeId id, std::uint64_t epoch);
std::string FormatCompactAnswer(std::uint64_t generation,
                                std::size_t folded_rows, double seconds);
std::string FormatInfo(NodeId nodes, EdgeId edges, std::size_t workers,
                       std::uint64_t epoch, std::uint64_t generation,
                       std::size_t overlay_rows);
std::string FormatStats(const ServerStats& stats);

// An answer line read back by tokens.
struct Response {
  std::string tag;  // the first token: ok, err, info, stats or bye
  // err lines: the status named by a leading `CODE: `; a line without one
  // is the server refusing a request line, kInvalidArgument.
  Status status;
  // Bare tokens before `top`: the echoed source, or a mutation's verb and
  // ids.
  std::vector<std::string> words;
  std::vector<std::pair<std::string, double>> fields;  // key=value tokens
  // The entries after `top`; `<node>:<score>` leaves lower and upper 0.
  std::vector<TopKEntry> top;

  // The value of `key=`, or nullopt when the line has no such field.
  std::optional<double> Field(std::string_view key) const;
};

// kInvalidArgument for an empty line, a key=value token whose value is
// not a number, or a malformed `top` entry.
StatusOr<Response> ParseResponse(std::string_view line);

}  // namespace resacc::protocol

#endif  // RESACC_SERVE_PROTOCOL_H_
