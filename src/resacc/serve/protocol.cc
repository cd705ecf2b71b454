#include "resacc/serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <span>
#include <system_error>

#include "resacc/util/top_k.h"

namespace resacc::protocol {
namespace {

constexpr std::pair<Verb, std::string_view> kVerbNames[] = {
    {Verb::kQuery, "query"},     {Verb::kTopK, "topk"},
    {Verb::kInfo, "info"},       {Verb::kAddEdge, "addedge"},
    {Verb::kRmEdge, "rmedge"},   {Verb::kAddNode, "addnode"},
    {Verb::kCompact, "compact"}, {Verb::kStats, "stats"},
    {Verb::kMetrics, "metrics"}, {Verb::kQuit, "quit"},
};

std::string_view VerbName(Verb verb) {
  for (const auto& [known, name] : kVerbNames) {
    if (known == verb) return name;
  }
  return "";
}

// printf into a new string.
[[gnu::format(printf, 1, 2)]] std::string Format(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  std::string out(static_cast<std::size_t>(
                      std::max(std::vsnprintf(nullptr, 0, format, args), 0)),
                  '\0');
  va_end(args);
  std::vsnprintf(out.data(), out.size() + 1, format, again);
  va_end(again);
  return out;
}

// The fields every `query` and `topk` answer starts with.
std::string AnswerHead(NodeId source, const QueryResponse& response) {
  return Format("ok %u hit=%d coalesced=%d degraded=%d stale=%d", source,
                response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0,
                response.degraded ? 1 : 0, response.stale ? 1 : 0);
}

// The whole token as a number.
template <typename T>
bool ParseWhole(std::string_view token, T* value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

// `line` split at spaces, tabs, carriage returns and newlines.
std::vector<std::string_view> SplitTokens(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\n";
  std::vector<std::string_view> tokens;
  std::size_t begin = line.find_first_not_of(kSpace);
  while (begin != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, begin);
    tokens.push_back(line.substr(begin, end - begin));
    begin = line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

// An unsigned decimal below 2^32, the whole token: no sign, no suffix, and
// no silent truncation of a wider value.
bool ParseU32(std::string_view token, std::uint32_t* value) {
  return ParseWhole(token, value);
}

// Milliseconds with three decimals, as clients have always sent them, or
// with all 17 significant digits when three do not read back exactly.
std::string FormatMs(double ms) {
  const std::string fixed = Format("%.3f", ms);
  return std::strtod(fixed.c_str(), nullptr) == ms ? fixed
                                                   : Format("%.17g", ms);
}

// `<verb> <source> [count] [key=value ...]` into `request`. The count
// (default 10) is the token after the source unless that token is a
// key=value word. False when the source or count is not a 32-bit unsigned
// decimal or a known key has a bad value.
bool ParseQueryFields(std::span<const std::string_view> tokens,
                      Request* request) {
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
      request->deadline_ms = ms;
    } else if (token == "degraded=1" || token == "degraded=0") {
      request->degraded = token.back() == '1';
    } else if (token.starts_with("degraded=")) {
      return false;
    }
  }
  return true;
}

// An err line's text: Status::ToString()'s "CODE: message", or a bare
// message for a request line the server refused.
Status ReadErrorStatus(std::string_view text) {
  // kAlreadyExists is the last code.
  for (int c = static_cast<int>(StatusCode::kInvalidArgument);
       c <= static_cast<int>(StatusCode::kAlreadyExists); ++c) {
    const Status named(static_cast<StatusCode>(c), "");
    const std::string prefix = named.ToString();
    if (text.starts_with(prefix)) {
      return Status(named.code(), std::string(text.substr(prefix.size())));
    }
  }
  return Status::InvalidArgument(std::string(text));
}

// `<node>:<score>` or `<node>:<estimate>:<lower>:<upper>`.
bool ParseEntry(std::string_view token, TopKEntry* entry) {
  double* const values[] = {&entry->estimate, &entry->lower, &entry->upper};
  std::size_t colon = token.find(':');
  if (colon == std::string_view::npos ||
      !ParseU32(token.substr(0, colon), &entry->node)) {
    return false;
  }
  std::size_t parts = 0;
  while (colon != std::string_view::npos && parts < 3) {
    token.remove_prefix(colon + 1);
    colon = token.find(':');
    if (!ParseWhole(token.substr(0, colon), values[parts++])) return false;
  }
  return colon == std::string_view::npos && (parts == 1 || parts == 3);
}

}  // namespace

bool ReadLine(std::FILE* in, std::string* line, std::size_t keep) {
  line->clear();
  char chunk[512];
  bool read_any = false;
  while (std::fgets(chunk, sizeof(chunk), in) != nullptr) {
    read_any = true;
    std::size_t length = std::strlen(chunk);
    const bool complete = length > 0 && chunk[length - 1] == '\n';
    if (complete) --length;
    if (line->size() < keep) {
      line->append(chunk, std::min(length, keep - line->size()));
    }
    if (complete) break;
  }
  return read_any;
}

QueryRequest Request::ToQueryRequest(bool server_allows_degraded) const {
  QueryRequest request;
  request.source = source;
  request.top_k = verb == Verb::kTopK ? count : 0;
  request.deadline_seconds = deadline_ms.value_or(0.0) / 1e3;
  request.allow_degraded = server_allows_degraded || degraded;
  request.tenant = tenant;
  return request;
}

StatusOr<Request> ParseRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Status::InvalidArgument("line longer than " +
                                   std::to_string(kMaxRequestBytes) +
                                   " bytes");
  }
  const std::vector<std::string_view> tokens = SplitTokens(line);
  Request request;
  if (tokens.empty()) return request;
  for (const auto& [verb, name] : kVerbNames) {
    if (name == tokens[0]) request.verb = verb;
  }
  switch (request.verb) {
    case Verb::kNone:
      return Status::InvalidArgument("unknown command '" +
                                     std::string(tokens[0]) + "'");
    case Verb::kQuery:
      if (!ParseQueryFields(tokens, &request)) {
        return Status::InvalidArgument("malformed query line");
      }
      break;
    case Verb::kTopK:
      if (!ParseQueryFields(tokens, &request) || request.count == 0) {
        return Status::InvalidArgument("malformed topk line");
      }
      break;
    case Verb::kAddEdge:
    case Verb::kRmEdge:
      if (tokens.size() < 3 || !ParseU32(tokens[1], &request.source) ||
          !ParseU32(tokens[2], &request.target)) {
        return Status::InvalidArgument("malformed mutation line");
      }
      break;
    default:
      break;
  }
  return request;
}

std::string FormatRequest(const Request& request) {
  std::string line(VerbName(request.verb));
  switch (request.verb) {
    case Verb::kQuery:
    case Verb::kTopK:
      line += Format(" %u %u", request.source, request.count);
      if (request.deadline_ms.has_value()) {
        line += " deadline_ms=" + FormatMs(*request.deadline_ms);
      }
      if (request.degraded) line += " degraded=1";
      if (!request.tenant.empty()) line += " tenant=" + request.tenant;
      break;
    case Verb::kAddEdge:
    case Verb::kRmEdge:
      line += Format(" %u %u", request.source, request.target);
      break;
    default:
      break;
  }
  return line;
}

std::string FormatRequest(Verb verb) { return std::string(VerbName(verb)); }

std::string FormatError(std::string_view message) {
  return "err " + std::string(message);
}

std::string FormatQueryAnswer(NodeId source, std::size_t count,
                              const QueryResponse& response) {
  if (!response.status.ok()) return FormatError(response.status.ToString());
  std::string line = AnswerHead(source, response) +
                     Format(" eps=%.3g us=%.0f top", response.achieved_epsilon,
                            response.latency_seconds * 1e6);
  if (response.scores != nullptr) {
    for (const auto& [node, score] : TopKPairs(*response.scores, count)) {
      line += Format(" %u:%.6e", node, score);
    }
  }
  return line;
}

std::string FormatTopKAnswer(NodeId source, const QueryResponse& response) {
  if (!response.status.ok()) return FormatError(response.status.ToString());
  if (response.topk == nullptr) {
    return FormatError("top-k response missing payload");
  }
  const TopKResult& tk = *response.topk;
  std::string line =
      AnswerHead(source, response) +
      Format(" certified=%d k=%zu eps=%.3g gap=%.3e us=%.0f top",
             tk.certified ? 1 : 0, tk.k, response.achieved_epsilon,
             tk.bound_gap, response.latency_seconds * 1e6);
  for (const TopKEntry& entry : tk.entries) {
    line += Format(" %u:%.6e:%.6e:%.6e", entry.node, entry.estimate,
                   entry.lower, entry.upper);
  }
  return line;
}

std::string FormatEdgeAnswer(bool remove, NodeId u, NodeId v, bool applied,
                             std::uint64_t epoch) {
  return Format("ok %s %u %u applied=%d epoch=%llu",
                remove ? "rmedge" : "addedge", u, v, applied ? 1 : 0,
                static_cast<unsigned long long>(epoch));
}

std::string FormatAddNodeAnswer(NodeId id, std::uint64_t epoch) {
  return Format("ok addnode %u epoch=%llu", id,
                static_cast<unsigned long long>(epoch));
}

std::string FormatCompactAnswer(std::uint64_t generation,
                                std::size_t folded_rows, double seconds) {
  return Format("ok compact gen=%llu folded=%zu ms=%.1f",
                static_cast<unsigned long long>(generation), folded_rows,
                seconds * 1e3);
}

std::string FormatInfo(NodeId nodes, EdgeId edges, std::size_t workers,
                       std::uint64_t epoch, std::uint64_t generation,
                       std::size_t overlay_rows) {
  return Format(
      "info nodes=%u edges=%llu workers=%zu epoch=%llu gen=%llu overlay=%zu",
      nodes, static_cast<unsigned long long>(edges), workers,
      static_cast<unsigned long long>(epoch),
      static_cast<unsigned long long>(generation), overlay_rows);
}

std::string FormatStats(const ServerStats& stats) {
  return "stats " + stats.ToLine();
}

std::optional<double> Response::Field(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return value;
  }
  return std::nullopt;
}

StatusOr<Response> ParseResponse(std::string_view line) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty()) return Status::InvalidArgument("empty answer line");
  Response response;
  response.tag = std::string(tokens[0]);
  if (response.tag == "err") {
    std::string_view text = line.substr(
        static_cast<std::size_t>(tokens[0].data() - line.data()) + 3);
    if (text.starts_with(' ')) text.remove_prefix(1);
    response.status = ReadErrorStatus(text);
    return response;
  }
  bool in_top = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    double value = 0.0;
    if (in_top) {
      TopKEntry& entry = response.top.emplace_back();
      if (!ParseEntry(token, &entry)) {
        return Status::InvalidArgument("bad top entry '" +
                                       std::string(token) + "'");
      }
    } else if (token == "top") {
      in_top = true;
    } else if (eq == std::string_view::npos) {
      response.words.emplace_back(token);
    } else if (ParseWhole(token.substr(eq + 1), &value)) {
      response.fields.emplace_back(std::string(token.substr(0, eq)), value);
    } else {
      return Status::InvalidArgument("bad field '" + std::string(token) + "'");
    }
  }
  return response;
}

}  // namespace resacc::protocol
