#include "resacc/graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "resacc/graph/graph_builder.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/util/thread_pool.h"

namespace resacc {

namespace {

// Files below this size are parsed inline; above it, LoadEdgeList splits
// the buffer at newline boundaries and parses chunks on a ThreadPool.
constexpr std::size_t kParallelParseThreshold = std::size_t{1} << 20;

// The header comment SaveEdgeList writes; LoadEdgeList honours the node
// count so save/load round-trips keep trailing isolated nodes.
constexpr char kEdgeListHeader[] = "# resacc edge list:";

// The node count an edge list may ask for: n costs GraphBuilder about 24
// bytes of offsets before a single edge is placed, so n must be justified
// by the bytes read, or a one-line "0 4000000000" file would ask for 96 GB.
// 16 nodes per byte is far above what real files need (a SaveEdgeList file
// of a graph with edges takes several bytes per edge), and small
// hand-written files get kMinNodeBound whatever their size.
constexpr std::uint64_t kNodesPerFileByte = 16;
constexpr std::uint64_t kMinNodeBound = std::uint64_t{1} << 16;

enum class ParseError { kNone, kMalformed, kIdTooLarge };

struct ChunkResult {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId max_id = 0;
  std::size_t lines = 0;  // lines consumed before stopping
  ParseError error = ParseError::kNone;
  std::size_t error_line = 0;  // 1-based, within the chunk
};

// Parses [begin, end); the caller aligns chunk boundaries to newlines.
// Stops at the first bad line (its chunk-local line number is enough to
// reconstruct the global one, because earlier chunks parse completely).
void ParseChunk(const char* begin, const char* end, ChunkResult& out) {
  const char* cursor = begin;
  while (cursor < end) {
    const char* newline = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    const char* next = newline == nullptr ? end : newline + 1;
    const char* line_end = newline == nullptr ? end : newline;
    ++out.lines;
    if (line_end > cursor && line_end[-1] == '\r') --line_end;  // CRLF

    const char* p = cursor;
    while (p < line_end && (*p == ' ' || *p == '\t')) ++p;
    if (p == line_end || *p == '#') {
      cursor = next;
      continue;
    }

    std::uint64_t ids[2] = {0, 0};
    ParseError error = ParseError::kNone;
    for (std::uint64_t& id : ids) {
      while (p < line_end && (*p == ' ' || *p == '\t')) ++p;
      const auto [ptr, ec] = std::from_chars(p, line_end, id);
      if (ec == std::errc::result_out_of_range) {
        error = ParseError::kIdTooLarge;
        break;
      }
      if (ec != std::errc() || ptr == p) {
        error = ParseError::kMalformed;
        break;
      }
      p = ptr;
    }
    if (error == ParseError::kNone &&
        (ids[0] >= kInvalidNode || ids[1] >= kInvalidNode)) {
      error = ParseError::kIdTooLarge;
    }
    if (error != ParseError::kNone) {
      out.error = error;
      out.error_line = out.lines;
      return;
    }
    const NodeId u = static_cast<NodeId>(ids[0]);
    const NodeId v = static_cast<NodeId>(ids[1]);
    out.edges.emplace_back(u, v);
    out.max_id = std::max(out.max_id, std::max(u, v));
    cursor = next;
  }
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open edge list: " + path);
  }
  std::string buffer;
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    buffer.append(chunk, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::Internal("read failed: " + path);
  return buffer;
}

}  // namespace

StatusOr<Graph> LoadEdgeList(const std::string& path, bool symmetrize,
                             std::size_t parse_threads) {
  StatusOr<std::string> contents = ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  const std::string& buffer = contents.value();

  // Node count declared by the SaveEdgeList header comment, if present.
  std::uint64_t declared_nodes = 0;
  if (buffer.rfind(kEdgeListHeader, 0) == 0) {
    const char* p = buffer.data() + sizeof(kEdgeListHeader) - 1;
    const char* line_end = buffer.data() + buffer.size();
    if (const char* newline = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(line_end - p)))) {
      line_end = newline;
    }
    while (p < line_end && *p == ' ') ++p;
    std::from_chars(p, line_end, declared_nodes);
  }

  std::size_t threads = parse_threads;
  if (threads == 0) {
    threads = buffer.size() >= kParallelParseThreshold
                  ? ThreadPool::DefaultThreads()
                  : 1;
  }
  threads = std::max<std::size_t>(1, threads);

  // Newline-aligned chunk boundaries.
  const char* base = buffer.data();
  const char* end = base + buffer.size();
  std::vector<const char*> bounds{base};
  for (std::size_t i = 1; i < threads; ++i) {
    const char* target = base + buffer.size() * i / threads;
    if (target <= bounds.back()) continue;
    const char* newline = static_cast<const char*>(std::memchr(
        target, '\n', static_cast<std::size_t>(end - target)));
    if (newline == nullptr) break;  // remainder is one final line
    if (newline + 1 > bounds.back() && newline + 1 < end) {
      bounds.push_back(newline + 1);
    }
  }
  bounds.push_back(end);

  const std::size_t num_chunks = bounds.size() - 1;
  std::vector<ChunkResult> results(num_chunks);
  if (num_chunks == 1) {
    ParseChunk(bounds[0], bounds[1], results[0]);
  } else {
    ThreadPool pool(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      pool.Submit([&bounds, &results, c] {
        ParseChunk(bounds[c], bounds[c + 1], results[c]);
      });
    }
    pool.Wait();
  }

  // The earliest failed chunk carries the earliest bad line; chunks before
  // it parsed completely, so their line counts are exact.
  std::size_t line_base = 0;
  for (const ChunkResult& result : results) {
    if (result.error != ParseError::kNone) {
      const std::size_t line = line_base + result.error_line;
      if (result.error == ParseError::kMalformed) {
        return Status::InvalidArgument(path + ": malformed line " +
                                       std::to_string(line));
      }
      return Status::OutOfRange(path + ": node id too large at line " +
                                std::to_string(line));
    }
    line_base += result.lines;
  }

  std::size_t total_edges = 0;
  NodeId max_id = 0;
  bool any_edges = false;
  for (const ChunkResult& result : results) {
    total_edges += result.edges.size();
    if (!result.edges.empty()) {
      any_edges = true;
      max_id = std::max(max_id, result.max_id);
    }
  }
  std::uint64_t num_nodes =
      any_edges ? static_cast<std::uint64_t>(max_id) + 1 : 0;
  num_nodes = std::max(num_nodes, declared_nodes);
  const std::uint64_t node_bound =
      kMinNodeBound + kNodesPerFileByte * buffer.size();
  if (num_nodes >= kInvalidNode || num_nodes > node_bound) {
    return Status::OutOfRange(
        path + ": node count " + std::to_string(num_nodes) +
        " is more than a " + std::to_string(buffer.size()) +
        "-byte edge list can justify (at most " + std::to_string(node_bound) +
        ")");
  }

  GraphBuilder builder(static_cast<NodeId>(num_nodes), symmetrize);
  builder.Reserve(total_edges);
  for (const ChunkResult& result : results) {
    for (const auto& [u, v] : result.edges) builder.AddEdge(u, v);
  }
  return std::move(builder).Build();
}

namespace {

constexpr std::uint64_t kBinaryMagic = 0x52455341'43433031ULL;  // "RESACC01"

bool WriteAll(std::FILE* file, const void* data, std::size_t bytes) {
  return std::fwrite(data, 1, bytes, file) == bytes;
}

bool ReadAll(std::FILE* file, void* data, std::size_t bytes) {
  return std::fread(data, 1, bytes, file) == bytes;
}

bool HasSuffix(const std::string& path, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
}

}  // namespace

Status SaveBinary(const Graph& graph, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t num_nodes = graph.num_nodes();
  const std::uint64_t num_edges = graph.num_edges();
  bool ok = WriteAll(file, &magic, sizeof(magic)) &&
            WriteAll(file, &num_nodes, sizeof(num_nodes)) &&
            WriteAll(file, &num_edges, sizeof(num_edges));
  // Out-adjacency, node by node: degree-prefixed neighbour runs keep the
  // writer independent of Graph's internal layout.
  for (NodeId u = 0; ok && u < graph.num_nodes(); ++u) {
    const auto neighbors = graph.OutNeighbors(u);
    const std::uint32_t degree = static_cast<std::uint32_t>(neighbors.size());
    ok = WriteAll(file, &degree, sizeof(degree)) &&
         (neighbors.empty() ||
          WriteAll(file, neighbors.data(), neighbors.size() * sizeof(NodeId)));
  }
  std::fclose(file);
  if (!ok) return Status::Internal("short write: " + path);
  return Status::Ok();
}

StatusOr<Graph> LoadBinary(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open binary graph: " + path);
  }
  std::uint64_t magic = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  if (!ReadAll(file, &magic, sizeof(magic)) ||
      !ReadAll(file, &num_nodes, sizeof(num_nodes)) ||
      !ReadAll(file, &num_edges, sizeof(num_edges))) {
    std::fclose(file);
    return Status::InvalidArgument("truncated header: " + path);
  }
  if (magic != kBinaryMagic) {
    std::fclose(file);
    return Status::InvalidArgument("bad magic (not a resacc graph): " + path);
  }
  if (num_nodes >= kInvalidNode) {
    std::fclose(file);
    return Status::OutOfRange("node count too large: " + path);
  }
  // The format fixes the file size at 24 + 4n + 4m bytes (the header, a
  // degree per node, a target per edge). Checking the header against it
  // first keeps a corrupt edge count from sizing the reservation below.
  const std::uint64_t degree_end = 24 + 4 * num_nodes;
  const long file_size =
      std::fseek(file, 0, SEEK_END) == 0 ? std::ftell(file) : -1;
  const std::uint64_t bytes =
      file_size < 0 ? 0 : static_cast<std::uint64_t>(file_size);
  if (bytes < degree_end || (bytes - degree_end) % 4 != 0 ||
      (bytes - degree_end) / 4 != num_edges ||
      std::fseek(file, 24, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::InvalidArgument(
        "edge count mismatch (header says " + std::to_string(num_nodes) +
        " nodes and " + std::to_string(num_edges) + " edges, file has " +
        std::to_string(file_size) + " bytes): " + path);
  }

  GraphBuilder builder(static_cast<NodeId>(num_nodes));
  builder.Reserve(num_edges);
  std::vector<NodeId> neighbors;
  std::uint64_t degree_total = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    std::uint32_t degree = 0;
    if (!ReadAll(file, &degree, sizeof(degree)) || degree > num_edges) {
      std::fclose(file);
      return Status::InvalidArgument("truncated adjacency: " + path);
    }
    degree_total += degree;
    neighbors.resize(degree);
    if (degree > 0 &&
        !ReadAll(file, neighbors.data(), degree * sizeof(NodeId))) {
      std::fclose(file);
      return Status::InvalidArgument("truncated adjacency: " + path);
    }
    for (NodeId v : neighbors) {
      if (v >= num_nodes) {
        std::fclose(file);
        return Status::OutOfRange("edge target out of range: " + path);
      }
      builder.AddEdge(u, v);
    }
  }
  std::fclose(file);
  // Per-node reads can all succeed on a file truncated (or corrupted) at a
  // node-record boundary; the header's edge count is the cross-check.
  if (degree_total != num_edges) {
    return Status::InvalidArgument(
        "edge count mismatch (header says " + std::to_string(num_edges) +
        ", adjacency has " + std::to_string(degree_total) + "): " + path);
  }
  return std::move(builder).Build();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  std::fprintf(file, "%s %u nodes, %llu edges\n", kEdgeListHeader,
               graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()));
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      std::fprintf(file, "%u\t%u\n", u, v);
    }
  }
  std::fclose(file);
  return Status::Ok();
}

StatusOr<Graph> LoadGraphAuto(const std::string& path, bool symmetrize) {
  if (HasSuffix(path, ".rsg")) return LoadSnapshot(path);
  if (HasSuffix(path, ".bin")) return LoadBinary(path);
  return LoadEdgeList(path, symmetrize);
}

Status SaveGraphAuto(const Graph& graph, const std::string& path) {
  if (HasSuffix(path, ".rsg")) return SaveSnapshot(graph, path);
  if (HasSuffix(path, ".bin")) return SaveBinary(graph, path);
  return SaveEdgeList(graph, path);
}

}  // namespace resacc
