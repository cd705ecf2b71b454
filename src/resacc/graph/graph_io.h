#ifndef RESACC_GRAPH_GRAPH_IO_H_
#define RESACC_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <string>

#include "resacc/graph/graph.h"
#include "resacc/util/status.h"

namespace resacc {

// Edge-list text format (SNAP style): one "from<ws>to" pair per line,
// '#'-prefixed comment lines ignored, CRLF tolerated, lines of any
// length. Tokens after the first two integers on a line are ignored
// (weighted edge lists load fine). If the file starts with the
// "# resacc edge list: N nodes" header that SaveEdgeList writes, N is
// honoured, so round-trips preserve trailing isolated nodes; otherwise
// num_nodes = max id + 1. A node count above 2^16 + 16 per byte of the
// file is refused with OutOfRange before anything is sized by it.
//
// `symmetrize` treats the file as an undirected graph (each line becomes
// two directed edges), matching the paper's handling of DBLP/Orkut/etc.
//
// `parse_threads` controls parallel ingestion: the file is chunked at
// newline boundaries and the chunks parsed on a ThreadPool. 0 = choose
// automatically (all cores for files >= 1 MiB, sequential below). The
// resulting graph is identical for every thread count.
StatusOr<Graph> LoadEdgeList(const std::string& path, bool symmetrize = false,
                             std::size_t parse_threads = 0);

// Writes the graph as a directed edge list (sorted by source, then target)
// with a "# resacc edge list: N nodes, M edges" header comment.
Status SaveEdgeList(const Graph& graph, const std::string& path);

// RESACC01 binary format: magic + counts + degree-prefixed out-adjacency
// runs (the in-adjacency is rebuilt on load). An order of magnitude
// faster than text, but still O(m) GraphBuilder work per load; prefer the
// RESACC02 snapshot (graph/graph_snapshot.h) for large graphs.
// Little-endian, not portable across endianness.
Status SaveBinary(const Graph& graph, const std::string& path);
StatusOr<Graph> LoadBinary(const std::string& path);

// Extension dispatch shared by the tools: .rsg -> RESACC02 snapshot
// (mmap, graph_snapshot.h), .bin -> RESACC01 binary, anything else ->
// edge-list text (`symmetrize` applies to text only).
StatusOr<Graph> LoadGraphAuto(const std::string& path,
                              bool symmetrize = false);
Status SaveGraphAuto(const Graph& graph, const std::string& path);

}  // namespace resacc

#endif  // RESACC_GRAPH_GRAPH_IO_H_
