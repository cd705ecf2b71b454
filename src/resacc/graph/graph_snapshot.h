#ifndef RESACC_GRAPH_GRAPH_SNAPSHOT_H_
#define RESACC_GRAPH_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "resacc/graph/graph.h"
#include "resacc/util/status.h"

namespace resacc {

// RESACC02 graph snapshot (.rsg): the four CSR arrays (out_offsets,
// out_targets, in_offsets, in_sources) stored as 64-byte-aligned
// contiguous little-endian sections behind a checksummed 128-byte header.
// Loading is one mmap plus O(header) validation — no per-edge work, no
// GraphBuilder — and yields a Graph that borrows the mapped sections
// (Graph::borrows_storage()). docs/API.md "Graph storage" specifies the
// byte layout; the RESACC01 degree-run format (.bin, graph_io.h) stays
// readable for compatibility.

struct SnapshotLoadOptions {
  // Map the file and borrow the sections in place (zero copy). When false,
  // or on platforms without mmap, the sections are read into owned arrays;
  // the resulting graph is bit-identical either way.
  bool prefer_mmap = true;
  // Recompute the section checksum stored in the header and compare
  // (O(file size); off by default so loads stay O(header)).
  bool verify_section_checksum = false;
};

struct SnapshotLoadInfo {
  bool mmap_used = false;
  std::uint64_t file_bytes = 0;
  // Format version parsed from the magic ("RESACC02" -> 2).
  std::uint32_t format_version = 0;
  // Generation stamped at save time (dynamic graphs: bumped per
  // compaction). Snapshots written before the field existed read as 0.
  std::uint64_t generation = 0;
};

// Writes the graph as a RESACC02 snapshot. O(m) once; every later load is
// O(header). `generation` is stamped into the header (see
// SnapshotLoadInfo); compaction of a live graph writes its new base with
// the bumped generation. A graph carrying a delta overlay is materialized
// into a flat CSR first, so the snapshot is always the merged edge set.
Status SaveSnapshot(const Graph& graph, const std::string& path,
                    std::uint64_t generation = 0);

// Loads a RESACC02 snapshot. Validates magic, endianness tag, header
// checksum, section bounds/sizes, and the cheap CSR structural anchors
// (offsets[0] == 0, offsets[n] == m) before handing out the graph.
StatusOr<Graph> LoadSnapshot(const std::string& path,
                             const SnapshotLoadOptions& options = {},
                             SnapshotLoadInfo* info = nullptr);

// O(n + m) structural check of a flat CSR graph read from outside the
// process, which LoadSnapshot's O(header) validation cannot see into: both
// offset arrays rise monotonically from 0 to m, every id is < n, and the
// in-degrees counted from out_targets equal the in_offsets differences.
// kInvalidArgument naming the first violation. resacc and resacc_serve
// run it on every graph they load.
Status ValidateCsr(const Graph& graph);

// FNV-1a (64-bit) over a byte range, chainable via `seed`; the snapshot's
// header and section checksums. Exposed for tests and tooling.
std::uint64_t SnapshotChecksum(
    const void* data, std::size_t bytes,
    std::uint64_t seed = 14695981039346656037ULL);

}  // namespace resacc

#endif  // RESACC_GRAPH_GRAPH_SNAPSHOT_H_
