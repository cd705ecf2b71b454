// Regression + round-trip coverage for the storage layer: the edge-list
// parser rewrite (long lines, CRLF, header comment, parallel chunking),
// the RESACC01 binary cross-checks, and the RESACC02 mmap snapshot
// (graph_snapshot.h) including corruption detection and the borrowed-span
// ownership model.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/core/resacc_solver.h"
#include "resacc/graph/datasets.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_builder.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/util/rng.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), file),
            contents.size());
  std::fclose(file);
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  if (offset < 0) {
    std::fseek(file, 0, SEEK_END);
    offset = std::ftell(file) + offset;
  }
  std::fseek(file, offset, SEEK_SET);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  std::fseek(file, offset, SEEK_SET);
  std::fputc(byte ^ 0xff, file);
  std::fclose(file);
}

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  const auto expect_eq = [](auto lhs, auto rhs, const char* what) {
    ASSERT_EQ(lhs.size(), rhs.size()) << what;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      ASSERT_EQ(lhs[i], rhs[i]) << what << "[" << i << "]";
    }
  };
  expect_eq(a.raw_out_offsets(), b.raw_out_offsets(), "out_offsets");
  expect_eq(a.raw_out_targets(), b.raw_out_targets(), "out_targets");
  expect_eq(a.raw_in_offsets(), b.raw_in_offsets(), "in_offsets");
  expect_eq(a.raw_in_sources(), b.raw_in_sources(), "in_sources");
}

// --- Edge-list parser ----------------------------------------------------

// The old fgets parser silently split any line longer than 255 bytes,
// turning one edge into garbage tokens. The buffer-based parser has no
// line-length limit.
TEST(EdgeListTest, AcceptsLinesLongerThan256Bytes) {
  const std::string path = TempPath("long_lines.txt");
  std::string contents = "# " + std::string(500, 'x') + "\n";
  contents += "0 1\n";
  contents += std::string(300, ' ') + "1" + std::string(200, ' ') + "2\n";
  contents += "2\t0   trailing tokens are ignored\n";
  WriteFile(path, contents);

  const StatusOr<Graph> graph = LoadEdgeList(path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().num_nodes(), 3u);
  EXPECT_EQ(graph.value().num_edges(), 3u);
  EXPECT_TRUE(graph.value().HasEdge(0, 1));
  EXPECT_TRUE(graph.value().HasEdge(1, 2));
  EXPECT_TRUE(graph.value().HasEdge(2, 0));
  std::remove(path.c_str());
}

TEST(EdgeListTest, AcceptsCrlfLineEndings) {
  const std::string path = TempPath("crlf.txt");
  WriteFile(path, "# exported on Windows\r\n0 1\r\n\r\n1 2\r\n2 0\r\n");

  const StatusOr<Graph> graph = LoadEdgeList(path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().num_nodes(), 3u);
  EXPECT_EQ(graph.value().num_edges(), 3u);
  std::remove(path.c_str());
}

// Node 5 (and 4) have no edges; without the header comment the loader
// would shrink the graph to max_id + 1 = 4 nodes.
TEST(EdgeListTest, RoundTripPreservesTrailingIsolatedNodes) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  const Graph graph = std::move(builder).Build();
  ASSERT_EQ(graph.num_nodes(), 6u);

  const std::string path = TempPath("isolated_tail.txt");
  ASSERT_TRUE(SaveEdgeList(graph, path).ok());
  const StatusOr<Graph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 6u);
  ExpectSameCsr(graph, loaded.value());
  std::remove(path.c_str());
}

TEST(EdgeListTest, ParallelParseMatchesSequential) {
  const Graph graph = ChungLuPowerLaw(3000, 30000, 2.2, 7);
  const std::string path = TempPath("parallel_parse.txt");
  ASSERT_TRUE(SaveEdgeList(graph, path).ok());

  const StatusOr<Graph> seq = LoadEdgeList(path, false, 1);
  const StatusOr<Graph> par = LoadEdgeList(path, false, 4);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ExpectSameCsr(graph, seq.value());
  ExpectSameCsr(seq.value(), par.value());
  std::remove(path.c_str());
}

// A bad line in a late chunk must still be reported with its global line
// number (chunk-local counts are summed across the preceding chunks).
TEST(EdgeListTest, ParallelParseReportsGlobalLineNumbers) {
  const std::string path = TempPath("bad_line.txt");
  std::string contents;
  for (int i = 0; i < 30; ++i) contents += "1 2\n";
  contents += "completely bogus\n";  // line 31
  WriteFile(path, contents);

  const StatusOr<Graph> graph = LoadEdgeList(path, false, 4);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().ToString().find("line 31"), std::string::npos)
      << graph.status().ToString();
  std::remove(path.c_str());
}

TEST(EdgeListTest, RejectsNodeIdAtInvalidNode) {
  const std::string path = TempPath("huge_id.txt");
  WriteFile(path, "0 1\n4294967295 1\n");
  const StatusOr<Graph> graph = LoadEdgeList(path);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(graph.status().ToString().find("line 2"), std::string::npos)
      << graph.status().ToString();
  std::remove(path.c_str());
}

// --- RESACC01 binary -----------------------------------------------------

// A file truncated exactly at a node-record boundary passes every
// per-node read; the header edge count is the only cross-check. The old
// loader skipped it and returned a silently smaller graph.
TEST(BinaryGraphTest, RejectsEdgeCountMismatch) {
  const std::string path = TempPath("edge_count_mismatch.bin");
  std::string bytes;
  const auto append = [&bytes](const void* data, std::size_t n) {
    bytes.append(static_cast<const char*>(data), n);
  };
  const std::uint64_t magic = 0x52455341'43433031ULL;  // "RESACC01"
  const std::uint64_t num_nodes = 2;
  const std::uint64_t num_edges = 3;  // adjacency below only carries 1
  append(&magic, sizeof(magic));
  append(&num_nodes, sizeof(num_nodes));
  append(&num_edges, sizeof(num_edges));
  const std::uint32_t degree0 = 1;
  const std::uint32_t target = 1;
  const std::uint32_t degree1 = 0;
  append(&degree0, sizeof(degree0));
  append(&target, sizeof(target));
  append(&degree1, sizeof(degree1));
  WriteFile(path, bytes);

  const StatusOr<Graph> graph = LoadBinary(path);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().ToString().find("edge count mismatch"),
            std::string::npos)
      << graph.status().ToString();
  std::remove(path.c_str());
}

// --- RESACC02 snapshot ---------------------------------------------------

TEST(SnapshotTest, MmapRoundTripIsBitIdentical) {
  const Graph graph = ChungLuPowerLaw(2000, 20000, 2.2, 5);
  const std::string path = TempPath("roundtrip.rsg");
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());

  SnapshotLoadInfo info;
  const StatusOr<Graph> loaded = LoadSnapshot(path, {}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(info.mmap_used);
  EXPECT_GT(info.file_bytes, 128u);
  EXPECT_TRUE(loaded.value().borrows_storage());
  ExpectSameCsr(graph, loaded.value());
  std::remove(path.c_str());
}

TEST(SnapshotTest, BufferedLoadMatchesMmap) {
  const Graph graph = ChungLuPowerLaw(800, 6400, 2.2, 6);
  const std::string path = TempPath("buffered.rsg");
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());

  const StatusOr<Graph> mapped = LoadSnapshot(path);
  SnapshotLoadOptions buffered_options;
  buffered_options.prefer_mmap = false;
  buffered_options.verify_section_checksum = true;
  const StatusOr<Graph> buffered = LoadSnapshot(path, buffered_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_FALSE(buffered.value().borrows_storage());
  ExpectSameCsr(mapped.value(), buffered.value());

  // Same bytes in, same scores out: a solved query over the mapped graph
  // is bit-identical to one over the buffered copy.
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 11;
  ResAccSolver mapped_solver(mapped.value(), config, ResAccOptions{});
  ResAccSolver buffered_solver(buffered.value(), config, ResAccOptions{});
  const std::vector<Score> a = mapped_solver.Query(3);
  const std::vector<Score> b = buffered_solver.Query(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    ASSERT_DOUBLE_EQ(a[v], b[v]) << "node " << v;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, DetectsHeaderCorruption) {
  const std::string path = TempPath("bad_header.rsg");
  ASSERT_TRUE(SaveSnapshot(testing::Figure1Graph(), path).ok());
  FlipByteAt(path, 32);  // inside the section table
  const StatusOr<Graph> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, DetectsSectionCorruptionWhenVerifying) {
  const std::string path = TempPath("bad_section.rsg");
  ASSERT_TRUE(SaveSnapshot(testing::Figure1Graph(), path).ok());
  FlipByteAt(path, -1);  // last byte of the in_sources section

  // The default O(header) load cannot see a payload flip...
  ASSERT_TRUE(LoadSnapshot(path).ok());
  // ...but the optional O(m) section checksum does.
  SnapshotLoadOptions options;
  options.verify_section_checksum = true;
  const StatusOr<Graph> verified = LoadSnapshot(path, options);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verified.status().ToString().find("section checksum"),
            std::string::npos)
      << verified.status().ToString();
  std::remove(path.c_str());
}

// Header bytes 40 + 8 s hold the file offset of CSR section s (0
// out_offsets, 1 out_targets, 2 in_offsets, 3 in_sources).
std::uint64_t SectionOffset(const std::string& path, int section) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::uint64_t offset = 0;
  std::fseek(file, 40 + 8 * section, SEEK_SET);
  EXPECT_EQ(std::fread(&offset, sizeof(offset), 1, file), 1u);
  std::fclose(file);
  return offset;
}

template <typename T>
void WriteAt(const std::string& path, std::uint64_t offset,
             const std::vector<T>& values) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, static_cast<long>(offset), SEEK_SET);
  ASSERT_EQ(std::fwrite(values.data(), sizeof(T), values.size(), file),
            values.size());
  std::fclose(file);
}

// The O(header) load cannot see into the edge sections; ValidateCsr,
// which resacc_serve runs on every graph it loads, must catch what would
// otherwise crash the first query to read a bad row.
TEST(SnapshotTest, ValidateCsrRejectsCorruptSections) {
  const Graph graph = ChungLuPowerLaw(2000, 16000, 2.2, /*seed=*/5);
  const std::string path = TempPath("corrupt_csr.rsg");
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());
  EXPECT_TRUE(ValidateCsr(graph).ok());
  {
    const StatusOr<Graph> clean = LoadSnapshot(path);
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(ValidateCsr(clean.value()).ok());
  }
  const auto expect_rejected = [&path](const char* what) {
    const StatusOr<Graph> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << what;
    const Status status = ValidateCsr(loaded.value());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(status.message().find("corrupt CSR"), std::string::npos)
        << what << ": " << status.ToString();
  };

  // 64 out_targets overwritten with an id far past n.
  WriteAt(path, SectionOffset(path, 1),
          std::vector<NodeId>(64, NodeId{0x7FFFFF00}));
  expect_rejected("ids past n");

  // One target moved to another valid id: in-degrees no longer match.
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());
  const NodeId first = graph.raw_out_targets()[0];
  WriteAt(path, SectionOffset(path, 1),
          std::vector<NodeId>{static_cast<NodeId>((first + 1) % 2000)});
  expect_rejected("in-degree mismatch");

  // An interior out_offsets entry past its successor.
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());
  WriteAt(path, SectionOffset(path, 0) + 10 * sizeof(EdgeId),
          std::vector<EdgeId>{graph.num_edges()});
  expect_rejected("offsets not monotone");
  std::remove(path.c_str());
}

std::string ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::string contents;
  char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    contents.append(chunk, got);
  }
  std::fclose(file);
  return contents;
}

// Deterministic fuzz of .rsg bytes, in workload_spec_test's idiom: 500
// mutants of a small valid snapshot, each with 1-4 edits (a byte, a bit,
// an 8-byte word set to a boundary value, or a truncation), half of them
// in the 128-byte header. Half the mutants get their header checksum
// recomputed, so the field checks behind it run too. Every mutant either
// fails LoadSnapshot or ValidateCsr with a status, or passes both and
// answers a ResAccSolver query with finite, non-negative scores.
TEST(SnapshotTest, FuzzedSnapshotsFailCleanlyOrAnswer) {
  const Graph graph = ChungLuPowerLaw(200, 1200, 2.2, /*seed=*/9);
  const std::string path = TempPath("fuzz.rsg");
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());
  const std::string base = ReadFile(path);
  constexpr std::size_t kHeader = 128;
  constexpr std::size_t kChecksumAt = 120;
  ASSERT_GT(base.size(), kHeader);
  const std::uint64_t n = graph.num_nodes();
  const std::uint64_t m = graph.num_edges();
  const std::uint64_t boundary[] = {0,     1,     n - 1,      n,
                                    n + 1, m,     m + 1,      0x7FFFFF00,
                                    ~0u,   ~0ull, 1ull << 62, 64};

  Rng rng(0x25a);
  int answered = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string bytes = base;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t span =
          rng.NextBounded(2) == 0 ? std::min(kHeader, bytes.size())
                                  : bytes.size();
      const std::size_t pos = rng.NextBounded(span);
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2:
          bytes[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 3:
        case 4:
          bytes[pos] =
              static_cast<char>(bytes[pos] ^ (1 << rng.NextBounded(8)));
          break;
        case 5:
        case 6: {
          const std::size_t at = pos / 8 * 8;
          if (at + 8 > bytes.size()) break;
          const std::uint64_t value =
              boundary[rng.NextBounded(std::size(boundary))];
          std::memcpy(bytes.data() + at, &value, sizeof(value));
          break;
        }
        default:
          bytes.resize(pos);
          break;
      }
    }
    if (bytes.size() >= kHeader && rng.NextBounded(2) == 0) {
      const std::uint64_t checksum =
          SnapshotChecksum(bytes.data(), kChecksumAt);
      std::memcpy(bytes.data() + kChecksumAt, &checksum, sizeof(checksum));
    }
    WriteFile(path, bytes);

    const StatusOr<Graph> loaded = LoadSnapshot(path);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().code() == StatusCode::kInvalidArgument ||
                  loaded.status().code() == StatusCode::kOutOfRange)
          << loaded.status().ToString();
      continue;
    }
    const Graph& g = loaded.value();
    const Status valid = ValidateCsr(g);
    if (!valid.ok()) {
      EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument)
          << valid.ToString();
      continue;
    }
    if (g.num_nodes() == 0) continue;
    RwrConfig config = RwrConfig::ForGraphSize(g.num_nodes());
    config.dangling = DanglingPolicy::kAbsorb;
    ResAccSolver solver(g, config, ResAccOptions{});
    const std::vector<Score> scores =
        solver.Query(static_cast<NodeId>(iter % g.num_nodes()));
    ASSERT_EQ(scores.size(), g.num_nodes());
    for (Score score : scores) {
      ASSERT_TRUE(std::isfinite(score) && score >= 0.0) << "iter " << iter;
    }
    ++answered;
  }
  // Edits that miss every checked byte (padding, a re-signed no-op, an id
  // moved to another valid id in in_sources) leave answerable graphs.
  EXPECT_GT(answered, 0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.rsg");
  WriteFile(path, std::string(256, 'x'));
  const StatusOr<Graph> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.rsg");
  ASSERT_TRUE(SaveSnapshot(testing::Figure1Graph(), path).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  ASSERT_FALSE(LoadSnapshot(path).ok());
  // Shorter than the header entirely.
  ASSERT_EQ(truncate(path.c_str(), 64), 0);
  ASSERT_FALSE(LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyAndEdgelessGraphsRoundTrip) {
  GraphBuilder builder(5);
  const Graph edgeless = std::move(builder).Build();
  const std::string path = TempPath("edgeless.rsg");
  ASSERT_TRUE(SaveSnapshot(edgeless, path).ok());
  const StatusOr<Graph> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 5u);
  EXPECT_EQ(loaded.value().num_edges(), 0u);
  ExpectSameCsr(edgeless, loaded.value());
  std::remove(path.c_str());
}

// Copying a mapped graph must materialize owned arrays: the copy's spans
// may not point into storage the original keeps alive.
TEST(SnapshotTest, CopyOfMappedGraphOwnsItsStorage) {
  const Graph graph = testing::Figure1Graph();
  const std::string path = TempPath("copy.rsg");
  ASSERT_TRUE(SaveSnapshot(graph, path).ok());
  StatusOr<Graph> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Graph copy = loaded.value();
  EXPECT_FALSE(copy.borrows_storage());
  ExpectSameCsr(graph, copy);

  // Moves keep the storage handle with the moved-to graph.
  const Graph moved = std::move(loaded).value();
  EXPECT_TRUE(moved.borrows_storage());
  ExpectSameCsr(graph, moved);
  std::remove(path.c_str());
}

// --- Dataset snapshot cache ----------------------------------------------

TEST(DatasetCacheTest, SecondLoadHitsSnapshotCache) {
  const StatusOr<DatasetSpec> spec = FindDataset("facebook-sim");
  ASSERT_TRUE(spec.ok());
  const std::string cache_dir = ::testing::TempDir();

  const StatusOr<Graph> first =
      LoadOrBuildDataset(spec.value(), 0.05, 77, cache_dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const std::string cached = cache_dir + "/facebook-sim-s0.05-77.rsg";
  std::FILE* file = std::fopen(cached.c_str(), "rb");
  ASSERT_NE(file, nullptr) << "cache file not written: " << cached;
  std::fclose(file);

  const StatusOr<Graph> second =
      LoadOrBuildDataset(spec.value(), 0.05, 77, cache_dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().borrows_storage());  // came from the snapshot
  ExpectSameCsr(first.value(), second.value());
  std::remove(cached.c_str());
}

}  // namespace
}  // namespace resacc
