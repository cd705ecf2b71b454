#include "resacc/graph/graph_snapshot.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RESACC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace resacc {

std::uint64_t SnapshotChecksum(const void* data, std::size_t bytes,
                               std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  return hash;
}

namespace {

constexpr char kMagic[8] = {'R', 'E', 'S', 'A', 'C', 'C', '0', '2'};
constexpr std::uint32_t kEndianTag = 0x0a0b0c0d;
constexpr std::uint32_t kHeaderBytes = 128;
constexpr std::uint32_t kSectionAlign = 64;
constexpr std::size_t kNumSections = 4;

// The on-disk header. All integer fields little-endian (an endian_tag
// mismatch is rejected at load rather than byte-swapped).
struct SnapshotHeader {
  char magic[8];
  std::uint32_t endian_tag;
  std::uint32_t header_bytes;
  std::uint32_t section_align;
  std::uint32_t reserved0;
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t section_offset[kNumSections];  // bytes from file start
  std::uint64_t section_bytes[kNumSections];
  std::uint64_t section_checksum;  // FNV-1a chained over sections 0..3
  std::uint64_t generation;  // compaction generation (was reserved; old = 0)
  std::uint64_t header_checksum;  // FNV-1a over bytes [0, 120)
};
static_assert(sizeof(SnapshotHeader) == kHeaderBytes);
static_assert(offsetof(SnapshotHeader, header_checksum) == 120);

// "RESACC02" -> 2. The magic doubles as the format version.
std::uint32_t FormatVersion(const SnapshotHeader& header) {
  return static_cast<std::uint32_t>(header.magic[6] - '0') * 10 +
         static_cast<std::uint32_t>(header.magic[7] - '0');
}

std::uint64_t AlignUp(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}

bool WriteAll(std::FILE* file, const void* data, std::size_t bytes) {
  return bytes == 0 || std::fwrite(data, 1, bytes, file) == bytes;
}

bool ReadAll(std::FILE* file, void* data, std::size_t bytes) {
  return bytes == 0 || std::fread(data, 1, bytes, file) == bytes;
}

struct SectionView {
  const void* data;
  std::uint64_t bytes;
};

// Fills offsets/sizes for the four sections in their on-disk order.
void LayOutSections(const Graph& graph, SnapshotHeader& header,
                    SectionView views[kNumSections]) {
  const std::uint64_t n = graph.num_nodes();
  const std::uint64_t m = graph.num_edges();
  header.num_nodes = n;
  header.num_edges = m;
  views[0] = {graph.raw_out_offsets().data(), (n + 1) * sizeof(EdgeId)};
  views[1] = {graph.raw_out_targets().data(), m * sizeof(NodeId)};
  views[2] = {graph.raw_in_offsets().data(), (n + 1) * sizeof(EdgeId)};
  views[3] = {graph.raw_in_sources().data(), m * sizeof(NodeId)};
  std::uint64_t cursor = kHeaderBytes;
  for (std::size_t s = 0; s < kNumSections; ++s) {
    cursor = AlignUp(cursor, kSectionAlign);
    header.section_offset[s] = cursor;
    header.section_bytes[s] = views[s].bytes;
    cursor += views[s].bytes;
  }
}

Status ValidateHeader(const SnapshotHeader& header, std::uint64_t file_bytes,
                      const std::string& path) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "bad magic (not a RESACC02 snapshot): " + path);
  }
  if (header.endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot written with different endianness: " + path);
  }
  if (header.header_bytes != kHeaderBytes ||
      header.section_align != kSectionAlign) {
    return Status::InvalidArgument("unsupported snapshot layout: " + path);
  }
  const std::uint64_t expected_checksum =
      SnapshotChecksum(&header, offsetof(SnapshotHeader, header_checksum));
  if (header.header_checksum != expected_checksum) {
    return Status::InvalidArgument("header checksum mismatch: " + path);
  }
  if (header.num_nodes >= kInvalidNode) {
    return Status::OutOfRange("node count too large: " + path);
  }
  const std::uint64_t n = header.num_nodes;
  const std::uint64_t m = header.num_edges;
  const std::uint64_t expected_bytes[kNumSections] = {
      (n + 1) * sizeof(EdgeId), m * sizeof(NodeId), (n + 1) * sizeof(EdgeId),
      m * sizeof(NodeId)};
  for (std::size_t s = 0; s < kNumSections; ++s) {
    const std::uint64_t offset = header.section_offset[s];
    const std::uint64_t bytes = header.section_bytes[s];
    if (bytes != expected_bytes[s]) {
      return Status::InvalidArgument("section size mismatch: " + path);
    }
    if (offset < kHeaderBytes || offset % alignof(EdgeId) != 0 ||
        offset > file_bytes || file_bytes - offset < bytes) {
      return Status::InvalidArgument(
          "section out of file bounds (truncated?): " + path);
    }
  }
  return Status::Ok();
}

// Cheap structural anchors readable in O(1): both offset arrays must start
// at 0 and end at num_edges, or every degree/neighbour lookup is garbage.
Status ValidateAnchors(std::span<const EdgeId> out_offsets,
                       std::span<const EdgeId> in_offsets,
                       std::uint64_t num_edges, const std::string& path) {
  if (out_offsets.front() != 0 || out_offsets.back() != num_edges ||
      in_offsets.front() != 0 || in_offsets.back() != num_edges) {
    return Status::InvalidArgument("CSR offset anchors corrupt: " + path);
  }
  return Status::Ok();
}

Status VerifySectionChecksum(const SnapshotHeader& header,
                             const SectionView views[kNumSections],
                             const std::string& path) {
  std::uint64_t checksum = SnapshotChecksum(nullptr, 0);
  for (std::size_t s = 0; s < kNumSections; ++s) {
    checksum = SnapshotChecksum(views[s].data, views[s].bytes, checksum);
  }
  if (checksum != header.section_checksum) {
    return Status::InvalidArgument("section checksum mismatch: " + path);
  }
  return Status::Ok();
}

#ifdef RESACC_HAVE_MMAP
// Owns one mmap'd region; the Graph's storage_ aliases into this.
struct Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;
  ~Mapping() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

StatusOr<Graph> LoadSnapshotMmap(const std::string& path,
                                 const SnapshotLoadOptions& options,
                                 SnapshotLoadInfo* info, bool& fell_back) {
  fell_back = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat snapshot: " + path);
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument("truncated header: " + path);
  }
  void* base =
      ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, /*offset=*/0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    fell_back = true;  // e.g. a filesystem without mmap support
    return Status::Internal("mmap failed: " + path);
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->base = base;
  mapping->bytes = static_cast<std::size_t>(file_bytes);

  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  RESACC_RETURN_IF_ERROR(ValidateHeader(header, file_bytes, path));

  const char* bytes = static_cast<const char*>(base);
  const std::size_t n = static_cast<std::size_t>(header.num_nodes);
  const std::size_t m = static_cast<std::size_t>(header.num_edges);
  const std::span<const EdgeId> out_offsets(
      reinterpret_cast<const EdgeId*>(bytes + header.section_offset[0]),
      n + 1);
  const std::span<const NodeId> out_targets(
      reinterpret_cast<const NodeId*>(bytes + header.section_offset[1]), m);
  const std::span<const EdgeId> in_offsets(
      reinterpret_cast<const EdgeId*>(bytes + header.section_offset[2]),
      n + 1);
  const std::span<const NodeId> in_sources(
      reinterpret_cast<const NodeId*>(bytes + header.section_offset[3]), m);
  RESACC_RETURN_IF_ERROR(
      ValidateAnchors(out_offsets, in_offsets, header.num_edges, path));
  if (options.verify_section_checksum) {
    const SectionView views[kNumSections] = {
        {out_offsets.data(), header.section_bytes[0]},
        {out_targets.data(), header.section_bytes[1]},
        {in_offsets.data(), header.section_bytes[2]},
        {in_sources.data(), header.section_bytes[3]}};
    RESACC_RETURN_IF_ERROR(VerifySectionChecksum(header, views, path));
  }
  if (info != nullptr) {
    info->mmap_used = true;
    info->file_bytes = file_bytes;
    info->format_version = FormatVersion(header);
    info->generation = header.generation;
  }
  return Graph(static_cast<NodeId>(n), out_offsets, out_targets, in_offsets,
               in_sources,
               std::shared_ptr<const void>(mapping, mapping->base));
}
#endif  // RESACC_HAVE_MMAP

StatusOr<Graph> LoadSnapshotBuffered(const std::string& path,
                                     const SnapshotLoadOptions& options,
                                     SnapshotLoadInfo* info) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::Internal("cannot seek snapshot: " + path);
  }
  const long file_size = std::ftell(file);
  if (file_size < 0 || static_cast<std::uint64_t>(file_size) < kHeaderBytes) {
    std::fclose(file);
    return Status::InvalidArgument("truncated header: " + path);
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(file_size);
  std::rewind(file);
  SnapshotHeader header;
  if (!ReadAll(file, &header, sizeof(header))) {
    std::fclose(file);
    return Status::InvalidArgument("truncated header: " + path);
  }
  const Status valid = ValidateHeader(header, file_bytes, path);
  if (!valid.ok()) {
    std::fclose(file);
    return valid;
  }

  const std::size_t n = static_cast<std::size_t>(header.num_nodes);
  const std::size_t m = static_cast<std::size_t>(header.num_edges);
  std::vector<EdgeId> out_offsets(n + 1);
  std::vector<NodeId> out_targets(m);
  std::vector<EdgeId> in_offsets(n + 1);
  std::vector<NodeId> in_sources(m);
  void* destinations[kNumSections] = {out_offsets.data(), out_targets.data(),
                                      in_offsets.data(), in_sources.data()};
  for (std::size_t s = 0; s < kNumSections; ++s) {
    if (std::fseek(file, static_cast<long>(header.section_offset[s]),
                   SEEK_SET) != 0 ||
        !ReadAll(file, destinations[s],
                 static_cast<std::size_t>(header.section_bytes[s]))) {
      std::fclose(file);
      return Status::InvalidArgument("truncated section: " + path);
    }
  }
  std::fclose(file);

  RESACC_RETURN_IF_ERROR(ValidateAnchors(out_offsets, in_offsets,
                                         header.num_edges, path));
  if (options.verify_section_checksum) {
    const SectionView views[kNumSections] = {
        {out_offsets.data(), header.section_bytes[0]},
        {out_targets.data(), header.section_bytes[1]},
        {in_offsets.data(), header.section_bytes[2]},
        {in_sources.data(), header.section_bytes[3]}};
    RESACC_RETURN_IF_ERROR(VerifySectionChecksum(header, views, path));
  }
  if (info != nullptr) {
    info->mmap_used = false;
    info->file_bytes = file_bytes;
    info->format_version = FormatVersion(header);
    info->generation = header.generation;
  }
  return Graph(static_cast<NodeId>(n), std::move(out_offsets),
               std::move(out_targets), std::move(in_offsets),
               std::move(in_sources));
}

}  // namespace

Status ValidateCsr(const Graph& graph) {
  const std::uint64_t n = graph.num_nodes();
  const std::span<const EdgeId> out_offsets = graph.raw_out_offsets();
  const std::span<const NodeId> out_targets = graph.raw_out_targets();
  const std::span<const EdgeId> in_offsets = graph.raw_in_offsets();
  const std::span<const NodeId> in_sources = graph.raw_in_sources();
  const auto corrupt = [](const char* array, std::uint64_t at) {
    return Status::InvalidArgument("corrupt CSR: " + std::string(array) +
                                   "[" + std::to_string(at) + "]");
  };
  for (const auto& [name, offsets, m] :
       {std::tuple{"out_offsets", out_offsets, out_targets.size()},
        std::tuple{"in_offsets", in_offsets, in_sources.size()}}) {
    if (offsets.size() != n + 1 || offsets[0] != 0) return corrupt(name, 0);
    for (std::uint64_t u = 0; u < n; ++u) {
      if (offsets[u + 1] < offsets[u]) return corrupt(name, u + 1);
    }
    if (offsets[n] != m) return corrupt(name, n);
  }
  for (const auto& [name, ids] : {std::pair{"out_targets", out_targets},
                                  std::pair{"in_sources", in_sources}}) {
    for (std::uint64_t e = 0; e < ids.size(); ++e) {
      if (ids[e] >= n) return corrupt(name, e);
    }
  }
  std::vector<EdgeId> in_degree(n, 0);
  for (const NodeId v : out_targets) ++in_degree[v];
  for (std::uint64_t v = 0; v < n; ++v) {
    if (in_degree[v] != in_offsets[v + 1] - in_offsets[v]) {
      return corrupt("in_offsets", v + 1);
    }
  }
  return Status::Ok();
}

Status SaveSnapshot(const Graph& graph, const std::string& path,
                    std::uint64_t generation) {
  if (graph.has_overlay()) {
    // raw_*() spans describe only the base CSR; fold the overlay in first
    // so the snapshot carries the merged edge set.
    const Graph flat(graph);  // copy materializes
    return SaveSnapshot(flat, path, generation);
  }
  SnapshotHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_tag = kEndianTag;
  header.header_bytes = kHeaderBytes;
  header.section_align = kSectionAlign;
  header.generation = generation;
  SectionView views[kNumSections];
  LayOutSections(graph, header, views);
  std::uint64_t checksum = SnapshotChecksum(nullptr, 0);
  for (std::size_t s = 0; s < kNumSections; ++s) {
    checksum = SnapshotChecksum(views[s].data, views[s].bytes, checksum);
  }
  header.section_checksum = checksum;
  header.header_checksum =
      SnapshotChecksum(&header, offsetof(SnapshotHeader, header_checksum));

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  bool ok = WriteAll(file, &header, sizeof(header));
  std::uint64_t cursor = kHeaderBytes;
  const char zeros[kSectionAlign] = {};
  for (std::size_t s = 0; ok && s < kNumSections; ++s) {
    const std::uint64_t pad = header.section_offset[s] - cursor;
    ok = WriteAll(file, zeros, static_cast<std::size_t>(pad)) &&
         WriteAll(file, views[s].data,
                  static_cast<std::size_t>(views[s].bytes));
    cursor = header.section_offset[s] + views[s].bytes;
  }
  ok = ok && std::fflush(file) == 0;
  std::fclose(file);
  if (!ok) return Status::Internal("short write: " + path);
  return Status::Ok();
}

StatusOr<Graph> LoadSnapshot(const std::string& path,
                             const SnapshotLoadOptions& options,
                             SnapshotLoadInfo* info) {
#ifdef RESACC_HAVE_MMAP
  if (options.prefer_mmap) {
    bool fell_back = false;
    StatusOr<Graph> mapped = LoadSnapshotMmap(path, options, info, fell_back);
    // Only an mmap(2) failure degrades to buffered reads; validation
    // errors are the file's fault and re-reading cannot fix them.
    if (mapped.ok() || !fell_back) return mapped;
  }
#endif
  return LoadSnapshotBuffered(path, options, info);
}

}  // namespace resacc
