#pragma once
// Shared-memory image for multi-process verification (src/dist overview in
// dist_verifier.hpp).  The coordinator serializes everything a worker
// process needs — ids, incident-arc CSR topology, label bytes, verifier
// parameters, the property's registry name — into ONE anonymous shared
// mapping built BEFORE forking, so workers inherit the bytes at zero copy
// cost and zero serialization latency.
//
// The container deliberately reuses the snapshot framing discipline
// (snapshot/format.hpp): a fixed little-endian header, a section table, and
// contiguous (8-byte aligned) payloads, with magic + version + content hash
// + params fingerprint + per-section CRC-32 all validated BEFORE any
// payload byte is interpreted.  A freshly forked worker trusts nothing: the
// image is revalidated by every worker, so a coordinator bug (or a stray
// write through the shared mapping) rejects loudly at worker startup
// instead of silently corrupting verdicts — the same "hostile bytes reject
// before proportional allocation" contract the snapshot loader and the wire
// decoder already enforce.
//
//   header (32 bytes):
//     magic             8 bytes  "LANEDSHM"
//     formatVersion     u32      kImageFormatVersion
//     sectionCount      u32      kImageSectionCount
//     contentHash       u64      FNV-1a chained over all section payloads
//     paramsFingerprint u64      FNV-1a of the kMeta payload
//   section table (kImageSectionCount entries, 24 bytes each, in id order):
//     id u32 | crc u32 (CRC-32 of the payload) | offset u64 | length u64
//   payloads, in table order, each offset 8-byte aligned (≤ 7 pad bytes
//   between sections), the last one ending exactly at the image size.
//
// Sections:
//   kMeta          varint stream: n, m, workers, threadsPerWorker,
//                  maxLanes, maxThrough, property name (bytes)
//   kIds           n × u64 LE — IdAssignment::id(v) by dense vertex
//   kRowPtr        (n+1) × u64 LE — incident-arc CSR offsets (rowPtr[n]=2m)
//   kArcs          2m × u32 LE — edge id of each arc, vertex-major in arc
//                  order (exactly what a sorted label row is built from)
//   kLabelOffsets  (m+1) × u64 LE — label blob offsets, monotone
//   kLabelBytes    the concatenated label bytes; label e =
//                  blob[off[e], off[e+1])
//
// Multi-byte integers are read through memcpy loads (the mapping is only
// guaranteed 8-byte aligned per section), and label views alias the blob
// directly, so a worker builds its label rows with no per-label copies.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/verifier.hpp"
#include "graph/graph.hpp"

namespace lanecert::dist {

inline constexpr std::string_view kImageMagic{"LANEDSHM", 8};
/// Bump on ANY layout or meta-encoding change; stale workers then reject.
inline constexpr std::uint32_t kImageFormatVersion = 2;

enum class ImageSection : std::uint32_t {
  kMeta = 1,
  kIds = 2,
  kRowPtr = 3,
  kArcs = 4,
  kLabelOffsets = 5,
  kLabelBytes = 6,
};
inline constexpr std::size_t kImageSectionCount = 6;
inline constexpr std::size_t kImageHeaderBytes = 8 + 4 + 4 + 8 + 8;
inline constexpr std::size_t kImageSectionEntryBytes = 4 + 4 + 8 + 8;

/// Everything in the kMeta section: the run configuration a worker cannot
/// derive from the arrays.
struct ImageMeta {
  std::uint64_t numVertices = 0;
  std::uint64_t numEdges = 0;
  std::uint32_t workers = 1;          ///< K — partition count
  std::uint32_t threadsPerWorker = 1;
  CoreVerifierParams params;
  std::string property;  ///< registry name (lanecert::propertyByName)
};

/// Exact image size for this configuration (header + table + aligned
/// payloads).  The coordinator sizes its mapping with this.
[[nodiscard]] std::size_t imageSizeBytes(const Graph& g,
                                         const std::vector<std::string>& labels,
                                         const ImageMeta& meta);

/// Serializes graph + ids + labels + meta into [dst, dst + size).
/// `size` must equal imageSizeBytes(...) (throws std::invalid_argument
/// otherwise, or when meta counts disagree with the graph/labels).
void writeImage(char* dst, std::size_t size, const Graph& g,
                const IdAssignment& ids,
                const std::vector<std::string>& labels, const ImageMeta& meta);

/// Validated zero-copy reader.  open() checks magic, version, section
/// table geometry, both hashes, every CRC, and the structural invariants
/// of each array (rowPtr monotone ending at 2m, arc edge ids < m, label
/// offsets monotone ending at the blob size) before returning — accessors
/// then index without further checks.  The view BORROWS `bytes`; the
/// underlying mapping must outlive it.
class ImageView {
 public:
  /// Throws std::runtime_error naming the first validation failure.
  [[nodiscard]] static ImageView open(std::string_view bytes);

  [[nodiscard]] const ImageMeta& meta() const { return meta_; }

  /// IdAssignment::id(v) of dense vertex v.
  [[nodiscard]] std::uint64_t vertexIdOf(std::uint64_t v) const {
    return loadU64(ids_ + v * 8);
  }
  /// Incident-arc CSR offset of vertex v (rowPtr[v]).
  [[nodiscard]] std::uint64_t rowPtr(std::uint64_t v) const {
    return loadU64(rowPtr_ + v * 8);
  }
  /// Edge id of arc `slot` (slot in [rowPtr(v), rowPtr(v+1)) for vertex v).
  [[nodiscard]] std::uint32_t arcEdge(std::uint64_t slot) const {
    std::uint32_t e;
    std::memcpy(&e, arcs_ + slot * 4, 4);
    return e;
  }
  /// Label bytes of edge e, aliasing the blob.
  [[nodiscard]] std::string_view label(std::uint64_t e) const {
    const std::uint64_t lo = loadU64(labelOff_ + e * 8);
    const std::uint64_t hi = loadU64(labelOff_ + (e + 1) * 8);
    return {labelBytes_ + lo, static_cast<std::size_t>(hi - lo)};
  }
  /// All m label views in edge order; they alias the mapping, which must
  /// outlive them.
  [[nodiscard]] std::vector<std::string_view> labelViews() const;

 private:
  static std::uint64_t loadU64(const char* p) {
    std::uint64_t x;
    std::memcpy(&x, p, 8);
    return x;
  }

  ImageMeta meta_;
  const char* ids_ = nullptr;
  const char* rowPtr_ = nullptr;
  const char* arcs_ = nullptr;
  const char* labelOff_ = nullptr;
  const char* labelBytes_ = nullptr;
};

}  // namespace lanecert::dist
