#include "dist/image.hpp"

#include <limits>
#include <stdexcept>

#include "pls/codec.hpp"
#include "snapshot/format.hpp"

namespace lanecert::dist {

namespace {

constexpr std::size_t kTableEnd =
    kImageHeaderBytes + kImageSectionCount * kImageSectionEntryBytes;

[[nodiscard]] std::size_t alignUp8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

void storeU32(char* p, std::uint32_t x) { std::memcpy(p, &x, 4); }
void storeU64(char* p, std::uint64_t x) { std::memcpy(p, &x, 8); }

[[nodiscard]] std::uint32_t loadU32(const char* p) {
  std::uint32_t x;
  std::memcpy(&x, p, 4);
  return x;
}

[[nodiscard]] std::string encodeMeta(const ImageMeta& meta) {
  Encoder enc;
  enc.u64(meta.numVertices);
  enc.u64(meta.numEdges);
  enc.u64(meta.workers);
  enc.u64(meta.threadsPerWorker);
  enc.u64(static_cast<std::uint64_t>(meta.params.maxLanes));
  enc.u64(static_cast<std::uint64_t>(meta.params.maxThrough));
  enc.bytes(meta.property);
  return enc.take();
}

struct Layout {
  std::size_t lengths[kImageSectionCount];  ///< payload bytes, in id order
  std::size_t offsets[kImageSectionCount];
  std::size_t total;
};

[[nodiscard]] Layout computeLayout(const Graph& g,
                                   const std::vector<std::string>& labels,
                                   const std::string& metaBytes) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  const auto m = static_cast<std::size_t>(g.numEdges());
  std::size_t blob = 0;
  for (const std::string& l : labels) blob += l.size();
  Layout lay{};
  lay.lengths[0] = metaBytes.size();  // kMeta
  lay.lengths[1] = 8 * n;             // kIds
  lay.lengths[2] = 8 * (n + 1);       // kRowPtr
  lay.lengths[3] = 4 * 2 * m;         // kArcs
  lay.lengths[4] = 8 * (m + 1);       // kLabelOffsets
  lay.lengths[5] = blob;              // kLabelBytes
  std::size_t at = kTableEnd;
  for (std::size_t s = 0; s < kImageSectionCount; ++s) {
    at = alignUp8(at);
    lay.offsets[s] = at;
    at += lay.lengths[s];
  }
  lay.total = at;
  return lay;
}

}  // namespace

std::size_t imageSizeBytes(const Graph& g,
                           const std::vector<std::string>& labels,
                           const ImageMeta& meta) {
  return computeLayout(g, labels, encodeMeta(meta)).total;
}

void writeImage(char* dst, std::size_t size, const Graph& g,
                const IdAssignment& ids,
                const std::vector<std::string>& labels, const ImageMeta& meta) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  const auto m = static_cast<std::size_t>(g.numEdges());
  if (meta.numVertices != n || meta.numEdges != m || labels.size() != m ||
      static_cast<std::size_t>(ids.numVertices()) != n) {
    throw std::invalid_argument("dist image: meta/graph/labels disagree");
  }
  const std::string metaBytes = encodeMeta(meta);
  const Layout lay = computeLayout(g, labels, metaBytes);
  if (size != lay.total) {
    throw std::invalid_argument("dist image: destination size mismatch");
  }
  // Zero the frame region so alignment pad bytes are deterministic (the
  // content hash covers payloads only, but deterministic images are easier
  // to debug and to byte-compare in tests).
  std::memset(dst, 0, kTableEnd);

  // Payloads first, hashes over them, then header + table.
  std::memcpy(dst + lay.offsets[0], metaBytes.data(), metaBytes.size());
  for (std::size_t v = 0; v < n; ++v) {
    storeU64(dst + lay.offsets[1] + 8 * v, ids.id(static_cast<VertexId>(v)));
  }
  std::uint64_t arcAt = 0;
  for (std::size_t v = 0; v <= n; ++v) {
    storeU64(dst + lay.offsets[2] + 8 * v, arcAt);
    if (v < n) arcAt += static_cast<std::uint64_t>(
        g.degree(static_cast<VertexId>(v)));
  }
  std::size_t slot = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (const Arc& a : g.arcs(static_cast<VertexId>(v))) {
      storeU32(dst + lay.offsets[3] + 4 * slot,
               static_cast<std::uint32_t>(a.edge));
      ++slot;
    }
  }
  std::uint64_t off = 0;
  for (std::size_t e = 0; e <= m; ++e) {
    storeU64(dst + lay.offsets[4] + 8 * e, off);
    if (e < m) {
      std::memcpy(dst + lay.offsets[5] + off, labels[e].data(),
                  labels[e].size());
      off += labels[e].size();
    }
  }

  std::uint64_t contentHash = 0xcbf29ce484222325ull;
  for (std::size_t s = 0; s < kImageSectionCount; ++s) {
    contentHash = snapshot::fnv1a64(
        std::string_view(dst + lay.offsets[s], lay.lengths[s]), contentHash);
  }
  const std::uint64_t paramsFp = snapshot::fnv1a64(metaBytes);

  std::memcpy(dst, kImageMagic.data(), kImageMagic.size());
  storeU32(dst + 8, kImageFormatVersion);
  storeU32(dst + 12, static_cast<std::uint32_t>(kImageSectionCount));
  storeU64(dst + 16, contentHash);
  storeU64(dst + 24, paramsFp);
  for (std::size_t s = 0; s < kImageSectionCount; ++s) {
    char* entry = dst + kImageHeaderBytes + s * kImageSectionEntryBytes;
    storeU32(entry, static_cast<std::uint32_t>(s + 1));
    storeU32(entry + 4, snapshot::crc32(std::string_view(
                            dst + lay.offsets[s], lay.lengths[s])));
    storeU64(entry + 8, lay.offsets[s]);
    storeU64(entry + 16, lay.lengths[s]);
  }
}

ImageView ImageView::open(std::string_view bytes) {
  auto fail = [](const char* what) -> ImageView {
    throw std::runtime_error(std::string("dist image: ") + what);
  };
  if (bytes.size() < kTableEnd) return fail("truncated frame");
  if (bytes.substr(0, 8) != kImageMagic) return fail("bad magic");
  if (loadU32(bytes.data() + 8) != kImageFormatVersion) {
    return fail("unsupported format version");
  }
  if (loadU32(bytes.data() + 12) != kImageSectionCount) {
    return fail("bad section count");
  }

  std::size_t offsets[kImageSectionCount];
  std::size_t lengths[kImageSectionCount];
  std::size_t expect = kTableEnd;
  for (std::size_t s = 0; s < kImageSectionCount; ++s) {
    const char* entry =
        bytes.data() + kImageHeaderBytes + s * kImageSectionEntryBytes;
    if (loadU32(entry) != s + 1) return fail("section id out of order");
    const std::uint64_t off = loadU64(entry + 8);
    const std::uint64_t len = loadU64(entry + 16);
    expect = alignUp8(expect);
    if (off != expect) return fail("section offset not contiguous");
    if (len > bytes.size() || off > bytes.size() - len) {
      return fail("section out of bounds");
    }
    offsets[s] = static_cast<std::size_t>(off);
    lengths[s] = static_cast<std::size_t>(len);
    expect = offsets[s] + lengths[s];
  }
  if (expect != bytes.size()) return fail("trailing bytes after sections");
  std::uint64_t contentHash = 0xcbf29ce484222325ull;
  for (std::size_t s = 0; s < kImageSectionCount; ++s) {
    const std::string_view payload = bytes.substr(offsets[s], lengths[s]);
    const char* entry =
        bytes.data() + kImageHeaderBytes + s * kImageSectionEntryBytes;
    if (snapshot::crc32(payload) != loadU32(entry + 4)) {
      return fail("section CRC mismatch");
    }
    contentHash = snapshot::fnv1a64(payload, contentHash);
  }
  if (contentHash != loadU64(bytes.data() + 16)) {
    return fail("content hash mismatch");
  }
  const std::string_view metaBytes = bytes.substr(offsets[0], lengths[0]);
  if (snapshot::fnv1a64(metaBytes) != loadU64(bytes.data() + 24)) {
    return fail("params fingerprint mismatch");
  }

  ImageView view;
  try {
    Decoder dec(metaBytes);
    view.meta_.numVertices = dec.u64();
    view.meta_.numEdges = dec.u64();
    view.meta_.workers = static_cast<std::uint32_t>(dec.u64());
    view.meta_.threadsPerWorker = static_cast<std::uint32_t>(dec.u64());
    view.meta_.params.maxLanes = static_cast<int>(dec.u64());
    view.meta_.params.maxThrough = static_cast<int>(dec.u64());
    view.meta_.property = dec.bytes();
    if (!dec.atEnd()) return fail("meta trailing bytes");
  } catch (const DecodeError&) {
    return fail("meta decode error");
  }
  const std::uint64_t n = view.meta_.numVertices;
  const std::uint64_t m = view.meta_.numEdges;
  // Counts must fit the dense id types AND pay for their arrays: a hostile
  // meta cannot claim sizes the validated section lengths don't back.
  if (n > static_cast<std::uint64_t>(std::numeric_limits<VertexId>::max()) ||
      m > static_cast<std::uint64_t>(std::numeric_limits<EdgeId>::max())) {
    return fail("counts out of range");
  }
  if (lengths[1] != 8 * n || lengths[2] != 8 * (n + 1) ||
      lengths[3] != 4 * 2 * m || lengths[4] != 8 * (m + 1)) {
    return fail("section length disagrees with meta counts");
  }
  view.ids_ = bytes.data() + offsets[1];
  view.rowPtr_ = bytes.data() + offsets[2];
  view.arcs_ = bytes.data() + offsets[3];
  view.labelOff_ = bytes.data() + offsets[4];
  view.labelBytes_ = bytes.data() + offsets[5];
  std::uint64_t prev = 0;
  for (std::uint64_t v = 0; v <= n; ++v) {
    const std::uint64_t p = view.rowPtr(v);
    if (p < prev) return fail("rowPtr not monotone");
    prev = p;
  }
  if (prev != 2 * m) return fail("rowPtr does not end at 2m");
  for (std::uint64_t s = 0; s < 2 * m; ++s) {
    if (view.arcEdge(s) >= m) return fail("arc edge id out of range");
  }
  prev = 0;
  for (std::uint64_t e = 0; e <= m; ++e) {
    const std::uint64_t p = loadU64(view.labelOff_ + e * 8);
    if (p < prev) return fail("label offsets not monotone");
    prev = p;
  }
  if (prev != lengths[5]) return fail("label offsets do not cover the blob");
  return view;
}

std::vector<std::string_view> ImageView::labelViews() const {
  std::vector<std::string_view> views;
  views.reserve(static_cast<std::size_t>(meta_.numEdges));
  for (std::uint64_t e = 0; e < meta_.numEdges; ++e) {
    views.push_back(label(e));
  }
  return views;
}

}  // namespace lanecert::dist
