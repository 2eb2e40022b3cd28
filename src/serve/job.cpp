#include "serve/job.hpp"

#include "pls/codec.hpp"

namespace lanecert::serve {

namespace {

void encodeGraph(Encoder& enc, const Graph& g) {
  enc.u64(static_cast<std::uint64_t>(g.numVertices()));
  enc.u64(static_cast<std::uint64_t>(g.numEdges()));
  for (const Edge& e : g.edges()) {
    enc.u64(static_cast<std::uint64_t>(e.u));
    enc.u64(static_cast<std::uint64_t>(e.v));
  }
}

void encodeIds(Encoder& enc, const IdAssignment& ids) {
  enc.u64(static_cast<std::uint64_t>(ids.numVertices()));
  for (VertexId v = 0; v < ids.numVertices(); ++v) enc.u64(ids.id(v));
}

void encodeRep(Encoder& enc, const IntervalRepresentation* rep) {
  if (rep == nullptr) {
    enc.boolean(false);
    return;
  }
  enc.boolean(true);
  const auto& ivs = rep->intervals();
  enc.u64(ivs.size());
  for (const Interval& iv : ivs) {
    enc.i64(iv.l);
    enc.i64(iv.r);
  }
}

}  // namespace

std::size_t estimatedCost(const ProveJob& job) {
  // Certificates and chains grow with the completion size; edges dominate.
  return static_cast<std::size_t>(job.graph.numVertices()) +
         4 * static_cast<std::size_t>(job.graph.numEdges());
}

std::size_t estimatedCost(const VerifyJob& job) {
  std::size_t bytes = 0;
  if (job.labels) {
    for (const std::string& l : *job.labels) bytes += l.size();
  }
  return static_cast<std::size_t>(job.graph.numVertices()) + bytes / 16;
}

std::size_t estimatedCost(const ReverifyJob& job) {
  // Two dirty endpoints per edited edge, plus decode volume on the same
  // bytes/16 scale as full verification — only the ORDER matters, and this
  // ranks a 1%-dirty batch far below the full sweep it replaces.
  std::size_t bytes = 0;
  for (const EdgeLabelEdit& e : job.edits) bytes += e.bytes.size();
  return 2 * job.edits.size() + bytes / 16;
}

std::string planKey(const Graph& g, const IntervalRepresentation* rep) {
  Encoder enc;
  enc.bytes("plan");
  encodeGraph(enc, g);
  encodeRep(enc, rep);
  return enc.take();
}

std::string proveJobKey(const ProveJob& job) {
  Encoder enc;
  enc.bytes("prove");
  encodeGraph(enc, job.graph);
  encodeIds(enc, job.ids);
  enc.bytes(job.property->name());
  encodeRep(enc, job.rep ? &*job.rep : nullptr);
  return enc.take();
}

std::string verifyJobKey(const VerifyJob& job) {
  Encoder enc;
  enc.bytes("verify");
  encodeGraph(enc, job.graph);
  encodeIds(enc, job.ids);
  enc.bytes(job.property->name());
  enc.u64(static_cast<std::uint64_t>(job.params.maxLanes));
  enc.u64(static_cast<std::uint64_t>(job.params.maxThrough));
  // Payload identity, not payload bytes (see header).  The service pins the
  // payload of every cached entry, so a live key never aliases a freed and
  // reallocated buffer.
  enc.u64(reinterpret_cast<std::uintptr_t>(job.labels.get()));
  enc.u64(job.labels ? job.labels->size() : 0);
  // Content version: identity pins the BUFFER, the version pins the BYTES
  // in it.  A payload edited in place resubmits with a bumped version and
  // misses the stale entry instead of replaying its verdict.
  enc.u64(job.labelsVersion);
  return enc.take();
}

}  // namespace lanecert::serve
