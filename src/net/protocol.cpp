#include "net/protocol.hpp"

#include <limits>

#include "mso/properties.hpp"

namespace lanecert::net {

namespace {

/// Rejects a claimed element count that cannot possibly fit in the bytes
/// left: every element consumes at least `minBytesPer` bytes, so any
/// larger claim is a hostile length prefix — fail BEFORE reserving
/// (mirrors records.cpp checkLen at the record layer).
void checkCount(std::uint64_t count, const Decoder& dec,
                std::size_t minBytesPer = 1) {
  if (count > dec.remaining() / minBytesPer) throw DecodeError{};
}

void encodeGraph(Encoder& enc, const Graph& g) {
  enc.u64(static_cast<std::uint64_t>(g.numVertices()));
  enc.u64(static_cast<std::uint64_t>(g.numEdges()));
  for (const Edge& e : g.edges()) {
    enc.u64(static_cast<std::uint64_t>(e.u));
    enc.u64(static_cast<std::uint64_t>(e.v));
  }
}

Graph decodeGraph(Decoder& dec, std::size_t maxVertices) {
  const std::uint64_t n = dec.u64();
  const std::uint64_t m = dec.u64();
  if (n > static_cast<std::uint64_t>(std::numeric_limits<VertexId>::max())) {
    throw WireError("graph: vertex count out of range");
  }
  // Edges are paid for in wire bytes (checkCount below), but vertices are
  // free on the wire while Graph(n) materializes n adjacency vectors — a
  // tiny hostile header must not buy gigabytes, so cap n BEFORE the
  // construction.
  if (n > maxVertices) {
    throw WireError("graph: vertex count " + std::to_string(n) +
                    " exceeds server cap " + std::to_string(maxVertices));
  }
  checkCount(m, dec, 2);  // an edge is at least two 1-byte varints
  Graph g(static_cast<VertexId>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t u = dec.u64();
    const std::uint64_t v = dec.u64();
    if (u >= n || v >= n) throw WireError("graph: endpoint out of range");
    try {
      g.addEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    } catch (const std::exception& e) {
      throw WireError(std::string("graph: ") + e.what());
    }
  }
  return g;
}

void decodeLabels(Decoder& dec, std::vector<std::string>& labels) {
  const std::uint64_t count = dec.u64();
  checkCount(count, dec);
  labels.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) labels.push_back(dec.bytes());
}

}  // namespace

PropertyPtr propertyByName(const std::string& name) {
  // The registry grammar lives in the mso layer (mso/property_names.cpp)
  // so dist workers resolve the same names without linking net; this
  // wrapper keeps the wire-facing entry point where clients expect it.
  return ::lanecert::propertyByName(name);
}

const char* statusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kStreamBegin:
      return "stream-begin";
    case Status::kChunk:
      return "chunk";
    case Status::kStreamEnd:
      return "stream-end";
    case Status::kRejected:
      return "rejected";
    case Status::kError:
      return "error";
    case Status::kCancelled:
      return "cancelled";
    case Status::kShuttingDown:
      return "shutting-down";
  }
  return "?";
}

std::string encodeFrame(std::string_view payload) {
  Encoder enc;
  enc.reserve(payload.size() + 10);
  enc.u64(payload.size());
  enc.raw(payload);
  return enc.take();
}

bool FrameParser::fail(const std::string& why) {
  error_ = why;
  payload_.clear();
  payload_.shrink_to_fit();
  return false;
}

bool FrameParser::feed(std::string_view bytes, std::vector<std::string>& out) {
  if (failed()) return false;
  std::size_t i = 0;
  while (i < bytes.size()) {
    if (!haveLen_) {
      // Byte-wise LEB128 with the codec's 10-byte / 64-bit cap — an
      // unterminated run of continuation bytes or bits beyond the 64th
      // must reject, not scan on.
      const auto b = static_cast<unsigned char>(bytes[i++]);
      if (lenShift_ == 63 && (b & ~1u) != 0) {
        return fail("frame length varint exceeds 64 bits");
      }
      len_ |= static_cast<std::uint64_t>(b & 0x7f) << lenShift_;
      if ((b & 0x80) != 0) {
        lenShift_ += 7;
        continue;
      }
      // Header complete — the quota check runs BEFORE any reserve.
      if (len_ == 0) return fail("zero-length frame");
      if (len_ > maxFrame_) {
        return fail("frame length " + std::to_string(len_) +
                    " exceeds connection quota " + std::to_string(maxFrame_));
      }
      haveLen_ = true;
      payload_.reserve(static_cast<std::size_t>(len_));
    }
    const std::size_t want = static_cast<std::size_t>(len_) - payload_.size();
    const std::size_t take = std::min(want, bytes.size() - i);
    payload_.append(bytes.data() + i, take);
    i += take;
    if (payload_.size() == len_) {
      out.push_back(std::move(payload_));
      payload_.clear();
      len_ = 0;
      lenShift_ = 0;
      haveLen_ = false;
    }
  }
  return true;
}

std::string encodePingRequest(std::uint64_t requestId) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Op::kPing));
  return enc.take();
}

std::string encodeProveRequest(std::uint64_t requestId, const Graph& g,
                               std::string_view property) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Op::kProve));
  encodeGraph(enc, g);
  enc.bytes(property);
  return enc.take();
}

std::string encodeVerifyRequest(std::uint64_t requestId, const Graph& g,
                                std::string_view property,
                                const std::vector<std::string>& labels,
                                bool openSession) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(openSession ? Op::kOpenSession
                                                 : Op::kVerify));
  encodeGraph(enc, g);
  enc.bytes(property);
  enc.u64(labels.size());
  for (const std::string& l : labels) enc.bytes(l);
  return enc.take();
}

std::string encodeReverifyRequest(std::uint64_t requestId,
                                  std::uint64_t session,
                                  const std::vector<EdgeLabelEdit>& edits) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Op::kReverify));
  enc.u64(session);
  enc.u64(edits.size());
  for (const EdgeLabelEdit& e : edits) {
    enc.u64(static_cast<std::uint64_t>(e.edge));
    enc.bytes(e.bytes);
  }
  return enc.take();
}

std::string encodeCloseSessionRequest(std::uint64_t requestId,
                                      std::uint64_t session) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Op::kCloseSession));
  enc.u64(session);
  return enc.take();
}

WireRequest decodeRequest(std::string_view framePayload,
                          std::size_t maxVertices) {
  Decoder dec{framePayload};
  WireRequest req;
  req.requestId = dec.u64();
  const std::uint64_t op = dec.u64();
  if (op > static_cast<std::uint64_t>(Op::kCloseSession)) {
    throw WireError("unknown op " + std::to_string(op));
  }
  req.op = static_cast<Op>(op);
  switch (req.op) {
    case Op::kPing:
      break;
    case Op::kProve:
      req.graph = decodeGraph(dec, maxVertices);
      req.property = dec.bytes();
      break;
    case Op::kVerify:
    case Op::kOpenSession:
      req.graph = decodeGraph(dec, maxVertices);
      req.property = dec.bytes();
      decodeLabels(dec, req.labels);
      if (req.labels.size() !=
          static_cast<std::size_t>(req.graph.numEdges())) {
        throw WireError("label count does not match edge count");
      }
      break;
    case Op::kReverify: {
      req.session = dec.u64();
      const std::uint64_t count = dec.u64();
      checkCount(count, dec, 2);  // edge id + length prefix
      req.edits.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        EdgeLabelEdit edit;
        edit.edge = static_cast<EdgeId>(dec.u64());
        edit.bytes = dec.bytes();
        req.edits.push_back(std::move(edit));
      }
      break;
    }
    case Op::kCloseSession:
      req.session = dec.u64();
      break;
  }
  if (!dec.atEnd()) throw WireError("trailing bytes after request body");
  return req;
}

std::string encodeResponseHead(std::uint64_t requestId, Status status) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(status));
  return enc.take();
}

std::string encodeRejected(std::uint64_t requestId,
                           std::uint64_t retryAfterMs) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Status::kRejected));
  enc.u64(retryAfterMs);
  return enc.take();
}

std::string encodeErrorResponse(std::uint64_t requestId,
                                std::string_view message) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Status::kError));
  enc.bytes(message);
  return enc.take();
}

std::string encodeVerifyResponse(std::uint64_t requestId,
                                 const SimulationResult& r) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Status::kOk));
  enc.boolean(r.allAccept);
  enc.u64(r.rejecting.size());
  for (const VertexId v : r.rejecting) enc.u64(static_cast<std::uint64_t>(v));
  enc.u64(r.maxLabelBits);
  enc.u64(r.totalLabelBits);
  return enc.take();
}

std::string encodeSessionResponse(std::uint64_t requestId,
                                  std::uint64_t session) {
  Encoder enc;
  enc.u64(requestId);
  enc.u64(static_cast<std::uint64_t>(Status::kOk));
  enc.u64(session);
  return enc.take();
}

WireResponse decodeResponse(std::string_view framePayload) {
  Decoder dec{framePayload};
  WireResponse resp;
  resp.requestId = dec.u64();
  const std::uint64_t status = dec.u64();
  if (status > static_cast<std::uint64_t>(Status::kShuttingDown)) {
    throw WireError("unknown status " + std::to_string(status));
  }
  resp.status = static_cast<Status>(status);
  resp.body.assign(framePayload.substr(dec.pos()));
  return resp;
}

SimulationResult decodeVerifyResult(std::string_view body) {
  Decoder dec{body};
  SimulationResult r;
  r.allAccept = dec.boolean();
  const std::uint64_t count = dec.u64();
  checkCount(count, dec);
  r.rejecting.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    r.rejecting.push_back(static_cast<VertexId>(dec.u64()));
  }
  r.maxLabelBits = static_cast<std::size_t>(dec.u64());
  r.totalLabelBits = static_cast<std::size_t>(dec.u64());
  return r;
}

std::uint64_t decodeSessionHandle(std::string_view body) {
  Decoder dec{body};
  return dec.u64();
}

std::uint64_t decodeRetryAfterMs(std::string_view body) {
  Decoder dec{body};
  return dec.u64();
}

std::string encodeCertificateStream(bool propertyHolds,
                                    const std::vector<std::string>& labels) {
  Encoder enc;
  std::size_t total = 16;
  for (const std::string& l : labels) total += l.size() + 10;
  enc.reserve(total);
  enc.boolean(propertyHolds);
  enc.u64(labels.size());
  for (const std::string& l : labels) enc.bytes(l);
  return enc.take();
}

CertificateStream decodeCertificateStream(std::string_view stream) {
  Decoder dec{stream};
  CertificateStream cert;
  cert.propertyHolds = dec.boolean();
  decodeLabels(dec, cert.labels);
  if (!dec.atEnd()) throw WireError("trailing bytes after certificate");
  return cert;
}

}  // namespace lanecert::net
