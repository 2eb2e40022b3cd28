#pragma once
// Length-prefixed binary wire protocol of the serving front-end.
//
// A connection is a byte stream of FRAMES; a frame is one LEB128 varint
// length prefix followed by exactly that many payload bytes.  The varint
// framing is the SAME encoding the certificate codec uses (pls/codec.hpp),
// so a wire implementation in any language needs exactly one integer
// format, and the certificate payloads inside responses are byte-identical
// to what the in-process API produces.
//
//   frame    := varint(len) payload[len]          1 <= len <= maxFrameBytes
//   request  := varint(requestId) u8(op) body
//   response := varint(requestId) u8(status) body
//
// Requests and responses are correlated by requestId (client-chosen,
// opaque to the server), so clients may PIPELINE: any number of requests
// can be in flight on one connection, limited only by the server's
// per-connection quota, and responses complete in whatever order the
// service finishes them.
//
// Small results (verify verdicts, session handles) come back as one kOk
// frame.  Certificate payloads (prove results — potentially hundreds of
// MB) are STREAMED: a kStreamBegin frame announcing the total byte count,
// then kChunk frames each carrying an offset plus a slice of the encoded
// certificate stream, then kStreamEnd.  The certificate stream bytes are
// encoded ONCE per distinct result and scattered to every subscriber via
// shared-payload slices (see wire_server.cpp), so N clients asking for one
// labeling cost one encode, not N.
//
// Defense before allocation: the frame parser rejects a length prefix
// exceeding the connection's quota BEFORE reserving any buffer space
// (mirroring the Decoder::remaining() hardening of the record codec — a
// hostile header must never buy memory), and every list count inside a
// request body is checked against the bytes actually present before any
// container reserve.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "mso/property.hpp"
#include "pls/codec.hpp"
#include "pls/scheme.hpp"
#include "runtime/label_index.hpp"

namespace lanecert::net {

/// Protocol-level failure (framing desync, unknown op, body/graph that
/// cannot be built).  The server answers a decodable-but-invalid request
/// with a kError frame; a framing-level violation closes the connection —
/// after a length-prefix lie the stream can never resynchronize.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class Op : std::uint8_t {
  kPing = 0,          ///< body: empty; response kOk, empty
  kProve = 1,         ///< body: graph, property; response: streamed cert
  kVerify = 2,        ///< body: graph, property, labels; response kOk verdict
  kOpenSession = 3,   ///< body: like kVerify; response kOk varint(session)
  kReverify = 4,      ///< body: varint(session), edits; response kOk verdict
  kCloseSession = 5,  ///< body: varint(session); response kOk, empty
};

enum class Status : std::uint8_t {
  kOk = 0,            ///< complete response; body is op-specific
  kStreamBegin = 1,   ///< body: varint(totalBytes) of the certificate stream
  kChunk = 2,         ///< body: varint(offset) + raw slice
  kStreamEnd = 3,     ///< body: empty; the stream is complete
  kRejected = 4,      ///< body: varint(retryAfterMs) — quota/backpressure
  kError = 5,         ///< body: length-prefixed message; permanent failure
  kCancelled = 6,     ///< body: empty; the job was discarded by a drain
  kShuttingDown = 7,  ///< body: empty; server is draining, do not retry here
};

[[nodiscard]] const char* opName(Op op);
[[nodiscard]] const char* statusName(Status status);

/// Resolves a wire property name ("connectivity", "forest", "3col",
/// "vc:<c>", ...) to a property; nullptr for unknown names.  This is THE
/// name grammar of the protocol — the CLI shares it.
[[nodiscard]] PropertyPtr propertyByName(const std::string& name);

/// Default per-connection frame quota.  Large enough for a full verify
/// request over the bench shapes, small enough that one hostile connection
/// cannot claim unbounded memory.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// Default cap on the vertex count of a decoded graph.  The edge list is
/// already bounded by the frame quota (every edge costs wire bytes), but
/// vertices are free on the wire — Graph(n) materializes n adjacency
/// vectors, so a ~12-byte frame claiming n = 2^31-1 would buy gigabytes.
/// The cap bounds that transient allocation; servers can tune it via
/// WireServerOptions::maxVertices.
inline constexpr std::size_t kDefaultMaxVertices = 1u << 20;

/// Wraps `payload` in a length-prefixed frame.
[[nodiscard]] std::string encodeFrame(std::string_view payload);

/// Incremental frame reassembly over an arbitrary chunking of the stream —
/// bytes arrive as the socket delivers them, one byte at a time in the
/// worst case.  The length prefix is parsed byte-wise; the payload buffer
/// is reserved only AFTER the announced length passes the quota check, so
/// a header claiming more bytes than `maxFrameBytes` fails the connection
/// before any proportional allocation.
class FrameParser {
 public:
  explicit FrameParser(std::size_t maxFrameBytes = kDefaultMaxFrameBytes)
      : maxFrame_(maxFrameBytes) {}

  /// Consumes `bytes`, appending every completed frame payload to `out`.
  /// Returns false on a protocol violation (oversized/malformed/zero
  /// length prefix); the stream is then permanently broken — error()
  /// says why and further feed() calls keep failing.
  [[nodiscard]] bool feed(std::string_view bytes,
                          std::vector<std::string>& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool failed() const { return !error_.empty(); }
  /// Bytes currently buffered for the in-progress frame (fuzz harnesses
  /// assert this never exceeds the quota — the no-over-allocation check).
  [[nodiscard]] std::size_t bufferedBytes() const { return payload_.size(); }

 private:
  bool fail(const std::string& why);

  std::size_t maxFrame_;
  // Length-prefix accumulator (LEB128, 10-byte cap like the codec).
  std::uint64_t len_ = 0;
  int lenShift_ = 0;
  bool haveLen_ = false;
  std::string payload_;
  std::string error_;
};

/// A decoded request envelope.  Only the fields of the request's `op` are
/// meaningful; the rest stay default-constructed.
struct WireRequest {
  std::uint64_t requestId = 0;
  Op op = Op::kPing;
  Graph graph;                      // kProve / kVerify / kOpenSession
  std::string property;             // kProve / kVerify / kOpenSession
  std::vector<std::string> labels;  // kVerify / kOpenSession
  std::uint64_t session = 0;        // kReverify / kCloseSession
  std::vector<EdgeLabelEdit> edits;  // kReverify
};

// --- Request encoding (client side) ---------------------------------------
[[nodiscard]] std::string encodePingRequest(std::uint64_t requestId);
[[nodiscard]] std::string encodeProveRequest(std::uint64_t requestId,
                                             const Graph& g,
                                             std::string_view property);
[[nodiscard]] std::string encodeVerifyRequest(
    std::uint64_t requestId, const Graph& g, std::string_view property,
    const std::vector<std::string>& labels, bool openSession = false);
[[nodiscard]] std::string encodeReverifyRequest(
    std::uint64_t requestId, std::uint64_t session,
    const std::vector<EdgeLabelEdit>& edits);
[[nodiscard]] std::string encodeCloseSessionRequest(std::uint64_t requestId,
                                                    std::uint64_t session);

/// Parses one frame payload into a request.  Throws DecodeError on
/// truncated/hostile bytes and WireError on grammar violations (unknown
/// op, invalid graph, label-count mismatch).  Every list count is bounded
/// by the decoder's remaining() before any reserve, and graph vertex
/// counts are bounded by `maxVertices` before any Graph construction.
[[nodiscard]] WireRequest decodeRequest(
    std::string_view framePayload,
    std::size_t maxVertices = kDefaultMaxVertices);

// --- Response encoding (server side) / decoding (client side) -------------
/// Response header shared by every status.
[[nodiscard]] std::string encodeResponseHead(std::uint64_t requestId,
                                             Status status);
[[nodiscard]] std::string encodeRejected(std::uint64_t requestId,
                                         std::uint64_t retryAfterMs);
[[nodiscard]] std::string encodeErrorResponse(std::uint64_t requestId,
                                              std::string_view message);
[[nodiscard]] std::string encodeVerifyResponse(std::uint64_t requestId,
                                               const SimulationResult& r);
[[nodiscard]] std::string encodeSessionResponse(std::uint64_t requestId,
                                                std::uint64_t session);

/// One decoded response envelope; `body` is everything after the status
/// byte, still encoded (op-specific helpers below decode it).
struct WireResponse {
  std::uint64_t requestId = 0;
  Status status = Status::kOk;
  std::string body;
};
[[nodiscard]] WireResponse decodeResponse(std::string_view framePayload);

[[nodiscard]] SimulationResult decodeVerifyResult(std::string_view body);
[[nodiscard]] std::uint64_t decodeSessionHandle(std::string_view body);
[[nodiscard]] std::uint64_t decodeRetryAfterMs(std::string_view body);

// --- Certificate stream ----------------------------------------------------
// The streamed prove payload.  Encoded once per distinct result:
//   bool(propertyHolds) varint(labelCount) labelCount * bytes(label)
// Byte-compare this against a fresh encode of the in-process
// CoreProveResult to check end-to-end integrity (the wire smoke does).
[[nodiscard]] std::string encodeCertificateStream(
    bool propertyHolds, const std::vector<std::string>& labels);

struct CertificateStream {
  bool propertyHolds = false;
  std::vector<std::string> labels;
};
[[nodiscard]] CertificateStream decodeCertificateStream(
    std::string_view stream);

}  // namespace lanecert::net
