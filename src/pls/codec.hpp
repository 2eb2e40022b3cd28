#pragma once
// Compact binary serialization for certificate labels.
//
// Labels are byte strings; integers are LEB128 varints so that label sizes
// genuinely scale as O(log n) with the magnitudes stored (benchmark E1
// measures encoded label bits).  Reading past the end throws, which the
// verifiers translate into rejection (a malformed certificate must never
// crash the verifier).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lanecert {

/// Raised by Decoder on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  DecodeError() : std::runtime_error("malformed certificate") {}
};

/// Append-only varint/byte writer.
class Encoder {
 public:
  /// Unsigned LEB128.
  void u64(std::uint64_t x) {
    while (x >= 0x80) {
      out_.push_back(static_cast<char>((x & 0x7f) | 0x80));
      x >>= 7;
    }
    out_.push_back(static_cast<char>(x));
  }
  /// Small signed values via zigzag.
  void i64(std::int64_t x) {
    u64((static_cast<std::uint64_t>(x) << 1) ^
        static_cast<std::uint64_t>(x >> 63));
  }
  /// Length-prefixed byte string.
  void bytes(std::string_view s) {
    u64(s.size());
    out_ += s;
  }
  /// Pre-encoded bytes, appended verbatim (no length prefix).  The prover
  /// uses this to splice cached record encodings into larger records.
  void raw(std::string_view s) { out_ += s; }
  void boolean(bool b) { out_.push_back(b ? '\1' : '\0'); }

  /// Capacity hint for callers that know the output size upfront.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  [[nodiscard]] const std::string& str() const { return out_; }
  /// Moves the buffer out and leaves the encoder EMPTY (guaranteed — a
  /// moved-from string is only "valid but unspecified"), so one encoder
  /// may produce many records in a loop.
  [[nodiscard]] std::string take() {
    std::string s = std::move(out_);
    out_.clear();
    return s;
  }

 private:
  std::string out_;
};

/// Matching reader; throws DecodeError on malformed input.
///
/// The std::string constructor takes ownership of a copy, so temporaries
/// are safe to decode.  The std::string_view constructor BORROWS: zero-copy,
/// but the caller must keep the underlying bytes alive for the decoder's
/// lifetime (the simulators' label store guarantees exactly that).
class Decoder {
 public:
  explicit Decoder(std::string data) : owned_(std::move(data)), data_(owned_) {}
  explicit Decoder(std::string_view data) : data_(data), borrows_(true) {}
  // Forbidden: the string/string_view overloads are ambiguous for char
  // pointers, and strlen semantics would truncate binary input at NUL
  // bytes anyway.  Wrap literals in std::string or std::string_view.
  explicit Decoder(const char*) = delete;

  // data_ may view owned_, so a copied or moved Decoder would dangle.
  Decoder(const Decoder&) = delete;
  Decoder& operator=(const Decoder&) = delete;

  /// Unsigned LEB128, hard-capped at 10 bytes (ceil(64 / 7)): an
  /// unterminated run of 0x80 continuation bytes must not scan further
  /// into the buffer, and bits beyond the 64th must reject rather than
  /// silently truncate.
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t x = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) throw DecodeError{};
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      if (shift == 63 && (byte & ~1u) != 0) throw DecodeError{};
      x |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return x;
  }
  [[nodiscard]] std::int64_t i64() {
    const std::uint64_t z = u64();
    return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
  }
  [[nodiscard]] std::string bytes() { return std::string(bytesView()); }
  /// Zero-copy variant of bytes(); the view borrows the decoder's buffer.
  [[nodiscard]] std::string_view bytesView() {
    const std::uint64_t len = u64();
    if (len > data_.size() - pos_) throw DecodeError{};
    const std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  /// One byte, 0x01 or 0x00 — the only bytes Encoder::boolean writes.  Any
  /// other byte rejects, so no two encodings decode to the same record.
  [[nodiscard]] bool boolean() {
    if (pos_ >= data_.size()) throw DecodeError{};
    const char byte = data_[pos_++];
    if (byte != '\0' && byte != '\1') throw DecodeError{};
    return byte == '\1';
  }
  [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }
  /// Current read offset into the buffer.
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// Bytes left to read.  Decode loops clamp container reserve() calls to
  /// this: a hostile length prefix may claim up to the list sanity cap,
  /// but every element consumes at least one byte, so pre-reserving more
  /// than remaining() elements can only ever buy memory for input that is
  /// guaranteed to reject.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when this decoder BORROWS its buffer (string_view constructor):
  /// spans of the buffer outlive the decoder.  Record-decoding code uses
  /// this to decide whether source-byte spans may be handed out.
  [[nodiscard]] bool borrowsBuffer() const { return borrows_; }
  /// The full buffer being decoded; with borrowsBuffer(), substrings of it
  /// stay valid for the lifetime of the underlying bytes.
  [[nodiscard]] std::string_view buffer() const { return data_; }

 private:
  std::string owned_;      ///< backing copy when constructed from std::string
  std::string_view data_;  ///< the bytes being decoded
  std::size_t pos_ = 0;
  bool borrows_ = false;   ///< string_view ctor: data_ outlives the decoder
};

}  // namespace lanecert
