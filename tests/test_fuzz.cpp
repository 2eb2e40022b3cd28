// Decoder hardening + fuzz-mutator unit tests.
//
// tests/test_pls.cpp pins the bare varint contract (10-byte cap,
// unterminated runs, overflow bytes); this file covers the adversarial
// edges the certificate fuzzer (tools/fuzz_cert.cpp) leans on:
//
//  * padded-but-valid varints up to exactly the 10-byte cap decode, one
//    byte more rejects — the mutator's kVarintPad mutation straddles that
//    boundary on purpose;
//  * truncation MID-varint and mid-record rejects cleanly at every cut
//    point of a real certificate (never crashes, never reads past end);
//  * zero-length through-payloads are legal encodings and round-trip;
//  * a hostile length prefix on a near-empty buffer rejects BEFORE any
//    proportional allocation (Decoder::remaining bounds every list
//    reserve — a 3-byte buffer claiming 2^16 elements is provably
//    malformed);
//  * no single-nibble flip of a real labeling decodes to the very record
//    it came from (a boolean byte has exactly two legal values);
//  * the mutator itself is deterministic (same seed, same mutant) and its
//    classifier agrees with the real decoder.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fuzz_mutator.hpp"
#include "core/prover.hpp"
#include "core/records.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/codec.hpp"
#include "runtime/arena.hpp"

namespace lanecert {
namespace {

/// One honest certificate label to mutate (largest of a real labeling, so
/// it has chain entries and through-records to corrupt).
const std::string& honestLabel() {
  static const std::string label = [] {
    const Graph g = cycleGraph(12);
    const auto ids = IdAssignment::random(12, 5);
    const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr, 1);
    std::size_t best = 0;
    for (std::size_t i = 0; i < proved.labels.size(); ++i) {
      if (proved.labels[i].size() > proved.labels[best].size()) best = i;
    }
    return proved.labels[best];
  }();
  return label;
}

TEST(DecoderHardening, PaddedVarintsDecodeUpToTheCapOnly) {
  for (std::uint64_t value : {0ull, 1ull, 127ull, 128ull, 0xdeadbeefull}) {
    const std::size_t canonical = encodeVarint(value).size();
    for (std::size_t width = canonical; width <= 10; ++width) {
      const std::string enc = encodeVarint(value, width);
      ASSERT_EQ(enc.size(), width);
      Decoder dec{std::string_view(enc)};
      EXPECT_EQ(dec.u64(), value) << "value " << value << " width " << width;
      EXPECT_TRUE(dec.atEnd());
    }
    // 11 bytes always violates the ceil(64/7) cap, whatever the value.
    const std::string over = encodeVarint(value, 11);
    ASSERT_EQ(over.size(), 11u);
    Decoder dec{std::string_view(over)};
    EXPECT_THROW((void)dec.u64(), DecodeError);
  }
}

TEST(DecoderHardening, RemainingTracksReads) {
  Encoder enc;
  enc.u64(300);
  enc.bytes("abc");
  const std::string buf = enc.str();
  Decoder dec{std::string_view(buf)};
  EXPECT_EQ(dec.remaining(), buf.size());
  (void)dec.u64();
  EXPECT_EQ(dec.remaining(), buf.size() - 2);  // 300 is a 2-byte varint
  (void)dec.bytesView();
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_TRUE(dec.atEnd());
}

TEST(DecoderHardening, EveryTruncationOfARealLabelRejectsCleanly) {
  const std::string& label = honestLabel();
  ASSERT_TRUE(label.size() > 10);
  // Every proper prefix must reject (the grammar requires atEnd, so even a
  // cut between records is malformed) — and must never crash or hang.
  for (std::size_t cut = 0; cut < label.size(); ++cut) {
    const std::string_view prefix(label.data(), cut);
    EXPECT_THROW((void)EdgeLabel::decode(prefix), DecodeError)
        << "prefix of " << cut << " bytes decoded";
    Arena arena;
    EXPECT_THROW((void)EdgeLabelView::decode(prefix, arena), DecodeError);
  }
  // The untruncated bytes still decode (the loop above didn't luck out on
  // a trivially rejecting label).
  EXPECT_NO_THROW((void)EdgeLabel::decode(label));
}

TEST(DecoderHardening, ZeroLengthThroughPayloadsRoundTrip) {
  EdgeLabel label = EdgeLabel::decode(honestLabel());
  PathThrough empty;
  empty.uId = 3;
  empty.vId = 9;
  empty.fwdRank = 1;
  empty.bwdRank = 2;
  empty.payload.clear();  // zero-length payload is a legal ENCODING
  label.through.push_back(empty);
  const std::string bytes = label.encoded();

  const EdgeLabel back = EdgeLabel::decode(bytes);
  ASSERT_EQ(back.through.size(), label.through.size());
  EXPECT_EQ(back.through.back().payload, "");
  EXPECT_EQ(back.through.back().uId, 3u);

  Arena arena;
  const EdgeLabelView view = EdgeLabelView::decode(bytes, arena);
  ASSERT_EQ(view.through.size(), label.through.size());
  EXPECT_TRUE(view.through.back().payload.empty());
}

TEST(DecoderHardening, HostileLengthPrefixRejectsWithoutOverReserve) {
  // A tiny buffer whose chain-length field claims the full sanity cap:
  // EdgeCert = real(1) endA(1) endB(1) rootTNode(1) rootChildNode(1)
  // hasRootEntry(1) chainLen(lie).  With the remaining() clamp this must
  // reject on the length check itself — before reserving 2^16 entries.
  Encoder enc;
  enc.boolean(true);
  enc.u64(0);
  enc.u64(1);
  enc.i64(0);
  enc.i64(0);
  enc.boolean(false);
  enc.u64(std::uint64_t{1} << 16);  // claims 65536 chain entries, has 0 bytes
  const std::string hostile = enc.str();
  Decoder dec{std::string_view(hostile)};
  EXPECT_THROW((void)EdgeCert::decodeFrom(dec), DecodeError);

  // Same lie spliced into a real label via the mutator's machinery: find a
  // plausible varint site and inflate it; the decoder must reject, not
  // allocate.  (The full fuzzer hammers this path at scale; this is the
  // deterministic unit anchor.)
  const std::string& label = honestLabel();
  FuzzMutator mut(42);
  for (int i = 0; i < 64; ++i) {
    const std::string mutant = mut.mutate(label, label, FuzzKind::kLengthLie);
    try {
      (void)EdgeLabel::decode(mutant);
    } catch (const DecodeError&) {
      // rejected — the only acceptable failure mode
    }
  }
}

TEST(DecoderHardening, NibbleFlipsNeverDecodeToTheSameLabel) {
  // A boolean is one byte, 0x01 or 0x00; 0x11 or 0xf1 must not read as true.
  for (const char byte : {'\x02', '\x10', '\x11', '\xf1', '\xff'}) {
    const std::string buf(1, byte);
    Decoder dec{std::string_view(buf)};
    EXPECT_THROW((void)dec.boolean(), DecodeError)
        << static_cast<int>(static_cast<unsigned char>(byte));
  }
  // Every single-nibble mutant of every label of an honest labeling either
  // fails to decode or decodes to a different record: a mutant that
  // re-encodes to the original bytes is an alias the verifier cannot tell
  // from the honest label, so it would accept it.
  const Graph g = cycleGraph(6);
  const auto ids = IdAssignment::identity(6);
  const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  std::size_t mutants = 0;
  std::vector<std::string> aliases;
  for (std::size_t l = 0; l < proved.labels.size(); ++l) {
    const std::string& label = proved.labels[l];
    for (std::size_t at = 0; at < label.size(); ++at) {
      for (const int flip : {0x0f, 0xf0}) {
        std::string mutant = label;
        mutant[at] = static_cast<char>(mutant[at] ^ flip);
        ++mutants;
        try {
          if (EdgeLabel::decode(mutant).encoded() == label) {
            aliases.push_back("label " + std::to_string(l) + " byte " +
                              std::to_string(at) + " ^ " +
                              std::to_string(flip));
          }
        } catch (const DecodeError&) {
          // rejected: a label that fails to decode fails its endpoints
        }
      }
    }
  }
  EXPECT_GT(mutants, 1000u);
  EXPECT_TRUE(aliases.empty())
      << aliases.size() << " of " << mutants
      << " mutants decode to their honest label, first: "
      << (aliases.empty() ? std::string() : aliases.front());
}

TEST(FuzzMutator, DeterministicAndClassifierAgreesWithDecoder) {
  const std::string& label = honestLabel();
  for (int kind = 0; kind < static_cast<int>(FuzzKind::kCount); ++kind) {
    FuzzMutator a(7 * (kind + 1));
    FuzzMutator b(7 * (kind + 1));
    const std::string ma = a.mutate(label, label, static_cast<FuzzKind>(kind));
    const std::string mb = b.mutate(label, label, static_cast<FuzzKind>(kind));
    EXPECT_EQ(ma, mb) << "kind " << fuzzKindName(static_cast<FuzzKind>(kind));

    const FuzzVerdictClass cls = classifyMutation(label, ma);
    bool decodes = true;
    try {
      (void)EdgeLabel::decode(ma);
    } catch (const DecodeError&) {
      decodes = false;
    }
    EXPECT_EQ(cls == FuzzVerdictClass::kMalformed, !decodes);
  }
  // An untouched copy classifies as a no-op.
  EXPECT_EQ(classifyMutation(label, label), FuzzVerdictClass::kNoop);
}

}  // namespace
}  // namespace lanecert
