// Snapshot-loader fuzzing harness.
//
// Builds honest plan snapshots (src/snapshot) for a small graph corpus and
// feeds `decodeSnapshot` deterministic mutants, asserting the loader
// contract:
//   * targeted attacks with guaranteed-broken framing — truncation at any
//     size, magic/version corruption, stale content hash, section-CRC bit
//     flips, section-length lies — MUST return null;
//   * generic byte mutations and payload corruptions with the section CRC
//     recomputed MAY decode (a mutant can be a semantically valid plan,
//     e.g. a padded varint re-encoding), but any accepted plan must be a
//     canonical FIXED POINT: re-encoding it must decode again and
//     re-encode byte-identically.  That is what makes an accept safe to
//     serve from;
//   * nothing may crash or throw out of `decodeSnapshot` — ever.  The
//     loader bounds every count by Decoder::remaining() before reserving,
//     so hostile length fields cannot trigger over-allocation; running this
//     harness under ASan is how that claim is kept honest.
//
// Usage: fuzz_snapshot [campaign flags]; fuzz_campaign.hpp owns the flags,
// seeds, budget, progress file, artifacts and replay.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fuzz_mutator.hpp"
#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "snapshot/snapshot.hpp"

#include "fuzz_campaign.hpp"

namespace {

using namespace lanecert;
using fuzz::pick;

struct CorpusEntry {
  const char* name;
  Graph g;
  snapshot::SnapshotKey key;
  std::string image;  ///< honest encodeSnapshot output
};

std::vector<CorpusEntry> buildCorpus() {
  std::vector<CorpusEntry> corpus;
  auto add = [&corpus](const char* name, Graph g) {
    const snapshot::SnapshotKey key = snapshot::planSnapshotKey(g, nullptr);
    const ProvePlan plan = buildProvePlan(g);
    std::string image = snapshot::encodeSnapshot(key, plan);
    if (snapshot::decodeSnapshot(image, key, g) == nullptr) {
      std::fprintf(stderr, "corpus %s: honest image rejected\n", name);
      std::exit(2);
    }
    corpus.push_back({name, std::move(g), key, std::move(image)});
  };
  add("path48", pathGraph(48));
  add("cycle32", cycleGraph(32));
  add("grid5x5", gridGraph(5, 5));
  {
    Rng rng(7);
    add("tree40", randomTree(40, rng));
  }
  return corpus;
}

/// What the iteration did to the image.  The first five are framing attacks
/// whose mutants are invalid BY CONSTRUCTION (must reject); the last two
/// may produce semantically valid images (fixed-point contract).
enum class AttackKind {
  kTruncate,        ///< cut the image at a random smaller size
  kMagicCorrupt,    ///< flip a byte inside the magic / header id fields
  kWrongVersion,    ///< bump formatVersion to an unknown value
  kStaleHash,       ///< perturb contentHash (simulates a different graph)
  kCrcFlip,         ///< flip one bit of a section CRC in the table
  kLengthLie,       ///< perturb one section length field
  kPayloadCorrupt,  ///< corrupt payload bytes, RECOMPUTE the section CRC
  kByteMutate,      ///< FuzzMutator::mutateRandom over the whole image
  kCount,
};

const char* attackName(AttackKind k) {
  static constexpr const char* kNames[] = {
      "truncate", "magicCorrupt", "wrongVersion",   "staleHash",
      "crcFlip",  "lengthLie",    "payloadCorrupt", "byteMutate"};
  return kNames[static_cast<int>(k)];
}

/// Writes the low `bytes` bytes of `v` little-endian at `off`.
void putLE(std::string& s, std::size_t off, int bytes, std::uint64_t v) {
  for (int i = 0; i < bytes; ++i) {
    s[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint64_t getU64(const std::string& s, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(s[off + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

// Section-table field offsets for entry `i` (layout: snapshot/format.hpp).
std::size_t tableEntry(std::size_t i) {
  return snapshot::kHeaderBytes + i * snapshot::kSectionEntryBytes;
}

struct Counters {
  unsigned long long byKind[static_cast<int>(AttackKind::kCount)] = {};
  unsigned long long accepts = 0;
};

/// Runs iteration `iter` of campaign `seed`.  Deterministic: same
/// (seed, iter, corpus) -> same mutant, same verdict.
fuzz::Outcome runIteration(std::uint64_t seed, std::uint64_t iter,
                           const std::vector<CorpusEntry>& corpus,
                           Counters& count) {
  FuzzMutator mut(fuzz::iterationSeed(seed, iter));
  Rng& rng = mut.rng();

  const std::size_t corpusIdx = pick(rng, corpus.size());
  const CorpusEntry& entry = corpus[corpusIdx];
  const auto kind = static_cast<AttackKind>(
      pick(rng, static_cast<std::size_t>(AttackKind::kCount)));
  std::string m = entry.image;
  bool mustReject = false;  // invalid by construction
  const char* detail = "";

  switch (kind) {
    case AttackKind::kTruncate: {
      // Any strictly smaller size is invalid: the loader requires the file
      // to end exactly at the last payload byte.
      m.resize(pick(rng, m.size()));
      mustReject = true;
      detail = "truncated";
      break;
    }
    case AttackKind::kMagicCorrupt: {
      const std::size_t off = pick(rng, snapshot::kMagic.size());
      m[off] = static_cast<char>(static_cast<unsigned char>(m[off]) ^
                                 (1u << pick(rng, 8)));
      mustReject = true;
      detail = "magic bit flip";
      break;
    }
    case AttackKind::kWrongVersion: {
      putLE(m, 8, 4,
            snapshot::kFormatVersion + 1 +
                static_cast<std::uint32_t>(pick(rng, 1000)));
      mustReject = true;
      detail = "unknown formatVersion";
      break;
    }
    case AttackKind::kStaleHash: {
      // Flip one bit of the stored contentHash: the file now claims to be
      // the plan of a DIFFERENT graph than the key the caller expects.
      const std::size_t off = 16 + pick(rng, 8);
      m[off] = static_cast<char>(static_cast<unsigned char>(m[off]) ^
                                 (1u << pick(rng, 8)));
      mustReject = true;
      detail = "stale contentHash";
      break;
    }
    case AttackKind::kCrcFlip: {
      const std::size_t off = tableEntry(pick(rng, snapshot::kSectionCount)) +
                              4 + pick(rng, 4);
      m[off] = static_cast<char>(static_cast<unsigned char>(m[off]) ^
                                 (1u << pick(rng, 8)));
      mustReject = true;
      detail = "section CRC bit flip";
      break;
    }
    case AttackKind::kLengthLie: {
      // Perturb one length field by a nonzero delta.  Contiguity + the
      // end-of-file check make any single-length lie inconsistent.
      const std::size_t off =
          tableEntry(pick(rng, snapshot::kSectionCount)) + 16;
      const std::uint64_t delta =
          1 + static_cast<std::uint64_t>(pick(rng, 1u << 20));
      putLE(m, off, 8,
            rng.uniformInt(0, 1) != 0 ? getU64(m, off) + delta
                                      : getU64(m, off) - delta);
      mustReject = true;
      detail = "section length lie";
      break;
    }
    case AttackKind::kPayloadCorrupt: {
      // Corrupt bytes INSIDE one section's payload, then recompute that
      // section's CRC so the corruption reaches the structural decoder —
      // this is the path that exercises the deep bounds checks.
      const std::size_t sec = pick(rng, snapshot::kSectionCount);
      const std::size_t off = getU64(m, tableEntry(sec) + 8);
      const std::size_t len = getU64(m, tableEntry(sec) + 16);
      if (len == 0) {
        detail = "empty section, no-op";
        break;
      }
      const std::size_t hits = 1 + pick(rng, 4);
      for (std::size_t i = 0; i < hits; ++i) {
        const std::size_t at = off + pick(rng, len);
        m[at] = static_cast<char>(rng.uniformInt(0, 255));
      }
      putLE(m, tableEntry(sec) + 4, 4,
             snapshot::crc32(std::string_view(m).substr(off, len)));
      detail = "payload corruption, CRC fixed";
      break;
    }
    case AttackKind::kByteMutate: {
      const CorpusEntry& donor =
          corpus[(corpusIdx + 1 + pick(rng, corpus.size() - 1)) %
                 corpus.size()];
      m = mut.mutateRandom(m, donor.image);
      detail = "generic byte mutation";
      break;
    }
    case AttackKind::kCount:
      break;
  }
  fuzz::Outcome out;
  out.bytes = std::move(m);

  std::shared_ptr<const ProvePlan> plan;
  bool violation = false;
  try {
    plan = snapshot::decodeSnapshot(out.bytes, entry.key, entry.g);
  } catch (...) {
    violation = true;
    detail = "decodeSnapshot THREW (contract: never throws)";
  }
  const bool accepted = plan != nullptr;
  // A must-reject attack that left the image unchanged may be accepted.
  if (accepted && mustReject && out.bytes != entry.image) {
    violation = true;
  } else if (accepted) {
    // Fixed-point contract: what we accepted must re-encode canonically.
    const std::string re = snapshot::encodeSnapshot(entry.key, *plan);
    const auto again = snapshot::decodeSnapshot(re, entry.key, entry.g);
    if (again == nullptr || snapshot::encodeSnapshot(entry.key, *again) != re) {
      violation = true;
      detail = "accepted plan is not a canonical fixed point";
    }
  }
  ++count.byKind[static_cast<int>(kind)];
  if (accepted) ++count.accepts;
  if (violation) out.verdict = fuzz::Verdict::kViolation;
  out.fields = {
      {"corpus", entry.name},
      {"attack", attackName(kind)},
      {"detail", detail},
      {"expected", mustReject ? "reject" : "reject-or-fixed-point"},
      {"got", accepted ? "accept" : "reject"},
      {"original", std::to_string(entry.image.size()) + " bytes"}};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::Campaign campaign("fuzz_snapshot", 50000);
  if (!campaign.parse(argc, argv)) return 2;
  const std::vector<CorpusEntry> corpus = buildCorpus();
  Counters count;
  return campaign.run(
      [&](std::uint64_t iter) {
        return runIteration(campaign.seed(), iter, corpus, count);
      },
      [&] {
        for (int k = 0; k < static_cast<int>(AttackKind::kCount); ++k) {
          std::printf("  attack %-14s %llu\n",
                      attackName(static_cast<AttackKind>(k)), count.byKind[k]);
        }
        std::printf("  accepted %llu (all fixed-point checked)\n",
                    count.accepts);
      });
}
