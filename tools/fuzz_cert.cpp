// Structure-aware certificate fuzzing harness.
//
// Mutates ENCODED labels of honest certificates (src/core/fuzz_mutator.hpp)
// and sweeps the verifier over each mutant, asserting the soundness
// contract:
//   * malformed mutants (decode throws)            -> sweep must reject
//   * no-op mutants (decode-identical re-encoding) -> verdict unchanged
//   * on the FALSE instance (is-path labels on a cycle — the E7 pair, where
//     the lower-bound theorem says NO labeling can be accepted): every
//     mutant of every class must keep rejecting
//   * semantically-changed mutants on TRUE instances -> expected to reject;
//     the rare accept is an ALTERNATIVE VALID PROOF of a true property
//     (same phenomenon bench_soundness.cpp documents for E6 — e.g. renaming
//     the unused-side part summary of a bridge entry to a fresh node id
//     yields a non-canonical but internally consistent certificate).  These
//     are counted, written as `fuzz_cert-finding-*` artifacts for audit,
//     and fatal only under --strict.
//
// Usage: fuzz_cert [campaign flags] [--strict]; fuzz_campaign.hpp owns the
// flags, seeds, budget, progress file, artifacts and replay.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fuzz_mutator.hpp"
#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/scheme.hpp"

#include "fuzz_campaign.hpp"

namespace {

using namespace lanecert;
using fuzz::pick;

struct CorpusEntry {
  const char* name;
  Graph g;
  IdAssignment ids;
  std::vector<std::string> labels;
  EdgeVerifier verifier;
  bool trueInstance;  ///< baseline sweep verdict over `labels`
};

std::vector<CorpusEntry> buildCorpus() {
  std::vector<CorpusEntry> corpus;

  auto addTrue = [&corpus](const char* name, Graph g, PropertyPtr prop) {
    const auto n = g.numVertices();
    CorpusEntry e{name, std::move(g), IdAssignment::random(n, 5), {},
                  makeCoreVerifier(prop), true};
    auto proved = proveCore(e.g, e.ids, *prop);
    if (!proved.propertyHolds) {
      std::fprintf(stderr, "corpus %s: property unexpectedly fails\n", name);
      std::exit(2);
    }
    e.labels = std::move(proved.labels);
    corpus.push_back(std::move(e));
  };

  addTrue("cycle16/isCycle", cycleGraph(16), makeCycleProperty());
  addTrue("path24/isPath", pathGraph(24), makePathProperty());
  {
    Rng rng(11);
    addTrue("tree20/forest", randomTree(20, rng), makeForest());
  }
  addTrue("grid4x4/connected", gridGraph(4, 4), makeConnectivity());

  // The E7 false instance: honest is-path labels transplanted onto a cycle.
  // The lower-bound theorem says NO labeling makes the path verifier accept
  // a cycle, so here every mutant — of any class — must keep rejecting.
  {
    const int n = 16;
    CorpusEntry e{"cycle16/pathLabels", cycleGraph(n),
                  IdAssignment::random(n, 3), {},
                  makeCoreVerifier(makePathProperty()), false};
    auto proved = proveCore(pathGraph(n), e.ids, *makePathProperty());
    e.labels = std::move(proved.labels);
    e.labels.push_back(e.labels.front());  // path has n-1 edges, cycle has n
    corpus.push_back(std::move(e));
  }
  return corpus;
}

const char* className(FuzzVerdictClass c) {
  static constexpr const char* kNames[] = {"malformed", "semanticChange",
                                           "noop"};
  return kNames[static_cast<int>(c)];
}

struct Counters {
  unsigned long long byClass[3] = {};
  unsigned long long byKind[static_cast<int>(FuzzKind::kCount)] = {};
  unsigned long long semantic = 0;
  unsigned long long rejectedSemantic = 0;
  unsigned long long alternativeProofs = 0;
};

/// Runs iteration `iter` of campaign `seed` against `corpus`.  Deterministic:
/// same (seed, iter, corpus) -> same mutant, same verdict.  An accepted
/// semantic change of a true instance is an alternative valid proof: a
/// finding, and a violation only under `strict`.
fuzz::Outcome runIteration(std::uint64_t seed, std::uint64_t iter,
                           const std::vector<CorpusEntry>& corpus, bool strict,
                           Counters& count) {
  FuzzMutator mut(fuzz::iterationSeed(seed, iter));
  Rng& rng = mut.rng();

  const std::size_t corpusIdx = pick(rng, corpus.size());
  const CorpusEntry& entry = corpus[corpusIdx];
  const std::size_t labelIdx = pick(rng, entry.labels.size());
  const CorpusEntry& donorEntry =
      corpus[(corpusIdx + 1 + pick(rng, corpus.size() - 1)) % corpus.size()];
  const std::string& donor =
      donorEntry.labels[pick(rng, donorEntry.labels.size())];

  const std::string& original = entry.labels[labelIdx];
  FuzzKind kind = FuzzKind::kBitFlip;
  fuzz::Outcome out;
  out.bytes = mut.mutateRandom(original, donor, &kind);
  const FuzzVerdictClass cls = classifyMutation(original, out.bytes);

  std::vector<std::string> labels = entry.labels;
  labels[labelIdx] = out.bytes;
  const bool accepted =
      simulateEdgeScheme(entry.g, entry.ids, labels, entry.verifier)
          .allAccept;

  ++count.byClass[static_cast<int>(cls)];
  ++count.byKind[static_cast<int>(kind)];
  if (cls == FuzzVerdictClass::kSemanticChange) {
    ++count.semantic;
    if (!accepted) ++count.rejectedSemantic;
  }
  bool violation = accepted;
  const char* expectation = "reject (semantic corruption)";
  if (!entry.trueInstance) {
    expectation = "reject (false instance, any mutation)";
  } else if (cls == FuzzVerdictClass::kNoop) {
    expectation = "accept (no-op re-encoding of honest label)";
    violation = !accepted;
  } else if (cls == FuzzVerdictClass::kMalformed) {
    expectation = "reject (malformed label)";
  } else if (accepted) {
    ++count.alternativeProofs;
    violation = strict;
    out.verdict = fuzz::Verdict::kFinding;
  }
  if (violation) out.verdict = fuzz::Verdict::kViolation;
  out.fields = {{"corpus", entry.name},
                {"labelIdx", std::to_string(labelIdx)},
                {"kind", fuzzKindName(kind)},
                {"class", className(cls)},
                {"expected", expectation},
                {"got", accepted ? "accept" : "reject"},
                {"original", std::to_string(original.size()) + " bytes"}};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::Campaign campaign("fuzz_cert", 100000);
  bool strict = false;  // alternative proofs on true instances become fatal
  campaign.flag("--strict", &strict);
  if (!campaign.parse(argc, argv)) return 2;

  const std::vector<CorpusEntry> corpus = buildCorpus();

  // Sanity: baseline verdicts must match the corpus annotations, otherwise
  // every downstream assertion is meaningless.
  for (const CorpusEntry& e : corpus) {
    const bool ok =
        simulateEdgeScheme(e.g, e.ids, e.labels, e.verifier).allAccept;
    if (ok != e.trueInstance) {
      std::fprintf(stderr, "corpus %s: baseline verdict %d != expected %d\n",
                   e.name, ok ? 1 : 0, e.trueInstance ? 1 : 0);
      return 2;
    }
  }

  Counters count;
  return campaign.run(
      [&](std::uint64_t iter) {
        return runIteration(campaign.seed(), iter, corpus, strict, count);
      },
      [&] {
        std::printf(
            "  classes: malformed %llu, semanticChange %llu, noop %llu\n",
            count.byClass[0], count.byClass[1], count.byClass[2]);
        std::printf(
            "  semantic rejection: %llu/%llu (%llu alternative proofs)\n",
            count.rejectedSemantic, count.semantic, count.alternativeProofs);
        for (int k = 0; k < static_cast<int>(FuzzKind::kCount); ++k) {
          std::printf("  kind %-10s %llu\n",
                      fuzzKindName(static_cast<FuzzKind>(k)), count.byKind[k]);
        }
      });
}
