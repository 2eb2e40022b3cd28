// Certificate goldens: the exact bytes proveCore emits for a fixed list of
// true instances, pinned as one 64-bit hash per (graph, property).
//
// Prover and verifier share the lane algebra, so a change to it that both
// sides make in step (a different slot order, a different gluing rule)
// keeps every prove/verify round trip and every thread-count identity test
// green while silently changing the certificates.  These hashes catch it.
// Changing one is a deliberate re-bank, with the reason in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"

namespace lanecert {
namespace {

/// 64-bit FNV-1a over every label in edge order: the label's length as 8
/// little-endian bytes, then its bytes.
std::uint64_t labelsHash(const std::vector<std::string>& labels) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const std::string& label : labels) {
    const std::uint64_t len = label.size();
    for (int b = 0; b < 8; ++b) mix(static_cast<unsigned char>(len >> (8 * b)));
    for (const char c : label) mix(static_cast<unsigned char>(c));
  }
  return h;
}

struct Golden {
  const char* property;
  std::uint64_t hash;
};

void expectGolden(const Graph& g, const Golden& want) {
  const PropertyPtr prop = propertyByName(want.property);
  ASSERT_NE(prop, nullptr) << want.property;
  const CoreProveResult r =
      proveCore(g, IdAssignment::identity(g.numVertices()), *prop);
  EXPECT_TRUE(r.propertyHolds) << want.property;
  EXPECT_EQ(r.labels.size(), static_cast<std::size_t>(g.numEdges()))
      << want.property;
  EXPECT_EQ(labelsHash(r.labels), want.hash) << want.property;
}

/// A 48-vertex path plus chords (i, i + 2) for i = 0, 3, 6, ...: path
/// edges first, then chords, the order the CLI reads them from a file.
Graph chordedPath() {
  constexpr VertexId n = 48;
  Graph g(n);
  for (VertexId i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  for (VertexId i = 0; i + 2 < n; i += 3) g.addEdge(i, i + 2);
  return g;
}

TEST(CertificateGolden, ChordedPath) {
  const Graph g = chordedPath();
  for (const Golden& want : {
           Golden{"connectivity", 0xdc3e8312ec89d854ULL},
           Golden{"maxdeg:3", 0xca2b3181db756f33ULL},
           Golden{"3col", 0xdfb4a21dc6c5dd14ULL},
           Golden{"matching", 0xe70e9f4ccdf6892eULL},
           Golden{"vc:32", 0x3ac2caa0985dac23ULL},
       }) {
    expectGolden(g, want);
  }
}

TEST(CertificateGolden, RandomPathwidthTwo) {
  Rng rng(512);
  const Graph g = randomBoundedPathwidth(512, 2, 0.4, rng).graph;
  expectGolden(g, Golden{"connectivity", 0x8f4928eb82396ee2ULL});
}

}  // namespace
}  // namespace lanecert
