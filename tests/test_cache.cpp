// SweepEntryCache capacity regression tests.
//
// The cache is pure memoization — validation is a deterministic function
// of the entry bytes — so eviction must only ever cost a re-validation,
// never change a verdict.  These tests pin the capacity contract:
//
//  * a cache driven past its growth bound keeps serving hits (an insert
//    into a full stripe clears the stripe instead of freezing or growing
//    without bound);
//  * the stats stay coherent (entries == size(), evictions accounts for
//    exactly the encodings dropped, clear() is not an eviction).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/verifier.hpp"

namespace lanecert {
namespace {

/// Distinct encoding for insert `i` (content is opaque to the cache).
std::string enc(std::uint64_t i) {
  std::string s = "entry-";
  for (int b = 0; b < 8; ++b) s.push_back(static_cast<char>(i >> (8 * b)));
  return s;
}

TEST(SweepCacheEviction, CappedCacheStillServesHits) {
  SweepEntryCache cache;
  // One nodeId pins every insert to one stripe, so the per-stripe cap is
  // the exact bound under test.  Push far past it.
  constexpr std::uint64_t kInserts = 20000;
  const std::int64_t node = 7;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    cache.markValidated(node, enc(i));
  }

  const SweepCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u) << "cap never engaged";
  EXPECT_LT(s.entries, static_cast<std::size_t>(kInserts));
  // Conservation: every insert is either still held or was evicted.
  EXPECT_EQ(s.entries + s.evictions, kInserts);
  EXPECT_EQ(s.entries, cache.size());

  // The cache did not freeze: the most recent inserts are present.
  EXPECT_TRUE(cache.containsValidated(node, enc(kInserts - 1)));
  EXPECT_TRUE(cache.containsValidated(node, enc(kInserts - 2)));
  // The very first insert is long gone (recycling, not stop-at-cap).
  EXPECT_FALSE(cache.containsValidated(node, enc(0)));
}

TEST(SweepCacheEviction, StatsStayCoherentAcrossEvictionAndClear) {
  SweepEntryCache cache;
  // Spread across nodeIds (and hence stripes) like a real sweep.
  for (std::uint64_t i = 0; i < 70000; ++i) {
    cache.markValidated(static_cast<std::int64_t>(i % 257), enc(i));
  }
  const SweepCacheStats s1 = cache.stats();
  EXPECT_EQ(s1.entries, cache.size());
  EXPECT_EQ(s1.entries + s1.evictions, 70000u);

  // Re-marking a held encoding is a no-op; nothing is double-counted.
  const std::string last = enc(69999 - (69999 % 257) + 1);  // node 1's last
  ASSERT_TRUE(cache.containsValidated(1, last));
  cache.markValidated(1, last);
  EXPECT_EQ(cache.stats().entries, s1.entries);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, s1.evictions);  // clear() is no eviction
  cache.markValidated(1, enc(1));
  EXPECT_TRUE(cache.containsValidated(1, enc(1)));
}

}  // namespace
}  // namespace lanecert
