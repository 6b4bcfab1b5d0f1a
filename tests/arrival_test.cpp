// The dense arrival arena (proc/arrival.h): slot mapping, allocation-free
// reductions pinned value-exact against multiset/multiset_ops.h, and the
// counters the CI perf-smoke gate relies on.

#include <gtest/gtest.h>

#include <vector>

#include "multiset/multiset_ops.h"
#include "proc/arrival.h"
#include "util/rng.h"

namespace wlsync::proc {
namespace {

std::vector<std::int32_t> identity_ids(std::int32_t n) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

/// The algorithm layer's "never arrived" sentinel, restated locally so the
/// arena tests stay independent of core/.
double core_sentinel() { return -1e300; }

TEST(NeighborIndex, MapsSortedNeighborhoodToDenseSlots) {
  NeighborIndex index;
  const std::vector<std::int32_t> neighbors = {2, 5, 7, 11};
  index.bind({neighbors.data(), neighbors.size()}, 16);
  EXPECT_TRUE(index.bound());
  EXPECT_EQ(index.size(), 4u);
  EXPECT_FALSE(index.identity());
  EXPECT_EQ(index.slot_of(2), 0);
  EXPECT_EQ(index.slot_of(5), 1);
  EXPECT_EQ(index.slot_of(7), 2);
  EXPECT_EQ(index.slot_of(11), 3);
  EXPECT_EQ(index.slot_of(0), -1);   // non-neighbor
  EXPECT_EQ(index.slot_of(15), -1);  // non-neighbor
  EXPECT_EQ(index.slot_of(-1), -1);  // out of range
  EXPECT_EQ(index.slot_of(99), -1);  // out of range
}

TEST(NeighborIndex, DetectsIdentityMapping) {
  NeighborIndex index;
  const auto ids = identity_ids(8);
  index.bind({ids.data(), ids.size()}, 8);
  EXPECT_TRUE(index.identity());
  // A proper subset is never the identity, even when slots line up early.
  NeighborIndex sparse;
  const std::vector<std::int32_t> prefix = {0, 1, 2};
  sparse.bind({prefix.data(), prefix.size()}, 8);
  EXPECT_FALSE(sparse.identity());
}

TEST(NeighborIndex, RejectsBadBinds) {
  NeighborIndex index;
  const std::vector<std::int32_t> bad = {0, 9};
  EXPECT_THROW(index.bind({bad.data(), bad.size()}, 4), std::invalid_argument);
  EXPECT_THROW(index.bind({bad.data(), bad.size()}, 0), std::invalid_argument);
}

TEST(ArrivalArena, RecordsByDenseSlotAndIgnoresNonNeighbors) {
  ArrivalArena arena;
  const std::vector<std::int32_t> neighbors = {1, 3, 4};
  arena.bind({neighbors.data(), neighbors.size()}, 6, -1.0);
  EXPECT_EQ(arena.size(), 3u);
  for (double v : arena.values()) EXPECT_EQ(v, -1.0);

  arena.record(3, 2.5);
  arena.record(1, 9.0);
  arena.record(5, 123.0);  // id 5 is registered but not a neighbor: dropped
  EXPECT_EQ(arena.values()[0], 9.0);
  EXPECT_EQ(arena.values()[1], 2.5);
  EXPECT_EQ(arena.values()[2], -1.0);

  arena.fill(0.25);
  for (double v : arena.values()) EXPECT_EQ(v, 0.25);
}

TEST(ArrivalArena, MidpointMatchesMultisetOpsExactly) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto m = static_cast<std::int32_t>(3 + rng.uniform() * 600);
    const auto f = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>((m - 1) / 2));
    ArrivalArena arena;
    const auto ids = identity_ids(m);
    arena.bind({ids.data(), ids.size()}, m, 0.0);
    ms::Multiset values(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Mix magnitudes and force ties so the selection sees equal runs.
      double v = rng.uniform(-1.0, 1.0);
      if (rng.uniform() < 0.3) v = 0.5;
      values[i] = v;
      arena.set_slot(i, v);
    }
    ASSERT_EQ(arena.midpoint_reduced(f), ms::fault_tolerant_midpoint(values, f))
        << "m=" << m << " f=" << f << " trial=" << trial;
  }
}

TEST(ArrivalArena, MeanMatchesMultisetOpsExactly) {
  util::Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const auto m = static_cast<std::int32_t>(3 + rng.uniform() * 400);
    const auto f = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>((m - 1) / 2));
    ArrivalArena arena;
    const auto ids = identity_ids(m);
    arena.bind({ids.data(), ids.size()}, m, 0.0);
    ms::Multiset values(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = rng.uniform(-1e3, 1e3);
      arena.set_slot(i, values[i]);
    }
    // Bitwise equality: the scratch mean accumulates in the same ascending
    // order as ms::mean over the reduce() slice.
    ASSERT_EQ(arena.mean_reduced(f), ms::fault_tolerant_mean(values, f))
        << "m=" << m << " f=" << f << " trial=" << trial;
  }
}

TEST(ArrivalArena, MinimalMultisetAndSentinels) {
  // |U| = 2f + 1: reduce leaves one element; midpoint == mean == that value.
  ArrivalArena arena;
  const auto ids = identity_ids(7);
  arena.bind({ids.data(), ids.size()}, 7, core_sentinel());
  for (std::size_t i = 0; i < 7; ++i) {
    arena.set_slot(i, static_cast<double>(i));
  }
  EXPECT_EQ(arena.midpoint_reduced(3), 3.0);
  EXPECT_EQ(arena.mean_reduced(3), 3.0);
  EXPECT_THROW((void)arena.midpoint_reduced(4), std::invalid_argument);
}

TEST(ArrivalArena, ReductionsAreCountedAndRebindIsExplicit) {
  ArrivalArena arena;
  const auto ids = identity_ids(9);
  arena.bind({ids.data(), ids.size()}, 9, 0.0);
  EXPECT_EQ(arena.rebinds(), 1u);
  EXPECT_EQ(arena.reductions(), 0u);
  (void)arena.midpoint_reduced(2);
  (void)arena.mean_reduced(2);
  EXPECT_EQ(arena.reductions(), 2u);
}

TEST(ArrivalArena, PrecomputedReductionIsOneShotAndDroppedByEveryWrite) {
  // The round fast path primes each receiver's reduction on a worker thread
  // and consumes it in the serial update.  The memo must be what a fresh
  // reduction of the CURRENT slots returns: each of the five write paths
  // below changes the reduced value, so a memo surviving one of them
  // returns the stale 4.0 and fails the comparison.
  constexpr std::size_t kF = 2;
  const auto ids = identity_ids(9);
  const auto load = [&](ArrivalArena& arena) {
    arena.bind({ids.data(), ids.size()}, 9, 0.0);
    for (std::size_t i = 0; i < 9; ++i) {
      arena.set_slot(i, static_cast<double>(i));
    }
  };
  const auto fresh_midpoint = [&](const ArrivalArena& arena) {
    return ms::fault_tolerant_midpoint(arena.values(), kF);
  };
  using Write = void (*)(ArrivalArena&);
  const std::vector<std::pair<const char*, Write>> writes = {
      {"record", [](ArrivalArena& a) { a.record(0, 50.0); }},
      {"set_slot", [](ArrivalArena& a) { a.set_slot(0, 50.0); }},
      {"slot_data", [](ArrivalArena& a) { a.slot_data()[0] = 50.0; }},
      {"fill", [](ArrivalArena& a) { a.fill(10.0); }},
      {"bind",
       [](ArrivalArena& a) {
         const auto fresh_ids = identity_ids(9);
         a.bind({fresh_ids.data(), fresh_ids.size()}, 9, -1.0);
       }},
  };
  for (const auto& [name, write] : writes) {
    ArrivalArena arena;
    load(arena);
    arena.precompute(ArrivalArena::Reduction::kMidpoint, kF);
    write(arena);
    ASSERT_NE(fresh_midpoint(arena), 4.0) << name;
    EXPECT_EQ(arena.midpoint_reduced(kF), fresh_midpoint(arena)) << name;
  }

  // Untouched, the memo is consumed once and counted once; precompute
  // itself is not a reduction.
  ArrivalArena arena;
  load(arena);
  arena.precompute(ArrivalArena::Reduction::kMidpoint, kF);
  EXPECT_EQ(arena.reductions(), 0u);
  EXPECT_EQ(arena.midpoint_reduced(kF), 4.0);
  EXPECT_EQ(arena.midpoint_reduced(kF), 4.0);
  EXPECT_EQ(arena.reductions(), 2u);
  // A different kind or f is recomputed, never served from the memo.
  arena.precompute(ArrivalArena::Reduction::kMidpoint, kF);
  EXPECT_EQ(arena.mean_reduced(kF),
            ms::fault_tolerant_mean(arena.values(), kF));
  arena.precompute(ArrivalArena::Reduction::kMean, kF);
  EXPECT_EQ(arena.mean_reduced(1), ms::fault_tolerant_mean(arena.values(), 1));
  // Too few slots for f: precompute is a no-op and the call still throws.
  arena.precompute(ArrivalArena::Reduction::kMidpoint, 5);
  EXPECT_THROW((void)arena.midpoint_reduced(5), std::invalid_argument);
}

}  // namespace
}  // namespace wlsync::proc
