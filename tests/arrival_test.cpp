// The dense arrival arena (proc/arrival.h): slot mapping pinned against an
// n-entry sender -> slot table, allocation-free reductions pinned
// value-exact against multiset/multiset_ops.h, the dual-rank select kernel
// (proc/reduce_kernels.h) pinned against std::sort, and the counters the CI
// perf-smoke gate relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "multiset/multiset_ops.h"
#include "proc/arrival.h"
#include "proc/reduce_kernels.h"
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

/// Expects bind() to throw the named unsorted-list error for `ids`.
void expect_unsorted_rejected(const std::vector<std::int32_t>& ids,
                              std::int32_t n) {
  NeighborIndex index;
  try {
    index.bind({ids.data(), ids.size()}, n);
    ADD_FAILURE() << "bind accepted an unsorted list";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not strictly ascending"),
              std::string::npos)
        << e.what();
  }
  ArrivalArena arena;
  EXPECT_THROW(arena.bind({ids.data(), ids.size()}, n, 0.0),
               std::invalid_argument);
}

TEST(NeighborIndex, RejectsUnsortedNeighborLists) {
  // A binary search over an unsorted list would mis-slot senders silently;
  // bind refuses it instead — descending, a late inversion, a duplicate,
  // and a permutation of the full mesh all included.
  expect_unsorted_rejected({5, 2, 7}, 8);
  expect_unsorted_rejected({0, 1, 2, 4, 3}, 8);
  expect_unsorted_rejected({1, 3, 3, 6}, 8);
  expect_unsorted_rejected({1, 0, 2, 3}, 4);
}

// ----------------------------------------- n-entry slot-table oracle ---

/// The n-entry sender -> slot table, restated locally as the oracle: -1
/// everywhere except at the neighbors' own ids.
std::vector<std::int32_t> slot_table(const std::vector<std::int32_t>& neighbors,
                                     std::int32_t n) {
  std::vector<std::int32_t> table(static_cast<std::size_t>(n), -1);
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    table[static_cast<std::size_t>(neighbors[slot])] =
        static_cast<std::int32_t>(slot);
  }
  return table;
}

std::int32_t oracle_slot(const std::vector<std::int32_t>& table,
                         std::int32_t sender) {
  if (sender < 0 || static_cast<std::size_t>(sender) >= table.size()) return -1;
  return table[static_cast<std::size_t>(sender)];
}

/// Sorted random subset of 0..n-1 keeping each id with probability `keep`
/// (never empty).
std::vector<std::int32_t> random_neighborhood(util::Rng& rng, std::int32_t n,
                                              double keep) {
  std::vector<std::int32_t> ids;
  for (std::int32_t q = 0; q < n; ++q) {
    if (rng.uniform() < keep) ids.push_back(q);
  }
  if (ids.empty()) ids.push_back(static_cast<std::int32_t>(rng.below(
      static_cast<std::uint64_t>(n))));
  return ids;
}

/// The neighborhoods the oracle tests walk: random sparse ones over
/// assorted n, plus the identity map and every-id-but-one maps.
std::vector<std::pair<std::int32_t, std::vector<std::int32_t>>>
oracle_neighborhoods() {
  util::Rng rng(20261020);
  std::vector<std::pair<std::int32_t, std::vector<std::int32_t>>> cases;
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::int32_t>(1 + rng.below(400));
    const double keep = trial % 3 == 0 ? 0.5 : 17.0 / static_cast<double>(n);
    cases.emplace_back(n, random_neighborhood(rng, n, keep));
  }
  for (const std::int32_t n : {1, 2, 7, 64, 513}) {
    cases.emplace_back(n, identity_ids(n));
    if (n < 2) continue;
    for (const std::int32_t missing : {0, n / 2, n - 1}) {
      std::vector<std::int32_t> ids = identity_ids(n);
      ids.erase(ids.begin() + missing);
      cases.emplace_back(n, std::move(ids));
    }
  }
  return cases;
}

TEST(NeighborIndexOracle, SlotOfMatchesAnNEntryTable) {
  for (const auto& [n, neighbors] : oracle_neighborhoods()) {
    NeighborIndex index;
    index.bind({neighbors.data(), neighbors.size()}, n);
    ASSERT_EQ(index.size(), neighbors.size());
    EXPECT_EQ(index.identity(),
              neighbors.size() == static_cast<std::size_t>(n));
    const std::vector<std::int32_t> table = slot_table(neighbors, n);
    // Every registered id (neighbors and non-neighbors alike), the ids just
    // outside [0, n), and the extremes.
    for (std::int32_t id = -2; id <= n + 1; ++id) {
      ASSERT_EQ(index.slot_of(id), oracle_slot(table, id))
          << "n=" << n << " degree=" << neighbors.size() << " id=" << id;
    }
    for (const std::int32_t id : {std::numeric_limits<std::int32_t>::max(),
                                  std::numeric_limits<std::int32_t>::min()}) {
      ASSERT_EQ(index.slot_of(id), -1) << "n=" << n << " id=" << id;
    }
  }
}

TEST(NeighborIndexOracle, RebindReplacesTheMap) {
  // Under a dynamics schedule the same index rebinds: sparse -> identity
  // -> sparse must each answer exactly like a fresh table.
  NeighborIndex index;
  const std::vector<std::int32_t> sparse = {1, 4, 6};
  const std::vector<std::int32_t> other = {0, 2, 6, 7};
  const std::vector<std::int32_t> all = identity_ids(8);
  for (const auto* ids : {&sparse, &all, &other}) {
    index.bind({ids->data(), ids->size()}, 8);
    const std::vector<std::int32_t> table = slot_table(*ids, 8);
    for (std::int32_t id = -1; id <= 8; ++id) {
      ASSERT_EQ(index.slot_of(id), oracle_slot(table, id)) << "id=" << id;
    }
  }
}

TEST(ArrivalArenaOracle, RecordMatchesAnIdIndexedTable) {
  util::Rng rng(77);
  for (const auto& [n, neighbors] : oracle_neighborhoods()) {
    ArrivalArena arena;
    arena.bind({neighbors.data(), neighbors.size()}, n, core_sentinel());
    const std::vector<std::int32_t> table = slot_table(neighbors, n);
    std::vector<double> expected(neighbors.size(), core_sentinel());
    // Random senders over all of 0..n-1: non-neighbors must be dropped.
    for (int i = 0; i < 4 * n; ++i) {
      const auto sender =
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
      const double value = rng.uniform(-1.0, 1.0);
      arena.record(sender, value);
      const std::int32_t slot = oracle_slot(table, sender);
      if (slot >= 0) expected[static_cast<std::size_t>(slot)] = value;
      ASSERT_EQ(arena.slot_of(sender), slot) << "n=" << n << " id=" << sender;
    }
    ASSERT_EQ(arena.values(), expected) << "n=" << n;
    if (neighbors.size() >= 3) {
      const std::size_t f = (neighbors.size() - 1) / 3;
      EXPECT_EQ(arena.midpoint_reduced(f),
                ms::fault_tolerant_midpoint(expected, f));
    }
  }
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

// --- unheard(): the starvation count ------------------------------------

/// The oracle: slots holding the value the arena was last bound with.
std::size_t scan_unheard(const ArrivalArena& arena, double fill) {
  return static_cast<std::size_t>(
      std::count(arena.values().begin(), arena.values().end(), fill));
}

TEST(ArrivalArenaOracle, UnheardMatchesAScanForTheBindValue) {
  // Random interleavings of every write path with precompute() and the
  // reductions that consume its memo, on sparse and identity maps: after
  // every step, unheard() must be the scan — a memo surviving a write, or
  // a reduction clobbering the count, shows up as a mismatch.
  util::Rng rng(4242);
  const std::vector<double> fills = {core_sentinel(), 0.0, -1.0};
  for (const auto& [n, neighbors] : oracle_neighborhoods()) {
    ArrivalArena arena;
    double fill = fills[rng.below(fills.size())];
    arena.bind({neighbors.data(), neighbors.size()}, n, fill);
    const std::size_t m = neighbors.size();
    const std::size_t f = (m - 1) / 3;
    for (int step = 0; step < 200; ++step) {
      // Half the writes restore the bind value, so counts move both ways.
      const double value = rng.uniform() < 0.5 ? fill : rng.uniform(-1.0, 1.0);
      std::string op;
      switch (rng.below(8)) {
        case 0:
          op = "record";
          arena.record(static_cast<std::int32_t>(
                           rng.below(static_cast<std::uint64_t>(n))),
                       value);
          break;
        case 1:
          op = "set_slot";
          arena.set_slot(rng.below(m), value);
          break;
        case 2:
          op = "slot_data";
          arena.slot_data()[rng.below(m)] = value;
          break;
        case 3:
          op = "fill";
          arena.fill(value);
          break;
        case 4:
          op = "bind";
          fill = fills[rng.below(fills.size())];
          arena.bind({neighbors.data(), neighbors.size()}, n, fill);
          break;
        case 5:
        case 6:
          op = "precompute";
          arena.precompute(ArrivalArena::Reduction::kMidpoint, f);
          break;
        default:
          op = "midpoint_reduced";
          (void)arena.midpoint_reduced(f);
          break;
      }
      ASSERT_EQ(arena.unheard(), scan_unheard(arena, fill))
          << "n=" << n << " degree=" << m << " step=" << step << " " << op;
    }
  }
}

TEST(ArrivalArena, UnheardMemoIsDroppedByEveryWriteAndOutlivesReductions) {
  constexpr std::size_t kF = 2;
  const auto ids = identity_ids(9);
  const auto load = [&](ArrivalArena& arena) {
    arena.bind({ids.data(), ids.size()}, 9, core_sentinel());
    for (std::size_t i = 0; i < 6; ++i) {
      arena.set_slot(i, static_cast<double>(i));
    }
  };
  // Each write changes the count from the primed 3.
  using Write = void (*)(ArrivalArena&);
  const std::vector<std::pair<const char*, Write>> writes = {
      {"record", [](ArrivalArena& a) { a.record(7, 50.0); }},
      {"set_slot", [](ArrivalArena& a) { a.set_slot(0, core_sentinel()); }},
      {"slot_data", [](ArrivalArena& a) { a.slot_data()[8] = 50.0; }},
      {"fill", [](ArrivalArena& a) { a.fill(10.0); }},
      {"bind",
       [](ArrivalArena& a) {
         const auto fresh_ids = identity_ids(9);
         a.bind({fresh_ids.data(), fresh_ids.size()}, 9, core_sentinel());
       }},
  };
  for (const auto& [name, write] : writes) {
    ArrivalArena arena;
    load(arena);
    arena.precompute(ArrivalArena::Reduction::kMidpoint, kF);
    ASSERT_EQ(arena.unheard(), 3u) << name;
    write(arena);
    ASSERT_NE(scan_unheard(arena, core_sentinel()), 3u) << name;
    EXPECT_EQ(arena.unheard(), scan_unheard(arena, core_sentinel())) << name;
  }
  // Consuming the reduction memo leaves the slots, and so the count, as
  // they were; a write after that still drops the count.
  ArrivalArena arena;
  load(arena);
  arena.precompute(ArrivalArena::Reduction::kMidpoint, kF);
  (void)arena.midpoint_reduced(kF);
  EXPECT_EQ(arena.unheard(), 3u);
  arena.record(6, 1.0);
  EXPECT_EQ(arena.unheard(), 2u);
  // Too few slots for f: the reduction memo is skipped, the count is not.
  arena.precompute(ArrivalArena::Reduction::kMidpoint, 5);
  EXPECT_EQ(arena.unheard(), 2u);
  EXPECT_THROW((void)arena.midpoint_reduced(5), std::invalid_argument);
}

// --- kernels::dual_rank_select against std::sort ------------------------

/// Multiset shapes the select must get right.  The cluster shape is the
/// two-faced full mesh's ARR: most values in one tight cluster, plus
/// kNeverArrived sentinels and two-faced extremes far on either side, so
/// the first histogram level puts more than half the values, and often
/// both wanted ranks, in one bucket.
enum class Shape { kUniform, kCluster, kAllEqual, kTwoLevels };

std::vector<double> make_shape(Shape shape, std::size_t m, util::Rng& rng) {
  std::vector<double> v(m);
  for (double& x : v) {
    switch (shape) {
      case Shape::kUniform:
        x = rng.uniform(-1.0, 1.0);
        break;
      case Shape::kCluster: {
        const double u = rng.uniform();
        if (u < 0.15) {
          x = core_sentinel();
        } else if (u < 0.25) {
          x = 1e3 + rng.uniform(-1.0, 1.0) * 50.0;  // two-faced, early/late
        } else if (u < 0.30) {
          x = -1e6;
        } else {
          x = 100.0 + rng.uniform() * 1e-6;  // the honest cluster
        }
        break;
      }
      case Shape::kAllEqual:
        x = 42.5;
        break;
      case Shape::kTwoLevels:
        x = rng.uniform() < 0.7 ? 3.0 : -7.25;
        break;
    }
  }
  return v;
}

TEST(DualRankSelect, MatchesStdSortOnEveryShapeAndRankPair) {
  // Guard cells past the end of the key workspace: the select may write
  // keys[0..2m], nothing beyond.
  constexpr std::size_t kGuard = 8;
  constexpr std::uint64_t kGuardKey = 0x5a5a5a5a5a5a5a5aull;
  util::Rng rng(2027);
  for (const std::size_t m : {17u, 65u, 97u, 512u, 2048u, 4096u}) {
    const std::size_t f = (m - 1) / 3;
    const std::vector<std::pair<std::size_t, std::size_t>> ranks = {
        {f, m - 1 - f},        // the reduce's clip ranks
        {0, m - 1},            // the extremes
        {m / 2, m / 2},        // one rank
        {f, f},                // one rank at the clip
        {f, f + 1},            // adjacent ranks
        {m - 2, m - 1},        // adjacent ranks at the top
        {m / 2 - 1, m / 2},    // adjacent ranks in the middle
    };
    for (const Shape shape : {Shape::kUniform, Shape::kCluster,
                              Shape::kAllEqual, Shape::kTwoLevels}) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::vector<double> values = make_shape(shape, m, rng);
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        for (const auto& [lo, hi] : ranks) {
          std::vector<std::uint64_t> keys(2 * m + 1 + kGuard, kGuardKey);
          const auto got =
              kernels::dual_rank_select(values.data(), m, lo, hi, keys);
          const std::string where = "m=" + std::to_string(m) +
                                    " shape=" +
                                    std::to_string(static_cast<int>(shape)) +
                                    " ranks=" + std::to_string(lo) + "," +
                                    std::to_string(hi);
          ASSERT_EQ(got.first, sorted[lo]) << where;
          ASSERT_EQ(got.second, sorted[hi]) << where;
          for (std::size_t g = 0; g < kGuard; ++g) {
            ASSERT_EQ(keys[2 * m + 1 + g], kGuardKey) << where << " guard " << g;
          }
        }
      }
    }
  }
}

TEST(DualRankSelect, RejectsBadRanks) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<std::uint64_t> keys;
  EXPECT_THROW((void)kernels::dual_rank_select(a.data(), 3, 2, 1, keys),
               std::invalid_argument);
  EXPECT_THROW((void)kernels::dual_rank_select(a.data(), 3, 0, 3, keys),
               std::invalid_argument);
  EXPECT_THROW((void)kernels::dual_rank_select(a.data(), 0, 0, 0, keys),
               std::invalid_argument);
}

}  // namespace
}  // namespace wlsync::proc
