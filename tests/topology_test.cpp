// Network layer: exchange-graph construction invariants (and exactly the
// adjacency of the std::set builders the constructors replaced), the delivery
// ring's order against per-recipient order oracles (the guarantee that
// makes the ring a pure performance detail) and its cell-seal rules,
// sparse-graph determinism under the parallel runner, and the sharded
// measurement pipeline's 1e-12 regression against the per-sample scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/measure.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "clock/drift.h"
#include "engine/pdes.h"
#include "net/fanout.h"
#include "net/partition.h"
#include "net/topology.h"
#include "proc/adversaries.h"
#include "proc/placement.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace wlsync {
namespace {

using analysis::DelayKind;
using analysis::RunResult;
using analysis::RunSpec;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------------- topology ---

void expect_invariants(const Topology& topo) {
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    const auto peers = topo.neighbors(p);
    EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
    EXPECT_EQ(std::adjacent_find(peers.begin(), peers.end()), peers.end());
    EXPECT_TRUE(std::binary_search(peers.begin(), peers.end(), p))
        << "self-loop missing at " << p;
    for (std::int32_t q : peers) {
      const auto back = topo.neighbors(q);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), p))
          << "asymmetric edge " << p << " -> " << q;
    }
  }
}

TEST(Topology, FullMeshShape) {
  const Topology topo = Topology::full_mesh(5);
  EXPECT_EQ(topo.n(), 5);
  EXPECT_TRUE(topo.is_full_mesh());
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.edge_count(), 25u);
  for (std::int32_t p = 0; p < 5; ++p) {
    ASSERT_EQ(topo.degree(p), 5);
    for (std::int32_t q = 0; q < 5; ++q) EXPECT_EQ(topo.neighbors(p)[static_cast<std::size_t>(q)], q);
  }
  expect_invariants(topo);
}

TEST(Topology, RingOfCliquesShape) {
  const Topology topo = Topology::ring_of_cliques(24, 6);
  EXPECT_EQ(topo.n(), 24);
  EXPECT_FALSE(topo.is_full_mesh());
  EXPECT_TRUE(topo.connected());
  expect_invariants(topo);
  // Interior clique members see their clique only (6, self included);
  // bridge endpoints see one more.
  EXPECT_EQ(topo.degree(1), 6);
  EXPECT_EQ(topo.degree(5), 7);   // last of clique 0 bridges to 6
  EXPECT_EQ(topo.degree(6), 7);   // first of clique 1 bridged from 5
}

TEST(Topology, KRegularConnectedSymmetric) {
  const Topology topo = Topology::k_regular(64, 8, /*seed=*/7);
  EXPECT_EQ(topo.n(), 64);
  EXPECT_TRUE(topo.connected());
  EXPECT_FALSE(topo.is_full_mesh());
  expect_invariants(topo);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    EXPECT_GE(topo.degree(p), 3);  // ring + self at the very least
  }
  // Deterministic in the seed.
  const Topology again = Topology::k_regular(64, 8, /*seed=*/7);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    const auto a = topo.neighbors(p);
    const auto b = again.neighbors(p);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(Topology, CustomAdjacencyNormalized) {
  // Asymmetric, unsorted, no self-loops: from_adjacency must repair all.
  const Topology topo = Topology::from_adjacency({{1}, {2}, {}, {0}});
  EXPECT_EQ(topo.n(), 4);
  expect_invariants(topo);
  EXPECT_TRUE(topo.connected());
  EXPECT_THROW(Topology::from_adjacency({{3}}), std::invalid_argument);
}

TEST(Topology, CompleteGraphsAreTheImplicitMesh) {
  // However a complete graph is spelled, it is stored (and answers) as the
  // mesh: one shared 0..n-1 row, n^2 edges, no cut structure from n = 3.
  for (const std::int32_t n : {1, 2, 3, 9}) {
    std::vector<std::vector<std::int32_t>> complete(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p) {
      for (std::int32_t q = n - 1; q >= 0; --q) {
        if (q != p) complete[static_cast<std::size_t>(p)].push_back(q);
      }
    }
    for (const Topology& topo :
         {Topology::full_mesh(n), Topology::from_adjacency(complete),
          Topology::ring_of_cliques(n, n)}) {
      ASSERT_TRUE(topo.is_full_mesh()) << "n=" << n;
      ASSERT_EQ(topo.edge_count(), static_cast<std::size_t>(n * n));
      for (std::int32_t p = 0; p < n; ++p) {
        ASSERT_EQ(topo.degree(p), n);
        for (std::int32_t q = 0; q < n; ++q) {
          ASSERT_EQ(topo.neighbors(p)[static_cast<std::size_t>(q)], q);
        }
      }
      const Topology::CutStructure cuts = topo.cut_structure();
      EXPECT_TRUE(cuts.articulation.empty());
      const std::vector<std::int32_t> bridge_ends =
          n == 2 ? std::vector<std::int32_t>{0, 1} : std::vector<std::int32_t>{};
      EXPECT_EQ(cuts.bridge_ends, bridge_ends);
      EXPECT_EQ(topo.diameter(), n > 1 ? 1 : 0);
    }
  }
}

TEST(Topology, BuildValidatesConnectivityAndSize) {
  net::TopologySpec spec;
  spec.kind = TopologyKind::kCustom;
  spec.custom = {{0}, {1}};  // two isolated nodes
  EXPECT_THROW(net::build_topology(spec, 2), std::invalid_argument);
  spec.custom = {{0, 1}, {1, 0}};
  EXPECT_NO_THROW(net::build_topology(spec, 2));
  EXPECT_THROW(net::build_topology(spec, 3), std::invalid_argument);
}

// --------------------------------------------- randomized property tests ---

/// Connected random graph as raw adjacency lists: a random attachment tree
/// (guarantees connectivity) plus `extra` random edges.  Lists are left
/// asymmetric, unsorted, and self-loop-free on purpose — from_adjacency
/// must repair all of that.
std::vector<std::vector<std::int32_t>> random_adjacency(util::Rng& rng,
                                                        std::int32_t n,
                                                        std::int32_t extra) {
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
  for (std::int32_t v = 1; v < n; ++v) {
    lists[static_cast<std::size_t>(v)].push_back(
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
  }
  for (std::int32_t e = 0; e < extra; ++e) {
    const auto a = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    lists[a].push_back(b);
  }
  return lists;
}

TEST(TopologyProperties, RandomGraphsNormalizedConnectedRoundTrip) {
  util::Rng rng(20260727);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::int32_t>(2 + rng.below(40));
    const auto extra = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(2 * n)));
    const Topology topo = Topology::from_adjacency(random_adjacency(rng, n, extra));
    ASSERT_EQ(topo.n(), n);
    expect_invariants(topo);  // symmetry, self-loops, sorted, duplicate-free

    // connected() agrees with BFS reachability (the tree construction makes
    // every one of these graphs connected).
    EXPECT_TRUE(topo.connected());
    const std::span<const std::int32_t> from0 = topo.distances_from(0);
    for (std::int32_t v = 0; v < n; ++v) {
      EXPECT_GE(from0[static_cast<std::size_t>(v)], 0) << "trial " << trial;
    }

    // CSR round-trip: feeding neighbors() back through from_adjacency must
    // reproduce the structure exactly.
    std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p) {
      const auto peers = topo.neighbors(p);
      lists[static_cast<std::size_t>(p)].assign(peers.begin(), peers.end());
    }
    const Topology rebuilt = Topology::from_adjacency(lists);
    ASSERT_EQ(rebuilt.n(), n);
    ASSERT_EQ(rebuilt.edge_count(), topo.edge_count());
    for (std::int32_t p = 0; p < n; ++p) {
      const auto a = topo.neighbors(p);
      const auto b = rebuilt.neighbors(p);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "trial " << trial << " node " << p;
    }
  }
}

TEST(TopologyProperties, RandomDisconnectedGraphsDetected) {
  util::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    // Two random connected components with no cross edges.
    const auto n1 = static_cast<std::int32_t>(2 + rng.below(10));
    const auto n2 = static_cast<std::int32_t>(2 + rng.below(10));
    std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n1 + n2));
    for (std::int32_t v = 1; v < n1; ++v) {
      lists[static_cast<std::size_t>(v)].push_back(
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
    }
    for (std::int32_t v = 1; v < n2; ++v) {
      lists[static_cast<std::size_t>(n1 + v)].push_back(
          n1 + static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(v))));
    }
    const Topology topo = Topology::from_adjacency(lists);
    expect_invariants(topo);
    EXPECT_FALSE(topo.connected());
    EXPECT_EQ(topo.diameter(), -1);
    EXPECT_EQ(topo.distances_from(0)[static_cast<std::size_t>(n1)], -1);
  }
}

TEST(TopologyProperties, RandomExpandersSeededAndSane) {
  util::Rng rng(5150);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::int32_t>(16 + rng.below(100));
    const std::uint64_t seed = rng();
    const Topology topo = Topology::k_regular(n, 8, seed);
    expect_invariants(topo);
    EXPECT_TRUE(topo.connected());
    // Distances are symmetric (spot-checked along a random row).
    const auto i = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    const std::span<const std::int32_t> row = topo.distances_from(i);
    for (std::int32_t j = 0; j < n; ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                topo.distances_from(j)[static_cast<std::size_t>(i)]);
    }
  }
}

// ------------------------------------------ std::set reference builders ---
//
// The constructors sort and deduplicate each row straight into CSR.  These
// are the std::set builders they replaced, kept as the oracle: every
// constructor must produce exactly their adjacency.

using Rows = std::vector<std::vector<std::int32_t>>;

/// Self-loops, symmetric closure, sorted unique rows.
Rows set_close(std::vector<std::set<std::int32_t>> adjacency) {
  const auto n = static_cast<std::int32_t>(adjacency.size());
  for (std::int32_t p = 0; p < n; ++p) {
    adjacency[static_cast<std::size_t>(p)].insert(p);
    for (std::int32_t q : adjacency[static_cast<std::size_t>(p)]) {
      if (q < 0 || q >= n) {
        throw std::invalid_argument("Topology: neighbor id out of range");
      }
      adjacency[static_cast<std::size_t>(q)].insert(p);
    }
  }
  Rows rows(adjacency.size());
  for (std::size_t p = 0; p < adjacency.size(); ++p) {
    rows[p].assign(adjacency[p].begin(), adjacency[p].end());
  }
  return rows;
}

Rows set_ring_of_cliques(std::int32_t n, std::int32_t clique_size) {
  std::vector<std::set<std::int32_t>> adjacency(static_cast<std::size_t>(n));
  const std::int32_t cliques = (n + clique_size - 1) / clique_size;
  for (std::int32_t c = 0; c < cliques; ++c) {
    const std::int32_t lo = c * clique_size;
    const std::int32_t hi = std::min(n, lo + clique_size);
    for (std::int32_t p = lo; p < hi; ++p) {
      for (std::int32_t q = lo; q < hi; ++q) {
        adjacency[static_cast<std::size_t>(p)].insert(q);
      }
    }
    if (cliques > 1) {
      adjacency[static_cast<std::size_t>(hi - 1)].insert(
          ((c + 1) % cliques) * clique_size);
    }
  }
  return set_close(std::move(adjacency));
}

Rows set_k_regular(std::int32_t n, std::int32_t degree, std::uint64_t seed) {
  std::vector<std::set<std::int32_t>> adjacency(static_cast<std::size_t>(n));
  std::set<std::int32_t> strides{1};
  util::Rng rng(seed);
  const std::int32_t wanted = std::max(1, degree / 2);
  for (int attempts = 0;
       static_cast<std::int32_t>(strides.size()) < wanted &&
       attempts < 64 * wanted && n > 4;
       ++attempts) {
    strides.insert(2 + static_cast<std::int32_t>(rng.below(
                           static_cast<std::uint64_t>(n / 2 - 1 > 0 ? n / 2 - 1
                                                                    : 1))));
  }
  for (std::int32_t p = 0; p < n; ++p) {
    for (std::int32_t s : strides) {
      adjacency[static_cast<std::size_t>(p)].insert((p + s) % n);
      adjacency[static_cast<std::size_t>(p)].insert(((p - s) % n + n) % n);
    }
  }
  return set_close(std::move(adjacency));
}

Rows set_from_adjacency(const Rows& lists) {
  std::vector<std::set<std::int32_t>> adjacency(lists.size());
  for (std::size_t p = 0; p < lists.size(); ++p) {
    adjacency[p].insert(lists[p].begin(), lists[p].end());
  }
  return set_close(std::move(adjacency));
}

void expect_rows(const Topology& topo, const Rows& rows,
                 const std::string& what) {
  ASSERT_EQ(topo.n(), static_cast<std::int32_t>(rows.size())) << what;
  std::size_t edges = 0;
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    const auto peers = topo.neighbors(p);
    const auto& want = rows[static_cast<std::size_t>(p)];
    ASSERT_TRUE(std::equal(peers.begin(), peers.end(), want.begin(), want.end()))
        << what << " row " << p;
    edges += want.size();
  }
  EXPECT_EQ(topo.edge_count(), edges) << what;
  EXPECT_EQ(topo.is_full_mesh(), edges == rows.size() * rows.size()) << what;
}

TEST(TopologyReference, KRegularMatchesTheSetBuilder) {
  for (const std::int32_t n : {1, 2, 3, 4, 5, 6, 7, 16, 33, 100, 257, 1000}) {
    for (const std::int32_t degree : {2, 3, 4, 8, 16, 17, 40}) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 20261020ULL}) {
        expect_rows(Topology::k_regular(n, degree, seed),
                    set_k_regular(n, degree, seed),
                    "k_regular n=" + std::to_string(n) +
                        " degree=" + std::to_string(degree) +
                        " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(TopologyReference, RingOfCliquesMatchesTheSetBuilder) {
  for (const std::int32_t n : {1, 2, 3, 5, 16, 24, 25, 100, 301}) {
    for (const std::int32_t clique : {1, 2, 3, 6, 8, 24, 100, 400}) {
      expect_rows(Topology::ring_of_cliques(n, clique),
                  set_ring_of_cliques(n, clique),
                  "ring_of_cliques n=" + std::to_string(n) +
                      " clique=" + std::to_string(clique));
    }
  }
}

TEST(TopologyReference, CustomListsMatchTheSetBuilder) {
  // Unclean on purpose: duplicates, missing and repeated self-loops,
  // asymmetric edges, unsorted rows, empty rows.
  const std::vector<Rows> fixed = {
      {{1, 1, 1}, {2, 0, 2}, {}, {0, 3, 3}},
      {{0, 0}, {1}, {0, 1, 2, 2, 1}},
      {{}},
      {{4, 3, 2, 1}, {}, {}, {}, {}},
  };
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    expect_rows(Topology::from_adjacency(fixed[i]), set_from_adjacency(fixed[i]),
                "fixed case " + std::to_string(i));
  }
  util::Rng rng(1020);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::int32_t>(1 + rng.below(60));
    Rows lists = random_adjacency(rng, n, static_cast<std::int32_t>(rng.below(
                                              static_cast<std::uint64_t>(3 * n))));
    // Repeat some entries and sprinkle self-loops into some rows.
    for (auto& list : lists) {
      if (!list.empty() && rng.uniform() < 0.3) list.push_back(list.front());
    }
    lists[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)))]
        .push_back(0);
    expect_rows(Topology::from_adjacency(lists), set_from_adjacency(lists),
                "random trial " + std::to_string(trial));
  }
}

TEST(TopologyReference, OutOfRangeIdsThrowLikeTheSetBuilder) {
  for (const Rows& lists : {Rows{{3}}, Rows{{0}, {-1}}, Rows{{1}, {0, 2}}}) {
    std::string want;
    try {
      (void)set_from_adjacency(lists);
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    try {
      (void)Topology::from_adjacency(lists);
      ADD_FAILURE() << "from_adjacency accepted an out-of-range id";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

// ----------------------------------------------------- fan-out oracle ---

bool traces_identical(const analysis::RoundTrace& a,
                      const analysis::RoundTrace& b) {
  auto same = [](const std::vector<analysis::RoundEvent>& u,
                 const std::vector<analysis::RoundEvent>& v) {
    if (u.size() != v.size()) return false;
    for (std::size_t i = 0; i < u.size(); ++i) {
      if (u[i].pid != v[i].pid || u[i].round != v[i].round ||
          u[i].real_time != v[i].real_time || u[i].value != v[i].value ||
          u[i].value2 != v[i].value2) {
        return false;
      }
    }
    return true;
  };
  return same(a.begins(), b.begins()) && same(a.updates(), b.updates()) &&
         same(a.joins(), b.joins());
}

/// Delivery-order oracle for the delivery ring (NIC off).  One scheduler
/// entry per recipient, keyed (deliver_time, tier 0, seq = sender << 40 |
/// sender's send index), is the engine the ring must be indistinguishable
/// from; that order is reconstructible from on_send
/// alone.  The oracle records every send with its per-sender index and
/// every application-message receive, and check() requires the receives
/// to be exactly the sends sorted by (deliver_time, sender, send index),
/// up to the run's end time.
class FanoutOracle final : public sim::TraceSink {
 public:
  void on_send(std::int32_t from, std::int32_t to, const sim::Message& msg,
               double /*send_time*/, double deliver_time) override {
    const auto sender = static_cast<std::size_t>(from);
    if (sender >= next_index_.size()) next_index_.resize(sender + 1, 0);
    sends_.push_back({deliver_time, from, next_index_[sender]++, to, msg});
  }

  void on_receive(std::int32_t pid, const sim::Message& msg,
                  double time) override {
    if (msg.kind == sim::Kind::kApp) received_.push_back({time, msg.from, 0, pid, msg});
  }

  /// Returns the first mismatch, or "" when the orders agree.
  [[nodiscard]] std::string check(double end_time) const {
    std::vector<Delivery> expected = sends_;
    std::sort(expected.begin(), expected.end(),
              [](const Delivery& a, const Delivery& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.from != b.from) return a.from < b.from;
                return a.index < b.index;
              });
    while (!expected.empty() && expected.back().time > end_time) {
      expected.pop_back();  // still in flight at the horizon
    }
    if (expected.size() != received_.size()) {
      return "expected " + std::to_string(expected.size()) +
             " deliveries, saw " + std::to_string(received_.size());
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Delivery& want = expected[i];
      const Delivery& got = received_[i];
      if (want.time != got.time || want.to != got.to ||
          want.from != got.from || want.msg.tag != got.msg.tag ||
          want.msg.value != got.msg.value || want.msg.aux != got.msg.aux) {
        return "delivery " + std::to_string(i) + ": expected " +
               std::to_string(want.from) + "->" + std::to_string(want.to) +
               " at " + std::to_string(want.time) + ", saw " +
               std::to_string(got.from) + "->" + std::to_string(got.to) +
               " at " + std::to_string(got.time);
      }
    }
    return "";
  }

  [[nodiscard]] std::size_t deliveries() const { return received_.size(); }

 private:
  struct Delivery {
    double time;
    std::int32_t from;
    std::uint64_t index;  ///< per-sender send counter (receives: unused)
    std::int32_t to;
    sim::Message msg;
  };
  std::vector<Delivery> sends_;
  std::vector<Delivery> received_;
  std::vector<std::uint64_t> next_index_;
};

RunSpec fanout_spec() {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 20260727;
  return spec;
}

/// Runs `spec` on the event engine under the delivery-order oracle, and
/// requires the default engine selection to reproduce the traced run.
void check_fanout_order(RunSpec spec) {
  spec.engine = analysis::EngineMode::kEvent;
  analysis::Experiment traced(spec);
  FanoutOracle oracle;
  traced.simulator().add_trace_sink(&oracle);
  const RunResult result = traced.run();
  EXPECT_EQ(oracle.check(traced.simulator().current_time()), "");
  EXPECT_GT(oracle.deliveries(), 0u);
  EXPECT_GT(traced.simulator().fanout_direct(), 0u);

  RunSpec selected = spec;
  selected.engine = analysis::EngineMode::kAuto;
  analysis::Experiment plain(selected);
  EXPECT_TRUE(analysis::results_identical(plain.run(), result));
  EXPECT_TRUE(traces_identical(plain.trace(), traced.trace()));
}

TEST(FanoutOracle, DeliveryOrderAcrossDelayModels) {
  // kFast/kSlow produce exact delivery-time ties across a whole broadcast —
  // the seq-block reservation is what keeps those ordered by sender.  The
  // n = 64, f = 21 mesh sends broadcasts of 64 and face lists of ~21-43
  // ids, so the sorter's buckets, insertion pass and clustered-bucket sorts
  // all run on lists well above the n = 7 sizes.
  for (const std::int32_t n : {7, 64}) {
    for (const DelayKind delay :
         {DelayKind::kUniform, DelayKind::kFast, DelayKind::kSlow,
          DelayKind::kPerLink, DelayKind::kSplit, DelayKind::kExpTrunc}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", delay " +
                   std::to_string(static_cast<int>(delay)));
      RunSpec spec = fanout_spec();
      if (n == 64) {
        spec.params = core::make_params(64, 21, 1e-5, 0.01, 1e-3, 10.0);
        spec.fault_count = 21;
        spec.rounds = 4;
      }
      spec.delay = delay;
      check_fanout_order(spec);
    }
  }
}

// --------------------------------------------------------- cell seals ---

// The A3 band of delta = 10 ms, eps = 1 ms, widened by the engine's delay
// tolerance: D = 9 ms - tol, w = D / 64, R = 128 cells.
constexpr double kDelta = 0.01;
constexpr double kEps = 1e-3;
constexpr double kTol = 1e-12;
constexpr double kFloor = kDelta - kEps - kTol;
constexpr double kCeil = kDelta + kEps + kTol;

net::RingGeometry band_geometry() {
  return net::RingGeometry::for_band(kFloor, kCeil);
}

/// (time, seq) order, the order one scheduler entry per delivery runs in.
bool before(const net::RingItem& a, const net::RingItem& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Runs every delivery out of `ring`, sealing each cell as soon as
/// next_key allows at `ref` (+inf: any cell), and returns them in order.
std::vector<net::RingItem> run_out(net::DeliveryRing& ring, double ref) {
  std::vector<net::RingItem> out;
  while (!ring.empty()) {
    const net::DeliveryRing::Key key = ring.next_key(ref);
    EXPECT_FALSE(key.seal);
    if (key.seal) break;
    EXPECT_EQ(key.time, ring.front().time);
    EXPECT_EQ(key.seq, ring.front().seq);
    out.push_back(ring.front());
    (void)ring.pop_front();
  }
  return out;
}

/// Pushes deliveries with the given times, sent at `now`, with seqs that
/// do NOT follow insertion order (a cell mixes senders), and requires the
/// ring to hand them back exactly as std::sort by (time, seq) orders them.
void expect_ring_order(net::DeliveryRing& ring, double now,
                       const std::vector<double>& times, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::uint32_t payload = ring.open_payload(sim::make_app(5, 1, 2.0));
  std::vector<net::RingItem> expected;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::uint64_t sender = rng.below(8);
    const net::RingItem item{times[i], (sender << 40) | (3 * i + 1),
                             static_cast<std::int32_t>(i), payload};
    ring.push(now, item.time, item.seq, item.to, payload);
    expected.push_back(item);
  }
  std::sort(expected.begin(), expected.end(), before);
  const std::vector<net::RingItem> got =
      run_out(ring, std::numeric_limits<double>::infinity());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i].time, expected[i].time) << "slot " << i;
    ASSERT_EQ(got[i].seq, expected[i].seq) << "slot " << i;
    ASSERT_EQ(got[i].to, expected[i].to) << "slot " << i;
  }
}

TEST(RingGeometry, CellsCoverTheBandOrDisableTheRing) {
  const net::RingGeometry geometry = band_geometry();
  ASSERT_TRUE(geometry.enabled());
  EXPECT_EQ(geometry.width, kFloor / 64.0);
  EXPECT_EQ(geometry.cells, 128u);
  EXPECT_GE(geometry.cells, kCeil / geometry.width + 4.0);
  // delta = eps: no lookahead at all.
  EXPECT_FALSE(net::RingGeometry::for_band(-kTol, 2 * kDelta + kTol).enabled());
  // A band so wide that R would exceed 2^13 cells.
  EXPECT_FALSE(net::RingGeometry::for_band(1e-4 - kTol, 0.0199 + kTol).enabled());
  // Just inside the cap.
  const net::RingGeometry wide = net::RingGeometry::for_band(1e-3, 0.12);
  ASSERT_TRUE(wide.enabled());
  EXPECT_EQ(wide.cells, 8192u);
}

TEST(DeliveryRing, SealOrdersCellsLikeStdSort) {
  net::DeliveryRing ring;  // one ring throughout: chunks and scratch reused
  ring.configure(band_geometry());
  double now = 100.0;
  for (const std::size_t m : {1u, 2u, 3u, 17u, 64u, 129u, 512u, 2048u}) {
    SCOPED_TRACE(m);
    util::Rng rng(7 + m);
    std::vector<double> times;
    for (std::size_t i = 0; i < m; ++i) {
      times.push_back(now + kDelta - kEps + 2 * kEps * rng.uniform());
    }
    expect_ring_order(ring, now, times, m);
    now += 1.0;
  }
  // Every delivery inside one cell, in descending time along the list: the
  // insertion pass does the work at or below 16 per bucket, the clustered
  // sort above it.
  for (const std::size_t m : {2u, 9u, 16u, 17u, 2048u}) {
    SCOPED_TRACE(m);
    const std::int64_t cell = ring.cell_of(now + kDelta);
    const double lo = static_cast<double>(cell) * band_geometry().width;
    std::vector<double> times;
    for (std::size_t i = 0; i < m; ++i) {
      times.push_back(lo + 0.5 * band_geometry().width *
                               (1.0 - static_cast<double>(i) /
                                          static_cast<double>(m)));
    }
    expect_ring_order(ring, now, times, 100 + m);
    now += 1.0;
  }
}

TEST(DeliveryRing, ExactTiesAcrossSendersRunInSeqOrder) {
  // eps = 0 and the kFast / kSlow models put whole broadcasts, and the
  // broadcasts of processes that sent at the same instant, on one time.
  net::DeliveryRing ring;
  ring.configure(band_geometry());
  double now = 50.0;
  for (const std::size_t m : {2u, 6u, 40u, 300u, 2048u}) {
    SCOPED_TRACE(m);
    expect_ring_order(ring, now, std::vector<double>(m, now + kDelta), m);
    now += 1.0;
    util::Rng rng(m);
    std::vector<double> few;
    for (std::size_t i = 0; i < m; ++i) {
      few.push_back(now + kDelta + 1e-4 * static_cast<double>(rng.below(4)));
    }
    expect_ring_order(ring, now, few, 2 * m);
    now += 1.0;
  }
}

TEST(DeliveryRing, ItemsOnCellBoundaries) {
  // Times exactly on cell edges (the representable k * w nearest each
  // edge, and one ulp either side) interleaved with spread ones: the cell
  // map is monotone in time, so every edge case still sorts.
  net::DeliveryRing ring;
  ring.configure(band_geometry());
  const double w = band_geometry().width;
  const double now = 3.0;
  const std::int64_t first = ring.cell_of(now + kFloor) + 1;
  std::vector<double> times;
  util::Rng rng(3);
  for (std::int64_t k = first; k < first + 12; ++k) {
    const double edge = static_cast<double>(k) * w;
    times.push_back(edge);
    times.push_back(std::nextafter(edge, 0.0));
    times.push_back(std::nextafter(edge, 1e9));
    times.push_back(edge + w * rng.uniform());
    times.push_back(edge);  // an exact tie on the edge
  }
  expect_ring_order(ring, now, times, 11);
}

TEST(DeliveryRing, SendAtTheFloorAfterASealLandsBeyondTheCell) {
  // Seal cell c at the first clock allowed, t_ref = seal_time(c), then send
  // at t_ref with the smallest delays the engine admits (delta - eps, and
  // delta - eps - tol): the delivery lies a full cell past c before
  // rounding, and the one-cell guard band keeps it out of the sealed cell
  // however floor() and the sums round.  Without the guard it would land
  // in cell c about half the time.
  util::Rng rng(20261018);
  for (int trial = 0; trial < 2000; ++trial) {
    net::DeliveryRing ring;
    ring.configure(band_geometry());
    const std::uint32_t payload = ring.open_payload(sim::make_app(1, 0, 0.0));
    const double anchor = 1.0 + 500.0 * rng.uniform();
    const std::int64_t cell = ring.cell_of(anchor + kFloor) + 2;
    const double w = band_geometry().width;
    const double inside = (static_cast<double>(cell) + 0.5) * w;
    ring.push(anchor, inside, 1, 0, payload);
    const double t_ref = ring.seal_time(cell);
    ASSERT_GT(t_ref, anchor);
    // Sealable exactly at t_ref, not an ulp before.
    const net::DeliveryRing::Key early =
        ring.next_key(std::nextafter(t_ref, 0.0));
    ASSERT_TRUE(early.seal);
    ASSERT_LE(early.time, t_ref);
    const net::DeliveryRing::Key key = ring.next_key(t_ref);
    ASSERT_FALSE(key.seal);
    ASSERT_EQ(key.time, inside);
    for (const double delay : {kDelta - kEps, kFloor}) {
      const double t = t_ref + delay;
      ASSERT_GT(ring.cell_of(t), cell) << "trial " << trial;
      ASSERT_NO_THROW(ring.push(t_ref, t, 2, 1, payload)) << "trial " << trial;
    }
    const std::vector<net::RingItem> out = run_out(ring, t_ref + kFloor);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].time, inside);
  }
}

TEST(DeliveryRing, SealEntryNeverLetsAnItemRunEarly) {
  // A miniature of the engine loop: senders fire at random instants and
  // send fan-outs with delays anywhere in the band (exact floor and ceiling
  // included); the ring keeps one entry, re-keyed only when it runs, never
  // by a send while it is armed.  Every key must sit at or before the
  // earliest pending delivery (exactly on it when not a seal entry), and
  // deliveries must come out in the oracle's (time, seq) order.  Bands
  // with eps > delta / 3 are where a later send can land before the cell a
  // seal entry waits for, so the entry's ref + D - w cap must hold.
  for (const double eps : {kEps, 0.006, 0.009}) {
    const double floor_delay = kDelta - eps - kTol;
    const double ceil_delay = kDelta + eps + kTol;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(testing::Message() << "eps " << eps << " seed " << seed);
      net::DeliveryRing ring;
      ring.configure(net::RingGeometry::for_band(floor_delay, ceil_delay));
      ASSERT_TRUE(ring.enabled());
      util::Rng rng(seed);
      std::vector<net::RingItem> pending;  // the oracle
      std::vector<double> sends;           // pending send instants (min-heap)
      double clock = 0.0;
      std::uint64_t next_seq = 0;
      bool armed = false;
      bool dispatching = false;
      net::DeliveryRing::Key key;
      const auto oracle_min = [&]() {
        return *std::min_element(pending.begin(), pending.end(), before);
      };
      const auto send = [&](double now) {
        const std::uint32_t payload = ring.open_payload(sim::make_app(0, 0, 0.0));
        // A third of the sends are unicasts, so a seal entry often waits
        // for a single slow delivery while faster sends follow.
        const auto count = rng.uniform() < 0.33 ? 1 : 1 + rng.below(40);
        for (std::uint64_t i = 0; i < count; ++i) {
          const double u = rng.uniform();
          const double delay =
              u < 0.1   ? floor_delay
              : u < 0.2 ? ceil_delay
                        : floor_delay + (ceil_delay - floor_delay) * rng.uniform();
          const net::RingItem item{now + delay, next_seq++,
                                   static_cast<std::int32_t>(i), payload};
          ring.push(now, item.time, item.seq, item.to, payload);
          pending.push_back(item);
        }
        if (!armed && !dispatching) {  // a send arms only an idle ring
          key = ring.next_key(now);
          armed = true;
        }
      };
      for (int i = 0; i < 400; ++i) sends.push_back(0.5 * rng.uniform());
      std::make_heap(sends.begin(), sends.end(), std::greater<>{});
      std::size_t delivered = 0;
      std::size_t seal_entries = 0;
      while (!sends.empty() || armed) {
        if (armed) {
          const net::RingItem head = oracle_min();
          ASSERT_LE(key.time, head.time);
          if (!key.seal) {
            ASSERT_EQ(key.time, head.time);
            ASSERT_EQ(key.seq, head.seq);
          }
        }
        const bool ring_next = armed && (sends.empty() || key.time < sends.front());
        if (!ring_next) {
          std::pop_heap(sends.begin(), sends.end(), std::greater<>{});
          clock = sends.back();
          sends.pop_back();
          send(clock);
          continue;
        }
        double ref = std::max(key.time, clock);
        if (key.seal) ++seal_entries;
        armed = false;
        dispatching = true;
        // Run extension, as dispatch_ring does: deliver while the head
        // still precedes the next send.
        for (;;) {
          if (ring.empty()) break;
          const net::DeliveryRing::Key next = ring.next_key(ref);
          if (next.seal || (!sends.empty() && !(next.time < sends.front()))) break;
          const net::RingItem want = oracle_min();
          ASSERT_EQ(next.time, want.time);
          ASSERT_EQ(next.seq, want.seq);
          ASSERT_GE(next.time, clock);
          clock = next.time;
          ref = clock;
          (void)ring.pop_front();
          pending.erase(std::find_if(pending.begin(), pending.end(),
                                     [&](const net::RingItem& it) {
                                       return it.seq == want.seq;
                                     }));
          ++delivered;
          // Some deliveries answer at once, while the ring is running: that
          // send must not arm it.
          if (clock < 0.5 && rng.uniform() < 0.01) send(clock);
        }
        dispatching = false;
        armed = !ring.empty();
        if (armed) key = ring.next_key(ref);
      }
      EXPECT_TRUE(pending.empty());
      EXPECT_GT(delivered, 400u);
      EXPECT_GT(seal_entries, 0u);
    }
  }
}

TEST(DeliveryRing, SealEntryWaitsNoLongerThanTheFloor) {
  // eps = 0.9 delta: a lone slow delivery's cell seals ~2 eps after its
  // send, but a fast send a moment later lands long before that.  The seal
  // entry keyed after the first send must already sit in front of it.
  const double eps = 0.009;
  const double lo = kDelta - eps - kTol;
  const double hi = kDelta + eps + kTol;
  net::DeliveryRing ring;
  ring.configure(net::RingGeometry::for_band(lo, hi));
  ASSERT_TRUE(ring.enabled());
  const std::uint32_t slow = ring.open_payload(sim::make_app(0, 0, 0.0));
  ring.push(1.0, 1.0 + hi, 1, 0, slow);
  const net::DeliveryRing::Key key = ring.next_key(1.0);
  ASSERT_TRUE(key.seal);
  const double w = ring.geometry().width;
  EXPECT_LE(key.time, 1.0 + lo - w);
  EXPECT_LT(key.time, ring.seal_time(ring.cell_of(1.0 + hi)));
  const double later = 1.0 + 0.5 * lo;
  const std::uint32_t fast = ring.open_payload(sim::make_app(1, 0, 0.0));
  ring.push(later, later + lo, 2, 1, fast);
  EXPECT_LT(key.time, later + lo);
  // Run the ring from the key on, as the engine would: the fast delivery
  // comes first.
  double ref = key.time;
  std::vector<std::uint64_t> order;
  while (!ring.empty()) {
    const net::DeliveryRing::Key next = ring.next_key(ref);
    if (next.seal) {
      ASSERT_GT(next.time, ref);
      ref = next.time;
      continue;
    }
    order.push_back(next.seq);
    ref = next.time;
    (void)ring.pop_front();
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1}));
}

TEST(DeliveryRing, MinTimeAndChunkReuse) {
  net::DeliveryRing ring;
  ring.configure(band_geometry());
  EXPECT_EQ(ring.min_time(), std::numeric_limits<double>::infinity());
  const double w = band_geometry().width;
  util::Rng rng(9);
  // 1500 deliveries in one cell and 900 in the next: 12 + 8 chunks of
  // 128, two slabs of 16; per-cell minima kept at insertion.
  const auto load = [&](double now) {
    const std::uint32_t payload =
        ring.open_payload(sim::make_app(2, 7, 1.5, 3));
    const std::int64_t cell = ring.cell_of(now + kDelta);
    double lowest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 2400; ++i) {
      const double t =
          (static_cast<double>(cell + (i < 1500 ? 0 : 1)) + 0.1 +
           0.8 * rng.uniform()) *
          w;
      lowest = std::min(lowest, t);
      ring.push(now, t, static_cast<std::uint64_t>(i), i, payload);
    }
    return lowest;
  };
  const double lowest = load(10.0);
  EXPECT_EQ(ring.min_time(), lowest);
  const net::DeliveryRing::Key key = ring.next_key(10.0);
  EXPECT_TRUE(key.seal);  // nothing is sealable at the send instant
  EXPECT_LT(key.time, lowest);
  EXPECT_EQ(ring.min_time(), lowest);
  const std::uint64_t chunks = ring.chunk_allocs();
  EXPECT_EQ(chunks, 2u);
  std::size_t seen = 0;
  ring.drain([&](const net::RingItem&, const sim::Message& msg) {
    EXPECT_EQ(msg.from, 2);
    EXPECT_EQ(msg.tag, 7);
    EXPECT_EQ(msg.aux, 3);
    ++seen;
  });
  EXPECT_EQ(seen, 2400u);
  EXPECT_TRUE(ring.empty());
  // The same load again reuses the returned chunks, and a sealed cell
  // returns its chunks at once.
  (void)load(20.0);
  EXPECT_EQ(ring.chunk_allocs(), chunks);
  EXPECT_EQ(run_out(ring, 1e9).size(), 2400u);
  (void)load(30.0);
  EXPECT_EQ(ring.chunk_allocs(), chunks);
  EXPECT_EQ(run_out(ring, 1e9).size(), 2400u);
}

TEST(DeliveryRing, RefusesADeliveryIntoASealedCell) {
  net::DeliveryRing ring;
  ring.configure(band_geometry());
  const std::uint32_t payload = ring.open_payload(sim::make_app(0, 0, 0.0));
  ring.push(1.0, 1.0 + kDelta, 1, 0, payload);
  const double t_ref = ring.seal_time(ring.cell_of(1.0 + kDelta));
  EXPECT_FALSE(ring.next_key(t_ref).seal);
  // A "delay" below the floor from a send at t_ref: the A3 violation the
  // guard cannot absorb.
  EXPECT_THROW(ring.push(t_ref, 1.0 + kDelta, 2, 0, payload), std::logic_error);
}

TEST(FanoutOracle, DeliveryOrderWithStaggerAndKExchanges) {
  RunSpec spec = fanout_spec();
  spec.fault = analysis::FaultKind::kSilent;
  spec.fault_count = 2;
  spec.stagger = 2e-3;
  check_fanout_order(spec);

  RunSpec multi = fanout_spec();
  multi.k_exchanges = 2;
  multi.rounds = 5;
  check_fanout_order(multi);
}

TEST(FanoutOracle, DeliveryOrderOnSparseTopology) {
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 77;
  spec.topology.kind = TopologyKind::kKRegular;
  spec.topology.degree = 8;
  check_fanout_order(spec);
}

TEST(FanoutOracle, DeliveryOrderOnTheCalendarQueue) {
  RunSpec spec = fanout_spec();
  spec.scheduler = engine::SchedulerKind::kCalendar;
  check_fanout_order(spec);
}

TEST(FanoutOracle, ExactTiesAcrossSendersAtZeroEps) {
  // eps = 0, no drift and no initial spread: every honest process begins
  // each round at the same instant and every delay is exactly delta, so
  // whole rounds of deliveries from different senders tie exactly — the
  // ring's cells must order them by seq across senders.
  for (const std::int32_t n : {7, 64}) {
    SCOPED_TRACE(n);
    RunSpec spec = fanout_spec();
    spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 0.0, 10.0);
    spec.fault_count = (n - 1) / 3;
    spec.rounds = n == 7 ? 8 : 4;
    spec.drift = analysis::DriftKind::kNone;
    spec.initial_spread = 0.0;
    check_fanout_order(spec);
  }
}

TEST(FanoutOracle, PerVictimFacesAndSpamUseTheSendPath) {
  // Positional two-faced faults forge one face per victim with send(), and
  // spam sends junk to random ids: both one-recipient fan-outs.
  RunSpec faces = fanout_spec();
  faces.params = core::make_params(20, 6, 1e-5, 0.01, 1e-3, 10.0);
  faces.fault_count = 6;
  faces.placement = proc::PlacementKind::kRandom;
  faces.rounds = 5;
  check_fanout_order(faces);

  RunSpec spam = fanout_spec();
  spam.fault = analysis::FaultKind::kSpam;
  check_fanout_order(spam);
}

// ------------------------------------------ engine-level ring oracles ---

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                              1e-4);
}

/// Broadcasts `count` times, every `gap` of local time.
class Ticker final : public proc::Process {
 public:
  Ticker(double gap, std::int32_t count) : gap_(gap), count_(count) {}
  void on_start(proc::Context& ctx) override { on_timer(ctx, 0); }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    ctx.broadcast(/*tag=*/1, ctx.local_time(), tag);
    if (tag + 1 < count_) ctx.set_timer(ctx.local_time() + gap_, tag + 1);
  }
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  double gap_;
  std::int32_t count_;
};

/// Faulty: every `gap` of real time, sends one message per id of a
/// pseudo-random list with send() and multicasts the same list once —
/// ids outside the sender's neighborhood and across any shard cut.
class Scatterer final : public proc::Process {
 public:
  Scatterer(std::uint64_t seed, double gap, std::int32_t count)
      : rng_(seed), gap_(gap), count_(count) {}
  void on_start(proc::Context& ctx) override { on_timer(ctx, 0); }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    auto& actx = proc::AdversaryContext::from(ctx);
    std::vector<std::int32_t> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(static_cast<std::int32_t>(
          rng_.below(static_cast<std::uint64_t>(ctx.process_count()))));
    }
    for (const std::int32_t to : ids) ctx.send(to, 2, rng_.uniform(), tag);
    actx.multicast(ids, 3, rng_.uniform(), tag);
    if (tag + 1 < count_) {
      actx.set_timer_real(actx.real_time() + gap_, tag + 1);
    }
  }
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  util::Rng rng_;
  double gap_;
  std::int32_t count_;
};

/// Populates `sim` with ten-to-one Tickers and Scatterers, starting within
/// the first few milliseconds.
void add_traffic(sim::Simulator& sim, std::int32_t n) {
  for (std::int32_t id = 0; id < n; ++id) {
    const double start = 0.0004 * static_cast<double>(id % 7);
    if (id % 10 == 9) {
      sim.add_process(std::make_unique<Scatterer>(id, 0.0023, 20),
                      perfect_clock(), 0.0, /*faulty=*/true, start);
    } else {
      sim.add_process(std::make_unique<Ticker>(0.0017, 24), perfect_clock(),
                      0.0, /*faulty=*/false, start);
    }
  }
}

/// Answers every message it receives with a send back to its sender, up
/// to `hops` hops, and process 0 opens with a broadcast: every send after
/// the first comes from a handler the delivery ring is running.
class Echo final : public proc::Process {
 public:
  explicit Echo(std::int32_t hops) : hops_(hops) {}
  void on_start(proc::Context& ctx) override { ctx.broadcast(0, 0.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context& ctx, const sim::Message& msg) override {
    if (msg.aux < hops_) ctx.send(msg.from, 0, msg.value + 1.0, msg.aux + 1);
  }

 private:
  std::int32_t hops_;
};

TEST(FanoutOracle, OneRingEntryWhileHandlersSend) {
  // The only scheduler entries are process 0's START and then the ring's
  // own: a handler that sends while the ring runs must find it armed, not
  // arm a second entry.
  for (const double eps : {1e-3, 0.0}) {
    SCOPED_TRACE(eps);
    sim::SimConfig config;
    config.eps = eps;
    config.seed = 3;
    config.max_events = 100'000;
    sim::Simulator sim(config, nullptr);
    for (std::int32_t id = 0; id < 8; ++id) {
      sim.add_process(std::make_unique<Echo>(40), perfect_clock(), 0.0, false,
                      id == 0 ? 0.0 : -1.0);
    }
    FanoutOracle oracle;
    sim.add_trace_sink(&oracle);
    sim.run_until(1.0);
    EXPECT_EQ(oracle.check(sim.current_time()), "");
    EXPECT_EQ(oracle.deliveries(), 8u * 41u);
    EXPECT_EQ(sim.peak_pending(), 1u);
  }
}

TEST(FanoutOracle, WideBandsAndThePerRecipientFallback) {
  // delta = eps (no lookahead at all) and eps / delta = 0.99 (a ring of
  // more than 2^13 cells) disable the ring: every delivery is its own
  // scheduler entry, still in the per-recipient order.  eps / delta = 0.6
  // keeps the ring on a band where seal entries must be capped at
  // ref + D - w, and 0.1 is the default shape.
  for (const double eps : {0.01, 0.0099, 0.006, 0.001}) {
    SCOPED_TRACE(eps);
    sim::SimConfig config;
    config.delta = 0.01;
    config.eps = eps;
    config.seed = 17;
    sim::Simulator sim(config, nullptr);
    add_traffic(sim, 20);
    FanoutOracle oracle;
    sim.add_trace_sink(&oracle);
    sim.run_until(0.1);
    EXPECT_EQ(oracle.check(sim.current_time()), "");
    EXPECT_GT(oracle.deliveries(), 1000u);
    if (eps < 0.009) {
      EXPECT_GT(sim.ring_chunk_allocs(), 0u);
      EXPECT_LT(sim.queue_ops(), sim.messages_sent());
    } else {
      EXPECT_EQ(sim.ring_chunk_allocs(), 0u);
      EXPECT_GT(sim.queue_ops(), 2 * sim.messages_sent());
    }
  }
}

/// Per-recipient delivery-order oracle for runs where no global order is
/// observable: NIC ingress (processes see messages at service time) and
/// PDES lanes (each lane sees only its shard).  Every recipient must see
/// its application messages in (arrival time, sender, send index) order,
/// never before their arrival.  Send indices come from a counter shared by
/// every sink of the run (one slot per sender, touched only by the lane
/// that runs the sender).
class RecipientOracle final : public sim::TraceSink {
 public:
  explicit RecipientOracle(std::vector<std::uint64_t>* next_index)
      : next_index_(next_index) {}

  void on_send(std::int32_t from, std::int32_t to, const sim::Message& msg,
               double, double deliver_time) override {
    sends.push_back({deliver_time, from,
                     (*next_index_)[static_cast<std::size_t>(from)]++, to,
                     msg.value});
  }
  void on_receive(std::int32_t pid, const sim::Message& msg,
                  double time) override {
    if (msg.kind == sim::Kind::kApp) {
      receives.push_back({time, msg.from, 0, pid, msg.value});
    }
  }

  struct Entry {
    double time;
    std::int32_t from;
    std::uint64_t index;
    std::int32_t to;
    double value;
  };
  std::vector<Entry> sends;
  std::vector<Entry> receives;

 private:
  std::vector<std::uint64_t>* next_index_;
};

/// Checks `receives` (the whole run's, in execution order per recipient)
/// against `sends`: per recipient, a prefix of the sends to it sorted by
/// (time, sender, index), each received at or after its arrival, and every
/// send that arrived before `settled` received.
std::string check_per_recipient(std::vector<RecipientOracle::Entry> sends,
                                const std::vector<RecipientOracle::Entry>& receives,
                                std::int32_t n, double settled) {
  std::sort(sends.begin(), sends.end(),
            [](const RecipientOracle::Entry& a, const RecipientOracle::Entry& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.from != b.from) return a.from < b.from;
              return a.index < b.index;
            });
  for (std::int32_t r = 0; r < n; ++r) {
    std::vector<RecipientOracle::Entry> want;
    for (const auto& e : sends) {
      if (e.to == r) want.push_back(e);
    }
    std::size_t k = 0;
    for (const auto& got : receives) {
      if (got.to != r) continue;
      if (k >= want.size()) return "recipient " + std::to_string(r) + ": extra receive";
      const auto& w = want[k++];
      if (got.from != w.from || got.value != w.value || got.time < w.time) {
        return "recipient " + std::to_string(r) + ", receive " +
               std::to_string(k - 1) + ": expected " + std::to_string(w.from) +
               " arriving " + std::to_string(w.time) + ", saw " +
               std::to_string(got.from) + " at " + std::to_string(got.time);
      }
    }
    for (; k < want.size(); ++k) {
      if (want[k].time <= settled) {
        return "recipient " + std::to_string(r) + ": missing a delivery at " +
               std::to_string(want[k].time);
      }
    }
  }
  return "";
}

TEST(FanoutOracle, NicIngressKeepsPerRecipientOrder) {
  // An unbounded NIC queues every arrival: each process must be handed its
  // datagrams in arrival order, after they arrive.
  for (const bool expander : {false, true}) {
    SCOPED_TRACE(expander);
    sim::SimConfig config;
    config.seed = 23;
    config.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/2e-4};
    if (expander) config.topology = net::Topology::k_regular(30, 6, 4);
    sim::Simulator sim(config, nullptr);
    add_traffic(sim, 30);
    std::vector<std::uint64_t> next_index(30, 0);
    RecipientOracle oracle(&next_index);
    sim.add_trace_sink(&oracle);
    sim.run_until(0.2);
    EXPECT_EQ(check_per_recipient(oracle.sends, oracle.receives, 30, 0.15), "");
    EXPECT_GT(oracle.receives.size(), 1000u);
  }
}

TEST(FanoutOracle, PdesLanesUnbatchAtStartAndDissolve) {
  // A serial stretch, a PDES stretch and a serial stretch again, each
  // boundary crossed with messages in flight: the main lane's ring
  // un-batches into the shard lanes at PDES start, each shard lane's ring
  // un-batches into the main lane's scheduler at dissolve.  Per-recipient
  // order must hold throughout, and match a serial run exactly.
  constexpr std::int32_t kN = 40;
  constexpr double kT0 = 0.0113;
  constexpr double kT1 = 0.0317;
  constexpr double kEnd = 0.08;
  sim::SimConfig config;
  config.seed = 29;
  config.topology = net::Topology::k_regular(kN, 6, 8);

  // The serial reference.
  std::vector<std::uint64_t> serial_index(kN, 0);
  RecipientOracle serial(&serial_index);
  {
    sim::Simulator sim(config, nullptr);
    add_traffic(sim, kN);
    sim.add_trace_sink(&serial);
    sim.run_until(kEnd);
  }

  std::vector<std::uint64_t> next_index(kN, 0);
  RecipientOracle main_lane(&next_index);
  std::vector<RecipientOracle> lanes(2, RecipientOracle(&next_index));
  sim::Simulator sim(config, nullptr);
  add_traffic(sim, kN);
  sim.add_trace_sink(&main_lane);
  sim.run_until(kT0);
  const auto in_flight_at = [&](double t) {
    std::size_t count = 0;
    for (const auto* oracle : {&main_lane, &lanes[0], &lanes[1]}) {
      for (const auto& e : oracle->sends) count += e.time > t ? 1 : 0;
    }
    return count;
  };
  EXPECT_GT(in_flight_at(kT0), 0u);
  {
    const net::Partition partition =
        net::partition_topology(*config.topology, 2, 1);
    ASSERT_EQ(partition.k, 2);
    engine::PdesEngine pdes(sim, partition, {&lanes[0], &lanes[1]});
    pdes.run_until(kT1);
    EXPECT_GE(pdes.stats().epochs, 2);
    EXPECT_GT(pdes.stats().cross_messages, 0);
  }
  EXPECT_GT(in_flight_at(kT1), 0u);
  sim.run_until(kEnd);

  // Execution order per recipient: main lane up to kT0, the lanes, then
  // the main lane again.
  std::vector<RecipientOracle::Entry> sends = main_lane.sends;
  std::vector<RecipientOracle::Entry> receives;
  for (const auto& e : main_lane.receives) {
    if (e.time <= kT0) receives.push_back(e);
  }
  for (const auto& lane : lanes) {
    sends.insert(sends.end(), lane.sends.begin(), lane.sends.end());
    receives.insert(receives.end(), lane.receives.begin(), lane.receives.end());
  }
  for (const auto& e : main_lane.receives) {
    if (e.time > kT0) receives.push_back(e);
  }
  EXPECT_EQ(check_per_recipient(sends, receives, kN, kEnd), "");
  EXPECT_EQ(check_per_recipient(serial.sends, serial.receives, kN, kEnd), "");
  // Bit-identical to the serial run, recipient by recipient.
  ASSERT_EQ(receives.size(), serial.receives.size());
  for (std::int32_t r = 0; r < kN; ++r) {
    std::vector<RecipientOracle::Entry> a;
    std::vector<RecipientOracle::Entry> b;
    for (const auto& e : receives) {
      if (e.to == r) a.push_back(e);
    }
    for (const auto& e : serial.receives) {
      if (e.to == r) b.push_back(e);
    }
    ASSERT_EQ(a.size(), b.size()) << "recipient " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].time, b[i].time) << "recipient " << r << " #" << i;
      ASSERT_EQ(a[i].from, b[i].from) << "recipient " << r << " #" << i;
      ASSERT_EQ(a[i].value, b[i].value) << "recipient " << r << " #" << i;
    }
  }
}

TEST(FanoutDeterminism, SchedulerPoliciesAgreeUnderNicBuffering) {
  // With the NIC engaged, deliveries reach processes through the NIC
  // queues, so the order oracle above does not apply; the two scheduler
  // policies must still produce the same execution.
  RunSpec dary = fanout_spec();
  dary.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/5e-4};
  RunSpec calendar = dary;
  calendar.scheduler = engine::SchedulerKind::kCalendar;
  analysis::Experiment dary_run(dary);
  analysis::Experiment calendar_run(calendar);
  EXPECT_TRUE(analysis::results_identical(dary_run.run(), calendar_run.run()));
  EXPECT_TRUE(traces_identical(dary_run.trace(), calendar_run.trace()));
  EXPECT_GT(dary_run.simulator().nic_dropped(), 0u);
}

TEST(FanoutDeterminism, BatchingShrinksQueuePressure) {
  // The engineering claim behind batching: one entry per in-flight
  // broadcast instead of one per recipient.  Under kSlow every broadcast
  // of a round is in flight at once, so one entry per recipient would
  // hold n*n deliveries and cost a push and a pop per message.
  RunSpec spec;
  spec.params = core::make_params(31, 10, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 4;
  spec.delay = DelayKind::kSlow;  // clustered deliveries: the worst case
  // Queue-pressure telemetry only exists when the event engine runs the
  // rounds; the fast path would advance past the queue.
  spec.engine = analysis::EngineMode::kEvent;
  analysis::Experiment run(spec);
  (void)run.run();
  const sim::Simulator& sim = run.simulator();
  EXPECT_LT(sim.peak_pending() * 4, 31u * 31u);
  EXPECT_LT(sim.queue_ops(), sim.messages_sent());
  EXPECT_GT(sim.fanout_direct(), 0u);
}

// ------------------------------------------- sparse-graph determinism ---

TEST(SparseTopology, DeterministicUnderParallelRunner) {
  RunSpec base;
  base.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  base.rounds = 5;
  base.topology.kind = TopologyKind::kRingOfCliques;
  base.topology.clique_size = 6;
  const std::vector<RunSpec> specs = analysis::seed_sweep(base, 500, 8);
  const std::vector<RunResult> serial = analysis::ParallelRunner(1).run_adaptive(specs);
  const std::vector<RunResult> sharded = analysis::ParallelRunner(4).run_adaptive(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i]))
        << "trial " << i;
  }
  // And run-over-run: no hidden state in the net layer.
  const std::vector<RunResult> again = analysis::ParallelRunner(4).run_adaptive(specs);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], again[i]));
  }
}

TEST(SparseTopology, WelchLynchStaysBoundedOnExpander) {
  // Not a paper claim (the analysis assumes the full mesh): a sanity pin
  // that the neighbor-view algorithm keeps honest clocks together on a
  // connected expander with no faults.
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 10;
  spec.topology.kind = TopologyKind::kKRegular;
  spec.topology.degree = 8;
  const RunResult result = analysis::run(spec);
  EXPECT_GE(result.completed_rounds, 10);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.gamma_measured, 0.1);
}

// ------------------------------------------------ measurement pipeline ---

TEST(MeasurePipeline, SampleGridsMatchHistoricalLoops) {
  const std::vector<double> open =
      analysis::sample_times_with_endpoint(1.0, 2.0, 0.3);
  ASSERT_EQ(open.size(), 5u);  // 1.0 1.3 1.6 1.9 + endpoint 2.0
  EXPECT_DOUBLE_EQ(open.back(), 2.0);
  const std::vector<double> closed = analysis::sample_times_closed(0.0, 1.0, 0.5);
  ASSERT_EQ(closed.size(), 3u);  // 0.0 0.5 1.0
}

TEST(MeasurePipeline, ShardedSkewSeriesMatchesPerSampleScan) {
  RunSpec spec = fanout_spec();
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();
  const std::vector<std::int32_t>& ids = result.honest;

  const double t0 = result.tmax0 + 1.0;
  const double t1 = result.t_end;
  const double dt = spec.params.P / 25.0;
  const analysis::SkewSeries series = analysis::skew_series(sim, ids, t0, t1, dt);

  // Reference: the historical per-sample scan (skew_at is unchanged).
  std::vector<double> times;
  for (double t = t0; t < t1; t += dt) times.push_back(t);
  times.push_back(t1);
  ASSERT_EQ(series.times.size(), times.size());
  double max_skew = 0.0;
  for (std::size_t k = 0; k < times.size(); ++k) {
    ASSERT_EQ(series.times[k], times[k]);
    const double reference = analysis::skew_at(sim, ids, times[k]);
    EXPECT_NEAR(series.skews[k], reference, 1e-12) << "sample " << k;
    max_skew = std::max(max_skew, reference);
  }
  EXPECT_NEAR(series.max_skew, max_skew, 1e-12);
}

TEST(MeasurePipeline, ValidityMatchesPerSampleScan) {
  RunSpec spec = fanout_spec();
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();
  const core::Params& p = spec.params;
  const core::Derived d = core::derive(p);

  const double t_start = result.tmax0 + d.window;
  const double t_end = result.t_end;
  const double dt = p.P / 10.0;
  const analysis::ValidityReport report = analysis::check_validity(
      sim, result.honest, p, result.tmin0, result.tmax0, t_start, t_end, dt);

  // Reference: the historical t-outer/id-inner local_time scan.
  double upper = -1e300;
  double lower = -1e300;
  for (double t = t_start; t <= t_end; t += dt) {
    for (std::int32_t id : result.honest) {
      const double elapsed = sim.local_time(id, t) - p.T0;
      upper = std::max(upper, elapsed - (d.alpha2 * (t - result.tmin0) + d.alpha3));
      lower = std::max(lower, (d.alpha1 * (t - result.tmax0) - d.alpha3) - elapsed);
    }
  }
  EXPECT_NEAR(report.max_upper_violation, upper, 1e-12);
  EXPECT_NEAR(report.max_lower_violation, lower, 1e-12);
}

TEST(MeasurePipeline, ForcedShardingIsExact) {
  RunSpec spec;
  spec.params = core::make_params(10, 3, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const auto& sim = experiment.simulator();

  const std::vector<double> times = analysis::sample_times_with_endpoint(
      result.tmax0, result.t_end, spec.params.P / 100.0);
  const analysis::LocalTimeGrid serial =
      analysis::sample_local_times(sim, result.honest, times, /*threads=*/1);
  const analysis::LocalTimeGrid sharded =
      analysis::sample_local_times(sim, result.honest, times, /*threads=*/4);
  ASSERT_EQ(serial.values.size(), sharded.values.size());
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    ASSERT_EQ(serial.values[i], sharded.values[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace wlsync
