// The row draw (sim/delay.h): every model's DelayModel::delays must equal
// one per-link draw per recipient — the formula each model had before rows,
// restated here as a test-local reference — bit for bit, and leave the
// sender's stream exactly where those draws leave it.  Plus the engine's
// once-per-row A3 check, which must refuse an out-of-band or NaN delay
// anywhere in a row.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "clock/drift.h"
#include "proc/process.h"
#include "sim/delay.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wlsync::sim {
namespace {

constexpr double kDelta = 0.01;
constexpr double kEps = 1e-3;
constexpr std::int32_t kN = 2048;

/// Per-link reference draw: (from, to, rng) -> delay.
using Reference =
    std::function<double(std::int32_t, std::int32_t, util::Rng&)>;

struct Case {
  std::string name;
  std::unique_ptr<DelayModel> model;
  Reference reference;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"uniform", make_uniform_delay(kDelta, kEps),
                 [](std::int32_t, std::int32_t, util::Rng& rng) {
                   return rng.uniform(kDelta - kEps, kDelta + kEps);
                 }});
  out.push_back({"fast", make_extreme_delay(kDelta, kEps, true),
                 [](std::int32_t, std::int32_t, util::Rng&) {
                   return kDelta - kEps;
                 }});
  out.push_back({"slow", make_extreme_delay(kDelta, kEps, false),
                 [](std::int32_t, std::int32_t, util::Rng&) {
                   return kDelta + kEps;
                 }});
  const util::Rng link_seed(77);
  util::Rng base_draw = link_seed;
  const std::uint64_t base = base_draw();
  out.push_back({"perlink", make_per_link_delay(kDelta, kEps, link_seed),
                 [base](std::int32_t from, std::int32_t to, util::Rng&) {
                   std::uint64_t sm =
                       base ^
                       (static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(from))
                        << 32) ^
                       static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(to));
                   std::uint64_t z = util::splitmix64_next(sm);
                   z = util::splitmix64_next(sm) ^ z;
                   const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
                   return (kDelta - kEps) + 2.0 * kEps * u;
                 }});
  for (const std::int32_t pivot : {0, 1, 7, kN / 3, kN}) {
    out.push_back({"split" + std::to_string(pivot),
                   make_split_delay(kDelta, kEps, pivot),
                   [pivot](std::int32_t, std::int32_t to, util::Rng&) {
                     return to < pivot ? kDelta - kEps : kDelta + kEps;
                   }});
  }
  out.push_back({"exptrunc", make_trunc_exp_delay(kDelta, kEps),
                 [](std::int32_t, std::int32_t, util::Rng& rng) {
                   const double x =
                       -(kEps / 2.0) * std::log1p(-rng.uniform());
                   return (kDelta - kEps) + std::min(x, 2.0 * kEps);
                 }});
  return out;
}

/// Recipient lists: empty, one id, full mesh rows and kernel-sized slices
/// of them, sorted sparse neighbourhoods, and multicasts with repeats.
std::vector<std::vector<std::int32_t>> recipient_lists(util::Rng& rng) {
  std::vector<std::vector<std::int32_t>> lists;
  lists.emplace_back();
  lists.push_back({0});
  lists.push_back({kN - 1});
  for (const std::int32_t n : {7, 256, kN}) {
    std::vector<std::int32_t> mesh(static_cast<std::size_t>(n));
    std::iota(mesh.begin(), mesh.end(), 0);
    lists.push_back(mesh);
  }
  std::vector<std::int32_t> slice(256);
  std::iota(slice.begin(), slice.end(), 1024);
  lists.push_back(slice);
  for (int k = 0; k < 6; ++k) {
    std::vector<std::int32_t> sparse;
    const std::uint64_t degree = 1 + rng.below(40);
    for (std::uint64_t i = 0; i < degree; ++i) {
      sparse.push_back(static_cast<std::int32_t>(rng.below(kN)));
    }
    std::vector<std::int32_t> multicast = sparse;  // repeats, unsorted
    std::sort(sparse.begin(), sparse.end());
    sparse.erase(std::unique(sparse.begin(), sparse.end()), sparse.end());
    lists.push_back(sparse);
    lists.push_back(multicast);
  }
  return lists;
}

TEST(DelayRow, MatchesPerLinkDrawsBitwise) {
  util::Rng list_rng(3);
  const std::vector<std::vector<std::int32_t>> lists =
      recipient_lists(list_rng);
  for (const Case& c : cases()) {
    for (std::size_t l = 0; l < lists.size(); ++l) {
      const std::vector<std::int32_t>& to = lists[l];
      for (const std::int32_t from : {0, 5, kN - 1}) {
        SCOPED_TRACE(c.name + ", list " + std::to_string(l) + " (" +
                     std::to_string(to.size()) + " ids), from " +
                     std::to_string(from));
        const util::Rng start(1000 + static_cast<std::uint64_t>(from) + l);
        util::Rng row_rng = start;
        util::Rng ref_rng = start;
        // One slot past the row, poisoned: the draw must not write it.
        std::vector<double> row(to.size() + 1, -1.0);
        c.model->delays(from, to, /*send_time=*/3.25, row_rng, row.data());
        for (std::size_t i = 0; i < to.size(); ++i) {
          const double want = c.reference(from, to[i], ref_rng);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "slot " << i << ": " << row[i] << " vs " << want;
        }
        EXPECT_EQ(row.back(), -1.0);
        // The stream is left where the per-link draws left it.
        for (int k = 0; k < 4; ++k) ASSERT_EQ(row_rng(), ref_rng());
      }
    }
  }
}

TEST(DelayRow, ConsecutiveRowsContinueOneStream) {
  // A broadcast drawn as one row, as the mesh kernel's 256-receiver rows,
  // or one recipient at a time reads the same values.
  std::vector<std::int32_t> mesh(kN);
  std::iota(mesh.begin(), mesh.end(), 0);
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    util::Rng whole_rng(11);
    util::Rng chunk_rng(11);
    util::Rng single_rng(11);
    std::vector<double> whole(kN), chunked(kN), single(kN);
    c.model->delays(4, mesh, 0.5, whole_rng, whole.data());
    const std::span<const std::int32_t> ids(mesh);
    for (std::size_t r0 = 0; r0 < ids.size(); r0 += 256) {
      const std::size_t m = std::min<std::size_t>(256, ids.size() - r0);
      c.model->delays(4, ids.subspan(r0, m), 0.5, chunk_rng,
                      chunked.data() + r0);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      c.model->delays(4, ids.subspan(i, 1), 0.5, single_rng,
                      single.data() + i);
    }
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(whole[i]),
                std::bit_cast<std::uint64_t>(chunked[i]))
          << "slot " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(whole[i]),
                std::bit_cast<std::uint64_t>(single[i]))
          << "slot " << i;
    }
    const std::uint64_t next = whole_rng();
    EXPECT_EQ(chunk_rng(), next);
    EXPECT_EQ(single_rng(), next);
  }
}

// ----------------------------------------------------- the A3 row check ---

/// A legal uniform row with one bad value in the middle of every row of
/// two or more: out of band, or NaN (which an ordered compare lets by).
class BadMidRow final : public DelayModel {
 public:
  explicit BadMidRow(double bad) : bad_(bad) {}
  void delays(std::int32_t, std::span<const std::int32_t> to, double,
              util::Rng& rng, double* out) const override {
    for (std::size_t i = 0; i < to.size(); ++i) {
      out[i] = rng.uniform(kDelta - kEps, kDelta + kEps);
    }
    if (to.size() >= 2) out[to.size() / 2] = bad_;
  }

 private:
  double bad_;
};

/// Broadcasts once at START.
class Broadcaster final : public proc::Process {
 public:
  void on_start(proc::Context& ctx) override { ctx.broadcast(0, 1.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const Message&) override {}
};

/// Sends one point-to-point message at START: a row of one.
class Unicaster final : public proc::Process {
 public:
  void on_start(proc::Context& ctx) override { ctx.send(0, 0, 1.0, 0); }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const Message&) override {}
};

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                              1e-4);
}

TEST(DelayRow, OutOfBandOrNanMidRowFailsTheRun) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad :
       {kDelta + 2 * kEps, kDelta - 2 * kEps, nan,
        std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("bad delay " + std::to_string(bad));
    SimConfig config;
    config.delta = kDelta;
    config.eps = kEps;
    Simulator sim(config, std::make_unique<BadMidRow>(bad));
    for (int id = 0; id < 5; ++id) {
      sim.add_process(std::make_unique<Broadcaster>(), perfect_clock(), 0.0,
                      false, 0.0);
    }
    try {
      sim.run_until(1.0);
      ADD_FAILURE() << "the run accepted a bad delay";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("A3"), std::string::npos)
          << e.what();
    }
    // Nothing of the refused row was sent.
    EXPECT_EQ(sim.messages_sent(), 0u);
  }
}

TEST(DelayRow, RowsOfOneStayLegal) {
  // The same model is legal on rows of one (the bad slot needs two), so a
  // point-to-point send runs through the same row entry point cleanly.
  SimConfig config;
  config.delta = kDelta;
  config.eps = kEps;
  Simulator sim(config, std::make_unique<BadMidRow>(
                            std::numeric_limits<double>::quiet_NaN()));
  for (int id = 0; id < 3; ++id) {
    sim.add_process(std::make_unique<Unicaster>(), perfect_clock(), 0.0,
                    false, 0.0);
  }
  sim.run_until(1.0);
  EXPECT_EQ(sim.messages_sent(), 3u);
  EXPECT_EQ(sim.events_processed(), 6u);  // three STARTs, three deliveries
}

}  // namespace
}  // namespace wlsync::sim
