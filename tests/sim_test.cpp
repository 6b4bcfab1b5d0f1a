// Simulator engine: event ordering (execution property 4), timer semantics
// (Section 2.2), broadcast-to-self, delay validation, NIC overflow
// (Section 9.3), determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "clock/drift.h"
#include "proc/process.h"
#include "sim/event.h"
#include "sim/simulator.h"

namespace wlsync::sim {
namespace {

std::unique_ptr<clk::PhysicalClock> perfect_clock(double offset = 0.0) {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), offset,
                                              1e-4);
}

TEST(EventQueue, OrdersByTimeTierSeq) {
  EventQueue queue;
  Event timer;
  timer.time = 1.0;
  timer.tier = 1;
  timer.msg = make_timer(1);
  Event msg;
  msg.time = 1.0;
  msg.tier = 0;
  msg.msg = make_app(0, 0, 0.0);
  Event later;
  later.time = 2.0;
  later.tier = 0;
  queue.push(timer);
  queue.push(later);
  queue.push(msg);
  // Property 4: the ordinary message at t=1 precedes the timer at t=1.
  EXPECT_EQ(queue.pop().msg.kind, Kind::kApp);
  EXPECT_EQ(queue.pop().msg.kind, Kind::kTimer);
  EXPECT_DOUBLE_EQ(queue.pop().time, 2.0);
}

TEST(EventQueue, FifoWithinSameTimeAndTier) {
  EventQueue queue;
  for (std::int32_t i = 0; i < 5; ++i) {
    Event event;
    event.time = 1.0;
    event.msg = make_app(i, 0, 0.0);
    queue.push(event);
  }
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(queue.pop().msg.from, i);
}

/// Records everything it receives.
class Recorder : public proc::Process {
 public:
  struct Item {
    Kind kind;
    std::int32_t from_or_tag;
    double at;
  };
  void on_start(proc::Context& ctx) override {
    items.push_back({Kind::kStart, -1, ctx.physical_time()});
  }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    items.push_back({Kind::kTimer, tag, ctx.physical_time()});
  }
  void on_message(proc::Context& ctx, const sim::Message& m) override {
    items.push_back({Kind::kApp, m.from, ctx.physical_time()});
  }
  std::vector<Item> items;
};

/// On start: sets one timer and broadcasts.
class Starter : public proc::Process {
 public:
  void on_start(proc::Context& ctx) override {
    ctx.broadcast(/*tag=*/7, /*value=*/3.25, /*aux=*/0);
    ctx.set_timer(ctx.local_time() + 0.5, /*tag=*/42);
    ctx.set_timer(ctx.local_time() - 0.5, /*tag=*/43);  // in the past: dropped
  }
  void on_timer(proc::Context&, std::int32_t tag) override {
    fired.push_back(tag);
  }
  void on_message(proc::Context&, const sim::Message&) override {}
  std::vector<std::int32_t> fired;
};

TEST(Simulator, TimerAndBroadcastSemantics) {
  SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Starter>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, false, -1.0);
  sim.run_until(2.0);

  auto& starter = dynamic_cast<Starter&>(sim.process(0));
  ASSERT_EQ(starter.fired.size(), 1u);  // past timer (43) was never buffered
  EXPECT_EQ(starter.fired[0], 42);

  auto& recorder = dynamic_cast<Recorder&>(sim.process(1));
  ASSERT_EQ(recorder.items.size(), 1u);  // got the broadcast (not START)
  EXPECT_EQ(recorder.items[0].kind, Kind::kApp);
  EXPECT_EQ(recorder.items[0].from_or_tag, 0);
  EXPECT_GE(recorder.items[0].at, 0.009);  // >= delta - eps
  EXPECT_LE(recorder.items[0].at, 0.011);  // <= delta + eps
}

TEST(Simulator, BroadcastIncludesSelf) {
  SimConfig config;
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Starter>(), perfect_clock(), 0.0, false, 0.0);
  sim.run_until(1.0);
  EXPECT_EQ(sim.messages_sent(), 1u);  // one recipient: itself
}

TEST(Simulator, LogicalTimerHonorsCorr) {
  // A process whose CORR is +10 has local time = physical + 10; a timer for
  // local 10.5 must fire at real 0.5 on a perfect clock.
  class CorrTimer : public proc::Process {
   public:
    void on_start(proc::Context& ctx) override {
      ctx.add_corr(10.0);
      ctx.set_timer(10.5, 1);
    }
    void on_timer(proc::Context& ctx, std::int32_t) override {
      fired_at = ctx.physical_time();
    }
    void on_message(proc::Context&, const sim::Message&) override {}
    double fired_at = -1.0;
  };
  SimConfig config;
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<CorrTimer>(), perfect_clock(), 0.0, false,
                  0.0);
  sim.run_until(1.0);
  EXPECT_NEAR(dynamic_cast<CorrTimer&>(sim.process(0)).fired_at, 0.5, 1e-12);
}

TEST(Simulator, LocalTimeUsesCorrHistory) {
  class Adjuster : public proc::Process {
   public:
    void on_start(proc::Context& ctx) override {
      ctx.set_timer(ctx.local_time() + 1.0, 1);
    }
    void on_timer(proc::Context& ctx, std::int32_t) override {
      ctx.add_corr(5.0);
    }
    void on_message(proc::Context&, const sim::Message&) override {}
  };
  SimConfig config;
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Adjuster>(), perfect_clock(), 0.0, false,
                  0.0);
  sim.run_until(3.0);
  EXPECT_NEAR(sim.local_time(0, 0.5), 0.5, 1e-12);   // before the jump
  EXPECT_NEAR(sim.local_time(0, 2.0), 7.0, 1e-12);   // after +5
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimConfig config;
    config.seed = 2024;
    Simulator sim(config, nullptr);
    sim.add_process(std::make_unique<Starter>(), perfect_clock(), 0.0, false,
                    0.0);
    auto recorder = std::make_unique<Recorder>();
    Recorder* view = recorder.get();
    sim.add_process(std::move(recorder), perfect_clock(), 0.0, false, -1.0);
    sim.run_until(1.0);
    return view->items.empty() ? -1.0 : view->items[0].at;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Simulator, RejectsBadDelayModel) {
  /// A malicious/buggy delay model violating A3.
  class BadDelay : public DelayModel {
   public:
    void delays(std::int32_t, std::span<const std::int32_t> to, double,
                util::Rng&, double* out) const override {
      std::fill(out, out + to.size(), 1e9);
    }
  };
  SimConfig config;
  Simulator sim(config, std::make_unique<BadDelay>());
  sim.add_process(std::make_unique<Starter>(), perfect_clock(), 0.0, false, 0.0);
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(Simulator, RequiresDeltaGeEps) {
  SimConfig config;
  config.delta = 0.001;
  config.eps = 0.01;
  EXPECT_THROW(Simulator(config, nullptr), std::invalid_argument);
}

/// Sends `count` messages to process 1 back-to-back.
class Burster : public proc::Process {
 public:
  explicit Burster(std::int32_t count) : count_(count) {}
  void on_start(proc::Context& ctx) override {
    for (std::int32_t i = 0; i < count_; ++i) ctx.send(1, 0, i, 0);
  }
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  std::int32_t count_;
};

TEST(Simulator, NicOverflowDropsOldest) {
  SimConfig config;
  config.delta = 0.01;
  config.eps = 0.0001;  // near-simultaneous arrivals
  config.nic = NicConfig{/*capacity=*/4, /*service_time=*/0.01};
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Burster>(20), perfect_clock(), 0.0, false,
                  0.0);
  sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(5.0);
  auto& recorder = dynamic_cast<Recorder&>(sim.process(1));
  // 20 sent; the slow NIC (10 ms service) overflows the 4-slot buffer.
  EXPECT_GT(sim.nic_dropped(), 0u);
  EXPECT_EQ(recorder.items.size() + sim.nic_dropped(), 20u);
}

TEST(Simulator, NicWithHeadroomDropsNothing) {
  SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  config.nic = NicConfig{/*capacity=*/64, /*service_time=*/1e-6};
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Burster>(20), perfect_clock(), 0.0, false,
                  0.0);
  sim.add_process(std::make_unique<Recorder>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(5.0);
  EXPECT_EQ(sim.nic_dropped(), 0u);
  EXPECT_EQ(dynamic_cast<Recorder&>(sim.process(1)).items.size(), 20u);
}

TEST(Simulator, MaxEventsGuardThrows) {
  /// Two processes ping-ponging forever.
  class Pinger : public proc::Process {
   public:
    explicit Pinger(std::int32_t peer) : peer_(peer) {}
    void on_start(proc::Context& ctx) override { ctx.send(peer_, 0, 0, 0); }
    void on_timer(proc::Context&, std::int32_t) override {}
    void on_message(proc::Context& ctx, const sim::Message&) override {
      ctx.send(peer_, 0, 0, 0);
    }

   private:
    std::int32_t peer_;
  };
  SimConfig config;
  config.max_events = 1000;
  Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Pinger>(1), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<Pinger>(0), perfect_clock(), 0.0, false, -1.0);
  EXPECT_THROW(sim.run_until(1e9), std::runtime_error);
}

TEST(CorrLog, StepsAndRamps) {
  CorrLog log(1.0);
  EXPECT_DOUBLE_EQ(log.displayed_at(0.0), 1.0);
  log.step(1.0, 3.0);
  EXPECT_DOUBLE_EQ(log.displayed_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(log.displayed_at(1.0), 3.0);
  log.ramp(2.0, 1.0, 2.0);  // slew 3 -> 1 over [2, 4]
  EXPECT_DOUBLE_EQ(log.target_at(2.5), 1.0);     // target jumps immediately
  EXPECT_DOUBLE_EQ(log.displayed_at(2.0), 3.0);  // display slews
  EXPECT_DOUBLE_EQ(log.displayed_at(3.0), 2.0);
  EXPECT_DOUBLE_EQ(log.displayed_at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(log.displayed_at(9.0), 1.0);
  EXPECT_EQ(log.changes(), 2u);
}

}  // namespace
}  // namespace wlsync::sim
