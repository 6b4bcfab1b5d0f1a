// Adversary framework: honest processes cannot use Byzantine powers; each
// adversary behaves per its contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "clock/drift.h"
#include "proc/adversaries.h"
#include "proc/placement.h"
#include "sim/simulator.h"

namespace wlsync::proc {
namespace {

std::unique_ptr<clk::PhysicalClock> perfect_clock() {
  return std::make_unique<clk::PhysicalClock>(clk::make_constant(1.0), 0.0,
                                              1e-4);
}

/// An honest process that (incorrectly) tries to read real time.
class Cheater : public Process {
 public:
  void on_start(Context& ctx) override {
    (void)AdversaryContext::from(ctx).real_time();
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(AdversaryPowers, HonestProcessCannotUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/false, 0.0);
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(AdversaryPowers, FaultyProcessCanUseThem) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Cheater>(), perfect_clock(), 0.0,
                  /*faulty=*/true, 0.0);
  EXPECT_NO_THROW(sim.run_until(1.0));
}

/// Counts received messages.
class Counter : public Process {
 public:
  void on_start(Context&) override {}
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override { ++count; }
  int count = 0;
};

TEST(SpamAdversary, FloodsRecipients) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  SpamAdversary::Config spam;
  spam.period = 0.01;
  spam.burst = 5;
  sim.add_process(std::make_unique<SpamAdversary>(spam), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_GT(sim.messages_sent(), 100u);
}

TEST(SilentAdversary, SendsNothing) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<SilentAdversary>(), perfect_clock(), 0.0,
                  true, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  sim.run_until(1.0);
  EXPECT_EQ(sim.messages_sent(), 0u);
}

/// Broadcasts one message on start and on every timer.
class Beacon : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.broadcast(/*tag=*/1, /*value=*/100.0, 0);
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}
};

TEST(TwoFacedAdversary, PredictsNextRoundAndSendsTwoFaces) {
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  sim::Simulator sim(config, nullptr);
  TwoFacedAdversary::Config two_faced;
  two_faced.pivot = 1;       // id 0 gets the early face
  two_faced.honest_end = 3;  // ids 1, 2 get the late face
  two_faced.tag = 1;
  two_faced.P = 0.5;
  two_faced.delta = config.delta;
  two_faced.beta = 0.1;  // wide span so the two faces are clearly separated
  // id 0, 1: counters; id 2: beacon (honest trigger); id 3: adversary.
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false, -1.0);
  sim.add_process(std::make_unique<Beacon>(), perfect_clock(), 0.0, false, 0.0);
  sim.add_process(std::make_unique<TwoFacedAdversary>(two_faced),
                  perfect_clock(), 0.0, true, 0.0);

  // Beacon's broadcast reaches the adversary at ~0.01; it schedules the
  // attack for the *predicted next round* at ~0.5: early face sent at
  // ~0.5 + 0.1*0.1, late at ~0.5 + 0.9*0.1.
  auto& early = dynamic_cast<Counter&>(sim.process(0));
  auto& late = dynamic_cast<Counter&>(sim.process(1));
  sim.run_until(0.05);
  EXPECT_EQ(early.count, 1);  // beacon only, attack still pending
  EXPECT_EQ(late.count, 1);
  sim.run_until(0.55);
  EXPECT_EQ(early.count, 2);  // early face landed
  EXPECT_EQ(late.count, 1);   // late face still pending
  sim.run_until(0.75);
  EXPECT_EQ(late.count, 2);   // late face landed
  EXPECT_EQ(early.count, 2);  // and only the chosen group got each face
}

// ------------------------------------------------------------ multicast ---
//
// AdversaryContext::multicast sends in one call what a send() per id sends
// one victim at a time; nothing else may differ.
// Delays come from the sender's stream in list order, so a different draw
// order shows up as different delivery times.  Seqs only order
// same-instant deliveries from one sender, so the constant-delay runs,
// where a whole face lands at one instant, pin the seq block as the
// receive order.

/// Every per-message callback, in callback order.
class MessageLog final : public sim::TraceSink {
 public:
  struct Entry {
    bool send;
    std::int32_t at;  ///< sender for a send, recipient for a receive
    std::int32_t to;  ///< recipient for a send, -1 for a receive
    std::int32_t from;
    std::int32_t tag;
    std::int32_t aux;
    double value;
    double time;          ///< send time / receive time
    double deliver_time;  ///< sends only
    bool operator==(const Entry&) const = default;
  };

  void on_send(std::int32_t from, std::int32_t to, const sim::Message& msg,
               double send_time, double deliver_time) override {
    entries.push_back({true, from, to, msg.from, msg.tag, msg.aux, msg.value,
                       send_time, deliver_time});
  }
  void on_receive(std::int32_t pid, const sim::Message& msg,
                  double time) override {
    entries.push_back(
        {false, pid, -1, msg.from, msg.tag, msg.aux, msg.value, time, 0.0});
  }

  std::vector<Entry> entries;
};

/// Faulty: wakes on real-time timers and sends one face per wake-up to a
/// fixed id list, by one multicast() or by a send() per id.
class FaceSender final : public Process {
 public:
  static constexpr std::int32_t kFaces = 6;

  FaceSender(std::vector<std::int32_t> ids, bool batched)
      : ids_(std::move(ids)), batched_(batched) {}

  void on_start(Context& ctx) override {
    auto& actx = AdversaryContext::from(ctx);
    actx.set_timer_real(actx.real_time() + 0.002, 0);
  }
  void on_timer(Context& ctx, std::int32_t tag) override {
    auto& actx = AdversaryContext::from(ctx);
    const double value = 1000.0 + tag;
    if (batched_) {
      actx.multicast(ids_, /*tag=*/7, value, /*aux=*/tag);
    } else {
      for (const std::int32_t to : ids_) ctx.send(to, 7, value, tag);
    }
    if (tag + 1 < kFaces) actx.set_timer_real(actx.real_time() + 0.0013, tag + 1);
  }
  void on_message(Context&, const sim::Message&) override {}

 private:
  std::vector<std::int32_t> ids_;
  bool batched_;
};

/// Honest background traffic: a broadcast every 1.7 ms of local time, so
/// the faces interleave with other fan-outs and run extensions.
class Ticker final : public Process {
 public:
  void on_start(Context& ctx) override { on_timer(ctx, 0); }
  void on_timer(Context& ctx, std::int32_t tag) override {
    ctx.broadcast(/*tag=*/1, ctx.local_time(), tag);
    if (tag < 8) ctx.set_timer(ctx.local_time() + 0.0017, tag + 1);
  }
  void on_message(Context&, const sim::Message&) override {}
};

struct FaceRun {
  std::vector<MessageLog::Entry> log;
  std::uint64_t messages = 0;
  std::uint64_t queue_ops = 0;
};

/// n = 12: ids 0..9 tick, 10 and 11 are face senders.  The lists are
/// unsorted, repeat an id and include a fellow adversary; on the expander
/// most of their ids are not the sender's neighbors (Byzantine sends
/// ignore the graph).
FaceRun run_faces(bool expander, bool constant_delay, bool nic, bool batched) {
  constexpr std::int32_t kN = 12;
  sim::SimConfig config;
  config.delta = 0.01;
  config.eps = 0.001;
  config.seed = 5;
  if (expander) config.topology = net::Topology::k_regular(kN, 4, 3);
  if (nic) config.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/2e-4};
  sim::Simulator sim(config, constant_delay ? sim::make_extreme_delay(
                                                  config.delta, config.eps,
                                                  /*fast=*/true)
                                            : nullptr);
  for (std::int32_t id = 0; id < 10; ++id) {
    sim.add_process(std::make_unique<Ticker>(), perfect_clock(), 0.0, false,
                    0.0005 * id);
  }
  sim.add_process(std::make_unique<FaceSender>(
                      std::vector<std::int32_t>{9, 2, 5, 2, 11, 0, 7}, batched),
                  perfect_clock(), 0.0, true, 0.0);
  sim.add_process(std::make_unique<FaceSender>(
                      std::vector<std::int32_t>{1, 3, 4, 6, 8, 10}, batched),
                  perfect_clock(), 0.0, true, 0.0007);
  MessageLog log;
  sim.add_trace_sink(&log);
  sim.run_until(0.05);
  return {std::move(log.entries), sim.messages_sent(), sim.queue_ops()};
}

TEST(Multicast, TracesMatchPerIdSendsOnMeshAndExpander) {
  for (const bool expander : {false, true}) {
    for (const bool constant_delay : {false, true}) {
      for (const bool nic : {false, true}) {
        SCOPED_TRACE(testing::Message() << "expander " << expander
                                        << " constant_delay " << constant_delay
                                        << " nic " << nic);
        const FaceRun per_id = run_faces(expander, constant_delay, nic, false);
        const FaceRun batched = run_faces(expander, constant_delay, nic, true);
        EXPECT_EQ(batched.messages, per_id.messages);
        EXPECT_TRUE(batched.log == per_id.log);
        // Every face went out: 6 wake-ups each for lists of 7 and 6 ids.
        const auto face_sends = std::count_if(
            batched.log.begin(), batched.log.end(),
            [](const MessageLog::Entry& e) { return e.send && e.at >= 10; });
        EXPECT_EQ(face_sends, FaceSender::kFaces * (7 + 6));
        // Both ride the delivery ring: a multicast and a send() per victim
        // cost the same scheduler operations.
        EXPECT_EQ(batched.queue_ops, per_id.queue_ops);
      }
    }
  }
}

/// Calls multicast from on_start, optionally first with an out-of-range id
/// (caught here), then with a valid list.
class Multicaster final : public Process {
 public:
  explicit Multicaster(bool try_invalid_first) : try_invalid_(try_invalid_first) {}
  void on_start(Context& ctx) override {
    auto& actx = AdversaryContext::from(ctx);
    if (try_invalid_) {
      const std::vector<std::int32_t> bad{1, 0, 5};
      EXPECT_THROW(actx.multicast(bad, 3, 1.0, 0), std::out_of_range);
    }
    const std::vector<std::int32_t> good{1, 0, 2};
    actx.multicast(good, 3, 2.0, 0);
  }
  void on_timer(Context&, std::int32_t) override {}
  void on_message(Context&, const sim::Message&) override {}

 private:
  bool try_invalid_;
};

TEST(Multicast, HonestCallerThrows) {
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  sim.add_process(std::make_unique<Multicaster>(false), perfect_clock(), 0.0,
                  /*faulty=*/false, 0.0);
  sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                  -1.0);
  try {
    sim.run_until(1.0);
    ADD_FAILURE() << "an honest multicast did not throw";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("not registered as faulty"),
              std::string::npos);
  }
  EXPECT_EQ(sim.messages_sent(), 0u);
}

TEST(Multicast, OutOfRangeIdThrowsBeforeAnythingIsSent) {
  // The failed call must leave no trace: no on_send, no message counted,
  // no scheduler entry, and no delay drawn from the sender's stream (the
  // valid multicast after it lands at the same times as without it).
  const auto run = [](bool try_invalid_first) {
    sim::SimConfig config;
    sim::Simulator sim(config, nullptr);
    sim.add_process(std::make_unique<Multicaster>(try_invalid_first),
                    perfect_clock(), 0.0, /*faulty=*/true, 0.0);
    sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                    -1.0);
    sim.add_process(std::make_unique<Counter>(), perfect_clock(), 0.0, false,
                    -1.0);
    MessageLog log;
    sim.add_trace_sink(&log);
    sim.run_until(1.0);
    return FaceRun{std::move(log.entries), sim.messages_sent(),
                   sim.queue_ops()};
  };
  const FaceRun clean = run(false);
  const FaceRun after_throw = run(true);
  EXPECT_EQ(clean.messages, 3u);
  EXPECT_EQ(after_throw.messages, clean.messages);
  EXPECT_EQ(after_throw.queue_ops, clean.queue_ops);
  EXPECT_TRUE(after_throw.log == clean.log);
}

// --------------------------------------------------------- sparse graphs ---
//
// The suite above exercises adversaries on the full mesh only.  These cases
// run the same fault kinds through the experiment harness on sparse
// exchange graphs, where honest processes clamp their clipping budget to
// the local neighbor view (f_local = (deg - 1) / 3): the two-faced attack
// must stay survivable even when every adversary sits at a structurally
// critical position and lies per-neighbor.

analysis::RunSpec sparse_fault_spec(net::TopologyKind kind) {
  analysis::RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;  // clique size 6 -> f_local = (6 - 1) / 3 = 1
  spec.rounds = 10;
  spec.seed = 808;
  spec.topology.kind = kind;
  spec.topology.clique_size = 6;
  spec.topology.degree = 6;
  return spec;
}

TEST(SparseFaults, TwoFacedAtJointsOfRingOfCliques) {
  analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
  spec.placement = PlacementKind::kArticulation;  // joints via degree fallback
  const analysis::RunResult result = analysis::run(spec);
  EXPECT_FALSE(result.diverged);
  EXPECT_GE(result.completed_rounds, spec.rounds);
  EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound);
}

TEST(SparseFaults, TwoFacedOnExpanderEveryPlacement) {
  for (const PlacementKind placement :
       {PlacementKind::kTrailing, PlacementKind::kRandom,
        PlacementKind::kMaxDegree, PlacementKind::kAntipodal}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kKRegular);
    spec.placement = placement;
    const analysis::RunResult result = analysis::run(spec);
    EXPECT_FALSE(result.diverged) << placement_name(placement);
    EXPECT_GE(result.completed_rounds, spec.rounds) << placement_name(placement);
    EXPECT_LT(result.gamma_measured, 10.0 * result.gamma_bound)
        << placement_name(placement);
  }
}

TEST(SparseFaults, SilentAndSpamRespectLocalQuorums) {
  for (const analysis::FaultKind fault :
       {analysis::FaultKind::kSilent, analysis::FaultKind::kSpam}) {
    analysis::RunSpec spec = sparse_fault_spec(net::TopologyKind::kRingOfCliques);
    spec.fault = fault;
    spec.placement = PlacementKind::kRandom;
    const analysis::RunResult result = analysis::run(spec);
    EXPECT_FALSE(result.diverged) << static_cast<int>(fault);
    EXPECT_GE(result.completed_rounds, spec.rounds);
  }
}

}  // namespace
}  // namespace wlsync::proc
