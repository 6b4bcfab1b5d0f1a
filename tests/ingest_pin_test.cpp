// Ingestion oracle: every averaging algorithm's update must be exactly the
// one Section 4.2 (and, for the comparison algorithms, Section 10)
// prescribes over an id-indexed ARR/DIFF array, whatever data structure
// the algorithm actually ingests into.  The oracle is a TraceSink that
// rebuilds that array from the simulator's own delivery stream:
//
//   receive(m) from q:  ARR[q] := local-time()        (WL; minus q*sigma for
//                                                      staggered time tags)
//                       DIFF[q] := T_q + delta - local-time()  (LM/MS/mean)
//
// and, at every update step, recomputes the update from that array:
//
//   WL          AV := mid / mean(reduce(neighbor view of ARR)) with the
//               local-f clamp, compared bitwise to the annotated AV, plus
//               the Section 9.3 starvation guard (too many kNeverArrived
//               slots skips the update);
//   LM/MS/mean  test-local copies of the three adjustment rules over the
//               neighbor view of DIFF (own slot 0.0), compared bitwise to
//               the annotated ADJ;
//   ST          distinct senders per (receiver, round) recounted with a
//               std::set; relay broadcasts and acceptances must happen
//               exactly when the recount reaches the quorums, with the
//               acceptance ADJ bitwise.
//
// The traced run is forced onto the event engine (a per-message sink keeps
// the fast path out anyway), and must be results_identical to the same
// spec under the default engine selection, which ties the fast path and
// PDES to the oracle through their own engine pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/parallel_runner.h"
#include "baselines/averaging_rounds.h"
#include "baselines/srikanth_toueg.h"
#include "multiset/multiset_ops.h"

namespace wlsync::analysis {
namespace {

// Test-local copies of the Section 10 adjustment rules.  `diffs` is the
// neighbor view in neighbor order, own slot 0.0, kNeverArrived = missing.
double lm_adjustment(const std::vector<double>& diffs, double delta_max) {
  double sum = 0.0;
  for (double v : diffs) {
    if (v == core::kNeverArrived || std::abs(v) > delta_max) v = 0.0;
    sum += v;
  }
  return sum / static_cast<double>(diffs.size());
}

double ms_adjustment(const std::vector<double>& diffs, std::int32_t f,
                     double tau) {
  const std::size_t n = diffs.size();
  const auto ff = static_cast<std::size_t>(f);
  const std::size_t needed = n > ff ? n - ff : 1;
  double sum = 0.0;
  for (const double v : diffs) {
    if (v == core::kNeverArrived) continue;
    std::size_t close = 0;
    for (const double w : diffs) {
      if (w != core::kNeverArrived && std::abs(w - v) <= tau) ++close;
    }
    sum += close < needed ? 0.0 : v;
  }
  return sum / static_cast<double>(n);
}

double mean_adjustment(const std::vector<double>& diffs) {
  double sum = 0.0;
  for (const double v : diffs) sum += v == core::kNeverArrived ? 0.0 : v;
  return sum / static_cast<double>(diffs.size());
}

/// The update-step timer tag; WL and the round-exchange family share it.
constexpr std::int32_t kUpdateTimerTag = core::WelchLynchProcess::kUpdateTimerTag;

class IngestOracle final : public sim::TraceSink {
 public:
  IngestOracle(const RunSpec& spec, sim::Simulator& sim)
      : spec_(spec), sim_(sim) {
    const auto n = static_cast<std::size_t>(sim.process_count());
    procs_.resize(n);
    for (std::size_t id = 0; id < n; ++id) {
      Proc& p = procs_[id];
      proc::Process& process = sim.process(static_cast<std::int32_t>(id));
      switch (spec.algo) {
        case Algo::kWelchLynch:
          p.tracked =
              dynamic_cast<core::WelchLynchProcess*>(&process) != nullptr;
          break;
        case Algo::kST:
          p.tracked =
              dynamic_cast<baselines::SrikanthTouegProcess*>(&process) != nullptr;
          break;
        default:
          p.tracked =
              dynamic_cast<baselines::RoundExchangeProcess*>(&process) != nullptr;
          break;
      }
      p.slots.assign(n, core::kNeverArrived);
    }
  }

  void on_receive(std::int32_t pid, const sim::Message& msg,
                  double time) override {
    Proc& p = procs_[static_cast<std::size_t>(pid)];
    if (!p.tracked) return;
    expect_settled(pid);
    // Exactly SimContext::local_time: the CORR target, not the displayed
    // (possibly slewing) value Simulator::local_time reports.
    const double local = sim_.clock(pid).now(time) +
                         sim_.corr_log(pid).current_target();
    in_message_ = msg.kind == sim::Kind::kApp;
    if (spec_.algo == Algo::kST) {
      if (in_message_) st_receive(pid, p, msg, local);
      return;
    }
    if (in_message_) {
      record(p, msg, local);
    } else if (msg.kind == sim::Kind::kTimer && msg.tag == kUpdateTimerTag) {
      expect_update(pid, p);
    }
  }

  void on_annotation(std::int32_t pid, double /*time*/,
                     const proc::Annotation& a) override {
    Proc& p = procs_[static_cast<std::size_t>(pid)];
    if (!p.tracked) return;
    const std::string who = "pid " + std::to_string(pid) + " round " +
                            std::to_string(a.round) + ": ";
    if (a.type == proc::Annotation::Type::kRoundBegin) {
      if (spec_.algo != Algo::kST) return;
      if (p.relay) {
        if (*p.relay != a.round + 1) fail(who + "relay for the wrong round");
        p.relay.reset();
        ++relays_;
      } else if (in_message_) {
        fail(who + "relay broadcast below the f+1 quorum");
      }
      p.sent.insert(a.round + 1);
      return;
    }
    if (a.type != proc::Annotation::Type::kUpdate) return;
    if (!p.update) {
      fail(who + "update the oracle did not expect");
      return;
    }
    // The WL annotation carries AV in value2; the others carry ADJ.
    const double got = spec_.algo == Algo::kWelchLynch ? a.value2 : a.value;
    if (!(got == p.update->value)) {
      fail(who + "expected " + std::to_string(p.update->value) + " got " +
           std::to_string(got));
    }
    if (spec_.algo == Algo::kST) {
      if (a.round + 1 != p.update->round) fail(who + "accepted the wrong round");
      p.accepted = a.round + 1;
      p.heard.erase(p.heard.begin(), p.heard.upper_bound(p.accepted));
    }
    p.update.reset();
    ++checked_;
  }

  /// Called after the run: nothing the oracle expected may still be open.
  void finish() {
    for (std::int32_t pid = 0; pid < sim_.process_count(); ++pid) {
      expect_settled(pid);
    }
  }

  [[nodiscard]] std::int64_t checked() const { return checked_; }
  [[nodiscard]] std::int64_t relays() const { return relays_; }
  [[nodiscard]] std::int64_t starved() const { return starved_; }
  [[nodiscard]] std::int64_t failures() const { return failures_; }
  [[nodiscard]] const std::vector<std::string>& first_failures() const {
    return first_failures_;
  }

 private:
  struct Expected {
    double value = 0.0;
    std::int32_t round = 0;  ///< ST: the round k being accepted
  };
  struct Proc {
    bool tracked = false;
    std::vector<double> slots;  ///< id-indexed ARR (WL) / DIFF (others)
    std::optional<Expected> update;
    // ST state.
    std::map<std::int32_t, std::set<std::int32_t>> heard;
    std::set<std::int32_t> sent;
    std::int32_t accepted = 0;
    std::optional<std::int32_t> relay;
  };

  void fail(const std::string& what) {
    if (first_failures_.size() < 5) first_failures_.push_back(what);
    ++failures_;
  }

  void expect_settled(std::int32_t pid) {
    const Proc& p = procs_[static_cast<std::size_t>(pid)];
    if (p.update) fail("pid " + std::to_string(pid) + ": expected update never happened");
    if (p.relay) fail("pid " + std::to_string(pid) + ": expected relay never happened");
  }

  void record(Proc& p, const sim::Message& msg, double local) {
    double& slot = p.slots[static_cast<std::size_t>(msg.from)];
    if (spec_.algo == Algo::kWelchLynch) {
      slot = local;
      if (spec_.stagger > 0.0 && msg.tag == core::kTimeTag) {
        slot -= static_cast<double>(msg.from) * spec_.stagger;
      }
    } else if (msg.tag == core::kTimeTag) {
      slot = msg.value + spec_.params.delta - local;
    }
  }

  /// The update step about to run at `pid` (its update timer just fired).
  void expect_update(std::int32_t pid, Proc& p) {
    const std::span<const std::int32_t> peers = sim_.neighbors_of(pid);
    std::vector<double> view;
    view.reserve(peers.size());
    for (const std::int32_t q : peers) {
      const double v = p.slots[static_cast<std::size_t>(q)];
      view.push_back(spec_.algo != Algo::kWelchLynch && q == pid ? 0.0 : v);
    }
    if (spec_.algo == Algo::kWelchLynch) {
      auto f = static_cast<std::size_t>(spec_.params.f);
      if (static_cast<std::int32_t>(view.size()) != sim_.process_count()) {
        f = std::min(f, (view.size() - 1) / 3);
      }
      std::size_t sentinels = 0;
      for (const double v : view) sentinels += v == core::kNeverArrived ? 1 : 0;
      if (sentinels > f) {
        ++starved_;  // the guard skips the update: no annotation may follow
        return;
      }
      p.update = Expected{spec_.averaging == core::Averaging::kMidpoint
                              ? ms::fault_tolerant_midpoint(view, f)
                              : ms::fault_tolerant_mean(view, f),
                          0};
      return;
    }
    const core::Params& params = spec_.params;
    double adj = 0.0;
    switch (spec_.algo) {
      case Algo::kLM:
        adj = lm_adjustment(view, spec_.lm_delta_max > 0.0
                                      ? spec_.lm_delta_max
                                      : 4.0 * (params.beta +
                                               static_cast<double>(params.n) *
                                                   params.eps));
        break;
      case Algo::kMS:
        adj = ms_adjustment(view, params.f,
                            spec_.ms_tau > 0.0
                                ? spec_.ms_tau
                                : 4.0 * (params.beta + 2.0 * params.eps));
        break;
      default:
        adj = mean_adjustment(view);
        break;
    }
    p.update = Expected{adj, 0};
    // Estimates expire with the round.
    std::fill(p.slots.begin(), p.slots.end(), core::kNeverArrived);
  }

  void st_receive(std::int32_t pid, Proc& p, const sim::Message& msg,
                  double local) {
    if (msg.tag != baselines::kTickTag) return;
    const std::int32_t k = msg.aux;
    if (k <= p.accepted) return;  // stale round
    std::set<std::int32_t>& senders = p.heard[k];
    senders.insert(msg.from);
    const auto count = static_cast<std::int32_t>(senders.size());
    const auto degree =
        static_cast<std::int32_t>(sim_.neighbors_of(pid).size());
    const std::int32_t accept_quorum = std::min(2 * spec_.params.f + 1, degree);
    const std::int32_t relay_quorum = std::min(spec_.params.f + 1, accept_quorum);
    if (count >= relay_quorum && !p.sent.contains(k)) p.relay = k;
    if (count >= accept_quorum) {
      p.update = Expected{
          spec_.params.round_label(k) + spec_.params.delta - local, k};
    }
  }

  const RunSpec& spec_;
  sim::Simulator& sim_;
  std::vector<Proc> procs_;
  bool in_message_ = false;
  std::int64_t checked_ = 0;
  std::int64_t relays_ = 0;
  std::int64_t starved_ = 0;
  std::int64_t failures_ = 0;
  std::vector<std::string> first_failures_;
};

/// Runs `spec` under the oracle; returns the number of ST relay broadcasts
/// it checked.
std::int64_t expect_matches_oracle(RunSpec spec, const char* what) {
  spec.engine = EngineMode::kEvent;
  Experiment experiment(spec);
  IngestOracle oracle(spec, experiment.simulator());
  experiment.simulator().add_trace_sink(&oracle);
  const RunResult traced = experiment.run();
  oracle.finish();

  EXPECT_EQ(oracle.failures(), 0) << what;
  for (const std::string& failure : oracle.first_failures()) {
    ADD_FAILURE() << what << ": " << failure;
  }
  EXPECT_GT(oracle.checked(), 0) << what << ": no update was checked";
  EXPECT_EQ(oracle.starved(), traced.starved_updates) << what;

  RunSpec selected = spec;
  selected.engine = EngineMode::kAuto;
  EXPECT_TRUE(results_identical(run(selected), traced)) << what;
  return oracle.relays();
}

RunSpec base_spec(std::int32_t n, std::int32_t f) {
  RunSpec spec;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 11;
  return spec;
}

TEST(IngestOracle, WelchLynchFullMesh) {
  (void)expect_matches_oracle(base_spec(13, 4), "plain WL, full mesh");
}

TEST(IngestOracle, WelchLynchVariants) {
  RunSpec mean = base_spec(13, 4);
  mean.averaging = core::Averaging::kReducedMean;
  (void)expect_matches_oracle(mean, "reduced-mean averaging");

  RunSpec k2 = base_spec(10, 3);
  k2.k_exchanges = 2;
  (void)expect_matches_oracle(k2, "k = 2 exchanges");

  RunSpec staggered = base_spec(10, 3);
  staggered.stagger = 0.004;
  (void)expect_matches_oracle(staggered, "staggered broadcasts");

  RunSpec amortized = base_spec(10, 3);
  amortized.amortize = 1.5;
  (void)expect_matches_oracle(amortized, "amortized corrections");
}

TEST(IngestOracle, WelchLynchSparseTopologies) {
  RunSpec cliques = base_spec(24, 7);
  cliques.topology.kind = net::TopologyKind::kRingOfCliques;
  cliques.topology.clique_size = 6;
  (void)expect_matches_oracle(cliques, "WL on ring of cliques");

  RunSpec kreg = base_spec(24, 7);
  kreg.topology.kind = net::TopologyKind::kKRegular;
  kreg.topology.degree = 8;
  (void)expect_matches_oracle(kreg, "WL on k-regular expander");
}

TEST(IngestOracle, RoundExchangeFamily) {
  for (const Algo algo : {Algo::kLM, Algo::kMS, Algo::kPlainMean}) {
    RunSpec spec = base_spec(13, 4);
    spec.algo = algo;
    (void)expect_matches_oracle(spec, "round-exchange algorithm (mesh)");

    RunSpec sparse = base_spec(24, 7);
    sparse.algo = algo;
    sparse.topology.kind = net::TopologyKind::kRingOfCliques;
    sparse.topology.clique_size = 6;
    (void)expect_matches_oracle(sparse, "round-exchange algorithm (cliques)");
  }
}

TEST(IngestOracle, SrikanthToueg) {
  RunSpec st = base_spec(13, 4);
  st.algo = Algo::kST;
  (void)expect_matches_oracle(st, "ST, full mesh");

  RunSpec sparse = base_spec(24, 7);
  sparse.algo = Algo::kST;
  sparse.topology.kind = net::TopologyKind::kKRegular;
  sparse.topology.degree = 10;
  (void)expect_matches_oracle(sparse, "ST on k-regular expander");

  // STARTs spread wider than the fastest delivery (outside A4, on
  // purpose): late starters hear f+1 round-1 broadcasts before their own
  // timer fires, which exercises the relay rule.
  RunSpec spread = base_spec(13, 4);
  spread.algo = Algo::kST;
  spread.initial_spread = 5.0 * spread.params.delta;
  EXPECT_GT(expect_matches_oracle(spread, "ST with relays"), 0);
}

TEST(IngestOracle, UnderFaults) {
  RunSpec twofaced = base_spec(13, 4);
  twofaced.fault = FaultKind::kTwoFaced;
  twofaced.fault_count = 2;
  (void)expect_matches_oracle(twofaced, "WL with two-faced faults");

  RunSpec mixed = base_spec(16, 5);
  mixed.fault_mix = {{FaultKind::kSilent, 1},
                     {FaultKind::kSpam, 1},
                     {FaultKind::kTwoFaced, 1}};
  (void)expect_matches_oracle(mixed, "WL with a heterogeneous fault mix");

  RunSpec st_spam = base_spec(13, 4);
  st_spam.algo = Algo::kST;
  st_spam.fault = FaultKind::kSpam;
  st_spam.fault_count = 2;
  (void)expect_matches_oracle(st_spam, "ST under spam faults");
}

TEST(IngestOracle, UnboundedNic) {
  // NIC engaged but unbounded (capacity = 0, pure serialization): arrivals
  // are recorded at service time, not wire time.
  RunSpec spec = base_spec(12, 3);
  spec.nic = sim::NicConfig{/*capacity=*/0, /*service_time=*/50e-6};
  (void)expect_matches_oracle(spec, "WL, unbounded NIC");

  RunSpec st = spec;
  st.algo = Algo::kST;
  (void)expect_matches_oracle(st, "ST, unbounded NIC");
}

TEST(IngestOracle, OverflowingNic) {
  // Drops change WHICH arrivals land; the oracle only sees delivered ones.
  RunSpec spec = base_spec(12, 3);
  spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/1e-3};
  (void)expect_matches_oracle(spec, "WL, overflowing NIC");
}

}  // namespace
}  // namespace wlsync::analysis
