// EXP-TOPOLOGY — the large-n / sparse-exchange-graph workload family.
//
// Scales the Welch-Lynch maintenance algorithm across n (default up to 512,
// --max-n to change) on the paper's full mesh and on the sparse graphs of
// the net layer (k-regular expander, ring of cliques), and reports the
// engine-pressure counters the delivery ring targets: messages
// per round, scheduler push+pop operations per round, the pending-entry
// high-water mark, and wall time per round — plus the measured steady skew,
// since sparse graphs trade agreement quality for O(degree * n) traffic.
//
// --nic=off|inf|<capacity> engages the Section 9.3 datagram-ingress model
// (--nic-service seconds per datagram): the table gains drops/round and the
// largest same-instant arrival burst, making overflow at n >= 128 — the
// regime the paper's small-n study leaves open — a measured axis.
//
// --observe=off|on|bounded A/Bs the measurement engine: post-hoc grids vs
// the streaming in-run observer (analysis/observe.h), optionally with
// history truncated behind the observation frontier.  Measured values are
// bit-identical on runs that complete their rounds (all of this table);
// the hist-MB column shows the retained-history high-water mark the
// bounded mode eliminates.
//
// --engine=event|fastpath|pdes|auto A/Bs the execution engines
// (core/fastpath.h, engine/pdes.h): results are bit-identical, only
// wall-s/round and rounds/sec move.  The fp column records whether the
// fast path engaged (cells without NIC/observe-bounded pressure: yes, including staggered and
// fault-isolating-region cells); the refusal column says WHY a cell fell
// back to the event engine (RunResult::fastpath_refusal — the ISSUE 8
// silent-fallback fix); the epochs and stalls columns record the
// conservative PDES protocol's lookahead windows and empty windows.  --engine=fastpath / --engine=pdes abort on
// ineligible cells; --workers=K (default 8 for pdes, else 0) sets the
// shard count the topology is cut into (net/partition.h).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/topology.h"
#include "util/table.h"

namespace wlsync {
namespace {

struct Row {
  std::string label;
  std::int32_t n = 0;
  analysis::RunResult result;
  std::uint64_t queue_ops = 0;
  std::size_t peak_pending = 0;
  std::uint64_t fanout_direct = 0;
  std::size_t hist_bytes = 0;
  double wall_ms = 0.0;
};

Row run_case(const std::string& label, std::int32_t n,
             const net::TopologySpec& topology, std::int32_t rounds,
             const std::optional<sim::NicConfig>& nic,
             const bench::ObserveMode& observe,
             analysis::EngineMode engine, std::int32_t workers) {
  analysis::RunSpec spec;
  const std::int32_t f = (n - 1) / 3;
  spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = rounds;
  spec.seed = 1;
  spec.topology = topology;
  spec.nic = nic;
  spec.observe = observe.observe;
  spec.retain_history = observe.retain;
  spec.engine = engine;
  spec.pdes_workers = workers;

  Row row;
  row.label = label;
  row.n = n;
  analysis::Experiment experiment(spec);
  const auto start = std::chrono::steady_clock::now();
  row.result = experiment.run();
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;
  row.wall_ms = wall.count();
  row.queue_ops = experiment.simulator().queue_ops();
  row.peak_pending = experiment.simulator().peak_pending();
  row.fanout_direct = experiment.simulator().fanout_direct();
  // Peak retained clock/CORR history: the observer tracks it in observe
  // modes; with post-hoc measurement the full history is still resident.
  row.hist_bytes = spec.observe ? row.result.observe.peak_history_bytes
                                : experiment.simulator().history_bytes();
  return row;
}

}  // namespace
}  // namespace wlsync

int main(int argc, char** argv) {
  using namespace wlsync;
  const util::Flags flags(argc, argv);
  const auto max_n = static_cast<std::int32_t>(flags.get_int("max-n", 512));
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 4));
  const auto degree = static_cast<std::int32_t>(flags.get_int("degree", 16));
  const auto clique = static_cast<std::int32_t>(flags.get_int("clique", 16));
  const std::optional<sim::NicConfig> nic = bench::parse_nic(
      flags.get_string("nic", "off"), flags.get_double("nic-service", 50e-6));
  const bench::ObserveMode observe =
      bench::parse_observe(flags.get_string("observe", "off"));
  const analysis::EngineMode engine =
      bench::parse_engine(flags.get_string("engine", "auto"));
  const auto workers = static_cast<std::int32_t>(flags.get_int(
      "workers", engine == analysis::EngineMode::kPdes ? 8 : 0));

  bench::print_header(
      "EXP-TOPOLOGY",
      "Large-n scaling of one Welch-Lynch round across exchange graphs.\n"
      "Full mesh sends n^2 messages/round; sparse graphs send degree*n —\n"
      "the route to n >= 512 the ROADMAP calls for.  queue-ops and peak\n"
      "pending show the delivery ring keeping scheduler pressure to the\n"
      "timers plus one entry, instead of one entry per message.");
  std::cout << "nic: " << bench::nic_name(nic)
            << "; observe: " << bench::observe_name(observe)
            << "; engine: " << bench::engine_name(engine)
            << "; workers: " << workers << "\n\n";

  util::Table table({"topology", "n", "msgs/round", "q-ops/round",
                     "peak-pend", "direct/round", "drop/round", "burst",
                     "hist-MB", "fp", "refusal", "epochs", "stalls", "wall-s",
                     "ms/round", "rounds/sec", "skew"});
  for (std::int32_t n = 64; n <= max_n; n *= 2) {
    std::vector<std::pair<std::string, net::TopologySpec>> cases;
    cases.emplace_back("full-mesh", net::TopologySpec{});
    net::TopologySpec kreg;
    kreg.kind = net::TopologyKind::kKRegular;
    kreg.degree = degree;
    cases.emplace_back("k-regular/" + std::to_string(degree), kreg);
    net::TopologySpec cliques;
    cliques.kind = net::TopologyKind::kRingOfCliques;
    cliques.clique_size = clique;
    cases.emplace_back("cliques/" + std::to_string(clique), cliques);

    for (const auto& [label, topology] : cases) {
      const Row row =
          run_case(label, n, topology, rounds, nic, observe, engine, workers);
      const double per_round =
          row.result.completed_rounds > 0
              ? static_cast<double>(row.result.completed_rounds)
              : 1.0;
      table.add_row(
          {label, std::to_string(n),
           std::to_string(static_cast<std::uint64_t>(
               static_cast<double>(row.result.messages) / per_round)),
           std::to_string(static_cast<std::uint64_t>(
               static_cast<double>(row.queue_ops) / per_round)),
           std::to_string(row.peak_pending),
           std::to_string(static_cast<std::uint64_t>(
               static_cast<double>(row.fanout_direct) / per_round)),
           std::to_string(static_cast<std::uint64_t>(
               static_cast<double>(row.result.nic.dropped) / per_round)),
           std::to_string(row.result.nic.max_burst),
           util::fmt(static_cast<double>(row.hist_bytes) / (1024.0 * 1024.0),
                     3),
           row.result.fastpath_engaged ? "yes" : "no",
           row.result.fastpath_engaged || row.result.pdes_epochs > 0
               ? "-"
               : bench::refusal_csv(row.result.fastpath_refusal),
           std::to_string(row.result.pdes_epochs),
           std::to_string(row.result.pdes_stalls),
           util::fmt(row.wall_ms / 1000.0, 3),
           util::fmt(row.wall_ms / per_round, 4),
           util::fmt(per_round / (row.wall_ms / 1000.0), 2),
           util::fmt_sci(row.result.gamma_measured)});
    }
  }
  table.print(std::cout);
  std::cout << "\nskew on sparse graphs is NOT covered by the paper's\n"
               "full-mesh analysis; it is reported to quantify the trade.\n";
  return 0;
}
