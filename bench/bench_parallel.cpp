// EXP-PARALLEL — engineering: the ParallelRunner shards independent trials
// (seed x RunSpec grid) across a thread pool.  Two claims are checked:
//   (1) correctness — the sharded sweep returns results bit-for-bit
//       identical to the serial sweep, in the same order;
//   (2) throughput — wall time scales with the worker count (hardware
//       permitting: the speedup is bounded by the physical core count, so
//       a single-core machine reports ~1x and still must pass (1)).

#include <chrono>
#include <functional>
#include <thread>

#include "analysis/parallel_runner.h"
#include "bench_common.h"

using namespace wlsync;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto trials = static_cast<std::int32_t>(flags.get_int("trials", 64));
  const auto threads = static_cast<int>(flags.get_int("threads", 8));
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 10));

  bench::print_header(
      "EXP-PARALLEL (engine)",
      "Serial vs sharded execution of one seed sweep: identical results "
      "required; speedup reported (bounded by physical cores).");

  analysis::RunSpec base;
  base.params = bench::default_params(7, 2);
  base.fault = analysis::FaultKind::kTwoFaced;
  base.fault_count = 2;
  base.rounds = rounds;
  const std::vector<analysis::RunSpec> specs =
      analysis::seed_sweep(base, /*first_seed=*/1000, trials);

  std::vector<analysis::RunResult> serial, parallel;
  const double t_serial = wall_seconds(
      [&] { serial = analysis::ParallelRunner(1).run_adaptive(specs); });
  const double t_parallel = wall_seconds(
      [&] { parallel = analysis::ParallelRunner(threads).run_adaptive(specs); });

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = analysis::results_identical(serial[i], parallel[i]);
  }

  util::Table table({"configuration", "trials", "wall time", "speedup"});
  table.add_row({"serial (1 thread)", std::to_string(trials),
                 util::fmt(t_serial, 3) + " s", "1.00x"});
  table.add_row({std::to_string(threads) + " threads", std::to_string(trials),
                 util::fmt(t_parallel, 3) + " s",
                 util::fmt(t_serial / t_parallel, 2) + "x"});
  table.print(std::cout);

  std::cout << "\nhardware threads available: "
            << std::thread::hardware_concurrency() << "\n"
            << "results bit-identical to serial: " << bench::verdict(identical)
            << "\n";
  return identical ? 0 : 1;
}
