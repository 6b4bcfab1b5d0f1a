// EXP-REJOIN — Section 9.1: a repaired process reaches T^{i+1} within beta
// of every nonfaulty process and thereafter participates normally.  Sweeps
// crash/wake schedules and seeds.  A --rounds too short for a schedule's
// rejoin fails with RunSpec's named reason instead of printing a spread.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 20));

  const core::Params params = bench::default_params(4, 1);
  bench::print_header(
      "EXP-REJOIN (Section 9.1)",
      "Crash at t_c, repair at t_w; the joiner must begin its first full "
      "round within beta = " + util::fmt(params.beta) +
          " of the others and the whole system stays within gamma after.");

  util::Table table({"crash", "wake", "seed", "rejoined", "join spread",
                     "<=beta", "skew after", "<=gamma"});
  bool all_ok = true;
  for (auto [crash, wake] : std::vector<std::pair<double, double>>{
           {25.0, 95.0}, {22.0, 90.3}, {15.0, 60.0}, {33.0, 105.7}}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      analysis::RunSpec spec;
      spec.mode = analysis::RunMode::kReintegration;
      spec.params = params;
      spec.crash_at = crash;
      spec.wake_at = wake;
      spec.rounds = rounds;
      spec.seed = seed;
      const analysis::ReintegrationResult result =
          *analysis::run(spec).reintegration;
      const bool spread_ok =
          result.rejoined &&
          result.spread_with_joiner <= result.beta * (1 + 1e-9);
      const bool gamma_ok =
          result.rejoined && result.skew_after <= result.gamma_bound;
      all_ok = all_ok && spread_ok && gamma_ok;
      table.add_row({util::fmt(crash), util::fmt(wake), std::to_string(seed),
                     bench::verdict(result.rejoined),
                     util::fmt(result.spread_with_joiner),
                     bench::verdict(spread_ok), util::fmt(result.skew_after),
                     bench::verdict(gamma_ok)});
    }
  }
  table.print(std::cout);
  std::cout << "\nSection 9.1 claim holds across schedules: "
            << bench::verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
