// EXP-START — Section 9.2 / Lemma 20: the start-up algorithm brings
// arbitrarily skewed clocks together, B^{i+1} <= B^i/2 + 2 eps +
// 2 rho(11 delta + 39 eps), converging to about 4 eps; then (optionally)
// hands off to the maintenance algorithm.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 14));
  const double spread0 = flags.get_double("spread", 5.0);

  const core::Params params = bench::default_params(7, 2);
  analysis::RunSpec spec;
  spec.mode = analysis::RunMode::kStartup;
  spec.params = params;
  spec.rounds = rounds;
  spec.initial_clock_spread = spread0;
  spec.seed = 2;

  bench::print_header(
      "EXP-START (Section 9.2, Lemma 20)",
      "B^i series from clocks started up to " + util::fmt(spread0) +
          " s apart; bound B^{i+1} <= B^i/2 + slack, slack = " +
          util::fmt(core::startup_round_slack(params.rho, params.delta,
                                              params.eps)) +
          "; limit ~ 4 eps = " + util::fmt(4 * params.eps) + ".");

  const analysis::StartupResult result = *analysis::run(spec).startup;
  util::Table table({"round", "B^i", "bound from B^{i-1}", "within"});
  bool all_ok = true;
  for (std::size_t i = 0; i < result.b_series.size(); ++i) {
    std::string bound = "-";
    std::string within = "-";
    if (i > 0) {
      const double limit =
          result.b_series[i - 1] / 2 + result.round_slack + 2 * params.eps;
      bound = util::fmt_sci(limit);
      const bool ok = result.b_series[i] <= limit ||
                      result.b_series[i - 1] < 3 * result.limit;
      within = bench::verdict(ok);
      all_ok = all_ok && ok;
    }
    table.add_row({std::to_string(i), util::fmt_sci(result.b_series[i]), bound,
                   within});
  }
  table.print(std::cout);
  std::cout << "\nfinal B = " << util::fmt_sci(result.final_b)
            << "  (limit 2*slack = " << util::fmt_sci(result.limit) << ")\n";

  // Handoff mode: switch to maintenance and verify gamma.
  analysis::RunSpec handoff = spec;
  handoff.startup_handoff = true;
  handoff.fault = analysis::FaultKind::kSilent;
  handoff.fault_count = 2;
  const analysis::StartupResult h = *analysis::run(handoff).startup;
  const double gamma = core::derive(params).gamma;
  std::cout << "handoff to maintenance (with 2 silent faults): done="
            << bench::verdict(h.handoff_done)
            << ", post-handoff skew = " << util::fmt_sci(h.post_handoff_skew)
            << " <= gamma = " << util::fmt_sci(gamma) << ": "
            << bench::verdict(h.post_handoff_skew <= gamma) << "\n";
  const bool ok = all_ok && h.handoff_done && h.post_handoff_skew <= gamma &&
                  result.final_b < spread0 / 100;
  std::cout << "Lemma 20 shape holds: " << bench::verdict(ok) << "\n";
  return ok ? 0 : 1;
}
