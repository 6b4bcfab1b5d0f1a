// EXP-VALID — Theorem 19: (alpha1, alpha2, alpha3)-validity.  Long runs
// under each fault class; reports measured envelope slack against
// alpha1 = 1 - rho - eps/lambda, alpha2 = 1 + rho + eps/lambda, alpha3 = eps.

#include "bench_common.h"

using namespace wlsync;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rounds = static_cast<std::int32_t>(flags.get_int("rounds", 40));

  const core::Params params = bench::default_params(7, 2);
  const core::Derived derived = core::derive(params);

  bench::print_header(
      "EXP-VALID (Theorem 19)",
      "alpha1 = " + util::fmt(derived.alpha1, 10) +
          ", alpha2 = " + util::fmt(derived.alpha2, 10) +
          ", alpha3 = " + util::fmt(derived.alpha3) +
          " (lambda = " + util::fmt(derived.lambda) +
          ").  Envelope: a1(t - tmax0) - a3 <= L(t) - T0 <= a2(t - tmin0) + "
          "a3 for all nonfaulty p.");

  util::Table table({"fault", "upper slack", "lower slack", "holds"});
  bool all_ok = true;
  for (auto fault :
       {analysis::FaultKind::kNone, analysis::FaultKind::kSilent,
        analysis::FaultKind::kSpam, analysis::FaultKind::kTwoFaced,
        analysis::FaultKind::kLiar}) {
    analysis::RunSpec spec;
    spec.params = params;
    spec.fault = fault;
    spec.fault_count = fault == analysis::FaultKind::kNone ? 0 : 2;
    spec.rounds = rounds;
    spec.seed = 3;
    const analysis::RunResult result = analysis::run(spec);
    all_ok = all_ok && result.validity.holds;
    // Slack: how far inside the envelope the worst sample sat (negative
    // violation = margin).
    table.add_row({bench::fault_name(fault),
                   util::fmt(-result.validity.max_upper_violation),
                   util::fmt(-result.validity.max_lower_violation),
                   bench::verdict(result.validity.holds)});
  }
  table.print(std::cout);
  std::cout << "\nTheorem 19 envelope holds for every fault class: "
            << bench::verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
