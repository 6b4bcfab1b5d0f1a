#pragma once
// The Section 10 [MS] acceptance rule written the naive way: count every
// value's supporters with a full pass over the neighbor view, O(n^2).
// baselines::MahaneySchneiderProcess computes the same double with a
// spread check and a sort; tests/baselines_test.cpp pins the two against
// each other directly and tests/ingest_pin_test.cpp pins every whole-system
// [MS] update against this rule.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/welch_lynch.h"

namespace wlsync::reference {

/// `diffs` is the neighbor view in neighbor order, own slot 0.0,
/// core::kNeverArrived = missing.  A value is kept when at least
/// n - f values (itself included, never fewer than one) lie within tau of
/// it; kept values are summed in neighbor order, the rest count as 0.
inline double ms_adjustment(const std::vector<double>& diffs, std::int32_t f,
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

}  // namespace wlsync::reference
