#pragma once
// A hand-attached, non-truncating StreamingObserver on a retained run, for
// specs the bounded (streaming) mode rejects: a start-up handoff and a
// dynamics rejoin read the retained history.  The observer runs beside
// Experiment::run's post-hoc measurement, and every value both drivers
// produce must match bitwise.

#include <gtest/gtest.h>

#include <cstddef>

#include "analysis/experiment.h"
#include "analysis/observe.h"

namespace wlsync::analysis {

struct ObservedRun {
  RunResult result;           ///< measured post hoc (retained history)
  StreamingSummary streamed;  ///< the hand-attached observer's summary
};

/// Runs `spec` (retain_history must be true) with a StreamingObserver
/// attached before the first event.  The fast path and PDES refuse the
/// observer, so the run takes the event engine.
inline ObservedRun run_observed(const RunSpec& spec) {
  Experiment experiment(spec);
  StreamingObserver observer(experiment.simulator(),
                             experiment.make_observe_spec());
  experiment.simulator().set_observer(&observer);
  ObservedRun observed;
  observed.result = experiment.run();
  observed.streamed = observer.finalize(observed.result.t_end);
  experiment.simulator().set_observer(nullptr);
  return observed;
}

/// The stream measured what the grids measured: the round-boundary series,
/// the endpoint skew, the validity envelope and, for runs whose steady
/// window both drivers anchor at the same round, gamma and the gradient.
inline void expect_stream_matches_grids(const ObservedRun& observed) {
  const RunResult& result = observed.result;
  const StreamingSummary& streamed = observed.streamed;
  EXPECT_FALSE(streamed.stats.bounded);
  EXPECT_GT(streamed.stats.samples, 0u);
  ASSERT_GE(streamed.skew_at_round.size(), result.skew_at_round.size());
  for (std::size_t r = 0; r < result.skew_at_round.size(); ++r) {
    EXPECT_EQ(streamed.skew_at_round[r], result.skew_at_round[r]) << "round "
                                                                  << r;
  }
  EXPECT_EQ(streamed.final_skew, result.final_skew);
  EXPECT_TRUE(streamed.validity == result.validity);
  EXPECT_EQ(streamed.skew.max_skew, result.gamma_measured);
  EXPECT_TRUE(streamed.gradient == result.gradient);
}

}  // namespace wlsync::analysis
