#pragma once
// In-run observation hook (the streaming counterpart of trace.h).
//
// TraceSinks receive every raw action of the execution; the Observer is the
// narrower, measurement-oriented hook the streaming analysis layer
// (analysis/observe.h) attaches: it is fired on round boundaries
// (kRoundBegin annotations) and — through a time-of-interest contract —
// whenever simulated time advances past an instant the observer asked to
// see.  Only the serial event engine fires it: the round fast path and
// PDES refuse a simulator with an observer attached
// (Simulator::observer_refusal).
//
// The time contract keeps the no-observer and idle-observer hot paths flat:
// the simulator caches the observer's next time of interest and performs a
// single double comparison per dispatched event; with no observer attached
// the cached time is +infinity, so the whole mechanism costs one
// always-false compare and nothing else.  on_advance is called with the new
// current time only once that time reaches the cached instant, and returns
// the next instant of interest (+infinity = never).
//
// Semantics an observer may rely on:
//   * on_advance(now) fires after current time moved to `now` and BEFORE
//     the event at `now` is delivered, so every CORR entry with time < now
//     is final — sampling local times at instants strictly before `now` is
//     exact and can never be invalidated by later events.
//   * on_round_begin fires at the instant of the annotation (current
//     simulated time).
//   * all hooks are called on the simulation thread; observers need no
//     locking and must not mutate the execution (measurement is passive,
//     like TraceSink — with the one sanctioned exception of history
//     truncation behind the observation frontier, see
//     Simulator::truncate_history_before).

#include <cstdint>

namespace wlsync::sim {

class Observer {
 public:
  virtual ~Observer() = default;

  /// Simulated time advanced to `now` (>= the last value this call
  /// returned).  Returns the next real time of interest; the simulator
  /// will not call again before that time is reached.
  virtual double on_advance(double now) = 0;

  /// Process `pid` annotated a round begin (round boundary) at real time
  /// `t`.  May change the observer's next time of interest: the simulator
  /// re-reads next_interest() after this hook.
  virtual void on_round_begin(std::int32_t pid, std::int32_t round,
                              double t) = 0;

  /// The next real time on_advance should fire at (+infinity = never).
  [[nodiscard]] virtual double next_interest() const = 0;
};

}  // namespace wlsync::sim
