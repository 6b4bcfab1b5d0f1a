#pragma once
// Pluggable event-scheduling policies for the execution engine.
//
// The Simulator owns the event payloads (a sim::EventPool slab pool) and a
// SchedulerPolicy that maintains priority order over the pooled handles.
// Every policy implements the same deterministic total order — ascending
// (time, tier, seq), i.e. sim::EventBefore — so the execution a Simulator
// produces is byte-identical regardless of which policy dispatches it.
// That invariant is what lets scheduler selection be a pure performance
// knob (and is pinned down by tests/engine_test.cpp).
//
// Policies:
//   kDaryHeap  — 4-ary indexed heap (sim::IndexedEventQueue); O(log n),
//                branch-light.  What every Simulator lane runs by default.
//   kCalendar  — Brown's calendar queue; amortized O(1) only when pending
//                event times are roughly uniform over their span.  Opt-in,
//                kept so the end-to-end benchmark's engine split can time
//                it against the heap.
//
// Why the calendar queue used to lose on this model: rebuild() sizes the
// cell width from the span of *all* pending times, and that span includes
// the round timers up to a period P = 10 s ahead, while the bulk of the
// pending set was deliveries clustered within delta +- eps of now.  On
// the n = 512, f = 170 two-faced mesh one 29 ms cell held a whole wave of
// deliveries, locate_min() scanned ~616 entries per pop, and the engine
// span was ~10x the heap's.  Deliveries now wait in each lane's delivery
// ring (net/fanout.h) behind one entry, so the scheduler holds timers and
// ring entries only, and the two policies time level there (0.39-0.49 s
// vs 0.41-0.48 s, bench/e2e engine.serial_calendar_s vs
// engine.serial_dary_s on two traced runs).

#include <cstdint>
#include <memory>

#include "sim/event.h"

namespace wlsync::engine {

enum class SchedulerKind : std::uint8_t {
  kDaryHeap = 0,
  kCalendar = 1,
  /// The default; an alias of kDaryHeap.
  kAuto = kDaryHeap,
};

[[nodiscard]] const char* scheduler_name(SchedulerKind kind) noexcept;

/// Priority order over handles into a sim::EventPool owned by the caller.
/// The pool reference handed to make_scheduler must outlive the policy.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Inserts a handle whose pooled payload is fully initialized (seq set).
  virtual void push(sim::EventHandle handle) = 0;

  /// Removes and returns the minimal handle; undefined when empty.
  virtual sim::EventHandle pop() = 0;

  /// Pops the minimal handle only if its time is <= `time`; returns
  /// kInvalidHandle when the queue is empty or the next event is later.
  /// The single per-event call of the run_until hot loop: policies answer
  /// from their cached keys without dereferencing the pool.
  virtual sim::EventHandle pop_if_not_after(double time) = 0;

  /// Returns the minimal handle without removing it; undefined when empty.
  [[nodiscard]] virtual sim::EventHandle peek() const = 0;

  /// The minimal entry's (time, tier, seq) key, answered from the policy's
  /// cached keys without dereferencing the pool; undefined when empty.
  /// What head reads that only compare keys (fan-out run extension, the
  /// PDES epoch fold) use instead of peek().
  [[nodiscard]] virtual sim::EventKey peek_key() const = 0;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
};

[[nodiscard]] std::unique_ptr<SchedulerPolicy> make_scheduler(
    SchedulerKind kind, const sim::EventPool& pool);

}  // namespace wlsync::engine
