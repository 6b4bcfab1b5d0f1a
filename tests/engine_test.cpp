// Engine layer: slab pool handle stability and recycling, indexed d-ary
// heap order, scheduler policies (d-ary heap vs calendar queue) agreeing
// with each other and with a reference priority queue on the deterministic
// (time, tier, seq) order, the default resolving to the d-ary heap, and
// whole-execution byte-identity of RoundTraces across policies — the
// invariant that makes the scheduler a pure performance knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel_runner.h"
#include "analysis/round_trace.h"
#include "engine/scheduler.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wlsync {
namespace {

using engine::SchedulerKind;
using engine::SchedulerPolicy;
using sim::Event;
using sim::EventHandle;
using sim::EventPool;

TEST(SlabPool, RecyclesReleasedSlots) {
  EventPool pool;
  const EventHandle a = pool.acquire();
  const EventHandle b = pool.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  const EventHandle c = pool.acquire();
  EXPECT_EQ(c, a);  // LIFO free list reuses the slot
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(b);
  pool.release(c);
}

TEST(SlabPool, ReferencesStableAcrossGrowth) {
  EventPool pool;
  const EventHandle first = pool.acquire();
  pool[first].time = 42.0;
  const Event* address = &pool[first];
  // Force several slab allocations.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5000; ++i) handles.push_back(pool.acquire());
  EXPECT_EQ(&pool[first], address);
  EXPECT_DOUBLE_EQ(pool[first].time, 42.0);
}

/// Random (time, tier) stream with deliberate collisions so the seq
/// tiebreak is exercised; seq increases with insertion order.
std::vector<Event> random_events(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Draw times from a small set: many exact ties.
    events[i].time = static_cast<double>(rng.below(count / 4 + 1)) * 0.125;
    events[i].tier = static_cast<std::int32_t>(rng.below(2));
    events[i].seq = i;
    events[i].to = static_cast<std::int32_t>(i);
  }
  return events;
}

using Key = std::tuple<double, std::int32_t, std::uint64_t>;

Key key_of(const Event& event) {
  return {event.time, event.tier, event.seq};
}

TEST(IndexedEventQueue, PopsInSortedKeyOrder) {
  EventPool pool;
  sim::IndexedEventQueue queue(pool);
  const std::vector<Event> events = random_events(4096, 7);
  for (const Event& event : events) {
    const EventHandle handle = pool.acquire();
    pool[handle] = event;
    queue.push(handle);
  }
  std::vector<Key> expected;
  expected.reserve(events.size());
  for (const Event& event : events) expected.push_back(key_of(event));
  std::sort(expected.begin(), expected.end());

  for (const Key& want : expected) {
    ASSERT_FALSE(queue.empty());
    const EventHandle handle = queue.pop();
    EXPECT_EQ(key_of(pool[handle]), want);
    pool.release(handle);
  }
  EXPECT_TRUE(queue.empty());
}

/// Drives a policy and a reference std::priority_queue through an identical
/// random interleaving of pushes and pops; every pop must agree.
void check_policy_against_reference(SchedulerKind kind, std::uint64_t seed) {
  EventPool pool;
  const std::unique_ptr<SchedulerPolicy> policy =
      engine::make_scheduler(kind, pool);
  std::priority_queue<Event, std::vector<Event>, sim::EventAfter> reference;

  util::Rng rng(seed);
  std::uint64_t next_seq = 0;
  double drift = 0.0;  // occasionally advancing time base, as in a real run
  for (int op = 0; op < 20000; ++op) {
    const bool push = policy->empty() || rng.chance(0.55);
    if (push) {
      Event event;
      // Mix clustered, tied, and decreasing times (the calendar queue's
      // cursor-reset path) around the drifting base.
      event.time = drift + static_cast<double>(rng.below(64)) * 0.03125 -
                   (rng.chance(0.1) ? 1.0 : 0.0);
      event.tier = static_cast<std::int32_t>(rng.below(2));
      event.seq = next_seq++;
      const EventHandle handle = pool.acquire();
      pool[handle] = event;
      policy->push(handle);
      reference.push(event);
      if (rng.chance(0.02)) drift += rng.uniform(0.0, 3.0);
    } else {
      ASSERT_EQ(key_of(pool[policy->peek()]), key_of(reference.top()));
      const EventHandle handle = policy->pop();
      ASSERT_EQ(key_of(pool[handle]), key_of(reference.top()));
      pool.release(handle);
      reference.pop();
    }
  }
  while (!policy->empty()) {
    ASSERT_FALSE(reference.empty());
    const EventHandle handle = policy->pop();
    EXPECT_EQ(key_of(pool[handle]), key_of(reference.top()));
    pool.release(handle);
    reference.pop();
  }
  EXPECT_TRUE(reference.empty());
}

TEST(SchedulerPolicy, DaryHeapMatchesReference) {
  check_policy_against_reference(SchedulerKind::kDaryHeap, 11);
}

TEST(SchedulerPolicy, CalendarMatchesReference) {
  check_policy_against_reference(SchedulerKind::kCalendar, 11);
  check_policy_against_reference(SchedulerKind::kCalendar, 99);
}

TEST(SchedulerPolicy, DefaultIsTheDaryHeap) {
  // Both configuration structs default to kAuto, which is the d-ary heap
  // itself — no wrapper, no migration.
  for (const SchedulerKind kind :
       {analysis::RunSpec{}.scheduler, sim::SimConfig{}.scheduler}) {
    EXPECT_EQ(kind, SchedulerKind::kDaryHeap);
    EXPECT_STREQ(engine::scheduler_name(kind), "d-ary-heap");
  }
}

TEST(SchedulerPolicy, CalendarHandlesSparseTimes) {
  // Events separated by huge gaps force the direct-search fallback.
  EventPool pool;
  const auto policy = engine::make_scheduler(SchedulerKind::kCalendar, pool);
  std::vector<double> times{0.0, 5000.0, 5000.0, 12000.0, 0.5};
  for (std::size_t i = 0; i < times.size(); ++i) {
    const EventHandle handle = pool.acquire();
    pool[handle] = Event{times[i], 0, i, 0, sim::EngineKind::kDeliver, {}, {}};
    policy->push(handle);
  }
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (double want : sorted) {
    const EventHandle handle = policy->pop();
    EXPECT_DOUBLE_EQ(pool[handle].time, want);
    pool.release(handle);
  }
}

// --------------------------------------------------------------------------
// Whole-execution identity across scheduler policies.

bool traces_identical(const analysis::RoundTrace& a,
                      const analysis::RoundTrace& b) {
  auto same = [](const std::vector<analysis::RoundEvent>& u,
                 const std::vector<analysis::RoundEvent>& v) {
    if (u.size() != v.size()) return false;
    for (std::size_t i = 0; i < u.size(); ++i) {
      if (u[i].pid != v[i].pid || u[i].round != v[i].round ||
          u[i].real_time != v[i].real_time || u[i].value != v[i].value ||
          u[i].value2 != v[i].value2) {
        return false;
      }
    }
    return true;
  };
  return same(a.begins(), b.begins()) && same(a.updates(), b.updates()) &&
         same(a.joins(), b.joins());
}

analysis::RunSpec base_spec() {
  analysis::RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 424242;
  return spec;
}

TEST(SchedulerDeterminism, PoliciesProduceIdenticalExecutions) {
  analysis::RunSpec heap_spec = base_spec();
  heap_spec.scheduler = SchedulerKind::kDaryHeap;
  analysis::RunSpec calendar_spec = base_spec();
  calendar_spec.scheduler = SchedulerKind::kCalendar;

  analysis::Experiment heap_run(heap_spec);
  analysis::Experiment calendar_run(calendar_spec);
  const analysis::RunResult heap_result = heap_run.run();
  const analysis::RunResult calendar_result = calendar_run.run();

  EXPECT_TRUE(analysis::results_identical(heap_result, calendar_result));
  EXPECT_TRUE(traces_identical(heap_run.trace(), calendar_run.trace()));
  EXPECT_GT(heap_run.trace().begins().size(), 0u);
}

TEST(SchedulerDeterminism, PoliciesAgreeOnADeepTwoFacedMesh) {
  // Theorem 16's n = 3f + 2 two-faced mesh: the adversaries' per-victim
  // sends push the pending set past 1024 entries, the depth where the
  // calendar queue's crowded cells and the heap's sifts part ways most.
  analysis::RunSpec heap_spec;
  heap_spec.params = core::make_params(80, 26, 1e-5, 0.01, 1e-3, 10.0);
  heap_spec.fault = analysis::FaultKind::kTwoFaced;
  heap_spec.fault_count = 26;
  heap_spec.rounds = 4;
  heap_spec.seed = 31;
  heap_spec.engine = analysis::EngineMode::kEvent;
  heap_spec.scheduler = SchedulerKind::kDaryHeap;
  analysis::RunSpec calendar_spec = heap_spec;
  calendar_spec.scheduler = SchedulerKind::kCalendar;

  analysis::Experiment heap_run(heap_spec);
  analysis::Experiment calendar_run(calendar_spec);
  const analysis::RunResult heap_result = heap_run.run();
  const analysis::RunResult calendar_result = calendar_run.run();

  EXPECT_GT(heap_run.simulator().peak_pending(), 1024u);
  EXPECT_EQ(heap_run.simulator().peak_pending(),
            calendar_run.simulator().peak_pending());
  EXPECT_TRUE(analysis::results_identical(heap_result, calendar_result));
  EXPECT_TRUE(traces_identical(heap_run.trace(), calendar_run.trace()));
}

TEST(SchedulerDeterminism, PoliciesAgreeUnderNicBuffering) {
  // The NIC arrival/service events exercise same-time scheduling chains.
  analysis::RunSpec heap_spec = base_spec();
  heap_spec.nic = sim::NicConfig{/*capacity=*/4, /*service_time=*/5e-4};
  heap_spec.scheduler = SchedulerKind::kDaryHeap;
  analysis::RunSpec calendar_spec = heap_spec;
  calendar_spec.scheduler = SchedulerKind::kCalendar;

  const analysis::RunResult heap_result = analysis::run_experiment(heap_spec);
  const analysis::RunResult calendar_result =
      analysis::run_experiment(calendar_spec);
  EXPECT_TRUE(analysis::results_identical(heap_result, calendar_result));
}

TEST(SchedulerDeterminism, RepeatedRunsAreIdentical) {
  // Same seed + spec: byte-identical traces run-over-run (no hidden state).
  analysis::Experiment first(base_spec());
  analysis::Experiment second(base_spec());
  const analysis::RunResult r1 = first.run();
  const analysis::RunResult r2 = second.run();
  EXPECT_TRUE(analysis::results_identical(r1, r2));
  EXPECT_TRUE(traces_identical(first.trace(), second.trace()));
}

}  // namespace
}  // namespace wlsync
