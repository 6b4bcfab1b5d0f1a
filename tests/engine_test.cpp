// Engine layer: slab pool handle stability and recycling, indexed d-ary
// heap order, scheduler policies (d-ary heap vs calendar queue) agreeing
// with each other and with a reference priority queue on the deterministic
// (time, tier, seq) order, the default resolving to the d-ary heap, and
// whole-execution byte-identity of RoundTraces across policies — the
// invariant that makes the scheduler a pure performance knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

/// Sorted-vector oracle for the indexed queue: the pending keys kept
/// ascending, so the minimum is front().  The queue's pop() leaves its root
/// slot as a hole for the next push(); the oracle has no such state, so
/// every answer the queue gives — top, head_key, size, what pop and pop_if
/// remove — must match it whether or not a hole is pending.  The oracle
/// also tracks when the queue holds a hole (after a pop, until the next
/// push or pop) so a test can prove it exercised both states.
class HeapOracle {
 public:
  void push(const Key& key) {
    keys_.insert(std::upper_bound(keys_.begin(), keys_.end(), key), key);
    hole_ = false;
  }
  Key pop() {
    const Key key = keys_.front();
    keys_.erase(keys_.begin());
    hole_ = true;
    return key;
  }
  [[nodiscard]] const Key& min() const { return keys_.front(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool hole() const { return hole_; }

 private:
  std::vector<Key> keys_;
  bool hole_ = false;
};

/// Every read the queue offers, checked against the oracle.
void expect_reads_match(const sim::IndexedEventQueue& queue,
                        const EventPool& pool, const HeapOracle& oracle) {
  ASSERT_EQ(queue.size(), oracle.size());
  ASSERT_EQ(queue.empty(), oracle.size() == 0);
  if (oracle.size() == 0) return;
  const Event& top = pool[queue.top()];
  ASSERT_EQ(key_of(top), oracle.min());
  const sim::EventKey cached = queue.head_key();
  const sim::EventKey want = sim::EventKeyOf{}(top);
  ASSERT_EQ(cached.time, want.time);
  ASSERT_EQ(cached.tier_seq, want.tier_seq);
}

TEST(IndexedEventQueue, RandomInterleavingsMatchTheSortedOracle) {
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    EventPool pool;
    sim::IndexedEventQueue queue(pool);
    HeapOracle oracle;
    util::Rng rng(seed);
    std::uint64_t next_seq = 0;
    double base = 0.0;
    std::size_t reads_with_hole = 0;
    std::size_t pushes_into_hole = 0;
    std::size_t pops_from_hole = 0;
    std::size_t drained_to_empty = 0;
    // Phases alternate a growing bias with a draining one, so the queue
    // repeatedly runs deep and then pops all the way down to empty.
    for (int op = 0; op < 40000; ++op) {
      const bool grow = (op / 2000) % 2 == 0;
      ASSERT_NO_FATAL_FAILURE(expect_reads_match(queue, pool, oracle));
      if (oracle.hole()) ++reads_with_hole;
      const std::uint64_t action = rng.below(8);
      if (oracle.size() == 0 || action < (grow ? 5u : 1u)) {
        // Clustered, tied and occasionally earlier-than-base times: the
        // pushed entry may belong anywhere from the root to a leaf.
        Event event;
        event.time = base + static_cast<double>(rng.below(32)) * 0.0625 -
                     (rng.chance(0.1) ? 0.5 : 0.0);
        event.tier = static_cast<std::int32_t>(rng.below(2));
        event.seq = next_seq++;
        const EventHandle handle = pool.acquire();
        pool[handle] = event;
        if (oracle.hole()) ++pushes_into_hole;
        queue.push(handle);
        oracle.push(key_of(event));
        if (rng.chance(0.05)) base += rng.uniform(0.0, 1.0);
      } else if (action < 7) {
        if (oracle.hole()) ++pops_from_hole;
        const EventHandle handle = queue.pop();
        ASSERT_EQ(key_of(pool[handle]), oracle.pop());
        pool.release(handle);
        if (oracle.size() == 0) ++drained_to_empty;
      } else {
        // pop_if gated on the cached key: a threshold just below the
        // minimum must refuse, one at the minimum must pop it.
        const double head = std::get<0>(oracle.min());
        const bool refuse = rng.chance(0.5);
        const double limit = refuse ? std::nextafter(head, -1e300) : head;
        const EventHandle handle = queue.pop_if(
            [limit](const sim::EventKey& key) { return key.time <= limit; });
        if (refuse) {
          ASSERT_EQ(handle, EventPool::kInvalidHandle);
        } else {
          ASSERT_NE(handle, EventPool::kInvalidHandle);
          ASSERT_EQ(key_of(pool[handle]), oracle.pop());
          pool.release(handle);
        }
      }
    }
    while (oracle.size() > 0) {
      ASSERT_NO_FATAL_FAILURE(expect_reads_match(queue, pool, oracle));
      const EventHandle handle = queue.pop();
      ASSERT_EQ(key_of(pool[handle]), oracle.pop());
      pool.release(handle);
    }
    ASSERT_NO_FATAL_FAILURE(expect_reads_match(queue, pool, oracle));
    EXPECT_GT(reads_with_hole, 1000u);
    EXPECT_GT(pushes_into_hole, 1000u);
    EXPECT_GT(pops_from_hole, 1000u);
    EXPECT_GT(drained_to_empty, 2u);
  }
}

TEST(IndexedEventQueue, HoleEdgeCases) {
  EventPool pool;
  sim::IndexedEventQueue queue(pool);
  const auto push = [&](double time, std::uint64_t seq) {
    const EventHandle handle = pool.acquire();
    pool[handle] = Event{time, 0, seq, 0, sim::EngineKind::kDeliver, {}};
    queue.push(handle);
  };
  const auto pop_time = [&] {
    const EventHandle handle = queue.pop();
    const double time = pool[handle].time;
    pool.release(handle);
    return time;
  };

  // Pop down to empty: the last pop leaves only the hole behind.
  push(1.0, 0);
  EXPECT_EQ(pop_time(), 1.0);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.pop_if([](const sim::EventKey&) { return true; }),
            EventPool::kInvalidHandle);
  // A push into that hole is the whole queue again.
  push(2.0, 1);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.head_key().time, 2.0);
  EXPECT_EQ(pop_time(), 2.0);

  // Head read on a single child: after the pop the hole's only child is
  // the minimum, on the queue and on the d-ary policy alike.
  push(3.0, 2);
  push(4.0, 3);
  EXPECT_EQ(pop_time(), 3.0);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.head_key().time, 4.0);
  EXPECT_EQ(pool[queue.top()].time, 4.0);
  {
    EventPool policy_pool;
    const auto policy =
        engine::make_scheduler(SchedulerKind::kDaryHeap, policy_pool);
    for (const double time : {5.0, 6.0}) {
      const EventHandle handle = policy_pool.acquire();
      policy_pool[handle] =
          Event{time, 1, 9, 0, sim::EngineKind::kDeliver, {}};
      policy->push(handle);
    }
    policy_pool.release(policy->pop());
    EXPECT_EQ(policy->size(), 1u);
    EXPECT_EQ(policy->peek_key().time, 6.0);
    EXPECT_EQ(policy->peek_key().tier_seq, (std::uint64_t{1} << 62) | 9u);
    EXPECT_EQ(policy_pool[policy->peek()].time, 6.0);
  }

  // Push while a hole is pending, earlier than everything: it takes the
  // root directly.  Later than everything: it sifts down past the rest.
  push(0.5, 4);
  EXPECT_EQ(queue.head_key().time, 0.5);
  EXPECT_EQ(pop_time(), 0.5);
  push(9.0, 5);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(pop_time(), 4.0);
  // Pop while a hole is pending: the last leaf fills it first.
  EXPECT_EQ(pop_time(), 9.0);
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
      const sim::EventKey head = policy->peek_key();
      const sim::EventKey want = sim::EventKeyOf{}(reference.top());
      ASSERT_EQ(head.time, want.time);
      ASSERT_EQ(head.tier_seq, want.tier_seq);
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
    pool[handle] = Event{times[i], 0, i, 0, sim::EngineKind::kDeliver, {}};
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
  // Theorem 16's n = 3f + 2 two-faced mesh with the faults at random
  // positions: each positional adversary forges one face per honest
  // neighbor (per_target_spread), and those single sends — one scheduler
  // entry per victim, unlike the batched group faces of the trailing
  // layout — push the pending set past 1024 entries, the depth where the
  // calendar queue's crowded cells and the heap's sifts part ways most.
  analysis::RunSpec heap_spec;
  heap_spec.params = core::make_params(80, 26, 1e-5, 0.01, 1e-3, 10.0);
  heap_spec.fault = analysis::FaultKind::kTwoFaced;
  heap_spec.fault_count = 26;
  heap_spec.placement = proc::PlacementKind::kRandom;
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

  const analysis::RunResult heap_result = analysis::run(heap_spec);
  const analysis::RunResult calendar_result =
      analysis::run(calendar_spec);
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
