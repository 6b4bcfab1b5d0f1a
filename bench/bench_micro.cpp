// EXP-MICRO — engineering microbenchmarks (google-benchmark): the
// fault-tolerant averaging primitives, clock queries, event queue, the
// per-delivery ARR-ingestion hot path, and whole simulated rounds per
// second.
//
// `bench_micro --smoke [--out=micro-smoke.csv]` skips the timing runs and
// instead checks the *deterministic* ingestion counters CI can gate on
// without flaky wall-clock thresholds: heap allocations per steady-state
// round on the arena path (pinned at zero), scheduler queue operations per
// round with the delivery ring, and the NIC overflow conservation laws.
// Results are written as a CSV artifact either way; any exceeded limit
// makes the process exit nonzero, failing the CI perf-smoke step.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/observe.h"
#include "analysis/parallel_runner.h"
#include "bench_common.h"
#include "clock/drift.h"
#include "clock/physical_clock.h"
#include "core/fastpath.h"
#include "core/welch_lynch.h"
#include "engine/pdes.h"
#include "engine/scheduler.h"
#include "net/fanout.h"
#include "net/partition.h"
#include "multiset/multiset_ops.h"
#include "proc/arrival.h"
#include "proc/process.h"
#include "proc/reduce_kernels.h"
#include "sim/delay.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Allocation accounting.  The whole binary routes operator new through a
// counter that is only armed around measured regions (single-threaded), so
// the --smoke gate can pin "allocations per ingestion round" exactly.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<bool> g_count_allocs{false};

void note_alloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace

// None of the replacements is ever inlined: at an inlined call site GCC
// pairs malloc() with operator delete, or operator new with free(), and
// reports a mismatch (-Wmismatched-new-delete) although both sides share
// malloc.
[[gnu::noinline]] void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wlsync {
namespace {

void BM_FaultTolerantMidpoint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  util::Rng rng(1);
  ms::Multiset values(n);
  for (auto& value : values) value = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms::fault_tolerant_midpoint(values, f));
  }
}
BENCHMARK(BM_FaultTolerantMidpoint)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FaultTolerantMean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  util::Rng rng(2);
  ms::Multiset values(n);
  for (auto& value : values) value = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms::fault_tolerant_mean(values, f));
  }
}
BENCHMARK(BM_FaultTolerantMean)->Arg(4)->Arg(64)->Arg(256);

void BM_XDistance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  ms::Multiset u(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform();
    v[i] = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms::x_distance(u, v, 0.1));
  }
}
BENCHMARK(BM_XDistance)->Arg(16)->Arg(256);

void BM_ClockQuery(benchmark::State& state) {
  clk::PhysicalClock clock(clk::make_piecewise_uniform(1e-5, 0.5, util::Rng(4)),
                           0.0, 1e-5);
  (void)clock.now(1000.0);  // pre-extend
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.now(rng.uniform(0.0, 1000.0)));
  }
}
BENCHMARK(BM_ClockQuery);

void BM_ClockInverse(benchmark::State& state) {
  clk::PhysicalClock clock(clk::make_piecewise_uniform(1e-5, 0.5, util::Rng(6)),
                           0.0, 1e-5);
  (void)clock.now(1000.0);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.to_real(rng.uniform(0.0, 1000.0)));
  }
}
BENCHMARK(BM_ClockInverse);

void BM_EventQueue(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      sim::Event event;
      event.time = rng.uniform();
      event.tier = static_cast<std::int32_t>(i % 2);
      queue.push(event);
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueue)->Arg(1024)->Arg(16384);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Events/sec through Simulator::step on a full Welch-Lynch workload
  // (n = 10, two-faced faults): the d-ary heap default vs the calendar.
  const auto kind = static_cast<engine::SchedulerKind>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    analysis::RunSpec spec;
    spec.params = core::make_params(10, 3, 1e-5, 0.01, 1e-3, 10.0);
    spec.fault = analysis::FaultKind::kTwoFaced;
    spec.fault_count = 2;
    spec.rounds = 10;
    spec.seed = 9;
    spec.scheduler = kind;
    analysis::Experiment experiment(spec);
    state.ResumeTiming();
    experiment.simulator().run_until(12 * spec.params.P);
    events += static_cast<std::int64_t>(
        experiment.simulator().events_processed());
  }
  state.SetItemsProcessed(events);
  state.SetLabel(engine::scheduler_name(kind));
}
BENCHMARK(BM_SimulatorEventThroughput)
    ->Arg(static_cast<int>(engine::SchedulerKind::kDaryHeap))
    ->Arg(static_cast<int>(engine::SchedulerKind::kCalendar));

/// Keeps `fanout` timers outstanding forever: the scheduler-bound workload.
class TimerStressProcess final : public proc::Process {
 public:
  TimerStressProcess(std::int32_t fanout, double period)
      : fanout_(fanout), period_(period) {}
  void on_start(proc::Context& ctx) override {
    for (std::int32_t k = 0; k < fanout_; ++k) {
      ctx.set_timer(ctx.local_time() +
                        period_ * static_cast<double>(k + 1) /
                            static_cast<double>(fanout_),
                    k);
    }
  }
  void on_timer(proc::Context& ctx, std::int32_t tag) override {
    ctx.set_timer(ctx.local_time() + period_, tag);
  }
  void on_message(proc::Context&, const sim::Message&) override {}

 private:
  std::int32_t fanout_;
  double period_;
};

void BM_SimulatorStepSchedulerBound(benchmark::State& state) {
  // Events/sec through Simulator::step with ~1024 events always pending and
  // a near-trivial handler: isolates the scheduling layer of step(), d-ary
  // heap default vs calendar queue.  Timer times here are uniform over one
  // period, the calendar's best case; the simulated protocol's are not.
  const auto kind = static_cast<engine::SchedulerKind>(state.range(0));
  sim::SimConfig config;
  config.scheduler = kind;
  config.max_events = ~0ull;
  sim::Simulator sim(config, nullptr);
  for (std::int32_t p = 0; p < 4; ++p) {
    sim.add_process(std::make_unique<TimerStressProcess>(256, 1.0),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-5),
                    0.0, false, /*start=*/0.0);
  }
  double horizon = 1.0;
  sim.run_until(horizon);  // warm-up: all timers armed
  const std::uint64_t warmup = sim.events_processed();
  for (auto _ : state) {
    horizon += 1.0;
    sim.run_until(horizon);  // 4 * 256 timer events per window
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.events_processed() - warmup));
  state.SetLabel(engine::scheduler_name(kind));
}
BENCHMARK(BM_SimulatorStepSchedulerBound)
    ->Arg(static_cast<int>(engine::SchedulerKind::kDaryHeap))
    ->Arg(static_cast<int>(engine::SchedulerKind::kCalendar));

/// Queue pressure of the delivery ring, n = 128 full mesh.  Reported
/// counters are per simulated round: scheduler push+pop operations, the
/// pending-entry high-water mark, and direct (queue-bypassing) deliveries.
/// arg0: DelayKind (kSlow clusters a broadcast's deliveries at one
/// instant; kUniform spreads them).  One entry per recipient would cost a
/// push and a pop per message, ~33k ops/round here.
void BM_BroadcastFanoutQueueOps(benchmark::State& state) {
  const auto delay = static_cast<analysis::DelayKind>(state.range(0));
  constexpr std::int32_t kRounds = 3;
  std::uint64_t ops = 0;
  std::uint64_t peak = 0;
  std::uint64_t direct = 0;
  std::int64_t rounds_done = 0;
  for (auto _ : state) {
    state.PauseTiming();
    analysis::RunSpec spec;
    spec.params = core::make_params(128, 42, 1e-5, 0.01, 1e-3, 10.0);
    spec.rounds = kRounds;
    spec.delay = delay;
    spec.seed = 9;
    analysis::Experiment experiment(spec);
    state.ResumeTiming();
    experiment.simulator().run_until((kRounds + 2) * spec.params.P);
    ops += experiment.simulator().queue_ops();
    peak = std::max<std::uint64_t>(peak, experiment.simulator().peak_pending());
    direct += experiment.simulator().fanout_direct();
    rounds_done += kRounds;
  }
  state.counters["queue_ops/round"] =
      static_cast<double>(ops) / static_cast<double>(rounds_done);
  state.counters["peak_pending"] = static_cast<double>(peak);
  state.counters["direct/round"] =
      static_cast<double>(direct) / static_cast<double>(rounds_done);
  state.SetLabel(delay == analysis::DelayKind::kSlow ? "slow" : "uniform");
}
BENCHMARK(BM_BroadcastFanoutQueueOps)
    ->Arg(static_cast<int>(analysis::DelayKind::kSlow))
    ->Arg(static_cast<int>(analysis::DelayKind::kUniform))
    ->Unit(benchmark::kMillisecond);

/// Sealing one delivery-ring cell: m deliveries appended to one cell in
/// send order (seqs from 8 interleaved senders, times uniform over the
/// cell), then ordered by (time, seq) and run out — against std::sort of
/// the same list.  arg0: deliveries per cell (17 = a deg-16 expander
/// broadcast; a mesh_byzantine cell averages ~220); arg1: 0 = ring,
/// 1 = std::sort.  Both sides pay the append of every delivery per
/// iteration; the ring side also its payload and pop.
void BM_CellSeal(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const bool reference = state.range(1) != 0;
  const net::RingGeometry geometry =
      net::RingGeometry::for_band(0.01 - 1e-3 - 1e-12, 0.01 + 1e-3 + 1e-12);
  util::Rng rng(5);
  std::vector<net::RingItem> items;
  for (std::size_t i = 0; i < m; ++i) {
    items.push_back({geometry.width * (1.0 + rng.uniform()),
                     (rng.below(8) << 40) | i, static_cast<std::int32_t>(i),
                     0});
  }
  net::DeliveryRing ring;
  ring.configure(geometry);
  std::vector<net::RingItem> work;
  double shift = 0.0;  // each iteration one second later: a fresh cell
  for (auto _ : state) {
    shift += 1.0;
    if (reference) {
      work.clear();
      for (const net::RingItem& item : items) {
        work.push_back({item.time + shift, item.seq, item.to, 0});
      }
      std::sort(work.begin(), work.end(),
                [](const net::RingItem& a, const net::RingItem& b) {
                  if (a.time != b.time) return a.time < b.time;
                  return a.seq < b.seq;
                });
      benchmark::DoNotOptimize(work.data());
    } else {
      const std::uint32_t payload = ring.open_payload(sim::make_app(0, 0, 0.0));
      for (const net::RingItem& item : items) {
        ring.push(shift - 0.009, item.time + shift, item.seq, item.to, payload);
      }
      while (!ring.empty()) {
        benchmark::DoNotOptimize(ring.next_key(1e300));
        benchmark::DoNotOptimize(ring.pop_front());
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
  state.SetLabel(reference ? "std::sort" : "ring seal");
}
BENCHMARK(BM_CellSeal)
    ->Args({17, 0})->Args({17, 1})
    ->Args({512, 0})->Args({512, 1})
    ->Args({2048, 0})->Args({2048, 1});

// ---------------------------------------------------------------------------
// ARR-ingestion hot path: per-delivery cost of on_message + the amortized
// per-round mid(reduce(ARR)) update over the dense neighbor-slot arena.
// The harness drives a real WelchLynchProcess through a minimal Context —
// no scheduler, no clock segments — so the measured nanoseconds are the
// ingestion path itself.

/// Context stub for driving processes without a simulator: linear time,
/// fixed neighbor view, all outputs swallowed.
class IngestContext final : public proc::Context {
 public:
  IngestContext(std::int32_t n, std::vector<std::int32_t> neighbors)
      : n_(n), neighbors_(std::move(neighbors)) {}

  [[nodiscard]] std::int32_t id() const override { return neighbors_.front(); }
  [[nodiscard]] std::int32_t process_count() const override { return n_; }
  [[nodiscard]] std::span<const std::int32_t> neighbors() const override {
    return {neighbors_.data(), neighbors_.size()};
  }
  [[nodiscard]] double physical_time() const override { return now_; }
  [[nodiscard]] double local_time() const override { return now_; }
  [[nodiscard]] double corr() const override { return 0.0; }
  void add_corr(double) override {}
  void add_corr_amortized(double, double) override {}
  void broadcast(std::int32_t, double, std::int32_t) override {}
  void send(std::int32_t, std::int32_t, double, std::int32_t) override {}
  void set_timer(double, std::int32_t) override {}
  void set_timer_physical(double, std::int32_t) override {}
  void annotate(const proc::Annotation&) override {}

  void advance(double dt) { now_ += dt; }

 private:
  std::int32_t n_;
  std::vector<std::int32_t> neighbors_;
  double now_ = 0.0;
};

struct IngestHarness {
  core::WelchLynchConfig config;
  std::unique_ptr<core::WelchLynchProcess> process;
  std::unique_ptr<IngestContext> ctx;
  std::vector<std::int32_t> senders;

  /// n-process system; mesh = everyone exchanges with everyone, sparse =
  /// a fixed closed neighborhood of `degree + 1` ids (the arena's win on
  /// sparse graphs is skipping the O(n) gather).
  IngestHarness(std::int32_t n, std::int32_t degree) {
    std::vector<std::int32_t> neighborhood;
    if (degree <= 0 || degree >= n - 1) {
      for (std::int32_t i = 0; i < n; ++i) neighborhood.push_back(i);
    } else {
      const std::int32_t stride = n / (degree + 1);
      for (std::int32_t k = 0; k <= degree; ++k) {
        neighborhood.push_back(k * stride);
      }
    }
    // Deliveries arrive in time order but the SENDERS interleave arbitrarily
    // (each link draws its own delay), so the per-slot arrival values are
    // unsorted — shuffle the delivery order so the reduction sees the real
    // regime instead of a presorted array that flatters pdqsort.
    senders = neighborhood;
    util::Rng shuffle_rng(41);
    for (std::size_t i = senders.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(shuffle_rng.uniform() *
                                              static_cast<double>(i));
      std::swap(senders[i - 1], senders[j < i ? j : i - 1]);
    }
    config.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
    process = std::make_unique<core::WelchLynchProcess>(config);
    ctx = std::make_unique<IngestContext>(n, std::move(neighborhood));
    process->on_start(*ctx);
  }

  /// One collection window + update: deg+1 deliveries, then the FLAG=UPDATE
  /// step (the simulator's exact call sequence, minus the engine).
  void round() {
    core::WelchLynchProcess& p = *process;
    IngestContext& c = *ctx;
    for (const std::int32_t s : senders) {
      c.advance(1e-6);
      p.on_message(c, sim::make_app(s, core::kTimeTag, 0.0));
    }
    p.on_timer(c, core::WelchLynchProcess::kUpdateTimerTag);
  }
};

void BM_ArrIngestion(benchmark::State& state) {
  // arg0: n; arg1: neighborhood degree (0 = full mesh).
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto degree = static_cast<std::int32_t>(state.range(1));
  IngestHarness harness(n, degree);
  harness.round();  // warm-up: arena bound, scratch grown
  for (auto _ : state) {
    harness.round();
  }
  const auto deliveries = static_cast<std::int64_t>(harness.senders.size());
  state.SetItemsProcessed(state.iterations() * deliveries);
  state.SetLabel("n=" + std::to_string(n) +
                 (degree > 0 ? "/deg=" + std::to_string(degree) : "/mesh"));
}
BENCHMARK(BM_ArrIngestion)->Args({512, 0})->Args({512, 16})->Args({128, 0});

void BM_ReduceScratch(benchmark::State& state) {
  // The reduction alone: ms::fault_tolerant_midpoint (sort + 2 allocations)
  // vs ArrivalArena::midpoint_reduced (2 nth_element passes, no
  // allocations) on the same multiset.
  const auto arena_mode = state.range(0) != 0;
  const auto n = static_cast<std::size_t>(state.range(1));
  const std::size_t f = (n - 1) / 3;
  util::Rng rng(17);
  std::vector<std::int32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::int32_t>(i);
  proc::ArrivalArena arena;
  arena.bind({ids.data(), ids.size()}, static_cast<std::int32_t>(n), 0.0);
  ms::Multiset values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.uniform();
    values[i] = v;
    arena.set_slot(i, v);
  }
  for (auto _ : state) {
    if (arena_mode) {
      benchmark::DoNotOptimize(arena.midpoint_reduced(f));
    } else {
      benchmark::DoNotOptimize(ms::fault_tolerant_midpoint(values, f));
    }
  }
  state.SetLabel(arena_mode ? "arena-scratch" : "ms::reduce");
}
BENCHMARK(BM_ReduceScratch)->Args({0, 512})->Args({1, 512})->Args({0, 64})->Args({1, 64});


void BM_ArrDeliverOnly(benchmark::State& state) {
  IngestHarness harness(512, 0);
  harness.round();
  core::WelchLynchProcess& p = *harness.process;
  IngestContext& c = *harness.ctx;
  for (auto _ : state) {
    for (const std::int32_t s : harness.senders) {
      c.advance(1e-6);
      p.on_message(c, sim::make_app(s, core::kTimeTag, 0.0));
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ArrDeliverOnly);

void BM_ArrUpdateOnly(benchmark::State& state) {
  IngestHarness harness(512, 0);
  harness.round();
  core::WelchLynchProcess& p = *harness.process;
  IngestContext& c = *harness.ctx;
  for (auto _ : state) {
    p.on_timer(c, core::WelchLynchProcess::kUpdateTimerTag);
  }
}
BENCHMARK(BM_ArrUpdateOnly);

void BM_SimulatedRounds(benchmark::State& state) {
  // Whole-system throughput: one complete Welch-Lynch round (n^2 messages,
  // 2n timers) per iteration, n = state.range(0).
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto f = (n - 1) / 3;
  std::int64_t rounds_done = 0;
  for (auto _ : state) {
    state.PauseTiming();
    analysis::RunSpec spec;
    spec.params = core::make_params(n, f, 1e-5, 0.01, 1e-3, 10.0);
    spec.rounds = 10;
    spec.seed = 9;
    analysis::Experiment experiment(spec);
    state.ResumeTiming();
    experiment.simulator().run_until(12 * spec.params.P);
    rounds_done += 10;
  }
  state.SetItemsProcessed(rounds_done);
  state.SetLabel("rounds");
}
BENCHMARK(BM_SimulatedRounds)->Arg(4)->Arg(10)->Arg(31)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --smoke: deterministic perf counters for CI.  No timing thresholds — every
// gated value is an exact function of the code path (allocation counts,
// queue operations, NIC conservation), so a regression fails identically on
// every machine while wall-clock noise cannot.

struct SmokeRow {
  std::string metric;
  double value = 0.0;
  double limit = 0.0;   ///< inclusive upper bound; < 0 = report-only
  bool pass = true;
};

/// Measured 2026-10 with the delivery ring: 900 scheduler ops/round for
/// the n = 128 clustered-delay mesh (timers plus the ring's one entry; one
/// entry per broadcast measured ~1323, one per recipient would need ~33k).
/// The limit carries ~10% headroom, so a return to a re-armed entry per
/// fan-out fails it.
constexpr double kQueueOpsPerRoundLimit = 990.0;

/// Heap allocations per steady-state ingestion round (n = 512 full mesh,
/// 10 measured rounds after warm-up), pinned at ZERO.
void smoke_alloc_rounds(std::vector<SmokeRow>& rows) {
  IngestHarness harness(512, 0);
  for (int r = 0; r < 3; ++r) harness.round();  // warm-up
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) harness.round();
  g_count_allocs.store(false);
  const double per_round = static_cast<double>(g_alloc_count.load()) / kRounds;
  rows.push_back({"allocs_per_round_arena", per_round, 0.0, per_round <= 0.0});
}

/// Heap doubles one process' ArrivalArena holds (n = 512 full mesh): the
/// bytes its bind() and one midpoint plus one mean reduction allocate,
/// minus what binding its NeighborIndex alone allocates, over
/// sizeof(double).  Measured after another arena of the same size has
/// reduced on this thread, so the thread's reduce scratch is already grown:
/// that buffer is per thread, not per process.  The slots are m doubles;
/// anything above m is per-process reduction state (two private m-double
/// scratch vectors per arena measured 3m: 64 MiB more on the n = 2048
/// mesh).
void smoke_arena_footprint(std::vector<SmokeRow>& rows) {
  constexpr std::size_t kM = 512;
  constexpr std::size_t kF = (kM - 1) / 3;
  std::vector<std::int32_t> ids(kM);
  for (std::size_t i = 0; i < kM; ++i) ids[i] = static_cast<std::int32_t>(i);
  const auto bind_and_reduce = [&](proc::ArrivalArena& arena) {
    arena.bind({ids.data(), ids.size()}, static_cast<std::int32_t>(kM), 0.0);
    for (std::size_t i = 0; i < kM; ++i) {
      arena.set_slot(i, static_cast<double>((i * 7919) % kM));
    }
    benchmark::DoNotOptimize(arena.midpoint_reduced(kF));
    benchmark::DoNotOptimize(arena.mean_reduced(kF));
  };
  {
    proc::ArrivalArena warm;
    bind_and_reduce(warm);
  }
  const auto bytes_during = [](const auto& body) {
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    body();
    g_count_allocs.store(false);
    return static_cast<double>(g_alloc_bytes.load());
  };
  const double index_bytes = bytes_during([&] {
    proc::NeighborIndex index;
    index.bind({ids.data(), ids.size()}, static_cast<std::int32_t>(kM));
  });
  const double arena_bytes = bytes_during([&] {
    proc::ArrivalArena arena;
    bind_and_reduce(arena);
  });
  const double doubles = (arena_bytes - index_bytes) / sizeof(double);
  constexpr auto kLimit = static_cast<double>(kM);
  rows.push_back({"arena_reserved_doubles_per_process", doubles, kLimit,
                  doubles <= kLimit});
}

/// Scheduler queue operations per round, n = 128 full mesh under clustered
/// (all-slow) delays.  The count is deterministic (fixed seed, integer
/// event ordering); the limit carries ~10% headroom over the measured
/// value so only a real regression (a path that queues per fan-out or per
/// recipient again) trips it.
void smoke_queue_ops(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(128, 42, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 3;
  spec.delay = analysis::DelayKind::kSlow;
  spec.seed = 9;
  analysis::Experiment experiment(spec);
  experiment.simulator().run_until(5 * spec.params.P);
  const double per_round =
      static_cast<double>(experiment.simulator().queue_ops()) / 3.0;
  rows.push_back({"queue_ops_per_round_n128", per_round,
                  kQueueOpsPerRoundLimit, per_round <= kQueueOpsPerRoundLimit});
}

/// Theorem 16's two-faced mesh (n = 80, f = 26 = (n - 2) / 3, 4 rounds,
/// seed 31, trailing layout, event engine).  With every delivery in the
/// delivery ring, the scheduler sees timers and one ring entry: measured
/// 2026-10 at 680 queue ops per round and 112 peak pending entries, and
/// both limits carry ~10% headroom.  One entry per fan-out, re-armed per
/// delivery, measured 16713.5 ops per round and 209 peak pending; one entry
/// per victim 17322 and 1356.
constexpr double kTwoFacedQueueOpsPerRoundLimit = 750.0;
constexpr double kTwoFacedPeakPendingLimit = 123.0;

void smoke_two_faced_mesh(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(80, 26, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 26;
  spec.rounds = 4;
  spec.seed = 31;
  spec.engine = analysis::EngineMode::kEvent;
  analysis::Experiment experiment(spec);
  (void)experiment.run();
  const double per_round =
      static_cast<double>(experiment.simulator().queue_ops()) / spec.rounds;
  const auto peak =
      static_cast<double>(experiment.simulator().peak_pending());
  rows.push_back({"queue_ops_per_round_two_faced_n80", per_round,
                  kTwoFacedQueueOpsPerRoundLimit,
                  per_round <= kTwoFacedQueueOpsPerRoundLimit});
  rows.push_back({"peak_pending_two_faced_n80", peak, kTwoFacedPeakPendingLimit,
                  peak <= kTwoFacedPeakPendingLimit});
}

/// Heap allocations per steady-state round of the same two-faced mesh,
/// counted over run_until(4P -> 8P) after four warm-up rounds (the spec
/// runs 8 rounds so that the window ends inside the run).  Measured
/// 2026-10 at 0.75: one doubling of the ring's sort buffer and two of the
/// RoundTrace storage in the window.  Pinned exactly: faces sit in a flat
/// vector, round begins in a flat table and clock breakpoints are
/// reserved for the horizon by Simulator::reserve_history (a multimap node
/// per face and a hash node per begin measured 120.5; breakpoint vectors
/// doubling to 64 entries added 13.5 per round).
constexpr double kTwoFacedAllocsPerRoundLimit = 0.75;

void smoke_two_faced_allocs(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(80, 26, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 26;
  spec.rounds = 8;  // the measured window ends inside the run
  spec.seed = 31;
  spec.engine = analysis::EngineMode::kEvent;
  analysis::Experiment experiment(spec);
  sim::Simulator& sim = experiment.simulator();
  sim.run_until(4 * spec.params.P);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  sim.run_until(8 * spec.params.P);
  g_count_allocs.store(false);
  const double per_round = static_cast<double>(g_alloc_count.load()) / 4.0;
  rows.push_back({"allocs_per_round_two_faced_n80", per_round,
                  kTwoFacedAllocsPerRoundLimit,
                  per_round <= kTwoFacedAllocsPerRoundLimit});
}

/// Delivery-ring chunk allocations per steady-state round of the same
/// two-faced mesh and window, pinned at ZERO: once the chunk pool has
/// reached its high-water mark, sealed cells hand their chunks back and
/// new sends reuse them.  A ring that allocated storage per send or per
/// cell would count here.
void smoke_ring_chunks(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(80, 26, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 26;
  spec.rounds = 8;
  spec.seed = 31;
  spec.engine = analysis::EngineMode::kEvent;
  analysis::Experiment experiment(spec);
  sim::Simulator& sim = experiment.simulator();
  sim.run_until(4 * spec.params.P);
  const std::uint64_t before = sim.ring_chunk_allocs();
  sim.run_until(8 * spec.params.P);
  const double per_round =
      static_cast<double>(sim.ring_chunk_allocs() - before) / 4.0;
  rows.push_back({"ring_chunk_allocs_per_round_two_faced_n80", per_round, 0.0,
                  per_round <= 0.0});
}

/// NIC overflow conservation on the clustered-broadcast worst case
/// (n = 64 mesh, capacity 8): every arrival is served, dropped, or still
/// queued; the largest same-instant burst is exactly n (every sender's
/// datagram lands at once under all-slow delays, zero spread, no drift).
void smoke_nic_overflow(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(64, 21, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 4;
  spec.delay = analysis::DelayKind::kSlow;
  spec.drift = analysis::DriftKind::kNone;
  spec.initial_spread = 0.0;
  spec.seed = 9;
  spec.nic = sim::NicConfig{/*capacity=*/8, /*service_time=*/50e-6};
  const analysis::RunResult result = analysis::run(spec);
  const auto arrivals = static_cast<double>(result.nic.arrivals);
  const auto accounted =
      static_cast<double>(result.nic.served + result.nic.dropped);
  rows.push_back({"nic_arrivals", arrivals, -1.0, true});
  rows.push_back({"nic_unaccounted", arrivals - accounted,
                  static_cast<double>(spec.params.n) * 8.0,
                  arrivals - accounted >= 0.0 &&
                      arrivals - accounted <= spec.params.n * 8.0});
  rows.push_back({"nic_max_burst", static_cast<double>(result.nic.max_burst),
                  64.0, result.nic.max_burst == 64});
  rows.push_back({"nic_dropped", static_cast<double>(result.nic.dropped),
                  -1.0, true});
  // Gated companion of the report-only row above: the clustered burst MUST
  // overflow a capacity-8 queue, so "no drops detected" (value 1) means the
  // overflow model broke.
  rows.push_back({"nic_no_drops_detected", result.nic.dropped == 0 ? 1.0 : 0.0,
                  0.0, result.nic.dropped > 0});
}

/// Streaming-observer gates (analysis/observe.h).  The observer is attached
/// to an execution that is bit-identical with and without it (observation
/// is passive), so the heap-allocation DELTA between the observed and
/// unobserved runs is exactly the observer's own in-run allocation count —
/// pinned at zero in retained mode (every accumulator is preallocated
/// against the horizon; in bounded mode truncation keeps CorrLog/segment
/// vectors from ever growing, so the delta is gated <= 0; it reads 0, as
/// the unobserved run's clocks never reallocate either).
void smoke_observer_counters(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(24, 7, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 9;

  std::uint64_t adjustments = 0;
  const auto run_counted = [&](int mode /*0 none, 1 retained, 2 bounded*/) {
    analysis::Experiment experiment(spec);
    const double horizon = experiment.horizon();
    std::unique_ptr<analysis::StreamingObserver> observer;
    if (mode != 0) {
      // The exact spec production runs attach (Experiment::make_observe_spec)
      // with only the gradient/retention knobs flipped for the gate.
      analysis::ObserveSpec ospec = experiment.make_observe_spec();
      ospec.gradient = true;
      ospec.topology = &experiment.topology();
      ospec.truncate = mode == 2;
      observer = std::make_unique<analysis::StreamingObserver>(
          experiment.simulator(), std::move(ospec));
      experiment.simulator().set_observer(observer.get());
    }
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    experiment.simulator().run_until(horizon);
    g_count_allocs.store(false);
    experiment.simulator().set_observer(nullptr);
    if (observer) adjustments = observer->stats().adjustments;
    return g_alloc_count.load();
  };

  const std::uint64_t base = run_counted(0);
  const double retained_delta =
      static_cast<double>(run_counted(1)) - static_cast<double>(base);
  const double bounded_delta =
      static_cast<double>(run_counted(2)) - static_cast<double>(base);
  rows.push_back({"observer_run_alloc_delta_retained", retained_delta, 0.0,
                  retained_delta <= 0.0});
  rows.push_back({"observer_run_alloc_delta_bounded", bounded_delta, 0.0,
                  bounded_delta <= 0.0});
  rows.push_back({"observer_adjustment_events", static_cast<double>(adjustments),
                  -1.0, true});
  // Sanity companion: zero adjustments would mean the hook never fired and
  // the two deltas above gated nothing.
  rows.push_back({"observer_no_adjustments_seen", adjustments == 0 ? 1.0 : 0.0,
                  0.0, adjustments > 0});
}

/// Bounded-memory ceiling: the n = 64 mesh observe+bounded run must keep
/// its retained clock/CORR history under a fixed byte ceiling however long
/// the run is — truncation caps it at the per-round high water, ~64 KiB
/// here (measured 2026-07: ~40 KiB), while the retained-history run grows
/// O(rounds * n) past 400 KiB.
void smoke_observer_history(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(64, 21, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 12;
  spec.seed = 9;
  spec.observe = true;
  spec.retain_history = false;
  const analysis::RunResult bounded = analysis::run(spec);
  spec.retain_history = true;
  const analysis::RunResult retained = analysis::run(spec);
  constexpr double kHistoryCeiling = 64.0 * 1024.0;
  const auto peak = static_cast<double>(bounded.observe.peak_history_bytes);
  rows.push_back({"observer_bounded_history_peak_bytes", peak, kHistoryCeiling,
                  peak <= kHistoryCeiling});
  rows.push_back(
      {"observer_retained_history_peak_bytes",
       static_cast<double>(retained.observe.peak_history_bytes), -1.0, true});
  // The two modes must measure identical physics.
  rows.push_back({"observer_bounded_results_differ",
                  analysis::results_identical(bounded, retained) ? 0.0 : 1.0,
                  0.0, analysis::results_identical(bounded, retained)});
}

/// SIMD-kernel value-exactness gates (proc/reduce_kernels.h).  The sorting
/// networks and the dual-rank select are pinned BITWISE against std::sort /
/// std::nth_element on three input shapes, in turn: uniform; tie-heavy
/// (values quantized to a handful of levels, where an off-by-one returns a
/// neighbor rank that no uniform-random input would ever catch); and the
/// two-faced mesh's ARR — one tight cluster holding most values, with
/// kNeverArrived sentinels and two-faced extremes far on either side, so
/// the select's first histogram level puts both ranks in one bucket of
/// more than m/2 values.  Every mismatch count gates at zero: these
/// kernels sit under every fault-tolerant reduction.
void smoke_simd_kernels(std::vector<SmokeRow>& rows) {
  util::Rng rng(29);
  const auto fill = [&](std::vector<double>& v, int shape) {
    for (double& x : v) {
      const double u = rng.uniform();
      switch (shape) {
        case 0:
          x = u;
          break;
        case 1:
          x = std::floor(u * 5.0) / 4.0;
          break;
        default:
          x = u < 0.15   ? core::kNeverArrived
              : u < 0.25 ? 1e3 + rng.uniform(-50.0, 50.0)
              : u < 0.30 ? -1e6
                         : 100.0 + rng.uniform() * 1e-6;
          break;
      }
    }
  };

  double network_mismatches = 0.0;
  for (std::size_t m = 1; m <= proc::kernels::kMaxNetworkSize; ++m) {
    std::vector<double> a(m), b(m);
    for (int trial = 0; trial < 200; ++trial) {
      fill(a, trial % 3);
      b = a;
      proc::kernels::small_sort_network(a.data(), m);
      std::sort(b.begin(), b.end());
      if (a != b) network_mismatches += 1.0;
    }
  }
  rows.push_back({"simd_sort_network_mismatches", network_mismatches, 0.0,
                  network_mismatches == 0.0});

  double select_mismatches = 0.0;
  std::vector<std::uint64_t> keys;
  for (const std::size_t m : {17u, 64u, 97u, 423u, 1024u, 2048u}) {
    std::vector<double> a(m), b(m);
    const std::size_t f = (m - 1) / 3;
    const std::pair<std::size_t, std::size_t> ranks[] = {
        {f, m - 1 - f},          // the reduce's clip ranks
        {0, m - 1},              // window extremes
        {m / 2, m / 2},          // equal ranks (the midpoint's degenerate k)
        {f, f + 1},              // adjacent ranks straddling a tie band
    };
    for (int trial = 0; trial < 51; ++trial) {
      for (const auto& [lo, hi] : ranks) {
        fill(a, trial % 3);
        b = a;
        const auto got =
            proc::kernels::dual_rank_select(a.data(), m, lo, hi, keys);
        std::nth_element(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(lo),
                         b.end());
        const double want_lo = b[lo];
        std::nth_element(b.begin() + static_cast<std::ptrdiff_t>(lo),
                         b.begin() + static_cast<std::ptrdiff_t>(hi), b.end());
        if (got.first != want_lo || got.second != b[hi]) {
          select_mismatches += 1.0;
        }
      }
    }
  }
  rows.push_back({"simd_dual_rank_select_mismatches", select_mismatches, 0.0,
                  select_mismatches == 0.0});

  // End-to-end: the arena reductions (which compose both kernels) against
  // the scalar multiset reference, bitwise.
  double reduce_mismatches = 0.0;
  for (const std::size_t m : {5u, 16u, 64u, 423u}) {
    const std::size_t f = (m - 1) / 3;
    std::vector<std::int32_t> ids(m);
    for (std::size_t i = 0; i < m; ++i) ids[i] = static_cast<std::int32_t>(i);
    proc::ArrivalArena arena;
    arena.bind({ids.data(), ids.size()}, static_cast<std::int32_t>(m), 0.0);
    ms::Multiset values(m);
    for (int trial = 0; trial < 50; ++trial) {
      for (std::size_t i = 0; i < m; ++i) {
        const double v = trial % 2 == 1
                             ? std::floor(rng.uniform() * 5.0) / 4.0
                             : rng.uniform();
        values[i] = v;
        arena.set_slot(i, v);
      }
      if (arena.midpoint_reduced(f) != ms::fault_tolerant_midpoint(values, f)) {
        reduce_mismatches += 1.0;
      }
      if (arena.mean_reduced(f) != ms::fault_tolerant_mean(values, f)) {
        reduce_mismatches += 1.0;
      }
    }
  }
  rows.push_back({"simd_arena_reduce_mismatches", reduce_mismatches, 0.0,
                  reduce_mismatches == 0.0});
}

/// A hand-built fault-free mesh the round fast path can drive end to end:
/// no Experiment scaffolding, no trace sinks — so the allocation counter
/// sees the fast path alone.
struct FastpathHarness {
  sim::Simulator sim;
  core::RoundFastPath fastpath;

  static sim::SimConfig make_config() {
    sim::SimConfig config;
    config.delta = 0.01;
    config.eps = 1e-3;
    config.seed = 9;
    return config;
  }

  explicit FastpathHarness(std::int32_t n)
      : sim(make_config(), sim::make_uniform_delay(0.01, 1e-3)),
        fastpath(sim) {
    core::WelchLynchConfig wl;
    wl.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
    for (std::int32_t i = 0; i < n; ++i) {
      // Deterministic legal rates in [1, 1 + rho] and sub-beta offsets.
      auto clock = std::make_unique<clk::PhysicalClock>(
          clk::make_constant(1.0 + 1e-5 * static_cast<double>(i % 7) / 7.0),
          1e-5 * static_cast<double>(i % 3), 1e-5);
      const double corr0 = -clock->now(0.0);
      sim.add_process(std::make_unique<core::WelchLynchProcess>(wl),
                      std::move(clock), corr0, /*faulty=*/false,
                      /*start_real_time=*/0.0);
    }
    // Pre-size the CORR logs like Experiment::build does; the steady-state
    // allocation gate measures the round loop, not history-vector growth.
    sim.reserve_history(32);
  }
};

/// The fast path's own steady-state gates: it must engage on the hand-built
/// mesh, advance exactly the requested exchanges, and allocate NOTHING per
/// additional round — doubling the horizon may not move the allocation
/// count (all state is bound in init / the first exchange).
void smoke_fastpath_round(std::vector<SmokeRow>& rows) {
  constexpr std::int32_t kN = 128;
  constexpr double kP = 10.0;
  const auto run_counted = [&](std::int32_t n, std::int32_t rounds) {
    FastpathHarness harness(n);
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    harness.fastpath.run((static_cast<double>(rounds) + 0.5) * kP);
    g_count_allocs.store(false);
    return std::pair<std::uint64_t, core::FastPathStats>(
        g_alloc_count.load(), harness.fastpath.stats());
  };
  const auto [alloc_short, stats_short] = run_counted(kN, 6);
  const auto [alloc_long, stats_long] = run_counted(kN, 12);
  rows.push_back({"fastpath_engaged", stats_long.engaged ? 1.0 : 0.0, -1.0,
                  stats_long.engaged});
  const double exchange_delta =
      static_cast<double>(stats_long.exchanges - stats_short.exchanges);
  rows.push_back({"fastpath_exchanges_delta_per_6_rounds", exchange_delta, 6.0,
                  exchange_delta == 6.0});
  const double alloc_delta = static_cast<double>(alloc_long) -
                             static_cast<double>(alloc_short);
  rows.push_back({"fastpath_steady_state_allocs_per_round", alloc_delta / 6.0,
                  0.0, alloc_delta <= 0.0});
  rows.push_back({"fastpath_deliveries_per_exchange",
                  stats_long.exchanges > 0
                      ? static_cast<double>(stats_long.deliveries) /
                            static_cast<double>(stats_long.exchanges)
                      : 0.0,
                  -1.0, true});
  // Report-only: at n = 256 an exchange reaches
  // core::kFastpathShardThreshold and the kernels shard across the cores;
  // util::parallel_for spawns its threads per phase, so those rounds
  // allocate: thread start-up, and each fresh worker growing its own
  // reduce scratch (proc::thread_reduce_scratch).  The n = 128 gate above
  // is the serial path.
  constexpr std::int32_t kShardedN = 256;
  const auto [sharded_short, sharded_stats_short] = run_counted(kShardedN, 6);
  const auto [sharded_long, sharded_stats_long] = run_counted(kShardedN, 12);
  rows.push_back({"fastpath_sharded_threads_n256",
                  static_cast<double>(sharded_stats_long.threads), -1.0,
                  true});
  rows.push_back({"fastpath_sharded_allocs_per_round_n256",
                  (static_cast<double>(sharded_long) -
                   static_cast<double>(sharded_short)) /
                      6.0,
                  -1.0, true});
}

/// Conservative-PDES stall-rate ceiling (the ISSUE 8 companion to the
/// BENCH_pdes.json audit).  Epoch and stall counts are exact functions of
/// the partition and the lookahead floors — bitwise deterministic across
/// machines and repetitions (unlike the wall clock, which is why the JSON
/// artifact's timing rows are NOT gates).  A stall is an epoch whose
/// conservative window admitted no events; a protocol regression that
/// shrinks the lookahead (or a partitioner regression that explodes the
/// cut) shows up here as stalls crowding out productive epochs long before
/// any timing cell moves outside its noise band.
void smoke_pdes_stalls(std::vector<SmokeRow>& rows) {
  analysis::RunSpec spec;
  spec.params = core::make_params(256, 85, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 6;
  spec.seed = 9;
  spec.topology.kind = net::TopologyKind::kKRegular;
  spec.topology.degree = 16;
  spec.engine = analysis::EngineMode::kPdes;
  spec.pdes_workers = 8;
  const analysis::RunResult result = analysis::run(spec);
  // Pinned EXACT (was report-only): the adaptive-window fold is a pure
  // function of the partition and the delay floors, so the epoch count for
  // this spec is a constant of the code — 17 as of the ISSUE 10 adaptive
  // protocol (the static window needs 38).  Any drift, up OR down, means
  // the window fold changed and BENCH_pdes.json needs regenerating.
  constexpr double kPinnedEpochs = 17.0;
  rows.push_back({"pdes_epochs", static_cast<double>(result.pdes_epochs),
                  kPinnedEpochs,
                  static_cast<double>(result.pdes_epochs) == kPinnedEpochs});
  const double stall_rate =
      result.pdes_epochs > 0 ? static_cast<double>(result.pdes_stalls) /
                                   static_cast<double>(result.pdes_epochs)
                             : 1.0;
  // Ratcheted 0.5 -> 0.25 with ISSUE 10: the adaptive lookahead widens the
  // inter-round gap into one epoch, and this spec now measures ZERO stalls
  // (the old static window measured 6/18 = 0.33).  Beyond 0.25 the sharded
  // engine is spinning on the epoch barrier instead of simulating.
  constexpr double kStallRateCeiling = 0.25;
  rows.push_back({"pdes_stall_rate", stall_rate, kStallRateCeiling,
                  result.pdes_epochs > 0 && stall_rate <= kStallRateCeiling});
}

/// Steady-state allocations the PDES epoch loop + overlapped drain add
/// OVER the serial engine, pinned at ZERO by a double difference: for
/// each engine, two fresh runs of the canonical expander spec (6 and 12
/// rounds) — thread spawn, lane setup, channel-block seeding and
/// scheduler warm-up allocate identically at both lengths, so each
/// engine's delta is what its EXTRA steady-state rounds allocated; the
/// per-process round bookkeeping (clock-correction history etc.) is the
/// same work under either engine and cancels in pdes_delta -
/// serial_delta.  What remains is the sharded engine's own per-epoch
/// footprint.  The epoch barrier recycles spent SPSC channel blocks
/// while the workers are quiescent (engine/pdes.h), so it must be zero —
/// a positive difference means the drain path started allocating per
/// epoch.
void smoke_pdes_drain_allocs(std::vector<SmokeRow>& rows) {
  constexpr std::int32_t kN = 256;
  constexpr double kP = 10.0;
  const auto run_counted = [&](std::int32_t rounds, bool pdes) {
    analysis::RunSpec spec;
    spec.params = core::make_params(kN, (kN - 1) / 3, 1e-5, 0.01, 1e-3, kP);
    spec.rounds = rounds;
    spec.seed = 9;
    spec.topology.kind = net::TopologyKind::kKRegular;
    spec.topology.degree = 16;
    analysis::Experiment experiment(spec);
    const double horizon = (static_cast<double>(rounds) + 0.5) * kP;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    if (pdes) {
      const net::Partition part =
          net::partition_topology(experiment.topology(), 8, spec.seed);
      engine::PdesEngine engine(experiment.simulator(), part);
      engine.run_until(horizon);
    } else {
      experiment.simulator().run_until(horizon);
    }
    g_count_allocs.store(false);
    return g_alloc_count.load();
  };
  const double pdes_delta =
      static_cast<double>(run_counted(12, true)) -
      static_cast<double>(run_counted(6, true));
  const double serial_delta =
      static_cast<double>(run_counted(12, false)) -
      static_cast<double>(run_counted(6, false));
  rows.push_back({"pdes_drain_allocs_over_serial_per_6_rounds",
                  pdes_delta - serial_delta, 0.0,
                  pdes_delta - serial_delta <= 0.0});
}

int run_smoke(const util::Flags& flags) {
  const std::string out_path = flags.get_string("out", "micro-smoke.csv");
  (void)flags.has("smoke");  // the mode flag main dispatched on
  flags.reject_unread();
  std::vector<SmokeRow> rows;
  smoke_alloc_rounds(rows);
  smoke_arena_footprint(rows);
  smoke_queue_ops(rows);
  smoke_two_faced_mesh(rows);
  smoke_two_faced_allocs(rows);
  smoke_ring_chunks(rows);
  smoke_nic_overflow(rows);
  smoke_observer_counters(rows);
  smoke_observer_history(rows);
  smoke_simd_kernels(rows);
  smoke_fastpath_round(rows);
  smoke_pdes_stalls(rows);
  smoke_pdes_drain_allocs(rows);

  std::ofstream csv(out_path);
  csv << "metric,value,limit,pass\n";
  bool all_pass = true;
  for (const SmokeRow& row : rows) {
    csv << row.metric << ',' << row.value << ',' << row.limit << ','
        << (row.pass ? 1 : 0) << '\n';
    std::cout << (row.pass ? "  ok   " : "  FAIL ") << row.metric << " = "
              << row.value
              << (row.limit >= 0.0 ? " (limit " + std::to_string(row.limit) + ")"
                                   : " (report-only)")
              << '\n';
    all_pass = all_pass && row.pass;
  }
  std::cout << (all_pass ? "bench_micro --smoke: PASS"
                         : "bench_micro --smoke: FAIL")
            << " (" << out_path << ")\n";
  return all_pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --fastpath-json: the perf-trajectory artifact (BENCH_fastpath.json).
// One gradient run per (workload, engine) cell — the full-mesh plain cells
// are the ISSUE 6 acceptance workload; ISSUE 8 added two engine-only
// widening cells (staggered full mesh at n = 1024, fault-isolating deg-16
// expander at n = 2048) — timed wall-clock (best of 3 for cells under
// 10 s) and reduced to ns/round + rounds/sec.  Every workload runs three
// cells: the event engine and the fast path on one thread (inside a
// util::WorkerScope, which keeps the fast path's kernels and the
// measurement pass serial — the best serial configuration of each), then
// the fast path with its kernels sharded across the machine's cores
// (`threads` records how many ran; kRegion always runs serially).  The
// event cell is the reference: `speedup` is serial-fastpath / event
// rounds-per-sec per key, `parallel_speedup` sharded-fastpath / event.  CI
// uploads the file on every run to seed the bench history; timing rows are
// telemetry, not gates (the deterministic gates live in --smoke) — except
// under --fastpath-compare=OLD.json, which turns the serial speedup RATIOS
// into a regression gate: a fresh ratio below 0.8x the checked-in
// artifact's on any shared key fails the run.  Ratios, not raw
// rounds/sec, so the gate transfers across machines of different absolute
// speed.  The parallel ratios are report-only: they scale with the
// runner's core count, which `hardware_concurrency` records.

struct FastpathCell {
  std::string key;      ///< speedup-map key: "n512", "stagger_n1024", ...
  std::string variant;  ///< "plain" | "staggered" | "region"
  std::int32_t n;
  const char* engine;   ///< "event" | "fastpath" | "fastpath_parallel"
  std::int32_t rounds;
  bool engaged;
  std::int32_t threads;  ///< RunResult::fastpath_threads (0 = event engine)
  double wall_s;         ///< best whole-run wall: the speedup basis
  double engine_s;       ///< best RunResult::engine_seconds (report-only)
};

std::vector<FastpathCell> measure_fastpath_cells(std::int32_t max_n) {
  struct Workload {
    std::string key;
    std::string variant;
    analysis::RunSpec spec;
  };
  std::vector<Workload> workloads;
  for (std::int32_t n = 512; n <= max_n; n *= 2) {
    // Fewer rounds at large n keeps the event-engine reference cells from
    // dominating CI wall time; rates are per-round so rows stay comparable.
    Workload w;
    w.key = "n" + std::to_string(n);
    w.variant = "plain";
    w.spec.params = core::make_params(n, (n - 1) / 3, 1e-5, 0.01, 1e-3, 10.0);
    w.spec.rounds = n >= 4096 ? 3 : (n >= 2048 ? 4 : 6);
    w.spec.seed = 9;
    w.spec.measure_gradient = true;
    // One n = 4096 exchange is ~16.8M deliveries; the horizon affords
    // rounds + 1 full rounds, which overruns the 50M default guard.
    w.spec.max_events = 400'000'000;
    workloads.push_back(std::move(w));
  }
  if (max_n >= 1024) {
    // The ISSUE 8 widenings, engine-only (no gradient measurement — the
    // O(n^2)-pair gradient is identical work for both engines and would
    // bury the engine gap these cells exist to track).
    Workload stagger;
    stagger.key = "stagger_n1024";
    stagger.variant = "staggered";
    stagger.spec.params =
        core::make_params(1024, 341, 1e-5, 0.01, 1e-3, 10.0);
    stagger.spec.rounds = 6;
    stagger.spec.seed = 9;
    stagger.spec.stagger = 1e-4;
    stagger.spec.max_events = 400'000'000;
    workloads.push_back(std::move(stagger));
  }
  if (max_n >= 2048) {
    // The region cell runs long (48 rounds) and large (n = 2048): the fast
    // set's per-round batches amortize the fixed per-exchange costs (entry
    // replay, arena validation, the round-overlap guard) only once the
    // honest remainder dwarfs the tainted neighborhoods, and the placed
    // silent pair keeps the tainted region at 2 closed neighborhoods
    // (~34 pids) while the other ~2014 ride the batched phases.
    Workload region;
    region.key = "region_n2048";
    region.variant = "region";
    region.spec.params =
        core::make_params(2048, 682, 1e-5, 0.01, 1e-3, 10.0);
    region.spec.rounds = 48;
    region.spec.seed = 9;
    region.spec.topology.kind = net::TopologyKind::kKRegular;
    region.spec.topology.degree = 16;
    region.spec.fault = analysis::FaultKind::kSilent;
    region.spec.fault_count = 2;
    region.spec.placement = proc::PlacementKind::kRandom;
    region.spec.max_events = 400'000'000;
    workloads.push_back(std::move(region));
  }

  // Each cell keeps the best wall of up to kReps runs: a single sample of
  // a sub-second cell swings +-30% with host load, enough to trip the
  // 0.8x compare gate on its own.  Cells slower than kRepeatBelowSeconds
  // are stable already and keep their first sample.  The reps interleave
  // a workload's three configurations (bench::time_interleaved).
  constexpr std::int32_t kReps = 3;
  constexpr double kRepeatBelowSeconds = 10.0;
  struct Config {
    const char* name;
    analysis::EngineMode engine;
    bool serial;
  };
  constexpr Config kConfigs[] = {
      {"event", analysis::EngineMode::kEvent, true},
      {"fastpath", analysis::EngineMode::kFastpath, true},
      {"fastpath_parallel", analysis::EngineMode::kFastpath, false},
  };
  constexpr std::size_t kConfigCount = std::size(kConfigs);
  std::vector<FastpathCell> cells;
  for (const Workload& w : workloads) {
    std::optional<FastpathCell> best[kConfigCount];
    bench::time_interleaved(
        kConfigCount, kReps, kRepeatBelowSeconds,
        [&](std::size_t c) -> std::optional<double> {
          analysis::RunSpec spec = w.spec;
          spec.engine = kConfigs[c].engine;
          std::optional<util::WorkerScope> serial;
          if (kConfigs[c].serial) serial.emplace();
          const auto start = std::chrono::steady_clock::now();
          const analysis::RunResult result = analysis::run(spec);
          const double sample =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (!best[c]) {
            best[c] = {w.key, w.variant, w.spec.params.n, kConfigs[c].name,
                       result.completed_rounds, result.fastpath_engaged,
                       result.fastpath_threads, sample, result.engine_seconds};
          } else {
            best[c]->wall_s = std::min(best[c]->wall_s, sample);
            best[c]->engine_s =
                std::min(best[c]->engine_s, result.engine_seconds);
          }
          return sample;
        });
    for (const std::optional<FastpathCell>& timed : best) {
      const FastpathCell& cell = *timed;  // fast-path runs never skip
      cells.push_back(cell);
      std::cerr << "  " << w.key << " engine=" << cell.engine << " "
                << cell.rounds << " rounds in " << cell.wall_s << " s ("
                << cell.engine_s << " s engine span)\n";
    }
  }
  return cells;
}

double fastpath_cell_rate(const FastpathCell& c) {
  return c.wall_s > 0.0 ? static_cast<double>(c.rounds) / c.wall_s : 0.0;
}

/// A fresh per-key speedup map against the event cell: cells come in
/// (event, fastpath, fastpath_parallel) triples; `offset` 1 picks the
/// serial fast path, 2 the sharded one.
std::vector<std::pair<std::string, double>> fastpath_speedups(
    const std::vector<FastpathCell>& cells, std::size_t offset) {
  std::vector<std::pair<std::string, double>> speedups;
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    const double event_rate = fastpath_cell_rate(cells[i]);
    if (event_rate <= 0.0) continue;
    speedups.emplace_back(cells[i].key,
                          fastpath_cell_rate(cells[i + offset]) / event_rate);
  }
  return speedups;
}

using bench::parse_speedup_map;

int run_fastpath_json(const util::Flags& flags) {
  const std::string out_path =
      flags.get_string("fastpath-json", "BENCH_fastpath.json");
  const std::string compare_path = flags.get_string("fastpath-compare", "");
  const auto max_n =
      static_cast<std::int32_t>(flags.get_int("max-n", 4096));
  flags.reject_unread();

  const std::vector<FastpathCell> cells = measure_fastpath_cells(max_n);

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "bench_micro: cannot open --fastpath-json=" << out_path
              << "\n";
    return 1;
  }
  json << "{\n  \"workload\": \"gradient run, P=10, seed 9; plain cells "
          "full mesh with gradient measurement, stagger/region cells "
          "engine-only (sigma=1e-4 mesh; deg-16 expander, 2 silent "
          "random, 48 rounds); best wall of 3 reps for cells under 10 "
          "s, reps interleaved across a workload's cells; event and "
          "fastpath cells single-threaded, fastpath_parallel cells shard "
          "the fast path's kernels\",\n"
       << "  \"hardware_concurrency\": " << util::hardware_threads() << ",\n"
       << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FastpathCell& c = cells[i];
    json << "    {\"key\": \"" << c.key << "\", \"variant\": \"" << c.variant
         << "\", \"n\": " << c.n << ", \"engine\": \"" << c.engine
         << "\", \"rounds\": " << c.rounds
         << ", \"fastpath_engaged\": " << (c.engaged ? "true" : "false")
         << ", \"threads\": " << c.threads << ", \"wall_s\": " << c.wall_s
         << ", \"engine_s\": " << c.engine_s
         << ", \"rounds_per_sec\": " << fastpath_cell_rate(c)
         << ", \"ns_per_round\": "
         << (c.rounds > 0 ? c.wall_s * 1e9 / static_cast<double>(c.rounds)
                          : 0.0)
         << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  const auto write_map =
      [&json](const std::vector<std::pair<std::string, double>>& map) {
        json << "{";
        for (std::size_t i = 0; i < map.size(); ++i) {
          json << (i == 0 ? "" : ", ") << "\"" << map[i].first
               << "\": " << map[i].second;
        }
        json << "}";
      };
  const std::vector<std::pair<std::string, double>> fresh =
      fastpath_speedups(cells, 1);
  json << "  ],\n  \"speedup\": ";
  write_map(fresh);
  json << ",\n  \"parallel_speedup\": ";
  write_map(fastpath_speedups(cells, 2));
  json << "\n}\n";
  std::cout << "bench_micro --fastpath-json: wrote " << out_path << "\n";

  if (compare_path.empty()) return 0;

  // --fastpath-compare: gate fresh speedup ratios against the baseline
  // artifact.  Keys only one side knows (e.g. the baseline's n4096 when CI
  // measures to --max-n=2048) are skipped; zero shared keys is an error,
  // not a pass.
  std::vector<std::pair<std::string, double>> baseline;
  if (!parse_speedup_map(compare_path, &baseline)) {
    std::cerr << "bench_micro: cannot parse --fastpath-compare="
              << compare_path << "\n";
    return 1;
  }
  constexpr double kRegressionFloor = 0.8;
  return bench::gate_speedups("bench_micro --fastpath-compare", fresh,
                              baseline, kRegressionFloor) == 1
             ? 0
             : 1;
}

}  // namespace
}  // namespace wlsync

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const bool smoke = arg == "--smoke" || arg.rfind("--smoke=", 0) == 0;
    if (smoke || arg == "--fastpath-json" ||
        arg.rfind("--fastpath-json=", 0) == 0 ||
        arg.rfind("--fastpath-compare=", 0) == 0) {
      try {
        const wlsync::util::Flags flags(argc, argv);
        return smoke ? wlsync::run_smoke(flags)
                     : wlsync::run_fastpath_json(flags);
      } catch (const std::invalid_argument& e) {
        std::cerr << "bench_micro: " << e.what() << "\n";
        return 2;
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
