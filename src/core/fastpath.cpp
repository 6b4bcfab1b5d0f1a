#include "core/fastpath.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "clock/physical_clock.h"
#include "core/welch_lynch.h"
#include "net/topology.h"
#include "proc/arrival.h"
#include "proc/reduce_kernels.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace wlsync::core {

namespace {
/// Parallel slices per worker thread: enough that a worker slowed by other
/// load hands its share to the rest, few enough that the per-slice scratch
/// and the fork-join bookkeeping stay negligible.
constexpr std::size_t kSlicesPerThread = 4;

/// Safety margin on the phase-separation and round-overlap predicates.
/// Both comparisons are conservative-by-construction (a false negative
/// merely bails to the event engine); the slack absorbs the delay model's
/// own kDelayTolerance band.
constexpr double kSeparationSlack = 1e-9;

constexpr std::int32_t kBcastTimer = WelchLynchProcess::kBcastTimerTag;
constexpr std::int32_t kUpdateTimer = WelchLynchProcess::kUpdateTimerTag;

/// Final bail reasons — compared by pointer in try_rearm, so every
/// inject_pending call for these must use these exact constants.  Anything
/// else is transient: the event engine may clear the irregular stretch
/// (a spread-out round 0, an overlap near-miss) and reach a clean boundary.
constexpr const char* kBailHorizon = "horizon reached";
constexpr const char* kBailBudget = "event budget";
}  // namespace

/// The Context the replayed process code sees.  Every entry point forwards
/// to a RoundFastPath mirror of the corresponding SimContext method; the
/// read-only queries are the literal SimContext expressions, so the process
/// observes exactly the state it would observe inside a dispatched event.
class FastPathContext final : public proc::Context {
 public:
  FastPathContext(RoundFastPath& fp, std::int32_t pid) : fp_(fp), pid_(pid) {}

  [[nodiscard]] std::int32_t id() const override { return pid_; }
  [[nodiscard]] std::int32_t process_count() const override;
  [[nodiscard]] std::span<const std::int32_t> neighbors() const override;
  [[nodiscard]] double physical_time() const override {
    return fp_.ctx_physical_time(pid_);
  }
  [[nodiscard]] double local_time() const override {
    return physical_time() + corr();
  }
  [[nodiscard]] double corr() const override { return fp_.ctx_corr(pid_); }
  void add_corr(double adj) override { fp_.ctx_add_corr(pid_, adj, 0.0); }
  void add_corr_amortized(double adj, double duration) override {
    fp_.ctx_add_corr(pid_, adj, duration);
  }
  void broadcast(std::int32_t tag, double value, std::int32_t aux) override {
    fp_.on_broadcast(pid_, tag, value, aux);
  }
  void send(std::int32_t /*to*/, std::int32_t /*tag*/, double /*value*/,
            std::int32_t /*aux*/) override {
    // Welch-Lynch only ever broadcasts; a send would mean the replayed code
    // is not the algorithm eligibility vetted.
    throw std::logic_error("RoundFastPath: unexpected point-to-point send");
  }
  void set_timer(double logical_time, std::int32_t tag) override {
    fp_.on_set_timer_logical(pid_, logical_time, tag);
  }
  void set_timer_physical(double /*physical_time*/, std::int32_t /*tag*/) override {
    throw std::logic_error("RoundFastPath: unexpected set_timer_physical");
  }
  void annotate(const proc::Annotation& annotation) override {
    fp_.on_annotate(pid_, annotation);
  }

 private:
  RoundFastPath& fp_;
  std::int32_t pid_;
};

std::int32_t FastPathContext::process_count() const {
  return fp_.sim_.process_count();
}

std::span<const std::int32_t> FastPathContext::neighbors() const {
  return fp_.sim_.neighbors_of(pid_);
}

RoundFastPath::RoundFastPath(sim::Simulator& sim) : sim_(sim) {}
RoundFastPath::~RoundFastPath() = default;

const char* RoundFastPath::ineligible_reason(sim::Simulator& sim,
                                             bool truncates_history) {
  const std::int32_t n = sim.process_count();
  if (n == 0) return "no processes registered";
  // The round loop batches whole exchanges against a FIXED neighbor
  // structure; a schedule that rewires the graph (or churns membership)
  // mid-run would silently execute on the stale one.
  if (sim.has_dynamics()) {
    return "dynamic-topology schedule present (net/dynamics.h)";
  }
  // The replayed code is Welch-Lynch's, with one stagger for everyone.
  std::vector<std::int32_t> faulty;
  double stagger = 0.0;
  bool stagger_seen = false;
  for (std::int32_t id = 0; id < n; ++id) {
    if (sim.is_faulty(id)) {
      faulty.push_back(id);
      continue;
    }
    auto* wl = dynamic_cast<WelchLynchProcess*>(&sim.process(id));
    if (wl == nullptr) return "algo is not Welch-Lynch";
    if (!stagger_seen) {
      stagger = wl->config().stagger;
      stagger_seen = true;
    } else if (wl->config().stagger != stagger) {
      return "inconsistent stagger across processes";
    }
  }
  // Faults engage the region mode, which needs an unstaggered run on an
  // explicit graph: on the implicit full mesh every honest process
  // neighbors the adversary, so no fast region exists.
  if (!faulty.empty()) {
    if (stagger > 0.0) return "staggered broadcasts with faults present";
    if (!sim.config_.topology.has_value()) {
      return "adversary neighborhood covers the exchange graph";
    }
  }
  if (sim.nic_enabled()) return "Section 9.3 NIC ingress model engaged";
  if (truncates_history) {
    // The batched delivery kernel reads clock segments at delivery times
    // that can precede a truncating observer's drained frontier.
    return "bounded-memory observation (retain_history = false)";
  }
  // The fast set is the honest remainder outside the adversaries' closed
  // neighborhood (the sorted, deduplicated tainted region); it must be
  // nonempty.
  if (!faulty.empty() &&
      sim.config_.topology->closed_neighborhood(faulty).size() ==
          static_cast<std::size_t>(n)) {
    return "adversary neighborhood covers the exchange graph";
  }
  for (sim::TraceSink* sink : sim.main_.sinks) {
    if (sink->wants_message_events()) {
      return "a trace sink consumes per-message events";
    }
  }
  return nullptr;
}

// --- SimContext mirrors ----------------------------------------------------

double RoundFastPath::ctx_physical_time(std::int32_t pid) const {
  const auto i = static_cast<std::size_t>(pid);
  return sim_.nodes_[i].clock->now(sim_.main_.current_time);
}

double RoundFastPath::ctx_corr(std::int32_t pid) const {
  const auto i = static_cast<std::size_t>(pid);
  return sim_.nodes_[i].corr.current_target();
}

void RoundFastPath::ctx_add_corr(std::int32_t pid, double adj, double duration) {
  // do_add_corr fires on_corr_change sinks and Observer::on_adjustment at
  // sim_.main_.current_time, which phase 3 has set to the update's exact instant.
  sim_.do_add_corr(sim_.main_, pid, adj, duration);
}

void RoundFastPath::on_annotate(std::int32_t pid,
                                const proc::Annotation& annotation) {
  // Verbatim SimContext::annotate: sinks in attachment order, then the
  // round-begin hook and the next-interest re-read.
  for (sim::TraceSink* sink : sim_.main_.sinks) {
    sink->on_annotation(pid, sim_.main_.current_time, annotation);
  }
  if (sim_.observer_ != nullptr &&
      annotation.type == proc::Annotation::Type::kRoundBegin) {
    sim_.observer_->on_round_begin(pid, annotation.round, sim_.main_.current_time);
    sim_.observer_next_ = sim_.observer_->next_interest();
  }
}

void RoundFastPath::on_broadcast(std::int32_t from, std::int32_t tag,
                                 double value, std::int32_t aux) {
  // Mirror of do_fanout's observable effects for a broadcast: per recipient
  // in neighbor order, draw the A3-validated delay from the sender's
  // private stream, count the message and consume one seq (the engine
  // stamps one per delivery).  The payload matters only for kRegion's
  // scheduled entries: the fast-side algorithm records arrival TIMES, and
  // the bail protocol never needs to re-inject a kernel delivery (every
  // bail point precedes the first draw of its exchange).
  const std::span<const std::int32_t> recipients = sim_.neighbors_of(from);
  ++broadcasts_recorded_;
  if (mode_ != Mode::kRegion) {
    // Every recipient is a kernel delivery whose seq is never read, so
    // only the effects outlive the replay: the message count and the seq
    // block alloc_seq would hand out, one per recipient.  The delays are
    // drawn after the replay, one sender per task (draw_rows) — each
    // sender's stream is its own, so the draws are the ones this call
    // would have made.
    sim_.main_.messages_sent += recipients.size();
    sim_.nodes_[static_cast<std::size_t>(from)].next_seq += recipients.size();
    sends_.push_back({from, sim_.main_.current_time});
    return;
  }
  // kRegion: recipients inside the tainted region get a real scheduler
  // entry carrying the pre-drawn delay and pre-allocated seq — a delivery
  // keyed exactly as the serial engine's ring would run it — and the
  // merged loop may dispatch it before the next fast replay step, so the
  // draws happen here, in replay order.
  double* row = times_.data() + row_offset_[static_cast<std::size_t>(from)];
  std::size_t cursor = 0;
  const double now = sim_.main_.current_time;
  const sim::Message msg = sim::make_app(from, tag, value, aux);
  for (const std::int32_t to : recipients) {
    const double deliver_time = now + sim_.draw_delay(from, to, now);
    ++sim_.main_.messages_sent;
    const std::uint64_t seq = sim_.alloc_seq(from);
    if (fast_[static_cast<std::size_t>(to)]) {
      row[cursor++] = deliver_time;
      deliver_min_ = std::min(deliver_min_, deliver_time);
      deliver_max_ = std::max(deliver_max_, deliver_time);
    } else {
      sim_.schedule_raw(sim_.main_, deliver_time, /*tier=*/0, seq, to,
                        sim::EngineKind::kDeliver, msg);
      engine_head_valid_ = false;
    }
  }
}

void RoundFastPath::draw_rows() {
  // One task per recorded broadcast: sender s's row is drawn from s's own
  // delay_rng in neighbor order, so the values are exactly the ones
  // on_broadcast would have drawn inline, whichever thread runs the task.
  // A sender's row and stream may belong to one task only.
  seen_.assign(static_cast<std::size_t>(n_), 0);
  for (const Send& send : sends_) {
    char& seen = seen_[static_cast<std::size_t>(send.from)];
    if (seen != 0) {
      throw std::logic_error("RoundFastPath: broadcast phase contract violated");
    }
    seen = 1;
  }
  for_slices(sends_.size(), [this](std::size_t begin, std::size_t end,
                                   Slice& slice) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t k = begin; k < end; ++k) {
      const Send send = sends_[k];
      const std::span<const std::int32_t> recipients =
          sim_.neighbors_of(send.from);
      double* row =
          times_.data() + row_offset_[static_cast<std::size_t>(send.from)];
      for (std::size_t j = 0; j < recipients.size(); ++j) {
        const double deliver_time =
            send.time + sim_.draw_delay(send.from, recipients[j], send.time);
        row[j] = deliver_time;
        lo = std::min(lo, deliver_time);
        hi = std::max(hi, deliver_time);
      }
    }
    slice.lo = lo;
    slice.hi = hi;
  });
  deliver_min_ = std::numeric_limits<double>::infinity();
  deliver_max_ = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < slice_count(sends_.size()); ++k) {
    deliver_min_ = std::min(deliver_min_, slices_[k].lo);
    deliver_max_ = std::max(deliver_max_, slices_[k].hi);
  }
}

void RoundFastPath::on_set_timer_logical(std::int32_t pid, double logical_time,
                                         std::int32_t tag) {
  // Verbatim do_set_timer_logical -> do_set_timer_physical ->
  // do_set_timer_real chain, recording instead of scheduling.  The drop
  // rule consumes no seq in the engine either (schedule_event is never
  // reached), so seq streams stay aligned.  Records route by tag: update
  // timers into the active update set; broadcast timers into the phase-1
  // worklist while it runs (a staggered START arms its broadcast timer for
  // later in the SAME exchange) or into the next-exchange stratum during
  // phase 3.
  const auto i = static_cast<std::size_t>(pid);
  const double physical_target =
      logical_time - sim_.nodes_[i].corr.current_target();
  const double real = sim_.nodes_[i].clock->to_real(physical_target);
  if (real <= sim_.main_.current_time) return;
  const std::uint64_t seq = sim_.alloc_seq(pid);
  if (tag == kBcastTimer) {
    if (worklist_active_) {
      worklist_.push_back({real, 1, seq, pid, tag, Kind::kTimer});
      std::push_heap(worklist_.begin(), worklist_.end(),
                     [](const PendingEvent& a, const PendingEvent& b) {
                       if (a.time != b.time) return a.time > b.time;
                       if (a.tier != b.tier) return a.tier > b.tier;
                       return a.seq > b.seq;
                     });
    } else if (record_bcast_ != nullptr) {
      record_bcast_->push_back({real, seq, pid, tag});
    } else {
      throw std::logic_error(
          "RoundFastPath: broadcast timer armed outside a replay phase");
    }
  } else if (tag == kUpdateTimer) {
    if (record_update_ == nullptr) {
      throw std::logic_error(
          "RoundFastPath: update timer armed outside a replay phase");
    }
    record_update_->push_back({real, seq, pid, tag});
  } else {
    throw std::logic_error("RoundFastPath: unexpected timer tag");
  }
}

// --- setup -----------------------------------------------------------------

void RoundFastPath::init() {
  n_ = sim_.process_count();
  const auto n = static_cast<std::size_t>(n_);
  mesh_ = !sim_.config_.topology.has_value();

  // Mode + fast set: mirrors ineligible_reason, which already vetted the
  // combination (faults imply an explicit topology and a nonempty honest
  // remainder; stagger implies no faults).
  std::vector<std::int32_t> faulty;
  for (std::int32_t id = 0; id < n_; ++id) {
    if (sim_.is_faulty(id)) faulty.push_back(id);
  }
  fast_.assign(n, 1);
  if (!faulty.empty()) {
    for (std::int32_t r : sim_.config_.topology->closed_neighborhood(faulty)) {
      fast_[static_cast<std::size_t>(r)] = 0;
    }
  }
  fast_ids_.clear();
  for (std::int32_t id = 0; id < n_; ++id) {
    if (fast_[static_cast<std::size_t>(id)]) fast_ids_.push_back(id);
  }
  wl_.assign(n, nullptr);
  for (std::int32_t id : fast_ids_) {
    wl_[static_cast<std::size_t>(id)] =
        dynamic_cast<WelchLynchProcess*>(&sim_.process(id));
  }
  stagger_ = wl_[static_cast<std::size_t>(fast_ids_.front())]->config().stagger;
  mode_ = !faulty.empty() ? Mode::kRegion
                          : (stagger_ > 0.0 ? Mode::kStaggered : Mode::kPlain);
  stats_.fast_count = static_cast<std::int32_t>(fast_ids_.size());
  if (mode_ == Mode::kStaggered) {
    // The receiver-side normalization the engine applies per time message:
    // arrival -= (double)from * stagger.  Same product, same double.
    off_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      off_[s] = static_cast<double>(s) * stagger_;
    }
  }

  row_offset_.assign(n + 1, 0);
  total_deg_ = 0;
  for (std::int32_t id = 0; id < n_; ++id) {
    const auto i = static_cast<std::size_t>(id);
    row_offset_[i] = static_cast<std::size_t>(total_deg_);
    if (!fast_[i]) continue;
    if (mode_ == Mode::kRegion) {
      for (std::int32_t to : sim_.neighbors_of(id)) {
        if (fast_[static_cast<std::size_t>(to)]) ++total_deg_;
      }
    } else {
      total_deg_ += sim_.neighbors_of(id).size();
    }
    // Bind the arena up front (the engine binds lazily at the first
    // delivery, with the same arguments and the same all-sentinel fill, so
    // the observable state and the rebind counter are identical).
    if (!wl_[i]->arena_.bound()) {
      wl_[i]->arena_.bind(sim_.neighbors_of(id), n_, kNeverArrived);
    }
  }
  row_offset_[n] = static_cast<std::size_t>(total_deg_);
  times_.resize(static_cast<std::size_t>(total_deg_));

  if (!mesh_) {
    // Receiver-major view of the delivery matrix, built once: for each
    // kernel entry (s -> to), the receiving arena slot of s (plus s's
    // stagger offset when staggered).  Entries whose sender is not in the
    // receiver's neighborhood (slot < 0) are skipped outright —
    // ArrivalArena::record drops them the same way.
    std::vector<std::size_t> counts(n + 1, 0);
    for (std::int32_t s : fast_ids_) {
      for (std::int32_t to : sim_.neighbors_of(s)) {
        const auto r = static_cast<std::size_t>(to);
        if (!fast_[r]) continue;
        if (wl_[r]->arena_.slot_of(s) >= 0) ++counts[r];
      }
    }
    recv_offset_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      recv_offset_[r + 1] = recv_offset_[r] + counts[r];
    }
    recv_flat_.resize(recv_offset_[n]);
    recv_slot_.resize(recv_offset_[n]);
    recv_off_.assign(mode_ == Mode::kStaggered ? recv_offset_[n] : 0, 0.0);
    std::vector<std::size_t> cursor(recv_offset_.begin(), recv_offset_.end() - 1);
    for (std::int32_t s : fast_ids_) {
      const std::span<const std::int32_t> recipients = sim_.neighbors_of(s);
      std::size_t pos = row_offset_[static_cast<std::size_t>(s)];
      for (std::size_t j = 0; j < recipients.size(); ++j) {
        const auto r = static_cast<std::size_t>(recipients[j]);
        if (mode_ == Mode::kRegion && !fast_[r]) continue;  // scheduled, not matrixed
        const std::int32_t slot = wl_[r]->arena_.slot_of(s);
        if (slot >= 0) {
          recv_flat_[cursor[r]] = pos;
          recv_slot_[cursor[r]] = slot;
          if (mode_ == Mode::kStaggered) {
            recv_off_[cursor[r]] = off_[static_cast<std::size_t>(s)];
          }
          ++cursor[r];
        }
        ++pos;
      }
    }
  }

  pending_.reserve(n);
  timers_.reserve(n);
  next_timers_.reserve(n);
  entry_updates_.reserve(n);
  pred_update_.resize(n);
  pred_wend_.resize(n);
  arr_min_.resize(n);
  sends_.reserve(n);

  // Shard the per-exchange kernels when an exchange is big enough to pay
  // for the fork-join, the machine has cores to spare, and no outer pool
  // (a ParallelRunner sweep) has claimed them already.  kRegion stays
  // serial: its phase 1 interleaves the merged engine loop.
  threads_ = mode_ != Mode::kRegion && total_deg_ >= kFastpathShardThreshold &&
                     !util::in_worker()
                 ? util::hardware_threads()
                 : 1;
  slices_.resize(threads_ > 1
                     ? static_cast<std::size_t>(threads_) * kSlicesPerThread
                     : 1);
  stats_.threads = threads_;
}

std::size_t RoundFastPath::slice_count(std::size_t count) const {
  return std::min(count, slices_.size());
}

template <typename Fn>
void RoundFastPath::for_slices(std::size_t count, Fn&& fn) {
  // Slice s covers [s*count/k, (s+1)*count/k): contiguous, nonempty, and
  // the same partition on every call, so a slice's scratch stays warm.
  const std::size_t k = slice_count(count);
  util::parallel_for(k, threads_, [&](std::size_t s) {
    fn(s * count / k, (s + 1) * count / k, slices_[s]);
  });
}

bool RoundFastPath::take_entry_events() {
  // The entry stratum must be a clean exchange boundary.  kPlain: exactly
  // one START (the A4 schedule Experiment::build lays down) or one tier-1
  // broadcast timer per process.  kStaggered additionally accepts the
  // steady-state 2n-1 shape: one broadcast timer per process plus the
  // pre-armed update timer begin_exchange gave every p > 0 (p = 0 arms its
  // update at its broadcast).  kRegion extracts one START-or-broadcast-
  // timer per FAST pid and leaves region events scheduled; any pending
  // fast-pid update timer means the fast set is mid-exchange — not a
  // boundary.  Anything else goes back into the scheduler untouched: the
  // handles still hold their seqs, so pushing them back reconstructs the
  // identical queue.
  const auto n = static_cast<std::size_t>(n_);
  engine_head_valid_ = false;
  sim::Simulator::Lane& lane = sim_.main_;
  std::vector<sim::EventHandle> handles;   // boundary candidates
  std::vector<sim::EventHandle> others;    // kRegion: stays with the engine
  handles.reserve(n);
  bool ok = true;
  bool any_start = false;
  std::size_t bcount = 0;
  std::size_t ucount = 0;
  seen_.assign(n, 0);
  std::vector<char> upd(n, 0);
  while (!lane.scheduler->empty()) {
    const sim::EventHandle h = lane.scheduler->pop();
    ++lane.queue_pops;
    const sim::Event& e = lane.pool[h];
    const bool deliver = e.engine_kind == sim::EngineKind::kDeliver;
    const bool in_range = e.to >= 0 && e.to < n_;
    const bool start = deliver && e.msg.kind == sim::Kind::kStart && e.tier == 0;
    const bool bcast_timer = deliver && e.msg.kind == sim::Kind::kTimer &&
                             e.tier == 1 && e.msg.tag == kBcastTimer;
    const bool update_timer = deliver && e.msg.kind == sim::Kind::kTimer &&
                              e.tier == 1 && e.msg.tag == kUpdateTimer;
    if (mode_ == Mode::kRegion) {
      const bool to_fast =
          in_range && fast_[static_cast<std::size_t>(e.to)] != 0;
      if (to_fast && (start || bcast_timer)) {
        if (seen_[static_cast<std::size_t>(e.to)] != 0) ok = false;
        seen_[static_cast<std::size_t>(e.to)] = 1;
        ++bcount;
        handles.push_back(h);
      } else {
        // A fast-pid timer that is not a boundary broadcast timer (its
        // update timer, in particular) means we are mid-exchange.
        if (to_fast && deliver && e.msg.kind == sim::Kind::kTimer) ok = false;
        others.push_back(h);
      }
      continue;
    }
    handles.push_back(h);
    if ((start || bcast_timer) && in_range &&
        seen_[static_cast<std::size_t>(e.to)] == 0) {
      seen_[static_cast<std::size_t>(e.to)] = 1;
      ++bcount;
      any_start = any_start || start;
    } else if (update_timer && mode_ == Mode::kStaggered && in_range &&
               e.to > 0 && upd[static_cast<std::size_t>(e.to)] == 0) {
      upd[static_cast<std::size_t>(e.to)] = 1;
      ++ucount;
    } else {
      ok = false;
    }
  }
  ok = ok && bcount == fast_ids_.size();
  if (mode_ != Mode::kRegion && ucount != 0) {
    // The pre-armed shape is all-or-nothing: n broadcast timers (no
    // STARTs) and one update timer for every p > 0.
    ok = ok && mode_ == Mode::kStaggered && !any_start && ucount == n - 1;
  }
  if (!ok) {
    for (const sim::EventHandle h : handles) sim_.push_handle(lane, h);
    for (const sim::EventHandle h : others) sim_.push_handle(lane, h);
    stats_.handoff = mode_ == Mode::kRegion ? "fast region boundary not clean"
                                            : "unexpected initial queue";
    return false;
  }
  for (const sim::EventHandle h : others) sim_.push_handle(lane, h);
  pending_.clear();
  entry_updates_.clear();
  for (const sim::EventHandle h : handles) {
    const sim::Event& e = lane.pool[h];
    if (e.msg.kind == sim::Kind::kTimer && e.msg.tag == kUpdateTimer) {
      entry_updates_.push_back({e.time, e.seq, e.to, e.msg.tag});
    } else {
      const bool start = e.msg.kind == sim::Kind::kStart;
      pending_.push_back({e.time, e.tier, e.seq, e.to,
                          start ? 0 : e.msg.tag,
                          start ? Kind::kStart : Kind::kTimer});
    }
    lane.pool.release(h);
  }
  return true;
}

bool RoundFastPath::try_rearm(double horizon) {
  if (stats_.handoff == kBailHorizon || stats_.handoff == kBailBudget) {
    return false;  // final: the caller's run_until owns what remains
  }
  const char* bail = stats_.handoff;  // keep the real reason if we give up
  sim::Simulator::Lane& lane = sim_.main_;
  const auto n = static_cast<std::size_t>(n_);
  for (;;) {
    // Step FIRST: the queue right now is the stratum inject_pending just
    // restored, and phase 0 is deterministic — re-taking it unchanged
    // would reproduce the bail forever.  Only after the event engine has
    // consumed at least one event can a genuinely new boundary emerge.
    if (lane.scheduler->empty()) return false;
    if (lane.scheduler->peek_key().time > horizon) return false;
    bool attempt = false;
    if (mode_ == Mode::kRegion) {
      // While disengaged the fast pids run on the engine like everyone
      // else; a boundary can only complete right after a fast pid's
      // update (arming its next broadcast timer) or START.
      const sim::Event& e = lane.pool[lane.scheduler->peek()];
      attempt = e.engine_kind == sim::EngineKind::kDeliver && e.to >= 0 &&
                e.to < n_ && fast_[static_cast<std::size_t>(e.to)] != 0 &&
                ((e.msg.kind == sim::Kind::kTimer && e.tier == 1 &&
                  e.msg.tag == kUpdateTimer) ||
                 e.msg.kind == sim::Kind::kStart);
    }
    // One engine event, exactly as run_until would dispatch it (count_event
    // enforces the budget and throws where the engine would).
    ++lane.queue_pops;
    sim_.dispatch(lane, lane.scheduler->pop(), horizon);
    if (mode_ == Mode::kRegion) {
      if (attempt) {
        if (take_entry_events()) return true;
        stats_.handoff = bail;
      }
      continue;
    }
    if (lane.scheduler->size() == n ||
        (mode_ == Mode::kStaggered && lane.scheduler->size() == 2 * n - 1)) {
      // Cheap pre-check before draining: a boundary's head is a tier-1
      // broadcast timer (or a START, for systems still waking up).
      const sim::Event& head = lane.pool[lane.scheduler->peek()];
      const bool boundary_head =
          head.engine_kind == sim::EngineKind::kDeliver &&
          ((head.msg.kind == sim::Kind::kTimer && head.tier == 1 &&
            head.msg.tag == kBcastTimer) ||
           (head.msg.kind == sim::Kind::kStart && head.tier == 0));
      if (boundary_head && take_entry_events()) return true;
      stats_.handoff = bail;
    }
  }
}

void RoundFastPath::inject_pending(const char* reason) {
  engine_head_valid_ = false;
  stats_.handoff = reason;
  // A deliver/timer event keyed (time, tier, seq) is indistinguishable from
  // the scheduler entry the engine would have held — same EventKey, same
  // dispatch.  Pre-armed staggered update timers held across the boundary
  // are part of the stratum and go back with it.  The run_exchange
  // invariants keep every pending time at or after current_time_; the
  // min() is defensive only.
  for (const PendingTimer& t : entry_updates_) {
    pending_.push_back({t.time, 1, t.seq, t.pid, t.tag, Kind::kTimer});
  }
  entry_updates_.clear();
  double tmin = sim_.main_.current_time;
  for (const PendingEvent& e : pending_) tmin = std::min(tmin, e.time);
  sim_.main_.current_time = tmin;
  for (const PendingEvent& e : pending_) {
    const sim::EventHandle h = sim_.main_.pool.acquire();
    sim::Event& ev = sim_.main_.pool[h];
    ev.time = e.time;
    ev.tier = e.tier;
    ev.seq = e.seq;
    ev.to = e.pid;
    ev.engine_kind = sim::EngineKind::kDeliver;
    ev.msg = e.kind == Kind::kStart ? sim::make_start() : sim::make_timer(e.tag);
    sim_.push_handle(sim_.main_, h);
  }
  pending_.clear();
}

void RoundFastPath::advance_engine_to(double time, std::int32_t tier,
                                      std::uint64_t seq) {
  // kRegion merged loop: everything the scheduler holds strictly before the
  // fast event's (time, tier, seq) key runs through the regular engine
  // first — region timers and fan-outs, deliveries into the fast arenas,
  // adversary sends — so observable state at the fast replay instant is
  // exactly the serial engine's.  The fast event's time caps the ring's run
  // extension (dispatch_ring re-arms past the limit), so nothing leaks
  // beyond the boundary key.
  sim::Simulator::Lane& lane = sim_.main_;
  const sim::EventKey key{
      time,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tier)) << 62) |
          seq};
  if (engine_head_valid_ && !(engine_head_ < key)) {
    return;  // head unchanged since last look and not yet due
  }
  while (!lane.scheduler->empty() && lane.scheduler->peek_key() < key) {
    const sim::Event& head = lane.pool[lane.scheduler->peek()];
    if (head.engine_kind == sim::EngineKind::kDeliver &&
        head.msg.kind == sim::Kind::kTimer && head.to >= 0 && head.to < n_ &&
        fast_[static_cast<std::size_t>(head.to)] != 0) {
      // While engaged, every fast-pid timer lives in pending_/timers_ —
      // processes only arm their own timers, so one in the scheduler means
      // the replay diverged.  Fail loudly rather than desynchronize.
      throw std::logic_error(
          "RoundFastPath: fast-region timer escaped to the scheduler");
    }
    ++lane.queue_pops;
    const std::uint64_t before = lane.events_processed;
    sim_.dispatch(lane, lane.scheduler->pop(), time);
    stats_.region_events +=
        static_cast<std::int64_t>(lane.events_processed - before);
  }
  engine_head_ = lane.scheduler->empty()
                     ? sim::EventKey{std::numeric_limits<double>::infinity(),
                                     ~std::uint64_t{0}}
                     : lane.scheduler->peek_key();
  engine_head_valid_ = true;
}

// --- the per-exchange loop -------------------------------------------------

void RoundFastPath::run(double horizon) {
  const char* reason = ineligible_reason(sim_);
  if (reason != nullptr) {
    stats_.handoff = reason;
    return;
  }
  init();
  if (!take_entry_events()) return;
  stats_.engaged = true;
  for (;;) {
    while (run_exchange(horizon)) ++stats_.exchanges;
    // A transient bail (phase separation, overlap risk, malformed stratum)
    // hands the irregular stretch to the event engine; once it reaches a
    // clean exchange boundary again, resume batching.
    if (!try_rearm(horizon)) return;
    ++stats_.rearms;
  }
}


bool RoundFastPath::run_exchange(double horizon) {
  const std::size_t nf = fast_ids_.size();

  // --- phase 0: validate the stratum and predict the whole exchange ---
  if (pending_.size() != nf) {
    inject_pending("pending stratum incomplete");
    return false;
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.tier != b.tier) return a.tier < b.tier;
              return a.seq < b.seq;
            });
  seen_.assign(static_cast<std::size_t>(n_), 0);
  double b_max = -std::numeric_limits<double>::infinity();
  for (const PendingEvent& e : pending_) {
    const bool legal =
        e.kind == Kind::kStart || (e.kind == Kind::kTimer && e.tag == kBcastTimer);
    if (!legal || e.pid < 0 || e.pid >= n_ ||
        !fast_[static_cast<std::size_t>(e.pid)] ||
        seen_[static_cast<std::size_t>(e.pid)] != 0) {
      inject_pending("pending stratum malformed");
      return false;
    }
    seen_[static_cast<std::size_t>(e.pid)] = 1;
    // The broadcast instant this event leads to.  A staggered START does
    // not broadcast at its own time: begin_exchange arms a broadcast timer
    // at broadcast_label for p > 0 — predict it through the same
    // CORR/to_real chain set_timer will use (CORR cannot change first).
    double b = e.time;
    if (mode_ == Mode::kStaggered && e.kind == Kind::kStart && e.pid > 0) {
      const auto i = static_cast<std::size_t>(e.pid);
      FastPathContext ctx(*this, e.pid);
      const double bl = wl_[i]->broadcast_label(ctx);
      const double physical = bl - sim_.nodes_[i].corr.current_target();
      b = sim_.nodes_[i].clock->to_real(physical);
      if (!(b > e.time)) {
        // The engine would drop the timer and the pid would never
        // broadcast — a shape this phase structure cannot represent.
        inject_pending("pending stratum malformed");
        return false;
      }
    }
    b_max = std::max(b_max, b);
  }
  if (b_max > horizon) {
    inject_pending(kBailHorizon);
    return false;
  }
  if (sim_.main_.events_processed + nf + total_deg_ + nf >
      sim_.config_.max_events) {
    // The engine must own the exact event at which max_events trips.  (In
    // kRegion the merged loop's engine events may still trip it mid-
    // exchange; count_event throws there exactly as the serial run would.)
    inject_pending(kBailBudget);
    return false;
  }

  // Exact update-instant prediction: window_end depends only on label_ /
  // exchange_ / the static config, and CORR cannot change between now and
  // the broadcast that arms the timer, so this IS the double
  // do_set_timer_logical will compute in phase 1.
  double u_min = std::numeric_limits<double>::infinity();
  double u_max = -std::numeric_limits<double>::infinity();
  for (std::int32_t pid : fast_ids_) {
    const auto i = static_cast<std::size_t>(pid);
    FastPathContext ctx(*this, pid);
    const double wend = wl_[i]->window_end(ctx);
    const double physical = wend - sim_.nodes_[i].corr.current_target();
    const double u = sim_.nodes_[i].clock->to_real(physical);
    pred_wend_[i] = wend;
    pred_update_[i] = u;
    u_min = std::min(u_min, u);
    u_max = std::max(u_max, u);
  }
  if (!entry_updates_.empty()) {
    // kStaggered steady state: one pre-armed update timer per p > 0, each
    // at its predicted instant bit-for-bit (armed by the same formula with
    // the same inputs).  Anything else is not the boundary we took.
    bool valid = mode_ == Mode::kStaggered && entry_updates_.size() == nf - 1;
    seen_.assign(static_cast<std::size_t>(n_), 0);
    for (const PendingTimer& t : entry_updates_) {
      valid = valid && t.pid > 0 && t.pid < n_ && t.tag == kUpdateTimer &&
              seen_[static_cast<std::size_t>(t.pid)] == 0 &&
              t.time == pred_update_[static_cast<std::size_t>(t.pid)];
      if (!valid) break;
      seen_[static_cast<std::size_t>(t.pid)] = 1;
    }
    if (!valid) {
      inject_pending("pending stratum malformed");
      return false;
    }
  }
  if (u_max > horizon) {
    inject_pending(kBailHorizon);
    return false;
  }
  // Strict phase separation: every kernel delivery (<= send + delta + eps +
  // the delay tolerance) must precede every fast update, or the engine's
  // global order would interleave collection with adjustment.
  if (!(b_max + sim_.config_.delta + sim_.config_.eps + kSeparationSlack <=
        u_min)) {
    inject_pending("phase separation violated");
    return false;
  }

  // --- phase 1: broadcasts through the real process code ---
  // Swap, not move-assign: a moved-from vector has no capacity, and these
  // four buffers (timers_/entry_updates_, worklist_/pending_) rotate every
  // exchange — moving would regrow them by doubling each round, breaking
  // the steady-state zero-allocation guarantee bench_micro --smoke pins.
  std::swap(timers_, entry_updates_);
  entry_updates_.clear();
  record_update_ = &timers_;
  record_bcast_ = nullptr;
  std::swap(worklist_, pending_);
  pending_.clear();
  const auto after = [](const PendingEvent& a, const PendingEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.tier != b.tier) return a.tier > b.tier;
    return a.seq > b.seq;
  };
  std::make_heap(worklist_.begin(), worklist_.end(), after);
  worklist_active_ = true;
  broadcasts_recorded_ = 0;
  sends_.clear();
  deliver_min_ = std::numeric_limits<double>::infinity();
  deliver_max_ = -std::numeric_limits<double>::infinity();
  while (!worklist_.empty()) {
    std::pop_heap(worklist_.begin(), worklist_.end(), after);
    const PendingEvent e = worklist_.back();
    worklist_.pop_back();
    if (mode_ == Mode::kRegion) advance_engine_to(e.time, e.tier, e.seq);
    ++sim_.main_.events_processed;
    sim_.main_.current_time = e.time;
    sim_.observe_advance(sim_.main_);
    FastPathContext ctx(*this, e.pid);
    if (e.kind == Kind::kStart) {
      wl_[static_cast<std::size_t>(e.pid)]->on_start(ctx);
    } else {
      wl_[static_cast<std::size_t>(e.pid)]->on_timer(ctx, e.tag);
    }
  }
  worklist_active_ = false;
  // Contract, not a dynamic condition: eligibility pinned the process type,
  // so each broadcast event yields exactly one fanout and each fast pid one
  // update timer at its predicted instant.  A violation means the replay
  // diverged — fail loudly rather than desynchronize silently.
  if (broadcasts_recorded_ != nf || timers_.size() != nf) {
    throw std::logic_error("RoundFastPath: broadcast phase contract violated");
  }
  for (const PendingTimer& t : timers_) {
    if (t.tag != kUpdateTimer ||
        t.time != pred_update_[static_cast<std::size_t>(t.pid)]) {
      throw std::logic_error("RoundFastPath: update timer diverged from prediction");
    }
  }
  if (mode_ != Mode::kRegion) draw_rows();

  // --- phase 2: batched arrival evaluation ---
  sim_.main_.events_processed += total_deg_;
  stats_.deliveries += total_deg_;
  do_batched_deliveries();
  if (mode_ != Mode::kRegion) prime_updates();

  // Round-overlap guard, BEFORE updates consume seqs: if any fast process'
  // NEXT broadcast could fire at or before this round's last fast update,
  // the engine would interleave the two rounds' seq allocations and our
  // phase-ordered replay could diverge on exact-time ties.  Bound the next
  // broadcast from below without running the update: ADJ = base + delta -
  // AV with AV inside the arena's [min, max] (the reduction is an order
  // statistic / mean of a subset), and real elapsed >= physical gap /
  // (1 + rho).  Conservative: a false alarm just hands the round's update
  // stratum to the event engine.
  {
    // kRegion: region senders' deliveries for this window may still sit in
    // the scheduler, so fast arena slots can hold sentinels or the PREVIOUS
    // window's values at guard time.  Two discharge routes, tried in order:
    //
    //   1. Overwrite proof.  Every stale slot's sender is honest (faulty
    //      pids have no fast neighbors — the region is their closed
    //      neighborhood) and engine-run, so its current-window activity is
    //      still queued: a delivery in the ring, an undelivered unicast,
    //      or a broadcast timer / START yet to fire.  One drain of the
    //      scheduler bounds when the last such write can land; if that
    //      precedes every fast update, every stale slot is overwritten —
    //      with an ARR >= the receiver's current local time (now() is
    //      monotone and CORR is fixed until its update) — before any
    //      reduction reads it, so no slot counts against the clip budget.
    //   2. Clip budget.  Failing the proof, garbage slots that fit inside
    //      the reduction's f-clip are discarded whatever they hold, so AV
    //      still comes from the survivors.
    //
    // Either way AV >= m_lb = min(current-window values, local time) below.
    // The scan drains and rebuilds the whole queue, so it runs lazily — only
    // once the cheap budget test actually fails for some pid — and its
    // verdict is memoized for the rest of the loop.
    int overwrite_proven = -1;  // -1 unknown, 0 disproven, 1 proven
    const auto prove_overwrites = [this, u_min]() -> bool {
      sim::Simulator::Lane& lane = sim_.main_;
      double writes_by = -std::numeric_limits<double>::infinity();
      scan_handles_.clear();
      while (!lane.scheduler->empty()) {
        const sim::EventHandle h = lane.scheduler->pop();
        scan_handles_.push_back(h);
        const sim::Event& e = lane.pool[h];
        if (e.engine_kind == sim::EngineKind::kRing) {
          // Every delivery still in the ring; only the ones landing on fast
          // pids write fast arenas.  (A faulty sender's sends have no fast
          // recipients at all.)
          lane.ring.for_each(
              [&](const net::RingItem& item, const sim::Message&) {
                if (item.to >= 0 && item.to < n_ &&
                    fast_[static_cast<std::size_t>(item.to)]) {
                  writes_by = std::max(writes_by, item.time);
                }
              });
        } else if (e.engine_kind != sim::EngineKind::kDeliver) {
          writes_by = std::numeric_limits<double>::infinity();
        } else if (e.msg.kind == sim::Kind::kApp) {
          // A unicast writes its recipient's arena at dispatch time.
          if (e.to >= 0 && e.to < n_ && fast_[static_cast<std::size_t>(e.to)]) {
            writes_by = std::max(writes_by, e.time);
          }
        } else if (e.to >= 0 && e.to < n_ && sim_.is_faulty(e.to)) {
          // An adversary's own timers/START drive sends into the region
          // only: every neighbor of a faulty pid is inside the closed
          // neighborhood, so nothing it does can touch a fast arena.
        } else if (e.msg.kind == sim::Kind::kStart ||
                   (e.msg.kind == sim::Kind::kTimer && e.tier == 1 &&
                    e.msg.tag == kBcastTimer)) {
          // Fires, broadcasts, and every delivery lands within the delay
          // ceiling — the same bound the phase-separation predicate uses.
          writes_by = std::max(
              writes_by, e.time + sim_.config_.delta + sim_.config_.eps);
        } else if (!(e.msg.kind == sim::Kind::kTimer && e.tier == 1 &&
                     e.msg.tag == kUpdateTimer)) {
          // An honest pid's update timer sends nothing before its NEXT
          // window (that window's broadcast already happened, so its
          // deliveries are accounted above or already landed).  Anything
          // else we cannot bound — give up on the proof, keep scanning so
          // the queue is rebuilt whole.
          writes_by = std::numeric_limits<double>::infinity();
        }
      }
      // Handles still hold their seqs; pushing them back reconstructs the
      // identical queue (the take_entry_events contract).
      for (const std::uint32_t h : scan_handles_) sim_.push_handle(lane, h);
      engine_head_valid_ = false;
      return writes_by + kSeparationSlack <= u_min;
    };
    for (std::int32_t pid : fast_ids_) {
      const auto i = static_cast<std::size_t>(pid);
      const WelchLynchProcess& wl = *wl_[i];
      FastPathContext ctx(*this, pid);
      const double sub = wl.sub_period(ctx);
      const double base =
          wl.label_ + static_cast<double>(wl.exchange_) * sub;
      const std::int32_t e2 = wl.exchange_ + 1;
      const double next_base = e2 >= wl.config_.k_exchanges
                                   ? wl.label_ + wl.config_.params.P
                                   : wl.label_ + static_cast<double>(e2) * sub;
      double adj_hi;
      if (mode_ == Mode::kRegion) {
        // "Current window" = within half a period of base: stale values sit
        // a full period back, and a spread wide enough to blur that line
        // misclassifies toward MORE garbage, i.e. toward bailing.  A
        // starved window skips the UPDATE entirely (ADJ = 0) — hence the
        // max() with zero on adj_hi.
        double m_lb = ctx.local_time();
        std::int32_t garbage = 0;
        const double window_floor = base - 0.5 * wl.config_.params.P;
        for (const double v : wl.arena_.values()) {
          if (v >= window_floor) {
            m_lb = std::min(m_lb, v);
          } else {
            ++garbage;
          }
        }
        // update_arena's own clip count, local clamp included.
        const auto clip_budget = static_cast<std::int32_t>(wl.reduce_f(n_));
        if (garbage > clip_budget) {
          if (overwrite_proven < 0) overwrite_proven = prove_overwrites() ? 1 : 0;
        }
        if (garbage > clip_budget && overwrite_proven != 1) {
          pending_.clear();
          for (const PendingTimer& t : timers_) {
            pending_.push_back({t.time, 1, t.seq, t.pid, t.tag, Kind::kTimer});
          }
          inject_pending("round overlap risk");
          return false;
        }
        adj_hi = std::max(base + wl.config_.params.delta - m_lb, 0.0);
      } else {
        adj_hi = base + wl.config_.params.delta - arr_min_[i];
      }
      const double physical_gap = (next_base - pred_wend_[i]) - adj_hi;
      const double bound =
          pred_update_[i] + physical_gap / (1.0 + wl.config_.params.rho);
      if (!(physical_gap > 0.0) || !(bound > u_max + kSeparationSlack)) {
        pending_.clear();
        for (const PendingTimer& t : timers_) {
          pending_.push_back({t.time, 1, t.seq, t.pid, t.tag, Kind::kTimer});
        }
        inject_pending("round overlap risk");
        return false;
      }
    }
  }

  // --- phase 3: updates through the real process code ---
  std::sort(timers_.begin(), timers_.end(),
            [](const PendingTimer& a, const PendingTimer& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;  // all tier 1
            });
  next_timers_.clear();
  entry_updates_.clear();
  record_bcast_ = &next_timers_;
  record_update_ = &entry_updates_;  // staggered p > 0 arms both for next round
  for (const PendingTimer& t : timers_) {
    if (mode_ == Mode::kRegion) advance_engine_to(t.time, 1, t.seq);
    ++sim_.main_.events_processed;
    sim_.main_.current_time = t.time;
    sim_.observe_advance(sim_.main_);
    FastPathContext ctx(*this, t.pid);
    wl_[static_cast<std::size_t>(t.pid)]->on_timer(ctx, t.tag);
  }
  record_bcast_ = nullptr;
  record_update_ = nullptr;
  if (mode_ != Mode::kStaggered && !entry_updates_.empty()) {
    throw std::logic_error("RoundFastPath: update phase contract violated");
  }
  pending_.clear();
  for (const PendingTimer& t : next_timers_) {
    pending_.push_back({t.time, 1, t.seq, t.pid, t.tag, Kind::kTimer});
  }
  // A dropped next-broadcast timer (pathologically short P) leaves the
  // stratum short; the next iteration's shape check hands off cleanly.
  return true;
}

// --- the batched delivery kernel -------------------------------------------

void RoundFastPath::do_batched_deliveries() {
  if (mesh_) {
    deliver_mesh(deliver_min_, deliver_max_);
  } else {
    deliver_generic(deliver_min_, deliver_max_);
  }
}

void RoundFastPath::prime_updates() {
  // Per fast receiver, after its window is complete: the arena minimum the
  // round-overlap guard bounds ADJ with, and the reduction do_update will
  // ask for — the same kind and the same f clamp update_arena applies —
  // primed as the arena's one-shot memo.  Phase 3 then runs every update
  // serially through the real process code, which consumes the memo.
  for_slices(fast_ids_.size(), [this](std::size_t begin, std::size_t end,
                                      Slice& /*slice*/) {
    for (std::size_t k = begin; k < end; ++k) {
      const auto i = static_cast<std::size_t>(fast_ids_[k]);
      WelchLynchProcess& wl = *wl_[i];
      double arr_min = std::numeric_limits<double>::infinity();
      for (const double v : wl.arena_.values()) arr_min = std::min(arr_min, v);
      arr_min_[i] = arr_min;
      wl.arena_.precompute(wl.reduction(), wl.reduce_f(n_));
    }
  });
}

void RoundFastPath::deliver_generic(double t0, double t1) {
  // Sparse graphs: per receiver, gather its delivery times from the flat
  // matrix into the slice's scratch, evaluate ARR = local-time(t) with the
  // affine kernel (or exact per-point now() when a drift breakpoint splits
  // the window), scatter into the arena slots.  Degrees are small; the
  // strided gather is cheap.  In kStaggered the receiver subtracts the
  // sender's known offset with the engine's exact expression (local -
  // s*sigma); recv_off_ carries the per-entry offsets contiguously per
  // receiver.
  const bool staggered = mode_ == Mode::kStaggered;
  for_slices(fast_ids_.size(), [&](std::size_t first, std::size_t last,
                                   Slice& slice) {
    std::vector<double>& gather_t = slice.gather_t;
    std::vector<double>& gather_v = slice.gather_v;
    for (std::size_t k = first; k < last; ++k) {
      const auto i = static_cast<std::size_t>(fast_ids_[k]);
      const std::size_t begin = recv_offset_[i];
      const std::size_t m = recv_offset_[i + 1] - begin;
      if (m == 0) continue;
      proc::ArrivalArena& arena = wl_[i]->arena_;
      const double corr = sim_.nodes_[i].corr.current_target();
      const clk::PhysicalClock& clock = *sim_.nodes_[i].clock;
      gather_t.resize(m);
      gather_v.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        gather_t[j] = times_[recv_flat_[begin + j]];
      }
      clk::PhysicalClock::AffineSpan span;
      if (clock.affine_span(t0, t1, span)) {
        if (staggered) {
          proc::kernels::affine_arrival_eval_offset(
              gather_v.data(), gather_t.data(), recv_off_.data() + begin, m,
              span.real, span.clock, span.rate, corr);
        } else {
          proc::kernels::affine_arrival_eval(gather_v.data(), gather_t.data(),
                                             m, span.real, span.clock,
                                             span.rate, corr);
        }
      } else {
        for (std::size_t j = 0; j < m; ++j) {
          gather_v[j] = clock.now(gather_t[j]) + corr;
        }
        if (staggered) {
          for (std::size_t j = 0; j < m; ++j) {
            gather_v[j] -= recv_off_[begin + j];
          }
        }
      }
      for (std::size_t j = 0; j < m; ++j) {
        arena.set_slot(static_cast<std::size_t>(recv_slot_[begin + j]),
                       gather_v[j]);
      }
    }
  });
}

void RoundFastPath::deliver_mesh(double t0, double t1) {
  // Full mesh: sender s's row is contiguous in recipient id order and the
  // arena slot of sender s at every receiver is s, so the matrix transposes
  // with a receiver-blocked sweep — for each block of receivers, walk the
  // sender rows once (contiguous loads) and append slot s to each
  // receiver's arena (each arena advances sequentially, one cache line per
  // eight senders).  The inner expression is affine_arrival_eval's, kept
  // inline so the compiler vectorizes across the receiver block; the
  // staggered variant appends the engine's receiver-side normalization
  // (- s*sigma) as the last operation, exactly as on_message does.  Blocks
  // are the unit of parallel work: each owns its receivers' clocks and
  // arenas.
  constexpr std::size_t kBlock = 64;
  const auto n = static_cast<std::size_t>(n_);
  const bool staggered = mode_ == Mode::kStaggered;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  for_slices(blocks, [&](std::size_t first, std::size_t last, Slice&) {
    double a_c[kBlock];   // segment clock reading
    double o_c[kBlock];   // segment real start
    double r_c[kBlock];   // segment rate
    double c_c[kBlock];   // CORR target
    double* dst[kBlock];  // arena slot base
    bool affine[kBlock];
    for (std::size_t b = first; b < last; ++b) {
      const std::size_t rb = b * kBlock;
      const std::size_t blk = std::min(kBlock, n - rb);
      bool all_affine = true;
      for (std::size_t i = 0; i < blk; ++i) {
        const std::size_t r = rb + i;
        c_c[i] = sim_.nodes_[r].corr.current_target();
        dst[i] = wl_[r]->arena_.slot_data();
        clk::PhysicalClock::AffineSpan span;
        affine[i] = sim_.nodes_[r].clock->affine_span(t0, t1, span);
        a_c[i] = span.clock;
        o_c[i] = span.real;
        r_c[i] = span.rate;
        all_affine = all_affine && affine[i];
      }
      if (all_affine) {
        if (staggered) {
          for (std::size_t s = 0; s < n; ++s) {
            const double* trow = times_.data() + s * n + rb;
            const double off_s = off_[s];
            for (std::size_t i = 0; i < blk; ++i) {
              dst[i][s] =
                  ((a_c[i] + (trow[i] - o_c[i]) * r_c[i]) + c_c[i]) - off_s;
            }
          }
        } else {
          for (std::size_t s = 0; s < n; ++s) {
            const double* trow = times_.data() + s * n + rb;
            for (std::size_t i = 0; i < blk; ++i) {
              dst[i][s] = (a_c[i] + (trow[i] - o_c[i]) * r_c[i]) + c_c[i];
            }
          }
        }
        continue;
      }
      // A drift breakpoint inside the window for some receiver in the
      // block: evaluate those receivers per point through now()
      // (bit-identical on any window) and the rest with the affine
      // expression.
      for (std::size_t i = 0; i < blk; ++i) {
        const std::size_t r = rb + i;
        if (affine[i]) {
          for (std::size_t s = 0; s < n; ++s) {
            const double t = times_[s * n + r];
            const double v = (a_c[i] + (t - o_c[i]) * r_c[i]) + c_c[i];
            dst[i][s] = staggered ? v - off_[s] : v;
          }
        } else {
          const clk::PhysicalClock& clock = *sim_.nodes_[r].clock;
          for (std::size_t s = 0; s < n; ++s) {
            const double v = clock.now(times_[s * n + r]) + c_c[i];
            dst[i][s] = staggered ? v - off_[s] : v;
          }
        }
      }
    }
  });
}

}  // namespace wlsync::core
