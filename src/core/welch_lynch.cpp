#include "core/welch_lynch.h"

#include <stdexcept>

namespace wlsync::core {

namespace {
constexpr std::int32_t kBcastTimer = WelchLynchProcess::kBcastTimerTag;
constexpr std::int32_t kUpdateTimer = WelchLynchProcess::kUpdateTimerTag;
}  // namespace

WelchLynchProcess::WelchLynchProcess(WelchLynchConfig config)
    : config_(std::move(config)), derived_(derive(config_.params)) {
  if (config_.k_exchanges < 1) {
    throw std::invalid_argument("WelchLynch: k_exchanges must be >= 1");
  }
  if (config_.params.n < 2 * config_.params.f + 1) {
    // reduce() must leave at least one value.  (A2 asks for n >= 3f+1; the
    // weaker check here lets boundary experiments run out-of-spec configs
    // like n = 3f on purpose.)
    throw std::invalid_argument("WelchLynch: need n >= 2f+1 for reduce()");
  }
  label_ = config_.params.T0;
}

void WelchLynchProcess::ensure_arena(const proc::Context& ctx) {
  if (!arena_.bound()) {
    arena_.bind(ctx.neighbors(), ctx.process_count(), kNeverArrived);
    topo_seen_ = ctx.topology_version();
  }
}

void WelchLynchProcess::sync_topology(const proc::Context& ctx) {
  const std::uint32_t version = ctx.topology_version();
  if (version == topo_seen_) return;
  topo_seen_ = version;
  // The exchange graph moved under us: arrivals recorded against the old
  // neighbor view are no longer comparable (a vanished neighbor's slot
  // would masquerade as a live arrival), so discard the window.
  if (arena_.bound()) {
    arena_.bind(ctx.neighbors(), ctx.process_count(), kNeverArrived);
  }
}

// In staggered mode (Section 9.3) process p broadcasts at base + p*sigma and
// everyone's collection window stretches by the full stagger span; the
// plain algorithm is the sigma = 0 special case throughout.

double WelchLynchProcess::broadcast_label(const proc::Context& ctx) const {
  const double base = label_ + static_cast<double>(exchange_) * sub_period(ctx);
  return base + static_cast<double>(ctx.id()) * config_.stagger;
}

double WelchLynchProcess::window_end(const proc::Context& ctx) const {
  const double base = label_ + static_cast<double>(exchange_) * sub_period(ctx);
  const double stagger_span =
      static_cast<double>(ctx.process_count() - 1) * config_.stagger;
  // Section 4.1: (1+rho)(beta+delta+eps) past the round start is just long
  // enough to hear every nonfaulty process; staggered senders are up to
  // (n-1)*sigma later.
  return base + derived_.window + (1.0 + config_.params.rho) * stagger_span;
}

double WelchLynchProcess::sub_period(const proc::Context& ctx) const {
  if (config_.k_exchanges == 1) return config_.params.P;
  // Section 7 variant: k sub-exchanges per round.  Each needs its window
  // plus Lemma 8/12-style margins for the adjustment either way.
  const double stagger_span =
      static_cast<double>(ctx.process_count() - 1) * config_.stagger;
  return derived_.window + (1.0 + config_.params.rho) * stagger_span +
         2.0 * derived_.adj_bound + config_.params.beta + config_.params.eps;
}

void WelchLynchProcess::on_start(proc::Context& ctx) {
  if (started_) return;  // duplicate START: ignore
  started_ = true;
  begin_exchange(ctx);
}

void WelchLynchProcess::begin_exchange(proc::Context& ctx) {
  if (config_.stagger > 0.0 && ctx.id() > 0) {
    ctx.set_timer(broadcast_label(ctx), kBcastTimer);
    ctx.set_timer(window_end(ctx), kUpdateTimer);
  } else {
    do_broadcast(ctx);  // broadcast due now; also arms the update timer
  }
}

void WelchLynchProcess::do_broadcast(proc::Context& ctx) {
  const double base = label_ + static_cast<double>(exchange_) * sub_period(ctx);
  if (exchange_ == 0) {
    ctx.annotate({proc::Annotation::Type::kRoundBegin, round_, base, 0.0});
  }
  // broadcast(T): the value is the round's base label (all senders share
  // it); recipients normalize staggered arrivals by sender id, not value.
  ctx.broadcast(kTimeTag, base, exchange_);
  if (!(config_.stagger > 0.0 && ctx.id() > 0)) {
    ctx.set_timer(window_end(ctx), kUpdateTimer);
  }
}

void WelchLynchProcess::on_timer(proc::Context& ctx, std::int32_t tag) {
  switch (tag) {
    case kBcastTimer:
      // FLAG = BCAST case of Section 4.2.
      if (config_.stagger > 0.0 && ctx.id() > 0) {
        do_broadcast(ctx);  // update timer was armed by begin_exchange
      } else {
        begin_exchange(ctx);
      }
      break;
    case kUpdateTimer:
      // FLAG = UPDATE case of Section 4.2.
      do_update(ctx);
      break;
    default:
      break;  // no applicable cluster (Section 4.2 convention)
  }
}

void WelchLynchProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  // "receive(m) from q: ARR[q] := local-time()" — any ordinary message
  // updates the slot; contents are never inspected by the basic algorithm.
  // In staggered mode a time message from q was sent q*sigma later than the
  // shared base, so subtract the known offset to make arrivals comparable.
  sync_topology(ctx);
  double arrival = ctx.local_time();
  if (config_.stagger > 0.0 && m.tag == kTimeTag) {
    arrival -= static_cast<double>(m.from) * config_.stagger;
  }
  // The bound() probe is inline; the out-of-line bind happens once.
  if (!arena_.bound()) ensure_arena(ctx);
  arena_.record(m.from, arrival);
}

std::size_t WelchLynchProcess::reduce_f(std::int32_t process_count) const {
  return static_cast<std::size_t>(
      local_fault_budget(arena_.size(), process_count, config_.params.f));
}

proc::ArrivalArena::Reduction WelchLynchProcess::reduction() const {
  return config_.averaging == Averaging::kMidpoint
             ? proc::ArrivalArena::Reduction::kMidpoint
             : proc::ArrivalArena::Reduction::kMean;
}

double WelchLynchProcess::update_arena(const proc::Context& ctx) {
  // The multiset is the neighbor view: on the paper's full mesh that is all
  // of ARR; on a sparse exchange graph only neighbors can have arrived, so
  // the arena holds exactly their slots (no gather) and reduces them over
  // its scratch (no allocations).
  const std::size_t f = reduce_f(ctx.process_count());
  return reduction() == proc::ArrivalArena::Reduction::kMidpoint
             ? arena_.midpoint_reduced(f)
             : arena_.mean_reduced(f);
}

bool WelchLynchProcess::window_starved(const proc::Context& ctx) const {
  const std::size_t f = reduce_f(ctx.process_count());
  std::size_t sentinels = 0;
  for (const double v : arena_.values()) {
    sentinels += v == kNeverArrived ? 1 : 0;
  }
  // reduce() clips the f smallest entries; sentinels sort below every real
  // arrival, so the f-th order statistic is a sentinel iff more than f
  // slots hold one.
  return sentinels > f;
}

void WelchLynchProcess::do_update(proc::Context& ctx) {
  const double base = label_ + static_cast<double>(exchange_) * sub_period(ctx);
  // Starvation guard (ROADMAP "do first"): when NIC drops or serialization
  // emptied the collection window, more than f slots still hold the
  // kNeverArrived sentinel and reduce() would hand mid() a ~ -1e300
  // operand, stepping CORR by ~ +0.5e300 in one round.  A process that
  // heard too few peers this round learned nothing it can average — skip
  // the UPDATE exactly like a missed round (no ADJ, no annotation) and
  // rejoin the schedule at the next broadcast.
  ensure_arena(ctx);  // a process that heard nobody still has a view
  sync_topology(ctx);  // a change since the last arrival still resyncs
  if (window_starved(ctx)) {
    ++starved_updates_;
  } else {
    // AV := mid(reduce(ARR)); ADJ := T + delta - AV; CORR := CORR + ADJ.
    const double av = update_arena(ctx);
    const double adj = base + config_.params.delta - av;
    last_av_ = av;
    last_adj_ = adj;
    if (config_.amortize > 0.0) {
      ctx.add_corr_amortized(adj, config_.amortize);
    } else {
      ctx.add_corr(adj);
    }
    ctx.annotate({proc::Annotation::Type::kUpdate, round_, adj, av});
  }

  ++exchange_;
  if (exchange_ >= config_.k_exchanges) {
    // T := T + P; set-timer(T): next round begins on the new clock.
    exchange_ = 0;
    ++round_;
    label_ += config_.params.P;
  }
  if (config_.stagger > 0.0 && ctx.id() > 0) {
    begin_exchange(ctx);  // arms both timers for the staggered next round
  } else {
    const double next = label_ + static_cast<double>(exchange_) * sub_period(ctx);
    ctx.set_timer(next, kBcastTimer);
  }
}

void WelchLynchProcess::resume(proc::Context& ctx, double next_label,
                               std::int32_t next_round) {
  started_ = true;
  exchange_ = 0;
  round_ = next_round;
  label_ = next_label;
  if (config_.stagger > 0.0 && ctx.id() > 0) {
    begin_exchange(ctx);
  } else {
    ctx.set_timer(label_, kBcastTimer);
  }
}

}  // namespace wlsync::core
