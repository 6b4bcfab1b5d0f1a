#include "baselines/srikanth_toueg.h"

#include <algorithm>

namespace wlsync::baselines {

namespace {
constexpr std::int32_t kRoundTimer = 1;
}

void SrikanthTouegProcess::on_start(proc::Context& ctx) {
  if (started_) return;
  started_ = true;
  // First broadcast when the logical clock reaches T0 + P (round 1).
  ctx.set_timer(params_.round_label(1), kRoundTimer);
}

void SrikanthTouegProcess::maybe_broadcast(proc::Context& ctx, std::int32_t k) {
  if (sent_.contains(k)) return;
  sent_.insert(k);
  ctx.broadcast(kTickTag, 0.0, k);
  // Annotate 0-based so analysis round indices line up with other algorithms
  // (ST's first broadcast is its round "k = 1").
  ctx.annotate(
      {proc::Annotation::Type::kRoundBegin, k - 1, ctx.local_time(), 0.0});
}

void SrikanthTouegProcess::on_timer(proc::Context& ctx, std::int32_t) {
  // The clock reached the next round label.
  const std::int32_t k = accepted_ + 1;
  maybe_broadcast(ctx, k);
}

SrikanthTouegProcess::RoundTally& SrikanthTouegProcess::tally_for(
    std::int32_t k) {
  // Pending rounds stay ascending; in steady state there are one or two, so
  // the scan is a couple of comparisons.
  auto it = std::lower_bound(
      active_.begin(), active_.end(), k,
      [](const RoundTally& t, std::int32_t round) { return t.round < round; });
  if (it != active_.end() && it->round == k) return *it;
  RoundTally fresh;
  if (!free_.empty()) {
    fresh = std::move(free_.back());  // retains seen/extras capacity
    free_.pop_back();
  }
  fresh.round = k;
  fresh.seen.reset(index_.size());
  fresh.extras.clear();
  return *active_.insert(it, std::move(fresh));
}

std::int32_t SrikanthTouegProcess::note_sender(proc::Context& ctx,
                                               std::int32_t k,
                                               std::int32_t from) {
  if (!index_.bound()) index_.bind(ctx.neighbors(), ctx.process_count());
  RoundTally& tally = tally_for(k);
  const std::int32_t slot = index_.slot_of(from);
  if (slot >= 0) {
    tally.seen.insert(slot);
  } else if (std::find(tally.extras.begin(), tally.extras.end(), from) ==
             tally.extras.end()) {
    // Point-to-point send from outside the neighborhood (an adversary
    // power): a distinct sender all the same, so it counts.
    tally.extras.push_back(from);
  }
  return tally.seen.count() + static_cast<std::int32_t>(tally.extras.size());
}

void SrikanthTouegProcess::drop_through(std::int32_t k) {
  auto it = active_.begin();
  while (it != active_.end() && it->round <= k) {
    free_.push_back(std::move(*it));  // recycle the bitset storage
    it = active_.erase(it);
  }
}

void SrikanthTouegProcess::on_message(proc::Context& ctx, const sim::Message& m) {
  if (m.tag != kTickTag) return;
  const std::int32_t k = m.aux;
  if (k <= accepted_) return;  // stale round
  const std::int32_t count = note_sender(ctx, k, m.from);
  // Quorums are f-based, but a process can only ever hear its exchange-graph
  // neighbors: clamp so sparse topologies (neighbor view < 2f+1) degrade to
  // neighborhood-unanimity instead of deadlocking.  On the paper's full
  // mesh (n >= 3f+1 neighbors) the clamps are no-ops.
  const std::int32_t accept_quorum =
      std::min(2 * params_.f + 1, ctx.neighbor_count());
  const std::int32_t relay_quorum = std::min(params_.f + 1, accept_quorum);
  if (count >= relay_quorum) {
    // Enough distinct senders include an honest one: join the broadcast even
    // if our own clock has not reached kP yet (the relay rule).
    maybe_broadcast(ctx, k);
  }
  if (count >= accept_quorum) accept(ctx, k);
}

void SrikanthTouegProcess::accept(proc::Context& ctx, std::int32_t k) {
  // Resynchronize: the earliest honest (round k) broadcast left when its
  // sender's clock read kP, about delta ago.
  const double target = params_.round_label(k) + params_.delta;
  const double adj = target - ctx.local_time();
  last_adj_ = adj;
  ctx.add_corr(adj);
  accepted_ = k;
  drop_through(k);
  ctx.annotate({proc::Annotation::Type::kUpdate, k - 1, adj, 0.0});
  // Schedule the next round on the new clock.
  ctx.set_timer(params_.round_label(k + 1), kRoundTimer);
}

}  // namespace wlsync::baselines
