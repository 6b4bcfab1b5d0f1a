#include "proc/adversaries.h"

#include <algorithm>
#include <numeric>

namespace wlsync::proc {

namespace {
constexpr std::int32_t kSpamTimerTag = 9001;
constexpr std::int32_t kFaceTimerTag = 9002;
}  // namespace

// ----------------------------------------------------------------- Spam ---

void SpamAdversary::schedule_next(AdversaryContext& ctx) {
  const double gap = config_.period * (0.5 + rng_.uniform());
  ctx.set_timer_real(ctx.real_time() + gap, kSpamTimerTag);
}

void SpamAdversary::on_start(Context& ctx) {
  schedule_next(AdversaryContext::from(ctx));
}

void SpamAdversary::on_timer(Context& ctx, std::int32_t tag) {
  if (tag != kSpamTimerTag) return;
  auto& actx = AdversaryContext::from(ctx);
  for (std::int32_t i = 0; i < config_.burst; ++i) {
    const auto to =
        static_cast<std::int32_t>(rng_.below(static_cast<std::uint64_t>(
            ctx.process_count())));
    const double value = rng_.uniform(-config_.value_span, config_.value_span);
    ctx.send(to, config_.tag, value, /*aux=*/0);
  }
  schedule_next(actx);
}

// ------------------------------------------------------------- TwoFaced ---

void TwoFacedAdversary::schedule_attack(AdversaryContext& ctx, double tmin,
                                        double value) {
  const double span = config_.beta;
  if (scoped() && config_.per_target_spread) {
    // One face per victim, arrival fractions interpolated across the
    // in-span window in concatenated early+late list order.
    const std::size_t total =
        config_.early_targets.size() + config_.late_targets.size();
    const double step =
        total > 1 ? (config_.late_frac - config_.early_frac) /
                        static_cast<double>(total - 1)
                  : 0.0;
    std::size_t k = 0;
    for (const std::vector<std::int32_t>* group :
         {&config_.early_targets, &config_.late_targets}) {
      for (std::int32_t to : *group) {
        const double frac = config_.early_frac + static_cast<double>(k) * step;
        const double t = tmin + frac * span;
        add_face({t, value, /*early=*/true, to});
        ctx.set_timer_real(t, kFaceTimerTag);
        ++k;
      }
    }
    return;
  }
  const double t_early = tmin + config_.early_frac * span;
  const double t_late = tmin + config_.late_frac * span;
  add_face({t_early, value, /*early=*/true, /*victim=*/-1});
  add_face({t_late, value, /*early=*/false, /*victim=*/-1});
  ctx.set_timer_real(t_early, kFaceTimerTag);
  ctx.set_timer_real(t_late, kFaceTimerTag);
}

void TwoFacedAdversary::add_face(const Face& face) {
  const auto at = std::upper_bound(
      pending_.begin(), pending_.end(), face.at,
      [](double t, const Face& other) { return t < other.at; });
  pending_.insert(at, face);
}

void TwoFacedAdversary::fire_due_faces(Context& ctx) {
  auto& actx = AdversaryContext::from(ctx);
  const double now = actx.real_time();
  std::size_t due = 0;
  while (due < pending_.size() && pending_[due].at <= now + 1e-12) ++due;
  // A send never re-enters this process (deliveries are events), so
  // pending_ is stable while the due prefix goes out.
  for (std::size_t i = 0; i < due; ++i) {
    const Face& face = pending_[i];
    if (face.victim >= 0) {
      ctx.send(face.victim, config_.tag, face.value, /*aux=*/0);
    } else {
      actx.multicast(face_group(face.early, ctx.process_count()), config_.tag,
                     face.value, /*aux=*/0);
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(due));
}

std::span<const std::int32_t> TwoFacedAdversary::face_group(bool early,
                                                            std::int32_t n) {
  if (scoped()) return early ? config_.early_targets : config_.late_targets;
  if (ids_.size() != static_cast<std::size_t>(n)) {
    ids_.resize(static_cast<std::size_t>(n));
    std::iota(ids_.begin(), ids_.end(), 0);
  }
  // Early face: ids [0, pivot); late face: ids [pivot, honest_end); both
  // clipped to the registered ids.
  const std::int32_t lo = early ? 0 : std::clamp(config_.pivot, 0, n);
  const std::int32_t hi =
      std::clamp(early ? config_.pivot : config_.honest_end, lo, n);
  return std::span<const std::int32_t>(ids_).subspan(
      static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo));
}

void TwoFacedAdversary::retune(double early_frac, double late_frac) {
  config_.early_frac = std::clamp(early_frac, 0.0, 1.0);
  config_.late_frac = std::clamp(late_frac, 0.0, 1.0);
}

void TwoFacedAdversary::on_start(Context& ctx) {
  if (config_.first_tmin >= 0.0) {
    // Strike the very first round off the known A4 schedule.
    schedule_attack(AdversaryContext::from(ctx), config_.first_tmin,
                    config_.first_label);
  }
}

void TwoFacedAdversary::on_message(Context& ctx, const sim::Message& m) {
  if (m.tag != config_.tag) return;
  if (m.value <= last_value_) return;  // label already handled
  last_value_ = m.value;
  // First arrival of round/exchange `m.value`: its sender is that
  // exchange's earliest broadcaster, so the *same* exchange of the next
  // round begins ~ now - delta + P (the schedule is P-periodic, which also
  // covers every sub-exchange of the Section 7 k-exchange variant).  Time
  // the two faces so that after the ~delta transit they land inside the
  // honest arrival span [tmin + delta - eps, tmin + beta + delta + eps].
  auto& actx = AdversaryContext::from(ctx);
  const double next_tmin = actx.real_time() - config_.delta + config_.P;
  schedule_attack(actx, next_tmin, m.value + config_.P);
}

void TwoFacedAdversary::on_timer(Context& ctx, std::int32_t tag) {
  if (tag == kFaceTimerTag) fire_due_faces(ctx);
}

}  // namespace wlsync::proc
