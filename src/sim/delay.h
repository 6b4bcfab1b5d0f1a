#pragma once
// Message-delay models (assumption A3: every delay lies in [delta-eps,
// delta+eps]).
//
// The analysis of the paper is worst-case over all delay assignments within
// the band, so we provide both benign (uniform) and extremal/adversarial
// models; the network layer validates that every produced delay respects A3.
//
// Three structural contracts matter beyond the band itself:
//
//   * The row draw.  delays() is the one virtual draw: it fills out[i]
//     with the delay of the message `from` sends to to[i], for every i in
//     list order, consuming the SENDER's private Rng stream exactly as i
//     per-link draws would (a single send is a row of one).  Each model
//     runs its own tight loop, so a broadcast to n recipients costs one
//     virtual call, not n.  The engine checks the band once per row
//     (Simulator::draw_delays).
//
//   * Thread-safety / order-independence.  delays() is const and keeps no
//     per-call state of its own: the conservative PDES engine
//     (engine/pdes.h) and the round fast path's sharded rows evaluate
//     senders concurrently, and bit-identical replay requires that the
//     value for a given (link, draw index) not depend on which thread asks
//     first.  PerLinkDelay therefore derives its fixed per-link value by
//     hashing instead of memoizing first-query draws.
//
//   * Lookahead floors.  Conservative parallel simulation advances a shard
//     while every cross-cut message is provably at least `lookahead` away;
//     that lookahead is the infimum of this model's delays over the cut
//     links, exposed by lower_bound() (per ordered pair) and
//     global_lower_bound() (over all pairs — the floor a Byzantine sender,
//     whose point-to-point sends the topology does not restrict, can
//     reach).  A model that cannot promise a positive floor reports 0 and
//     simply makes the spec ineligible for PDES.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "util/rng.h"

namespace wlsync::sim {

class DelayModel {
 public:
  virtual ~DelayModel() = default;
  /// Delays of one send at send_time: out[i] for the message from -> to[i],
  /// drawn in list order from `rng`, the sender's private randomness.
  /// Each must lie in [delta-eps, delta+eps].  `out` holds to.size()
  /// doubles.
  virtual void delays(std::int32_t from, std::span<const std::int32_t> to,
                      double send_time, util::Rng& rng,
                      double* out) const = 0;
  /// Greatest lower bound of the delays this model can produce on the
  /// ordered link from -> to.  0 (the default) means "no usable floor" and
  /// disqualifies the model from conservative parallel execution.
  [[nodiscard]] virtual double lower_bound(std::int32_t from,
                                           std::int32_t to) const {
    (void)from;
    (void)to;
    return 0.0;
  }
  /// Greatest lower bound over ALL ordered pairs (not just topology edges);
  /// the floor that holds even for adversarial point-to-point sends.
  [[nodiscard]] virtual double global_lower_bound() const { return 0.0; }
};

/// Uniform in [delta-eps, delta+eps]; the benign default.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(double delta, double eps) : delta_(delta), eps_(eps) {}
  void delays(std::int32_t, std::span<const std::int32_t> to, double,
              util::Rng& rng, double* out) const override {
    const double lo = delta_ - eps_;
    const double hi = delta_ + eps_;
    for (std::size_t i = 0; i < to.size(); ++i) out[i] = rng.uniform(lo, hi);
  }
  [[nodiscard]] double lower_bound(std::int32_t, std::int32_t) const override {
    return delta_ - eps_;
  }
  [[nodiscard]] double global_lower_bound() const override {
    return delta_ - eps_;
  }

 private:
  double delta_, eps_;
};

/// Every message takes exactly delta + sign*eps.
class ExtremeDelay final : public DelayModel {
 public:
  ExtremeDelay(double delta, double eps, bool fast)
      : value_(fast ? delta - eps : delta + eps) {}
  void delays(std::int32_t, std::span<const std::int32_t> to, double,
              util::Rng&, double* out) const override {
    std::fill(out, out + to.size(), value_);
  }
  [[nodiscard]] double lower_bound(std::int32_t, std::int32_t) const override {
    return value_;
  }
  [[nodiscard]] double global_lower_bound() const override { return value_; }

 private:
  double value_;
};

/// Each (from, to) link gets a fixed delay, uniform in the band.  Models
/// asymmetric routes; stresses the delta-assumption in AV = T + delta - ...
/// The value is DERIVED (seed hashed with the link), not memoized from
/// first-query draws: every caller — any thread, any query order — reads
/// the same double for the same link, which is what lets sharded engines
/// share one instance.
class PerLinkDelay final : public DelayModel {
 public:
  PerLinkDelay(double delta, double eps, util::Rng rng)
      : delta_(delta), eps_(eps), base_(rng()) {}
  void delays(std::int32_t from, std::span<const std::int32_t> to, double,
              util::Rng&, double* out) const override {
    const std::uint64_t row =
        base_ ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
                 << 32);
    for (std::size_t i = 0; i < to.size(); ++i) {
      std::uint64_t sm =
          row ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(to[i]));
      std::uint64_t z = util::splitmix64_next(sm);
      z = util::splitmix64_next(sm) ^ z;
      const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
      out[i] = (delta_ - eps_) + 2.0 * eps_ * u;
    }
  }
  [[nodiscard]] double lower_bound(std::int32_t, std::int32_t) const override {
    return delta_ - eps_;
  }
  [[nodiscard]] double global_lower_bound() const override {
    return delta_ - eps_;
  }

 private:
  double delta_, eps_;
  std::uint64_t base_;
};

/// Splits recipients: low-id recipients always get the fastest legal delay,
/// high-id recipients the slowest.  An adversarial assignment that maximally
/// biases different processes' arrival-time estimates in opposite
/// directions — the worst case Lemma 5 is proved against.
class SplitDelay final : public DelayModel {
 public:
  SplitDelay(double delta, double eps, std::int32_t pivot)
      : delta_(delta), eps_(eps), pivot_(pivot) {}
  void delays(std::int32_t, std::span<const std::int32_t> to, double,
              util::Rng&, double* out) const override {
    const double fast = delta_ - eps_;
    const double slow = delta_ + eps_;
    for (std::size_t i = 0; i < to.size(); ++i) {
      out[i] = to[i] < pivot_ ? fast : slow;
    }
  }
  [[nodiscard]] double lower_bound(std::int32_t, std::int32_t to) const override {
    return to < pivot_ ? delta_ - eps_ : delta_ + eps_;
  }
  [[nodiscard]] double global_lower_bound() const override {
    // Some recipient below the pivot may exist whenever pivot > 0.
    return pivot_ > 0 ? delta_ - eps_ : delta_ + eps_;
  }

 private:
  double delta_, eps_;
  std::int32_t pivot_;
};

/// Exponentially distributed slack over the fast floor, truncated to the A3
/// band: delay = (delta - eps) + min(Exp(eps/2), 2 eps).  The heavy-ish
/// right tail clusters most messages near the floor — the shape real
/// datagram latencies take — while truncation keeps every draw legal.  The
/// floor delta - eps is exact (infimum of the support), so the model keeps
/// full conservative-lookahead eligibility.
class TruncExpDelay final : public DelayModel {
 public:
  TruncExpDelay(double delta, double eps)
      : lo_(delta - eps), span_(2.0 * eps), mean_(eps / 2.0) {}
  void delays(std::int32_t, std::span<const std::int32_t> to, double,
              util::Rng& rng, double* out) const override {
    for (std::size_t i = 0; i < to.size(); ++i) {
      // Inverse-CDF draw; uniform() < 1 keeps log1p finite.
      const double x = -mean_ * std::log1p(-rng.uniform());
      out[i] = lo_ + std::min(x, span_);
    }
  }
  [[nodiscard]] double lower_bound(std::int32_t, std::int32_t) const override {
    return lo_;
  }
  [[nodiscard]] double global_lower_bound() const override { return lo_; }

 private:
  double lo_, span_, mean_;
};

[[nodiscard]] std::unique_ptr<DelayModel> make_uniform_delay(double delta, double eps);
[[nodiscard]] std::unique_ptr<DelayModel> make_extreme_delay(double delta, double eps,
                                                             bool fast);
[[nodiscard]] std::unique_ptr<DelayModel> make_per_link_delay(double delta, double eps,
                                                              util::Rng rng);
[[nodiscard]] std::unique_ptr<DelayModel> make_split_delay(double delta, double eps,
                                                           std::int32_t pivot);
[[nodiscard]] std::unique_ptr<DelayModel> make_trunc_exp_delay(double delta,
                                                               double eps);

}  // namespace wlsync::sim
