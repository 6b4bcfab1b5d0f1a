#pragma once
// The interface a process transition sees (Section 2.1).
//
// At a step, a process receives a message, reads its physical clock, changes
// state, sends messages, and sets timers.  Context is exactly that window
// onto the system: it never exposes real time or other processes' state to a
// nonfaulty process.  Faulty processes (assumption A2: Byzantine) receive an
// AdversaryContext instead, which adds the powers the model grants them —
// taking steps whenever they like and sending anything to anyone — while
// still routing messages through the network (they cannot control delays).

#include <cstdint>
#include <span>

#include "sim/message.h"

namespace wlsync::proc {

/// Marker emitted by algorithms so analysis code can observe round
/// structure without reaching into process internals.
struct Annotation {
  enum class Type : std::uint8_t {
    kRoundBegin = 0,  ///< logical clock reached T^i; broadcast sent
    kUpdate = 1,      ///< CORR adjusted at U^i (value = ADJ, value2 = AV)
    kJoined = 2,      ///< reintegration complete
    kCustom = 3,
  };
  Type type = Type::kCustom;
  std::int32_t round = 0;
  double value = 0.0;
  double value2 = 0.0;
};

class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual std::int32_t id() const = 0;
  [[nodiscard]] virtual std::int32_t process_count() const = 0;

  /// The processes this one exchanges messages with (its closed
  /// neighborhood in the exchange graph, itself included), sorted by id.
  /// In the paper's fully connected model this is every process; under a
  /// sparse net::Topology algorithms must size their quorums and averages
  /// from this view instead of process_count().
  [[nodiscard]] virtual std::span<const std::int32_t> neighbors() const = 0;

  /// neighbors().size() as the std::int32_t the quorum arithmetic wants.
  [[nodiscard]] std::int32_t neighbor_count() const {
    return static_cast<std::int32_t>(neighbors().size());
  }

  /// Version counter of the exchange graph behind neighbors().  0 forever
  /// on a static graph; under a net/dynamics.h schedule the simulator
  /// bumps it whenever the live graph changes, and algorithms holding
  /// neighbor-derived state (arrival windows, local-f clamps) compare it
  /// against the version they last built that state for.  Non-virtual:
  /// contexts that track dynamics stamp the protected member at
  /// construction; everyone else leaves the static default.
  [[nodiscard]] std::uint32_t topology_version() const noexcept {
    return topology_version_;
  }

  /// Current physical clock reading Ph_p (read-only, Section 2.1).
  [[nodiscard]] virtual double physical_time() const = 0;

  /// local-time() of Section 4.2: physical clock + CORR.
  [[nodiscard]] virtual double local_time() const = 0;

  /// Current value of the CORR variable.
  [[nodiscard]] virtual double corr() const = 0;

  /// CORR := CORR + adj (instantaneous, the basic algorithm's update).
  virtual void add_corr(double adj) = 0;

  /// CORR := CORR + adj, with the *displayed* local time slewed linearly
  /// over `duration` local seconds (Section 4.1's stretched adjustment).
  /// Timer arithmetic uses the post-adjustment clock immediately.
  virtual void add_corr_amortized(double adj, double duration) = 0;

  /// broadcast(m): send to every process, including self (Section 2.2).
  virtual void broadcast(std::int32_t tag, double value, std::int32_t aux) = 0;

  /// Point-to-point send (the model is fully connected).
  virtual void send(std::int32_t to, std::int32_t tag, double value,
                    std::int32_t aux) = 0;

  /// set-timer(T): timer fires when the *logical* clock reaches T, i.e. when
  /// the physical clock reaches T - CORR (Section 4.2).  If that real time
  /// is already past, no timer is placed (Section 2.2).
  virtual void set_timer(double logical_time, std::int32_t tag) = 0;

  /// Timer on the raw physical clock (used by start-up orientation logic).
  virtual void set_timer_physical(double physical_time, std::int32_t tag) = 0;

  /// Emits an annotation to any attached trace sinks.
  virtual void annotate(const Annotation& annotation) = 0;

 protected:
  std::uint32_t topology_version_ = 0;  ///< see topology_version()
};

/// Extra powers for Byzantine processes.  The simulator hands this subclass
/// to processes registered as faulty; `AdversaryContext::from` asserts the
/// downcast.
class AdversaryContext : public Context {
 public:
  /// Real time — an omniscient adversary schedules against the real clock.
  [[nodiscard]] virtual double real_time() const = 0;

  /// Wake up at an arbitrary real time (faulty processes "can choose when
  /// they take steps", Section 2.3).
  virtual void set_timer_real(double real_time, std::int32_t tag) = 0;

  /// Sends one message to each id in `ids` (any ids, in list order, repeats
  /// allowed): observably exactly one send() per id — delays drawn in list
  /// order, seqs from the same per-sender block, on_send per recipient —
  /// in one call, like broadcast().  Every id is validated before any delay
  /// is drawn or seq allocated.
  virtual void multicast(std::span<const std::int32_t> ids, std::int32_t tag,
                         double value, std::int32_t aux) = 0;

  [[nodiscard]] static AdversaryContext& from(Context& ctx);
};

}  // namespace wlsync::proc
