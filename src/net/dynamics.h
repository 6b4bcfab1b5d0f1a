#pragma once
// Time-varying exchange graphs: a declarative schedule of topology and
// membership changes the Simulator applies at exact simulated instants.
//
// Everything before this layer ran on a static graph: the Topology was
// materialized once and adversaries were placed once.  A DynamicsSpec is
// the scenario-facing answer — an ordered list of events
//
//   * kLinkFail / kLinkHeal  — one undirected edge leaves / re-enters the
//     live graph;
//   * kSplit / kMerge        — a whole vertex group is cut off from (or
//     re-attached to) the rest: kSplit removes every live edge crossing
//     the (group, complement) cut, kMerge restores the BASE graph's cut
//     edges (the adjacency the run started with);
//   * kLeave / kRejoin       — process churn: the process goes silent and
//     later re-enters through the core/reintegration machinery.  These do
//     not touch the graph; the analysis layer routes the process through a
//     ChurnProcess (core/reintegration.h) and the events exist in the
//     schedule so the Simulator can count them and the engines can refuse.
//
// The Simulator installs the schedule as tier-2 scenario events in its
// deterministic (time, tier, seq) order (sim/event.h), so the live graph —
// and with it Topology neighbor views, the (deg-1)/3 local-f clamps in
// core/welch_lynch, and every broadcast's recipient list — tracks the
// schedule bit-reproducibly in seed.  Messages already in flight when an
// edge fails still deliver (they are on the wire; A3 constrains channels
// going forward, not retroactively): each delivery-ring item carries its
// recipient.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wlsync::net {

enum class DynamicsKind : std::uint8_t {
  kLinkFail = 0,
  kLinkHeal = 1,
  kSplit = 2,
  kMerge = 3,
  kLeave = 4,
  kRejoin = 5,
};

[[nodiscard]] const char* dynamics_name(DynamicsKind kind) noexcept;

struct DynamicsEvent {
  double at = 0.0;       ///< simulated (real) time the event applies
  DynamicsKind kind = DynamicsKind::kLinkFail;
  std::int32_t a = -1;   ///< link endpoint / churned process id
  std::int32_t b = -1;   ///< link endpoint (links only)
  std::vector<std::int32_t> group;  ///< one side of the cut (split/merge)
};

/// Per-process downtime window extracted from a churn schedule.  A leave
/// with no matching rejoin holds rejoin = kNeverRejoins.
struct ChurnInterval {
  double leave = 0.0;
  double rejoin = 1e300;
};
inline constexpr double kNeverRejoins = 1e300;

/// An ordered schedule of dynamics events.  Builders are chainable:
///
///   net::DynamicsSpec dyn;
///   dyn.fail_link(5.0, 3, 12).heal_link(45.0, 3, 12)
///      .split(100.0, {0, 1, 2, 3}).merge(180.0, {0, 1, 2, 3})
///      .leave(60.0, 7).rejoin(140.0, 7);
///
/// Events need not be appended in time order; the Simulator sorts by
/// (at, insertion index) when installing, so ties resolve in append order.
struct DynamicsSpec {
  std::vector<DynamicsEvent> events;

  DynamicsSpec& fail_link(double at, std::int32_t a, std::int32_t b);
  DynamicsSpec& heal_link(double at, std::int32_t a, std::int32_t b);
  DynamicsSpec& split(double at, std::vector<std::int32_t> group);
  DynamicsSpec& merge(double at, std::vector<std::int32_t> group);
  DynamicsSpec& leave(double at, std::int32_t pid);
  DynamicsSpec& rejoin(double at, std::int32_t pid);

  /// Mass churn: processes `first .. first + count - 1` each leave at
  /// `t0 + i * stagger` and rejoin `downtime` later.  Deterministic by
  /// construction — the wave is a pure function of its arguments.
  DynamicsSpec& churn_wave(double t0, std::int32_t first, std::int32_t count,
                           double downtime, double stagger);

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// True when any event rewrites the live graph (link or partition
  /// events).  Pure-churn schedules leave the topology alone.
  [[nodiscard]] bool topology_changing() const noexcept;

  /// True when any event is process churn (leave/rejoin).
  [[nodiscard]] bool has_churn() const noexcept;

  /// Validates against an n-process system.  Throws std::invalid_argument
  /// when: an id is out of [0, n); an event time is negative; a link event
  /// has a == b; a group is empty, has duplicates, or is not a proper
  /// subset of [0, n); a process's leave/rejoin events do not alternate
  /// starting with leave (in time order); or a rejoin comes earlier than
  /// `min_down` after its leave (reintegration needs a dead window — the
  /// analysis layer passes 2P).
  void validate(std::int32_t n, double min_down) const;
};

/// Per-process downtime windows of a schedule, keyed by process id, each
/// process's intervals sorted by leave time.  An unmatched leave yields
/// rejoin = kNeverRejoins.  Assumes the schedule validates.
[[nodiscard]] std::map<std::int32_t, std::vector<ChurnInterval>> churn_intervals(
    const DynamicsSpec& spec);

}  // namespace wlsync::net
