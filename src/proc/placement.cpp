#include "proc/placement.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/rng.h"

namespace wlsync::proc {

namespace {

/// Appends ids from `candidates` (in order) that are not yet chosen, until
/// `chosen` reaches `count`.
void take_from(std::vector<std::int32_t>& chosen, std::vector<char>& used,
               const std::vector<std::int32_t>& candidates, std::int32_t count) {
  for (std::int32_t id : candidates) {
    if (static_cast<std::int32_t>(chosen.size()) >= count) return;
    if (!used[static_cast<std::size_t>(id)]) {
      used[static_cast<std::size_t>(id)] = 1;
      chosen.push_back(id);
    }
  }
}

std::vector<std::int32_t> antipodal_set(const net::Topology& topo,
                                        std::int32_t count) {
  // Greedy k-center: seed with the smallest id realizing the diameter, then
  // repeatedly add the node with the largest min-distance to the chosen set.
  const std::int32_t n = topo.n();
  const std::int32_t diam = topo.diameter();
  if (diam < 0) {
    // The -1 distance sentinels of an unreachable component would compare
    // below already-chosen nodes (min-distance 0) and re-select duplicates.
    throw std::invalid_argument(
        "place_faults: kAntipodal needs a connected topology");
  }
  std::int32_t first = 0;
  for (std::int32_t p = 0; p < n; ++p) {
    if (topo.eccentricity(p) == diam) {
      first = p;
      break;
    }
  }
  std::vector<std::int32_t> chosen{first};
  const std::span<const std::int32_t> first_row = topo.distances_from(first);
  std::vector<std::int32_t> min_dist(first_row.begin(), first_row.end());
  while (static_cast<std::int32_t>(chosen.size()) < count) {
    std::int32_t best = -1;
    std::int32_t best_dist = -1;
    for (std::int32_t p = 0; p < n; ++p) {
      if (min_dist[static_cast<std::size_t>(p)] > best_dist) {
        best = p;
        best_dist = min_dist[static_cast<std::size_t>(p)];
      }
    }
    chosen.push_back(best);
    const std::span<const std::int32_t> row = topo.distances_from(best);
    for (std::int32_t p = 0; p < n; ++p) {
      min_dist[static_cast<std::size_t>(p)] =
          std::min(min_dist[static_cast<std::size_t>(p)],
                   row[static_cast<std::size_t>(p)]);
    }
  }
  return chosen;
}

}  // namespace

const char* placement_name(PlacementKind kind) noexcept {
  switch (kind) {
    case PlacementKind::kTrailing: return "trailing";
    case PlacementKind::kRandom: return "random";
    case PlacementKind::kMaxDegree: return "max-degree";
    case PlacementKind::kArticulation: return "articulation";
    case PlacementKind::kBridge: return "bridge";
    case PlacementKind::kAntipodal: return "antipodal";
  }
  return "?";
}

std::vector<std::int32_t> place_faults(const net::Topology& topo,
                                       PlacementKind kind, std::int32_t count,
                                       std::uint64_t seed) {
  const std::int32_t n = topo.n();
  if (count < 0 || count > n) {
    throw std::invalid_argument("place_faults: count out of range");
  }
  if (count == 0) return {};

  switch (kind) {
    case PlacementKind::kTrailing: {
      std::vector<std::int32_t> chosen;
      for (std::int32_t id = n - count; id < n; ++id) chosen.push_back(id);
      return chosen;
    }
    case PlacementKind::kRandom: {
      // Partial Fisher-Yates over 0..n-1: the first `count` entries.
      std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
      for (std::int32_t p = 0; p < n; ++p) ids[static_cast<std::size_t>(p)] = p;
      util::Rng rng(seed);
      for (std::int32_t i = 0; i < count; ++i) {
        const auto j = i + static_cast<std::int32_t>(rng.below(
                               static_cast<std::uint64_t>(n - i)));
        std::swap(ids[static_cast<std::size_t>(i)],
                  ids[static_cast<std::size_t>(j)]);
      }
      ids.resize(static_cast<std::size_t>(count));
      return ids;
    }
    case PlacementKind::kMaxDegree: {
      std::vector<std::int32_t> chosen;
      std::vector<char> used(static_cast<std::size_t>(n), 0);
      take_from(chosen, used, topo.degree_ranking(), count);
      return chosen;
    }
    case PlacementKind::kArticulation: {
      std::vector<std::int32_t> chosen;
      std::vector<char> used(static_cast<std::size_t>(n), 0);
      const net::Topology::CutStructure cut = topo.cut_structure();
      take_from(chosen, used, cut.articulation, count);
      take_from(chosen, used, cut.bridge_ends, count);
      take_from(chosen, used, topo.degree_ranking(), count);
      return chosen;
    }
    case PlacementKind::kBridge: {
      std::vector<std::int32_t> chosen;
      std::vector<char> used(static_cast<std::size_t>(n), 0);
      take_from(chosen, used, topo.bridge_endpoints(), count);
      take_from(chosen, used, topo.degree_ranking(), count);
      return chosen;
    }
    case PlacementKind::kAntipodal:
      return antipodal_set(topo, count);
  }
  throw std::invalid_argument("place_faults: unknown PlacementKind");
}

}  // namespace wlsync::proc
