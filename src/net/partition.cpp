#include "net/partition.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>

#include "util/rng.h"

namespace wlsync::net {
namespace {

constexpr std::int32_t kUnassigned = -1;
constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max();

/// BFS hop distance treated as "infinitely far" for unreachable nodes, so
/// farthest-point sampling lands one seed in each component before it starts
/// subdividing any single one.
[[nodiscard]] std::int32_t hop(std::span<const std::int32_t> row,
                               std::int32_t v) {
  const std::int32_t d = row[static_cast<std::size_t>(v)];
  return d < 0 ? kInf : d;
}

/// Farthest-point seed placement.  The first seed is the rng's one draw —
/// a structural cut candidate when the topology has any (articulation
/// points / bridge endpoints), otherwise any node.  Each later seed
/// maximizes hop distance to the chosen set, preferring structural
/// candidates at equal distance, then the lowest id.
[[nodiscard]] std::vector<std::int32_t> pick_seeds(const Topology& topo,
                                                   std::int32_t k,
                                                   std::uint64_t seed) {
  const std::int32_t n = topo.n();
  const Topology::CutStructure cuts = topo.cut_structure();
  std::vector<char> structural(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> candidates = cuts.articulation;
  candidates.insert(candidates.end(), cuts.bridge_ends.begin(),
                    cuts.bridge_ends.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const std::int32_t v : candidates) {
    structural[static_cast<std::size_t>(v)] = 1;
  }

  util::Rng rng(seed);
  std::vector<std::int32_t> seeds;
  seeds.reserve(static_cast<std::size_t>(k));
  seeds.push_back(candidates.empty()
                      ? static_cast<std::int32_t>(
                            rng.below(static_cast<std::uint64_t>(n)))
                      : candidates[rng.below(candidates.size())]);

  // min hop distance from each node to the seed set, updated incrementally.
  std::vector<std::int32_t> nearest(static_cast<std::size_t>(n));
  {
    const auto row = topo.distances_from(seeds.back());
    for (std::int32_t v = 0; v < n; ++v) nearest[v] = hop(row, v);
  }
  while (static_cast<std::int32_t>(seeds.size()) < k) {
    std::int32_t best = -1;
    std::int32_t best_d = -1;
    for (std::int32_t v = 0; v < n; ++v) {
      if (nearest[v] == 0) continue;  // already a seed
      const std::int32_t d = nearest[v];
      const bool wins =
          d > best_d ||
          (d == best_d && best >= 0 &&
           structural[static_cast<std::size_t>(v)] >
               structural[static_cast<std::size_t>(best)]);
      if (wins) {
        best = v;
        best_d = d;
      }
    }
    if (best < 0) {
      // Fewer distinct positions than shards requested (tiny graphs): pad
      // with the lowest unused ids so every shard still owns one node.
      for (std::int32_t v = 0; v < n && static_cast<std::int32_t>(
                                            seeds.size()) < k;
           ++v) {
        if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
          seeds.push_back(v);
        }
      }
      break;
    }
    seeds.push_back(best);
    const auto row = topo.distances_from(best);
    for (std::int32_t v = 0; v < n; ++v) {
      nearest[v] = std::min(nearest[v], hop(row, v));
    }
  }
  return seeds;
}

/// Balanced multi-source BFS: the smallest shard with a live frontier claims
/// its next unassigned frontier node (ties: lowest shard id), so regions grow
/// in lockstep and each shard stays connected by construction.
void grow_regions(const Topology& topo, const std::vector<std::int32_t>& seeds,
                  std::vector<std::int32_t>& shard_of,
                  std::vector<std::int32_t>& sizes) {
  const std::int32_t k = static_cast<std::int32_t>(seeds.size());
  std::vector<std::deque<std::int32_t>> frontier(
      static_cast<std::size_t>(k));
  for (std::int32_t s = 0; s < k; ++s) {
    shard_of[static_cast<std::size_t>(seeds[s])] = s;
    sizes[static_cast<std::size_t>(s)] = 1;
    for (const std::int32_t w : topo.neighbors(seeds[s])) {
      if (w != seeds[s]) frontier[static_cast<std::size_t>(s)].push_back(w);
    }
  }
  for (;;) {
    std::int32_t s = -1;
    for (std::int32_t c = 0; c < k; ++c) {
      if (frontier[static_cast<std::size_t>(c)].empty()) continue;
      if (s < 0 || sizes[static_cast<std::size_t>(c)] <
                       sizes[static_cast<std::size_t>(s)]) {
        s = c;
      }
    }
    if (s < 0) break;
    auto& queue = frontier[static_cast<std::size_t>(s)];
    bool claimed = false;
    while (!queue.empty() && !claimed) {
      const std::int32_t v = queue.front();
      queue.pop_front();
      if (shard_of[static_cast<std::size_t>(v)] != kUnassigned) continue;
      shard_of[static_cast<std::size_t>(v)] = s;
      ++sizes[static_cast<std::size_t>(s)];
      for (const std::int32_t w : topo.neighbors(v)) {
        if (w != v && shard_of[static_cast<std::size_t>(w)] == kUnassigned) {
          queue.push_back(w);
        }
      }
      claimed = true;
    }
  }
}

/// Disconnected input only: each stray component (unreachable from every
/// seed) is attached wholesale to the currently smallest shard.
void absorb_stray_components(const Topology& topo,
                             std::vector<std::int32_t>& shard_of,
                             std::vector<std::int32_t>& sizes) {
  const std::int32_t n = static_cast<std::int32_t>(shard_of.size());
  std::deque<std::int32_t> queue;
  for (std::int32_t v = 0; v < n; ++v) {
    if (shard_of[static_cast<std::size_t>(v)] != kUnassigned) continue;
    const auto smallest = std::min_element(sizes.begin(), sizes.end());
    const std::int32_t s =
        static_cast<std::int32_t>(smallest - sizes.begin());
    queue.clear();
    queue.push_back(v);
    shard_of[static_cast<std::size_t>(v)] = s;
    ++*smallest;
    while (!queue.empty()) {
      const std::int32_t u = queue.front();
      queue.pop_front();
      for (const std::int32_t w : topo.neighbors(u)) {
        if (w != u && shard_of[static_cast<std::size_t>(w)] == kUnassigned) {
          shard_of[static_cast<std::size_t>(w)] = s;
          ++sizes[static_cast<std::size_t>(s)];
          queue.push_back(w);
        }
      }
    }
  }
}

/// True when every shard's induced subgraph is connected.  Used to validate
/// (and possibly roll back) the refinement pass; growth-phase assignments
/// are connected by construction.
[[nodiscard]] bool shards_connected(const Topology& topo,
                                    const std::vector<std::int32_t>& shard_of,
                                    std::int32_t k) {
  const std::int32_t n = static_cast<std::int32_t>(shard_of.size());
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> reached(static_cast<std::size_t>(k), 0);
  std::vector<std::int32_t> total(static_cast<std::size_t>(k), 0);
  for (std::int32_t v = 0; v < n; ++v) {
    ++total[static_cast<std::size_t>(shard_of[static_cast<std::size_t>(v)])];
  }
  std::deque<std::int32_t> queue;
  for (std::int32_t v = 0; v < n; ++v) {
    const std::int32_t s = shard_of[static_cast<std::size_t>(v)];
    if (seen[static_cast<std::size_t>(v)] ||
        reached[static_cast<std::size_t>(s)] != 0) {
      continue;  // not the first visit into this shard
    }
    queue.clear();
    queue.push_back(v);
    seen[static_cast<std::size_t>(v)] = 1;
    std::int32_t count = 0;
    while (!queue.empty()) {
      const std::int32_t u = queue.front();
      queue.pop_front();
      ++count;
      for (const std::int32_t w : topo.neighbors(u)) {
        if (w == u || seen[static_cast<std::size_t>(w)] ||
            shard_of[static_cast<std::size_t>(w)] != s) {
          continue;
        }
        seen[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
    reached[static_cast<std::size_t>(s)] = count;
  }
  for (std::int32_t s = 0; s < k; ++s) {
    if (reached[static_cast<std::size_t>(s)] !=
        total[static_cast<std::size_t>(s)]) {
      return false;
    }
  }
  return true;
}

/// Kernighan-Lin-flavored boundary refinement: move a node to the adjacent
/// shard holding strictly more of its neighbors, when that also respects the
/// balance cap.  Pure cut reduction, deterministic (id order), few passes.
void refine(const Topology& topo, std::vector<std::int32_t>& shard_of,
            std::vector<std::int32_t>& sizes, std::int32_t k) {
  // On a complete graph cut and balance are directly opposed (the cut
  // sum_{s<t} |s||t| shrinks exactly as the shards unbalance), so every
  // "improving" move here would drain the growth phase's perfectly
  // balanced assignment toward one big shard.  No cut is better than any
  // other at equal sizes — keep the balanced one.
  if (topo.is_full_mesh()) return;
  const std::int32_t n = static_cast<std::int32_t>(shard_of.size());
  const std::int32_t cap =
      (n + k - 1) / k + std::max<std::int32_t>(2, n / (8 * k));
  std::vector<std::int32_t> links(static_cast<std::size_t>(k));
  for (int pass = 0; pass < 4; ++pass) {
    bool moved = false;
    for (std::int32_t v = 0; v < n; ++v) {
      const std::int32_t from = shard_of[static_cast<std::size_t>(v)];
      if (sizes[static_cast<std::size_t>(from)] <= 1) continue;
      std::fill(links.begin(), links.end(), 0);
      for (const std::int32_t w : topo.neighbors(v)) {
        if (w != v) {
          ++links[static_cast<std::size_t>(
              shard_of[static_cast<std::size_t>(w)])];
        }
      }
      std::int32_t to = from;
      std::int32_t best_links = links[static_cast<std::size_t>(from)];
      for (std::int32_t s = 0; s < k; ++s) {
        if (s == from || sizes[static_cast<std::size_t>(s)] >= cap) continue;
        if (links[static_cast<std::size_t>(s)] > best_links) {
          to = s;
          best_links = links[static_cast<std::size_t>(s)];
        }
      }
      if (to != from) {
        shard_of[static_cast<std::size_t>(v)] = to;
        --sizes[static_cast<std::size_t>(from)];
        ++sizes[static_cast<std::size_t>(to)];
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

Partition partition_topology(const Topology& topo, std::int32_t k,
                             std::uint64_t seed) {
  const std::int32_t n = topo.n();
  if (n <= 0) {
    throw std::invalid_argument("partition_topology: empty topology");
  }
  Partition part;
  part.k = std::clamp<std::int32_t>(k, 1, n);
  part.shard_of.assign(static_cast<std::size_t>(n), kUnassigned);
  part.shard_sizes.assign(static_cast<std::size_t>(part.k), 0);

  part.boundary.assign(static_cast<std::size_t>(n), 0);
  part.shard_cuts.assign(static_cast<std::size_t>(part.k), {});

  if (part.k == 1) {
    std::fill(part.shard_of.begin(), part.shard_of.end(), 0);
    part.shard_sizes[0] = n;
    return part;
  }

  const std::vector<std::int32_t> seeds = pick_seeds(topo, part.k, seed);
  grow_regions(topo, seeds, part.shard_of, part.shard_sizes);
  absorb_stray_components(topo, part.shard_of, part.shard_sizes);

  // Refine on a copy; adopt only if no shard got disconnected.
  std::vector<std::int32_t> refined = part.shard_of;
  std::vector<std::int32_t> refined_sizes = part.shard_sizes;
  refine(topo, refined, refined_sizes, part.k);
  if (refined != part.shard_of &&
      shards_connected(topo, refined, part.k)) {
    part.shard_of = std::move(refined);
    part.shard_sizes = std::move(refined_sizes);
  }

  for (std::int32_t u = 0; u < n; ++u) {
    const std::int32_t su = part.shard_of[static_cast<std::size_t>(u)];
    for (const std::int32_t v : topo.neighbors(u)) {
      if (v <= u) continue;  // one direction per undirected edge, no loops
      const std::int32_t sv = part.shard_of[static_cast<std::size_t>(v)];
      if (su != sv) {
        const auto e = static_cast<std::int32_t>(part.cut_edges.size());
        part.cut_edges.emplace_back(u, v);
        part.shard_cuts[static_cast<std::size_t>(su)].push_back(e);
        part.shard_cuts[static_cast<std::size_t>(sv)].push_back(e);
        part.boundary[static_cast<std::size_t>(u)] = 1;
        part.boundary[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return part;
}

}  // namespace wlsync::net
