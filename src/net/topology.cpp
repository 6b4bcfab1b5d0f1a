#include "net/topology.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace wlsync::net {

namespace {

void require_positive_n(std::int32_t n) {
  if (n < 1) throw std::invalid_argument("Topology: need n >= 1");
}

}  // namespace

template <class Emit>
Topology Topology::pack(std::int32_t n, const Emit& emit) {
  const auto count = static_cast<std::size_t>(n);
  // Pass 1: row lengths before deduplication — both ends of every arc plus
  // the self-loop — prefix-summed into row starts.
  std::vector<std::size_t> start(count + 1, 0);
  emit([&](std::int32_t p, std::int32_t q) {
    ++start[static_cast<std::size_t>(p) + 1];
    ++start[static_cast<std::size_t>(q) + 1];
  });
  for (std::size_t p = 0; p < count; ++p) start[p + 1] += start[p] + 1;
  // Pass 2: scatter, then sort and deduplicate each row, compacting the
  // rows toward the front as they shrink.
  std::vector<std::int32_t> raw(start[count]);
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  for (std::size_t p = 0; p < count; ++p) {
    raw[cursor[p]++] = static_cast<std::int32_t>(p);
  }
  emit([&](std::int32_t p, std::int32_t q) {
    raw[cursor[static_cast<std::size_t>(p)]++] = q;
    raw[cursor[static_cast<std::size_t>(q)]++] = p;
  });
  Topology topo;
  topo.n_ = n;
  topo.offsets_.resize(count + 1);
  std::size_t out = 0;
  for (std::size_t p = 0; p < count; ++p) {
    topo.offsets_[p] = static_cast<std::int32_t>(out);
    const auto first = raw.begin() + static_cast<std::ptrdiff_t>(start[p]);
    auto last = raw.begin() + static_cast<std::ptrdiff_t>(start[p + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    const auto dest = raw.begin() + static_cast<std::ptrdiff_t>(out);
    if (dest != first) std::copy(first, last, dest);
    out += static_cast<std::size_t>(last - first);
  }
  if (out == count * count) return full_mesh(n);  // every row is 0..n-1
  topo.offsets_[count] = static_cast<std::int32_t>(out);
  topo.targets_.assign(raw.begin(),
                       raw.begin() + static_cast<std::ptrdiff_t>(out));
  return topo;
}

Topology Topology::full_mesh(std::int32_t n) {
  require_positive_n(n);
  Topology topo;
  topo.n_ = n;
  topo.mesh_ = true;
  topo.targets_.resize(static_cast<std::size_t>(n));
  for (std::int32_t q = 0; q < n; ++q) {
    topo.targets_[static_cast<std::size_t>(q)] = q;
  }
  return topo;
}

Topology Topology::ring_of_cliques(std::int32_t n, std::int32_t clique_size) {
  require_positive_n(n);
  if (clique_size < 1) {
    throw std::invalid_argument("Topology: need clique_size >= 1");
  }
  const std::int32_t cliques = (n + clique_size - 1) / clique_size;
  return pack(n, [&](const auto& add) {
    for (std::int32_t c = 0; c < cliques; ++c) {
      const std::int32_t lo = c * clique_size;
      const std::int32_t hi = std::min(n, lo + clique_size);
      for (std::int32_t p = lo; p < hi; ++p) {
        for (std::int32_t q = p + 1; q < hi; ++q) add(p, q);
      }
      if (cliques > 1) {
        // Bridge: last node of this clique to the first node of the next.
        add(hi - 1, ((c + 1) % cliques) * clique_size);
      }
    }
  });
}

Topology Topology::k_regular(std::int32_t n, std::int32_t degree,
                             std::uint64_t seed) {
  require_positive_n(n);
  if (degree < 2) throw std::invalid_argument("Topology: need degree >= 2");
  std::vector<std::int32_t> strides{1};  // the connectivity-guaranteeing ring
  util::Rng rng(seed);
  const std::int32_t wanted = std::max(1, degree / 2);
  // n/2 caps the number of distinct strides; stop when the id space is used up.
  for (int attempts = 0;
       static_cast<std::int32_t>(strides.size()) < wanted &&
       attempts < 64 * wanted && n > 4;
       ++attempts) {
    const std::int32_t stride =
        2 + static_cast<std::int32_t>(rng.below(
                static_cast<std::uint64_t>(n / 2 - 1 > 0 ? n / 2 - 1 : 1)));
    if (std::find(strides.begin(), strides.end(), stride) == strides.end()) {
      strides.push_back(stride);
    }
  }
  // Edge p <-> p + s (mod n) per stride; the symmetric closure supplies
  // p <-> p - s.
  return pack(n, [&](const auto& add) {
    for (std::int32_t p = 0; p < n; ++p) {
      for (std::int32_t s : strides) add(p, (p + s) % n);
    }
  });
}

Topology Topology::from_adjacency(
    const std::vector<std::vector<std::int32_t>>& lists) {
  const auto n = static_cast<std::int32_t>(lists.size());
  require_positive_n(n);
  for (const auto& list : lists) {
    for (std::int32_t q : list) {
      if (q < 0 || q >= n) {
        throw std::invalid_argument("Topology: neighbor id out of range");
      }
    }
  }
  return pack(n, [&](const auto& add) {
    for (std::int32_t p = 0; p < n; ++p) {
      for (std::int32_t q : lists[static_cast<std::size_t>(p)]) add(p, q);
    }
  });
}

void Topology::ensure_distance_row(std::int32_t p) const {
  if (dist_cache_.empty()) {
    dist_cache_.resize(static_cast<std::size_t>(n()));
  }
  std::vector<std::int32_t>& row = dist_cache_[static_cast<std::size_t>(p)];
  if (!row.empty()) return;
  row.assign(static_cast<std::size_t>(n()), -1);
  row[static_cast<std::size_t>(p)] = 0;
  std::vector<std::int32_t> frontier{p};
  std::vector<std::int32_t> next;
  for (std::int32_t d = 1; !frontier.empty(); ++d) {
    next.clear();
    for (std::int32_t u : frontier) {
      for (std::int32_t v : neighbors(u)) {
        if (row[static_cast<std::size_t>(v)] < 0) {
          row[static_cast<std::size_t>(v)] = d;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
}

std::span<const std::int32_t> Topology::distances_from(std::int32_t p) const {
  if (p < 0 || p >= n()) {
    throw std::invalid_argument("Topology::distances_from: id out of range");
  }
  const auto count = static_cast<std::size_t>(n());
  if (is_full_mesh()) {  // every node is one hop away: no BFS, no row
    if (mesh_strip_.empty()) {
      mesh_strip_.assign(2 * count - 1, 1);
      mesh_strip_[count - 1] = 0;
    }
    return {mesh_strip_.data() + (count - 1 - static_cast<std::size_t>(p)),
            count};
  }
  ensure_distance_row(p);
  return dist_cache_[static_cast<std::size_t>(p)];
}

std::int32_t Topology::eccentricity(std::int32_t p) const {
  std::int32_t ecc = 0;
  for (std::int32_t d : distances_from(p)) {
    if (d < 0) return -1;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::int32_t Topology::diameter() const {
  if (is_full_mesh()) {
    (void)distances_from(0);  // builds the strip every row is a window of
    return n() > 1 ? 1 : 0;
  }
  std::int32_t diam = 0;
  for (std::int32_t p = 0; p < n(); ++p) {
    const std::int32_t ecc = eccentricity(p);
    if (ecc < 0) return -1;
    diam = std::max(diam, ecc);
  }
  return diam;
}

Topology::CutStructure Topology::cut_structure() const {
  // Iterative Tarjan over the explicit DFS stack (graphs can be path-like,
  // so recursion depth could reach n).  Self-loops are skipped; the lists
  // are duplicate-free, so "skip the parent once by id" is a faithful
  // parent-edge test.
  const std::int32_t count = n();
  std::vector<std::int32_t> disc(static_cast<std::size_t>(count), -1);
  std::vector<std::int32_t> low(static_cast<std::size_t>(count), 0);
  std::vector<std::int32_t> parent(static_cast<std::size_t>(count), -1);
  std::vector<char> is_cut(static_cast<std::size_t>(count), 0);
  std::vector<char> is_bridge_end(static_cast<std::size_t>(count), 0);
  std::int32_t timer = 0;

  struct Frame {
    std::int32_t v;
    std::size_t next;  ///< index into neighbors(v) to resume from
  };
  std::vector<Frame> stack;
  for (std::int32_t root = 0; root < count; ++root) {
    if (disc[static_cast<std::size_t>(root)] >= 0) continue;
    std::int32_t root_children = 0;
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = timer++;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::int32_t v = frame.v;
      const auto peers = neighbors(v);
      if (frame.next < peers.size()) {
        const std::int32_t w = peers[frame.next++];
        if (w == v || w == parent[static_cast<std::size_t>(v)]) continue;
        if (disc[static_cast<std::size_t>(w)] < 0) {
          parent[static_cast<std::size_t>(w)] = v;
          if (v == root) ++root_children;
          disc[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] = timer++;
          stack.push_back({w, 0});
        } else {
          low[static_cast<std::size_t>(v)] =
              std::min(low[static_cast<std::size_t>(v)], disc[static_cast<std::size_t>(w)]);
        }
        continue;
      }
      stack.pop_back();
      const std::int32_t p = parent[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      low[static_cast<std::size_t>(p)] =
          std::min(low[static_cast<std::size_t>(p)], low[static_cast<std::size_t>(v)]);
      if (low[static_cast<std::size_t>(v)] > disc[static_cast<std::size_t>(p)]) {
        is_bridge_end[static_cast<std::size_t>(p)] = 1;
        is_bridge_end[static_cast<std::size_t>(v)] = 1;
      }
      if (p != root && low[static_cast<std::size_t>(v)] >= disc[static_cast<std::size_t>(p)]) {
        is_cut[static_cast<std::size_t>(p)] = 1;
      }
    }
    if (root_children >= 2) is_cut[static_cast<std::size_t>(root)] = 1;
  }

  CutStructure result;
  for (std::int32_t v = 0; v < count; ++v) {
    if (is_cut[static_cast<std::size_t>(v)]) result.articulation.push_back(v);
    if (is_bridge_end[static_cast<std::size_t>(v)]) result.bridge_ends.push_back(v);
  }
  return result;
}

std::vector<std::int32_t> Topology::articulation_points() const {
  return cut_structure().articulation;
}

std::vector<std::int32_t> Topology::bridge_endpoints() const {
  return cut_structure().bridge_ends;
}

std::vector<std::int32_t> Topology::closed_neighborhood(
    std::span<const std::int32_t> seeds) const {
  std::vector<char> in(static_cast<std::size_t>(n()), 0);
  for (std::int32_t s : seeds) {
    if (s < 0 || s >= n()) {
      throw std::invalid_argument(
          "Topology::closed_neighborhood: seed id out of range");
    }
    for (std::int32_t q : neighbors(s)) in[static_cast<std::size_t>(q)] = 1;
  }
  std::vector<std::int32_t> region;
  for (std::int32_t p = 0; p < n(); ++p) {
    if (in[static_cast<std::size_t>(p)]) region.push_back(p);
  }
  return region;
}

std::vector<std::int32_t> Topology::degree_ranking() const {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n()));
  for (std::int32_t p = 0; p < n(); ++p) ids[static_cast<std::size_t>(p)] = p;
  std::stable_sort(ids.begin(), ids.end(), [&](std::int32_t a, std::int32_t b) {
    return degree(a) > degree(b);
  });
  return ids;
}

bool Topology::connected() const {
  const std::int32_t count = n();
  if (count <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(count), 0);
  std::vector<std::int32_t> stack{0};
  seen[0] = 1;
  std::int32_t reached = 1;
  while (!stack.empty()) {
    const std::int32_t p = stack.back();
    stack.pop_back();
    for (std::int32_t q : neighbors(p)) {
      if (!seen[static_cast<std::size_t>(q)]) {
        seen[static_cast<std::size_t>(q)] = 1;
        ++reached;
        stack.push_back(q);
      }
    }
  }
  return reached == count;
}

const char* topology_name(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kFullMesh: return "full-mesh";
    case TopologyKind::kRingOfCliques: return "ring-of-cliques";
    case TopologyKind::kKRegular: return "k-regular";
    case TopologyKind::kCustom: return "custom";
  }
  return "?";
}

Topology build_topology(const TopologySpec& spec, std::int32_t n) {
  Topology topo;
  switch (spec.kind) {
    case TopologyKind::kFullMesh:
      topo = Topology::full_mesh(n);
      break;
    case TopologyKind::kRingOfCliques:
      topo = Topology::ring_of_cliques(n, spec.clique_size);
      break;
    case TopologyKind::kKRegular:
      topo = Topology::k_regular(n, spec.degree, spec.seed);
      break;
    case TopologyKind::kCustom:
      topo = Topology::from_adjacency(spec.custom);
      break;
  }
  if (topo.n() != n) {
    throw std::invalid_argument(
        "build_topology: adjacency size does not match process count");
  }
  if (!topo.connected()) {
    throw std::invalid_argument(
        "build_topology: exchange graph is disconnected");
  }
  return topo;
}

}  // namespace wlsync::net
