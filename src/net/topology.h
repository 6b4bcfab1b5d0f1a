#pragma once
// The exchange graph of the network layer.
//
// The paper's model is fully connected: broadcast(m) reaches every process,
// including the sender (Section 2.2).  That is the faithful default here —
// but at n >= 64 the n^2 messages per round dominate everything, and the
// sparse/structured exchange graphs of the gradient-clock-sync literature
// (Bund/Lenzen/Rosenbaum; Khanchandani/Lenzen) are the route to scale.  A
// Topology is the pluggable answer: a symmetric adjacency, stored CSR for
// cache-friendly fan-out walks, that Context::broadcast routes through.
//
// Invariants every constructor establishes (and from_adjacency repairs):
//   * each node's neighbor list contains the node itself (a process always
//     hears its own broadcast, as in the paper);
//   * lists are sorted ascending and duplicate-free — a broadcast
//     draws per-link delays and allocates seqs in neighbor order, so this
//     ordering fixes every broadcast's delivery order;
//   * the graph is symmetric (p hears q iff q hears p), matching the
//     bidirectional-link reading of assumption A3.
//
// Point-to-point Context::send is NOT restricted by the topology: Byzantine
// processes may address anyone (A2 constrains channels, not senders), and
// the two-faced adversary depends on that.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wlsync::net {

class Topology {
 public:
  /// Every pair of processes exchanges messages (the paper's model).
  [[nodiscard]] static Topology full_mesh(std::int32_t n);

  /// Cliques of `clique_size` consecutive ids, closed into a ring by one
  /// bridge edge between adjacent cliques (last node of clique k to first
  /// node of clique k+1).  Diameter ~ n / clique_size; the cheapest
  /// structured graph that keeps local quorums dense.
  [[nodiscard]] static Topology ring_of_cliques(std::int32_t n,
                                                std::int32_t clique_size);

  /// Random circulant graph of degree ~`degree`: stride 1 (a ring, which
  /// guarantees connectivity) plus degree/2 - 1 distinct random strides,
  /// each contributing edges i <-> i +- s (mod n).  Random circulants are
  /// expanders with high probability — the classic constant-degree
  /// exchange graph for large-n synchronization studies.
  [[nodiscard]] static Topology k_regular(std::int32_t n, std::int32_t degree,
                                          std::uint64_t seed);

  /// User-supplied adjacency (`lists[p]` = p's neighbors).  Ids are
  /// validated, the graph is symmetrized, self-loops are added, and lists
  /// are sorted/deduplicated.
  [[nodiscard]] static Topology from_adjacency(
      const std::vector<std::vector<std::int32_t>>& lists);

  Topology() = default;

  [[nodiscard]] std::int32_t n() const noexcept {
    return static_cast<std::int32_t>(offsets_.size()) - 1;
  }

  /// Sorted neighbor ids of p, p itself included.
  [[nodiscard]] std::span<const std::int32_t> neighbors(std::int32_t p) const {
    const auto i = static_cast<std::size_t>(p);
    return {targets_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

  [[nodiscard]] std::int32_t degree(std::int32_t p) const {
    return static_cast<std::int32_t>(neighbors(p).size());
  }

  /// Directed edge count (self-loops included); messages per broadcast sum.
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return targets_.size();
  }

  [[nodiscard]] bool is_full_mesh() const noexcept {
    return edge_count() ==
           static_cast<std::size_t>(n()) * static_cast<std::size_t>(n());
  }

  /// True when every process can reach every other (ignoring self-loops).
  /// Synchronization is hopeless across disconnected components, so the
  /// experiment harness validates this up front.
  [[nodiscard]] bool connected() const;

  // --- distance queries (the gradient-skew subsystem's graph metric) ---
  //
  // Gradient clock synchronization (Bund/Lenzen/Rosenbaum) bounds skew as a
  // function of hop distance d(i, j), so the analysis layer needs distance
  // rows and the diameter.  The full mesh answers both without a table:
  // every row is a window of one shared 2n-1 strip (ones around a single
  // zero), and the diameter is 1 for n > 1.  Other graphs compute BFS rows
  // lazily and cache them per source.  A first query mutates the cache (or
  // builds the mesh strip), so warm every row you need (or call
  // diameter(), which warms all of them) BEFORE sharing one Topology
  // across measurement threads.  Reads of warmed rows are const and safe.

  /// Hop distances from p to every node (self-loops ignored; d(p,p) = 0).
  /// Unreachable nodes hold -1.  The view stays valid for the lifetime of
  /// this Topology (cache rows are never evicted).
  [[nodiscard]] std::span<const std::int32_t> distances_from(std::int32_t p) const;

  /// max_q d(p, q); -1 when some node is unreachable from p.
  [[nodiscard]] std::int32_t eccentricity(std::int32_t p) const;

  /// max_p eccentricity(p); -1 when disconnected.  Warms every row.
  [[nodiscard]] std::int32_t diameter() const;

  // --- structural queries (positional adversary placement) ---

  /// Both cut-structure lists from ONE iterative Tarjan DFS (callers that
  /// need articulation points AND bridges — proc/placement.cpp — should use
  /// this instead of the two single-list accessors below, which each run
  /// the full pass).  Self-loops ignored; both lists ascending.
  struct CutStructure {
    std::vector<std::int32_t> articulation;  ///< cut vertices
    std::vector<std::int32_t> bridge_ends;   ///< bridge endpoints, deduped
  };
  [[nodiscard]] CutStructure cut_structure() const;

  /// Cut vertices (Tarjan), ascending ids.  Self-loops ignored.  A closed
  /// ring of cliques is 2-connected and has none; a path of cliques has
  /// one per inter-clique joint.
  [[nodiscard]] std::vector<std::int32_t> articulation_points() const;

  /// Endpoints of bridge edges (edges whose removal disconnects), ascending
  /// and deduplicated.  Self-loops ignored.
  [[nodiscard]] std::vector<std::int32_t> bridge_endpoints() const;

  /// Ids sorted by degree descending, ties broken by ascending id.  On a
  /// ring of cliques this leads with the bridge endpoints (degree
  /// clique_size + 1 vs clique_size inside).
  [[nodiscard]] std::vector<std::int32_t> degree_ranking() const;

  /// Union of the closed neighborhoods N[s] of the seed vertices, sorted
  /// ascending and deduplicated (seeds themselves included — the lists
  /// carry self-loops).  This is the fault-isolating fast path's "tainted
  /// region": everything a Byzantine seed can deliver to over an exchange
  /// edge.  Out-of-range seed ids throw.
  [[nodiscard]] std::vector<std::int32_t> closed_neighborhood(
      std::span<const std::int32_t> seeds) const;

 private:
  void ensure_distance_row(std::int32_t p) const;

  /// CSR: neighbors of p are targets_[offsets_[p] .. offsets_[p+1]).
  std::vector<std::int32_t> offsets_;  // size n + 1
  std::vector<std::int32_t> targets_;
  /// Lazy per-source BFS rows; an empty row means "not yet computed".
  /// Purely derived data, so copies carrying it stay consistent.
  mutable std::vector<std::vector<std::int32_t>> dist_cache_;
  /// Full mesh only: 2n-1 entries, ones around a zero at index n-1; row p
  /// is the window starting at n-1-p.  Built on the first query.
  mutable std::vector<std::int32_t> mesh_strip_;
};

// ---------------------------------------------------------------------------
// Declarative topology selection, the RunSpec- and sweep-facing surface.

enum class TopologyKind : std::uint8_t {
  kFullMesh = 0,       ///< the paper's model; the batched-fan-out fast path
  kRingOfCliques = 1,
  kKRegular = 2,
  kCustom = 3,         ///< TopologySpec::custom adjacency lists
};

[[nodiscard]] const char* topology_name(TopologyKind kind) noexcept;

struct TopologySpec {
  TopologyKind kind = TopologyKind::kFullMesh;
  std::int32_t clique_size = 8;  ///< kRingOfCliques
  std::int32_t degree = 8;       ///< kKRegular (effective degree ~ 2*(degree/2))
  std::uint64_t seed = 1;        ///< kKRegular stride draw
  std::vector<std::vector<std::int32_t>> custom;  ///< kCustom
};

/// Materializes the spec for an n-process system.  Throws
/// std::invalid_argument on malformed specs (including a kCustom adjacency
/// whose size differs from n, or any disconnected result).
[[nodiscard]] Topology build_topology(const TopologySpec& spec, std::int32_t n);

}  // namespace wlsync::net
