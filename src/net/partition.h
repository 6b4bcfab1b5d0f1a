#pragma once
// Topology sharding for the conservative PDES engine (engine/pdes.h).
//
// The engine gives each shard its own event queue and worker thread;
// correctness does not depend on the partition at all (any assignment is
// bit-identical — cross-shard messages ride channels), but PERFORMANCE
// does: every cut edge is a channel that carries messages every round, and
// the conservative lookahead window is the minimum delay floor over the
// cut.  So the partitioner's one job is minimizing cut edges while keeping
// shards balanced and internally connected.
//
// The algorithm is METIS-shaped greedy growth, specialized to the exchange
// graphs this codebase builds:
//
//   1. seed selection — structural cut candidates first (articulation
//      points and bridge endpoints from Topology::cut_structure(), the
//      PR 3 queries), spread by farthest-point sampling over BFS hop
//      distance, so regions meet at the narrow joints instead of cutting
//      through cliques;
//   2. balanced multi-source BFS growth — the smallest shard with a live
//      frontier claims its next frontier node, which keeps shards
//      connected by construction and within one frontier layer of balanced;
//   3. boundary refinement — Kernighan-Lin-style single-node moves that
//      strictly reduce the cut without unbalancing; adopted only if every
//      shard stays connected (checked once, whole-pass, and rolled back
//      otherwise so the connectivity invariant is unconditional on
//      connected input graphs).
//
// Everything is deterministic in (topology, k, seed): the seed feeds one
// draw (which structural candidate anchors shard 0); every other step
// breaks ties by ascending id.

#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace wlsync::net {

struct Partition {
  std::int32_t k = 1;                  ///< effective shard count (>= 1)
  std::vector<std::int32_t> shard_of;  ///< node id -> shard index, size n
  std::vector<std::int32_t> shard_sizes;  ///< size k, every entry >= 1
  /// Undirected cut edges (u < v, self-loops excluded): topology edges
  /// whose endpoints landed in different shards.  Ascending lexicographic.
  std::vector<std::pair<std::int32_t, std::int32_t>> cut_edges;
  /// Per-shard incident cut edges, as indices into cut_edges (ascending).
  /// An edge appears under BOTH endpoint shards; the PDES engine folds each
  /// shard's outgoing delay floor from its list without rescanning the
  /// graph.  Size k; every list empty when the cut is (k == 1).
  std::vector<std::vector<std::int32_t>> shard_cuts;
  /// boundary[v] != 0 iff v is an endpoint of some cut edge — the only
  /// honest processes whose events can produce cross-shard traffic in one
  /// hop (honest sends follow the topology).  Size n, all zero when k == 1.
  std::vector<char> boundary;

  [[nodiscard]] std::int32_t n() const noexcept {
    return static_cast<std::int32_t>(shard_of.size());
  }
};

/// Partitions `topo` into min(k, n) shards (k < 1 is treated as 1).  On a
/// connected topology every shard's induced subgraph is connected; on a
/// disconnected one, whole stray components are attached to the smallest
/// shard (connectivity within a shard then mirrors the input's).
[[nodiscard]] Partition partition_topology(const Topology& topo, std::int32_t k,
                                           std::uint64_t seed);

}  // namespace wlsync::net
