// Cluster decomposition around a ruling set (Algorithm 1's middle section).
//
// Every node joins the cluster of its closest ruler (ties broken toward the
// smaller ruler ID). With that tie-breaking the clusters are connected
// subgraphs (standard Voronoi-cell argument), every member is within β hops
// of its ruler, and intra-cluster distances are ≤ 2β — so all per-cluster
// communication (member discovery, helper announcements, token hand-offs)
// can flood inside the cluster only, which is what cluster_flood provides.
#pragma once

#include <vector>

#include "proto/ruling_set.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct cluster_decomposition {
  std::vector<u32> rulers;            ///< cluster c has ruler rulers[c]
  std::vector<u32> cluster_of;        ///< per node: cluster index
  std::vector<u32> hops_to_ruler;     ///< per node
  std::vector<std::vector<u32>> members;  ///< per cluster, sorted node IDs
  u32 beta = 0;                       ///< domination radius guarantee
  /// Largest observed hops_to_ruler, made globally known by one charged
  /// max-aggregation at construction. Intra-cluster floods are sized by
  /// this (2·max_radius+1 rounds reach the whole cluster) instead of the
  /// worst-case β, which matters enormously on low-diameter graphs.
  u32 max_radius = 0;

  u32 flood_budget() const { return 2 * max_radius + 1; }
};

/// Build clusters from a ruling set: rulers flood for rs.beta rounds, every
/// node picks the (hop, ruler-ID)-minimal ruler it heard.
cluster_decomposition compute_clusters(hybrid_net& net,
                                       const ruling_set_result& rs);

/// Flood items within clusters for `rounds` rounds (items never cross a
/// cluster boundary); 2β+1 rounds reach the whole cluster. Item i starts at
/// node roots[i] and is charged words[i] local items per edge crossing (one
/// when `words` is null). Returns per node the indices of the items it
/// heard, own items first, in arrival order; with `keep` false nothing is
/// recorded and the result is empty (a flood that only pays its traffic).
/// A saturated flood exits early for one charged AND-aggregation.
std::vector<std::vector<u32>> cluster_flood(hybrid_net& net,
                                            const cluster_decomposition& cd,
                                            const std::vector<u32>& roots,
                                            const std::vector<u64>* words,
                                            u32 rounds, bool keep = true);

}  // namespace hybrid
