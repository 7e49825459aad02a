#include "proto/clustering.hpp"

#include <algorithm>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
#include "proto/local_engine.hpp"
#include "util/assert.hpp"

namespace hybrid {

cluster_decomposition compute_clusters(hybrid_net& net,
                                       const ruling_set_result& rs) {
  const u32 n = net.n();
  cluster_decomposition cd;
  cd.rulers = rs.rulers;
  cd.beta = rs.beta;
  cd.cluster_of.assign(n, ~u32{0});
  cd.hops_to_ruler.assign(n, ~u32{0});
  cd.members.resize(rs.rulers.size());

  const auto heard = hop_discovery(net, rs.rulers, rs.beta,
                                   /*early_exit=*/true);
  for (u32 v = 0; v < n; ++v) {
    u32 best_cluster = ~u32{0};
    u32 best_hop = ~u32{0};
    for (const discovered_seed& d : heard[v]) {
      const u32 c = d.seed;
      // hop_discovery reports ascending hop; ties resolve to the smaller
      // ruler ID because rulers are sorted and we compare explicitly.
      if (d.hop < best_hop ||
          (d.hop == best_hop && rs.rulers[c] < rs.rulers[best_cluster])) {
        best_hop = d.hop;
        best_cluster = c;
      }
    }
    HYB_INVARIANT(best_cluster != ~u32{0},
                  "ruling set domination radius violated: node saw no ruler");
    cd.cluster_of[v] = best_cluster;
    cd.hops_to_ruler[v] = best_hop;
    cd.members[best_cluster].push_back(v);
    cd.max_radius = std::max(cd.max_radius, best_hop);
  }
  // Make max_radius common knowledge (one max-aggregation, Lemma B.2).
  const u64 agg =
      global_aggregate(net, agg_op::max,
                       std::vector<u64>(cd.hops_to_ruler.begin(),
                                        cd.hops_to_ruler.end()));
  HYB_INVARIANT(agg == cd.max_radius, "radius aggregation mismatch");
  return cd;
}

std::vector<std::vector<u32>> cluster_flood(hybrid_net& net,
                                            const cluster_decomposition& cd,
                                            const std::vector<u32>& roots,
                                            const std::vector<u64>* words,
                                            u32 rounds, bool keep) {
  const u32 n = net.n();
  for (const u32 r : roots) HYB_REQUIRE(r < n, "flood root out of range");
  HYB_REQUIRE(!words || words->size() == roots.size(),
              "each flooded item needs a word count");
  // Arrival order (which the helper-join draws follow) is sorted-adjacency
  // pull order, thread-count-invariant (docs/CONCURRENCY.md §3). No drop
  // model: under local faults it still delivers in full (docs/FAULTS.md §3).
  std::vector<std::vector<u32>> heard(keep ? n : 0);
  std::vector<std::vector<u32>> frontier(n);
  local_engine::seen_store store(
      n, static_cast<u32>(roots.size()), words, [&](u32 v, u32 i, u32) {
        if (keep) heard[v].push_back(i);
      });
  for (u32 i = 0; i < roots.size(); ++i)
    store.seed(roots[i], i, frontier[roots[i]]);
  local_engine::relax(store, frontier, rounds,
                      local_engine::cluster_edges{net.g(), cd.cluster_of},
                      local_engine::round_policy::charged(
                          net, true, /*aggregate_exit=*/true));
  return heard;
}

}  // namespace hybrid
