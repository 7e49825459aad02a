#include "proto/helper_sets.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "proto/ruling_set.hpp"
#include "util/assert.hpp"

namespace hybrid {

u32 helper_mu(u64 k, double p) {
  HYB_REQUIRE(p > 0.0 && p <= 1.0, "sampling probability in (0,1]");
  const double cap = 1.0 / p;
  const double root = std::sqrt(static_cast<double>(k));
  const double mu = std::floor(std::min(root, cap));
  return std::max<u32>(1, static_cast<u32>(mu));
}

helper_family compute_helpers(hybrid_net& net, const std::vector<u32>& w_set,
                              u32 mu) {
  const u32 n = net.n();
  helper_family fam;
  fam.mu = mu;
  fam.helpers_of.resize(w_set.size());
  fam.helps.resize(n);

  if (mu <= 1) {
    for (u32 i = 0; i < w_set.size(); ++i) {
      HYB_REQUIRE(w_set[i] < n, "W member out of range");
      fam.helpers_of[i] = {w_set[i]};
      fam.helps[w_set[i]].push_back(i);
    }
    return fam;
  }

  // Ruling set + clustering (Algorithm 1, first half).
  const ruling_set_result rs = compute_ruling_set(net, mu);
  fam.clusters = compute_clusters(net, rs);
  const cluster_decomposition& cd = fam.clusters;

  // Every node learns the members of its own cluster, hence its W-members
  // and size: item v starts at node v and floods inside clusters for 2β+1
  // rounds (Algorithm 1's "learn all members of C_r" loop).
  std::vector<u32> w_index_of(n, ~u32{0});
  for (u32 i = 0; i < w_set.size(); ++i) {
    HYB_REQUIRE(w_set[i] < n, "W member out of range");
    w_index_of[w_set[i]] = i;
  }
  std::vector<u32> self(n);
  std::iota(self.begin(), self.end(), u32{0});
  auto heard = cluster_flood(net, cd, self, nullptr, cd.flood_budget());

  // Join decisions (Algorithm 1, last loop): one draw per W-member heard,
  // in arrival order.
  const double q_mult = net.config().helper_q_mult;
  for (u32 v = 0; v < n; ++v) {
    const u64 cluster_size = heard[v].size();
    HYB_INVARIANT(cluster_size >= 1, "node did not hear itself");
    const double q =
        std::min(q_mult * mu / static_cast<double>(cluster_size), 1.0);
    rng& rv = net.node_rng(v);
    for (const u32 u : heard[v]) {
      const u32 wi = w_index_of[u];
      if (wi == ~u32{0}) continue;  // not a W member
      if (u == v || rv.next_bool(q)) {
        fam.helpers_of[wi].push_back(v);
        fam.helps[v].push_back(wi);
      }
    }
  }
  heard.clear();  // release the member lists before the next flood
  for (auto& hs : fam.helpers_of) std::sort(hs.begin(), hs.end());

  // One more intra-cluster flood so each w ∈ W learns its helper set
  // (first loop of Algorithm 3): every helper announces all its (helper, w)
  // pairs at once. They start at one node and travel together, so one item
  // charged |helps[v]| words costs exactly what the separate pairs would.
  std::vector<u32> helpers;
  std::vector<u64> pairs;
  for (u32 v = 0; v < n; ++v)
    if (!fam.helps[v].empty()) {
      helpers.push_back(v);
      pairs.push_back(fam.helps[v].size());
    }
  cluster_flood(net, cd, helpers, &pairs, cd.flood_budget(), /*keep=*/false);
  return fam;
}

}  // namespace hybrid
