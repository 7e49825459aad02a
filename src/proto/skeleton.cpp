#include "proto/skeleton.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "proto/dissemination.hpp"
#include "util/assert.hpp"

namespace hybrid {

skeleton_result compute_skeleton(hybrid_net& net, double sample_prob,
                                 const std::vector<u32>& forced) {
  HYB_REQUIRE(sample_prob > 0.0 && sample_prob <= 1.0,
              "sampling probability in (0,1]");
  const u32 n = net.n();
  skeleton_result sk;
  sk.sample_prob = sample_prob;
  sk.index_of.assign(n, skeleton_result::npos);

  // Parallel over nodes: each node draws one Bernoulli from its own
  // persistent stream, and node_rng(v)'s lazy init touches only slot v, so
  // sharding is race-free and the verdict vector is bit-identical to the
  // sequential sweep at every thread count.
  std::vector<char> in(n, 0);
  net.executor().for_nodes(n, [&](u32 v) {
    if (net.node_rng(v).next_bool(sample_prob)) in[v] = 1;
  });
  for (u32 v : forced) {
    HYB_REQUIRE(v < n, "forced node out of range");
    in[v] = 1;
  }
  for (u32 v = 0; v < n; ++v)
    if (in[v]) {
      sk.index_of[v] = static_cast<u32>(sk.nodes.size());
      sk.nodes.push_back(v);
    }
  HYB_INVARIANT(!sk.nodes.empty(),
                "skeleton sampling produced no nodes; raise p or n");

  sk.h = std::max<u32>(
      1, static_cast<u32>(std::ceil(net.config().skeleton_xi *
                                    (1.0 / sample_prob) * std::log(n))));

  // h rounds of exploration from all skeleton nodes; every node learns d_h
  // to nearby skeletons, skeleton nodes derive their incident skeleton
  // edges. The exploration keeps memory at O(Σ|ball_h|) beyond the dense
  // cutoff (n_s-wide rows at n = 10⁵, p ≈ 0.05 would be multi-GB), and
  // under local-plane faults it heals, retries and returns the fault-free
  // triples itself (docs/FAULTS.md §3).
  const sparse_exploration_result res = run_local_exploration(
      net, sk.h, /*advance_rounds=*/true, &sk.nodes, /*first_hops=*/true);
  sk.near.assign(n, {});
  for (u32 v = 0; v < n; ++v) {
    const auto slice = res.reached(v);
    sk.near[v].reserve(slice.size());
    // Entries are sorted by source node id; sk.nodes is ascending, so the
    // converted list is sorted by skeleton index.
    for (const exploration_entry& e : slice)
      sk.near[v].push_back({sk.index_of[e.source], e.dist, e.first_hop});
  }
  sk.edges.assign(sk.nodes.size(), {});
  for (u32 i = 0; i < sk.nodes.size(); ++i)
    for (const source_distance& sd : sk.near[sk.nodes[i]])
      if (sd.source != i) sk.edges[i].push_back({sd.source, sd.dist});
  return sk;
}

namespace {

/// The skeleton adjacency flattened once into CSR form, so the per-source
/// Dijkstra loop shares one contiguous structure instead of re-walking the
/// vector-of-vectors per call (hot path: it is the level-1/level-2 table
/// builder in the two-level pipeline).
struct skeleton_csr {
  std::vector<u64> offsets;  ///< size n_s + 1
  std::vector<u32> targets;
  std::vector<u64> weights;

  explicit skeleton_csr(
      const std::vector<std::vector<std::pair<u32, u64>>>& edges) {
    offsets.assign(edges.size() + 1, 0);
    for (size_t i = 0; i < edges.size(); ++i)
      offsets[i + 1] = offsets[i] + edges[i].size();
    targets.resize(offsets.back());
    weights.resize(offsets.back());
    u64 at = 0;
    for (const auto& adj : edges)
      for (const auto& [to, w] : adj) {
        targets[at] = to;
        weights[at] = w;
        ++at;
      }
  }
};

void dijkstra_on_csr(const skeleton_csr& csr, u32 src,
                     std::vector<u64>& dist) {
  dist.assign(csr.offsets.size() - 1, kInfDist);
  using item = std::pair<u64, u32>;
  std::priority_queue<item, std::vector<item>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (u64 k = csr.offsets[v]; k < csr.offsets[v + 1]; ++k) {
      const u32 to = csr.targets[k];
      const u64 nd = d + csr.weights[k];
      if (nd < dist[to]) {
        dist[to] = nd;
        pq.push({nd, to});
      }
    }
  }
}

}  // namespace

std::vector<std::vector<u64>> skeleton_apsp(const skeleton_result& sk,
                                            round_executor& ex) {
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  const skeleton_csr csr(sk.edges);
  std::vector<std::vector<u64>> out(n_s);
  // Each source's row is written only by its own item, so the parallel loop
  // is trivially deterministic (docs/CONCURRENCY.md node-parallel contract).
  ex.for_nodes(n_s, [&](u32 i) { dijkstra_on_csr(csr, i, out[i]); });
  return out;
}

std::vector<std::vector<u64>> skeleton_apsp(const skeleton_result& sk) {
  round_executor ex(sim_options{});
  return skeleton_apsp(sk, ex);
}

std::vector<u64> skeleton_sssp(const skeleton_result& sk, u32 src) {
  HYB_REQUIRE(src < sk.nodes.size(), "skeleton index out of range");
  const skeleton_csr csr(sk.edges);
  std::vector<u64> dist;
  dijkstra_on_csr(csr, src, dist);
  return dist;
}

super_skeleton_result compute_super_skeleton(hybrid_net& net,
                                             const skeleton_result& sk,
                                             double sample_prob, u32 h1) {
  HYB_REQUIRE(sample_prob > 0.0 && sample_prob <= 1.0,
              "sampling probability in (0,1]");
  HYB_REQUIRE(h1 >= 1, "super-skeleton hop budget must be at least 1");
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  super_skeleton_result ss;
  ss.sample_prob = sample_prob;
  ss.h1 = h1;
  ss.index_of.assign(n_s, super_skeleton_result::npos);

  // Sample from the members' own per-node RNG streams, like level 1 —
  // parallel over members (distinct nodes, so distinct streams and
  // distinct node_rng slots).
  std::vector<char> in(n_s, 0);
  net.executor().for_nodes(n_s, [&](u32 i) {
    if (net.node_rng(sk.nodes[i]).next_bool(sample_prob)) in[i] = 1;
  });
  if (std::find(in.begin(), in.end(), char{1}) == in.end())
    in[0] = 1;  // the level-2 table must exist; deterministic fallback
  for (u32 i = 0; i < n_s; ++i)
    if (in[i]) {
      ss.index_of[i] = static_cast<u32>(ss.members.size());
      ss.members.push_back(i);
    }
  const u32 n_s2 = static_cast<u32>(ss.members.size());

  // Membership announcement: one token per member over the global plane,
  // the same pattern as the skeleton edge-set dissemination. After this,
  // ball1/gw1/pairs are free local computation from the public E_S.
  std::vector<std::vector<token2>> tokens(net.n());
  for (u32 j = 0; j < n_s2; ++j)
    tokens[sk.nodes[ss.members[j]]].push_back(
        {(u64{ss.members[j]} << 32) | j, 0});
  disseminate(net, std::move(tokens));

  // ball1: h1-hop all-sources exploration over G_S (explicit adjacency).
  sparse_exploration_result ball = explore_adjacency(sk.edges, h1, net.executor());
  ss.ball_offsets = std::move(ball.offsets);
  ss.ball_entries = std::move(ball.entries);

  // gw1 = ball1 filtered to members, re-indexed to super indices.
  ss.gw_offsets.assign(u64{n_s} + 1, 0);
  for (u32 s1 = 0; s1 < n_s; ++s1) {
    u64 cnt = 0;
    for (u64 k = ss.ball_offsets[s1]; k < ss.ball_offsets[s1 + 1]; ++k)
      cnt += ss.index_of[ss.ball_entries[k].source] !=
             super_skeleton_result::npos;
    ss.gw_offsets[s1 + 1] = ss.gw_offsets[s1] + cnt;
  }
  ss.gateways.resize(ss.gw_offsets[n_s]);
  net.executor().for_nodes(n_s, [&](u32 s1) {
    source_distance* at = ss.gateways.data() + ss.gw_offsets[s1];
    for (u64 k = ss.ball_offsets[s1]; k < ss.ball_offsets[s1 + 1]; ++k) {
      const exploration_entry& e = ss.ball_entries[k];
      const u32 s2 = ss.index_of[e.source];
      if (s2 == super_skeleton_result::npos) continue;
      *at++ = {s2, e.dist, e.first_hop};
    }
  });

  // Exact super-pair distances: Dijkstra over the full skeleton graph from
  // each member (members' rows are disjoint — node-parallel).
  const skeleton_csr csr(sk.edges);
  ss.pairs.assign(u64{n_s2} * n_s2, kInfDist);
  net.executor().for_nodes(n_s2, [&](u32 i) {
    std::vector<u64> dist;
    dijkstra_on_csr(csr, ss.members[i], dist);
    u64* row = ss.pairs.data() + u64{i} * n_s2;
    for (u32 j = 0; j < n_s2; ++j) row[j] = dist[ss.members[j]];
  });
  return ss;
}

}  // namespace hybrid
