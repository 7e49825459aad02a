// Tests for the LOCAL/NCC protocol substrates: flooding primitives, ruling
// sets (Lemma 2.1), clustering, aggregation (Lemma B.2), and token
// dissemination (Lemma B.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/ruling_set.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

// ---- flood primitives -------------------------------------------------------

TEST(HopDiscovery, MatchesBfsWithinRadius) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 1);
  const std::vector<u32> seeds = {0, 63};
  const auto known = hop_discovery(net, seeds, 5);
  const auto h0 = bfs_hops(g, 0);
  const auto h1 = bfs_hops(g, 63);
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    std::set<std::pair<u32, u32>> got;
    for (const discovered_seed& d : known[v]) got.insert({d.seed, d.hop});
    if (h0[v] <= 5) {
      EXPECT_TRUE(got.count({0, h0[v]})) << v;
    } else {
      EXPECT_FALSE(got.count({0, h0[v]})) << v;
    }
    if (h1[v] <= 5) {
      EXPECT_TRUE(got.count({1, h1[v]})) << v;
    }
  }
  EXPECT_EQ(net.round(), 5u);  // fixed budget elapses fully
}

TEST(HopDiscovery, EarlyExitStillChargesBudget) {
  const graph g = gen::path(4);
  hybrid_net net(g, cfg(), 1);
  hop_discovery(net, {0}, 50);  // graph exhausted after 3 rounds
  EXPECT_EQ(net.round(), 50u);
}

TEST(LimitedBellmanFord, MatchesReference) {
  const graph g = gen::erdos_renyi_connected(80, 5.0, 7, 3);
  hybrid_net net(g, cfg(), 1);
  const std::vector<u32> sources = {0, 17, 42};
  const u32 h = 4;
  const auto got = limited_bellman_ford(net, sources, h);
  for (u32 i = 0; i < sources.size(); ++i) {
    const auto ref = limited_distance(g, sources[i], h);
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      u64 mine = kInfDist;
      for (const source_distance& sd : got[v])
        if (sd.source == i) mine = sd.dist;
      EXPECT_EQ(mine, ref[v]) << "source " << i << " node " << v;
    }
  }
}

TEST(LimitedBellmanFord, ParallelModeChargesNoRounds) {
  const graph g = gen::path(32);
  hybrid_net net(g, cfg(), 1);
  limited_bellman_ford(net, {0}, 10, /*advance_rounds=*/false);
  EXPECT_EQ(net.round(), 0u);
  EXPECT_GT(net.raw_metrics().local_items, 0u);
}

TEST(FullLocalExploration, MatchesLimitedDistanceAllPairs) {
  const graph g = gen::erdos_renyi_connected(48, 4.0, 5, 9);
  hybrid_net net(g, cfg(), 1);
  const u32 h = 3;
  const auto mat = full_local_exploration(net, h, true);
  for (u32 u = 0; u < 48; u += 7) {
    const auto ref = limited_distance(g, u, h);
    EXPECT_EQ(mat[u], ref) << "row " << u;
  }
}

TEST(TableFlood, ReachesExactlyTheRadius) {
  const graph g = gen::path(20);
  hybrid_net net(g, cfg(), 1);
  const auto holds = table_flood(net, {0, 19}, {100, 100}, 4);
  for (u32 v = 0; v < 20; ++v) {
    const bool has0 =
        std::find(holds[v].begin(), holds[v].end(), 0u) != holds[v].end();
    const bool has1 =
        std::find(holds[v].begin(), holds[v].end(), 1u) != holds[v].end();
    EXPECT_EQ(has0, v <= 4) << v;
    EXPECT_EQ(has1, v >= 15) << v;
  }
  // Traffic: each table crossing an edge charges its word size.
  EXPECT_GE(net.raw_metrics().local_items, 2u * 4 * 100);
}

TEST(TruncatedEccentricity, PathValues) {
  const graph g = gen::path(11);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 100);
  EXPECT_EQ(ecc[0], 10u);
  EXPECT_EQ(ecc[5], 5u);
  EXPECT_EQ(ecc[10], 10u);
}

TEST(TruncatedEccentricity, TruncationCaps) {
  const graph g = gen::path(11);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 3);
  EXPECT_EQ(ecc[0], 3u);
  EXPECT_EQ(ecc[5], 3u);
}

// ---- ruling set (Lemma 2.1) -------------------------------------------------

class RulingSetProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(RulingSetProperty, IndependenceAndDomination) {
  const auto [graph_kind, mu] = GetParam();
  graph g;
  switch (graph_kind) {
    case 0: g = gen::path(200, 1, 5); break;
    case 1: g = gen::grid(14, 14); break;
    case 2: g = gen::erdos_renyi_connected(200, 5.0, 1, 5); break;
    default: g = gen::balanced_tree(200, 3); break;
  }
  hybrid_net net(g, cfg(), 77);
  const ruling_set_result rs =
      compute_ruling_set(net, static_cast<u32>(mu));
  ASSERT_FALSE(rs.rulers.empty());
  EXPECT_EQ(rs.alpha, 2u * mu + 1);

  // Independence: pairwise hop distance ≥ α.
  for (u32 r : rs.rulers) {
    const auto hops = bfs_hops(g, r);
    for (u32 r2 : rs.rulers) {
      if (r2 != r) {
        EXPECT_GE(hops[r2], rs.alpha) << r << " vs " << r2;
      }
    }
  }
  // Domination: every node within β hops of some ruler.
  std::vector<u32> best(g.num_nodes(), ~u32{0});
  for (u32 r : rs.rulers) {
    const auto hops = bfs_hops(g, r);
    for (u32 v = 0; v < g.num_nodes(); ++v)
      best[v] = std::min(best[v], hops[v]);
  }
  for (u32 v = 0; v < g.num_nodes(); ++v)
    EXPECT_LE(best[v], rs.beta) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, RulingSetProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 2, 4)));

TEST(RulingSet, RoundCostScalesWithMu) {
  const graph g = gen::path(256);
  u64 rounds_mu2, rounds_mu8;
  {
    hybrid_net net(g, cfg(), 1);
    compute_ruling_set(net, 2);
    rounds_mu2 = net.round();
  }
  {
    hybrid_net net(g, cfg(), 1);
    compute_ruling_set(net, 8);
    rounds_mu8 = net.round();
  }
  EXPECT_EQ(rounds_mu8, 4 * rounds_mu2);  // 2µ rounds per ID level
}

// ---- clustering -------------------------------------------------------------

TEST(Clustering, PartitionCoversAndRespectsRadius) {
  const graph g = gen::grid(16, 16);
  hybrid_net net(g, cfg(), 5);
  const ruling_set_result rs = compute_ruling_set(net, 3);
  const cluster_decomposition cd = compute_clusters(net, rs);
  u32 covered = 0;
  for (u32 c = 0; c < cd.members.size(); ++c) covered += cd.members[c].size();
  EXPECT_EQ(covered, g.num_nodes());
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(cd.cluster_of[v], ~u32{0});
    EXPECT_LE(cd.hops_to_ruler[v], cd.beta);
    // The ruler of v's cluster is indeed a closest ruler.
    const auto hops = bfs_hops(g, v);
    u32 closest = ~u32{0};
    for (u32 r : rs.rulers) closest = std::min(closest, hops[r]);
    EXPECT_EQ(hops[cd.rulers[cd.cluster_of[v]]], closest) << v;
  }
}

TEST(Clustering, ClustersAreConnected) {
  // Voronoi cells under (hop, ruler-ID) tie-breaking must induce connected
  // subgraphs — required for intra-cluster flooding.
  const graph g = gen::erdos_renyi_connected(300, 4.0, 1, 13);
  hybrid_net net(g, cfg(), 13);
  const ruling_set_result rs = compute_ruling_set(net, 2);
  const cluster_decomposition cd = compute_clusters(net, rs);
  for (u32 c = 0; c < cd.members.size(); ++c) {
    if (cd.members[c].empty()) continue;
    std::set<u32> cluster(cd.members[c].begin(), cd.members[c].end());
    std::set<u32> seen;
    std::vector<u32> stack = {cd.members[c][0]};
    seen.insert(cd.members[c][0]);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (const edge& e : g.neighbors(v))
        if (cluster.count(e.to) && !seen.count(e.to)) {
          seen.insert(e.to);
          stack.push_back(e.to);
        }
    }
    EXPECT_EQ(seen.size(), cluster.size()) << "cluster " << c;
  }
}

TEST(ClusterFlood, StaysInsideCluster) {
  const graph g = gen::path(40);
  hybrid_net net(g, cfg(), 3);
  const ruling_set_result rs = compute_ruling_set(net, 2);
  const cluster_decomposition cd = compute_clusters(net, rs);
  ASSERT_GE(cd.members.size(), 2u) << "path should split into clusters";
  const u32 origin = cd.members[0][0];
  const auto heard =
      cluster_flood(net, cd, {origin}, nullptr, 2 * cd.beta + 1);
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    const bool got = !heard[v].empty();
    if (cd.cluster_of[v] == cd.cluster_of[origin])
      EXPECT_TRUE(got) << v;  // full cluster reached within 2β+1 rounds
    else
      EXPECT_FALSE(got) << v;
  }
}

/// Round, item and delivery counters a call added to `net`.
struct flood_cost {
  u64 rounds, items, delivered;
  friend bool operator==(const flood_cost&, const flood_cost&) = default;
};

template <class F>
flood_cost cost_of(hybrid_net& net, F&& run) {
  const run_metrics before = net.raw_metrics();
  const u64 r0 = net.round();
  run();
  const run_metrics& after = net.raw_metrics();
  return {net.round() - r0, after.local_items - before.local_items,
          after.local_delivered - before.local_delivered};
}

TEST(ClusterFlood, MatchesHopDiscoveryOnClusterSubgraph) {
  // A cluster flood on G is an early-exit hop flood on G without its
  // inter-cluster edges: same per-node arrival order, rounds and charges.
  const std::vector<graph> graphs = {
      gen::erdos_renyi_connected(200, 4.0, 1, 11), gen::grid(12, 12),
      gen::path(100), gen::balanced_tree(127, 2)};
  for (u32 gi = 0; gi < graphs.size(); ++gi) {
    const graph& g = graphs[gi];
    const u32 n = g.num_nodes();
    for (const u32 mu : {2u, 8u, 32u})
      for (const u32 threads : {1u, 2u, 8u}) {
        sim_options opts;
        opts.threads = threads;
        hybrid_net net(g, cfg(), 5, opts);
        const cluster_decomposition cd =
            compute_clusters(net, compute_ruling_set(net, mu));
        std::vector<edge_spec> inside;
        for (u32 v = 0; v < n; ++v)
          for (const edge& e : g.neighbors(v))
            if (v < e.to && cd.cluster_of[v] == cd.cluster_of[e.to])
              inside.push_back({v, e.to, e.weight});
        const graph sub = graph::from_edges(n, inside);
        std::vector<u32> self(n);
        for (u32 v = 0; v < n; ++v) self[v] = v;
        for (const u32 budget : {cd.flood_budget(), 3u, 0u}) {
          SCOPED_TRACE(::testing::Message()
                       << "graph " << gi << " mu " << mu << " threads "
                       << threads << " budget " << budget);
          std::vector<std::vector<u32>> heard;
          const flood_cost got = cost_of(net, [&] {
            heard = cluster_flood(net, cd, self, nullptr, budget);
          });
          hybrid_net ref_net(sub, cfg(), 5, opts);
          std::vector<std::vector<discovered_seed>> ref;
          const flood_cost want = cost_of(ref_net, [&] {
            ref = hop_discovery(ref_net, self, budget, /*early_exit=*/true);
          });
          EXPECT_EQ(got, want);
          EXPECT_EQ(got.items, got.delivered);
          for (u32 v = 0; v < n; ++v) {
            std::vector<u32> order;
            for (const discovered_seed& d : ref[v]) order.push_back(d.seed);
            ASSERT_EQ(heard[v], order) << "node " << v;
          }
        }
        // Items rooted at one node travel together: k of them cost what
        // one item charged k words costs.
        const u32 k = 5;
        const u32 origin = cd.members[cd.cluster_of[n / 2]].front();
        const flood_cost separate = cost_of(net, [&] {
          cluster_flood(net, cd, std::vector<u32>(k, origin), nullptr,
                        cd.flood_budget());
        });
        const std::vector<u64> words = {k};
        const flood_cost grouped = cost_of(net, [&] {
          cluster_flood(net, cd, {origin}, &words, cd.flood_budget(),
                        /*keep=*/false);
        });
        EXPECT_EQ(separate, grouped) << "graph " << gi << " mu " << mu;
        EXPECT_GT(grouped.items, 0u);
      }
  }
}

// ---- aggregation (Lemma B.2) ------------------------------------------------

class AggregationProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregationProperty, AllOpsAllSizes) {
  const u32 n = static_cast<u32>(GetParam());
  const graph g = gen::path(n);
  hybrid_net net(g, cfg(), 9);
  std::vector<u64> vals(n);
  rng r(n);
  u64 mx = 0, mn = ~u64{0}, sum = 0;
  for (u32 v = 0; v < n; ++v) {
    vals[v] = r.next_below(1000);
    mx = std::max(mx, vals[v]);
    mn = std::min(mn, vals[v]);
    sum += vals[v];
  }
  EXPECT_EQ(global_aggregate(net, agg_op::max, vals), mx);
  EXPECT_EQ(global_aggregate(net, agg_op::min, vals), mn);
  EXPECT_EQ(global_aggregate(net, agg_op::sum, vals), sum);
  EXPECT_EQ(global_aggregate(net, agg_op::logical_and, vals),
            mn > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AggregationProperty,
                         ::testing::Values(2, 3, 7, 64, 100, 257));

TEST(Aggregation, LogarithmicRounds) {
  const graph g = gen::path(1024);
  hybrid_net net(g, cfg(), 2);
  std::vector<u64> vals(1024, 1);
  global_aggregate(net, agg_op::max, vals);
  EXPECT_LE(net.round(), 2u * 11 + 2);  // 2·depth + slack (Lemma B.2)
}

TEST(Aggregation, StaysWithinSendCap) {
  const graph g = gen::path(300);
  hybrid_net net(g, cfg(), 2);
  global_aggregate(net, agg_op::sum, std::vector<u64>(300, 7));
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round, 3u);
}

// ---- token dissemination (Lemma B.1) ---------------------------------------

class DisseminationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DisseminationProperty, EveryNodeLearnsEverything) {
  const auto [kind, tokens_total] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(128, 5.0, 1, 21); break;
    case 1: g = gen::grid(12, 11); break;
    default: g = gen::path(128); break;
  }
  hybrid_net net(g, cfg(), 31);
  rng r(55);
  std::vector<std::vector<token2>> initial(g.num_nodes());
  for (int t = 0; t < tokens_total; ++t) {
    const u32 owner = static_cast<u32>(r.next_below(g.num_nodes()));
    initial[owner].push_back(
        {static_cast<u64>(t) << 8, static_cast<u64>(0xBEEF + t)});
  }
  const dissemination_result res = disseminate(net, initial);
  EXPECT_EQ(res.tokens.size(), static_cast<std::size_t>(tokens_total));
  // Spot-check token content survived.
  std::set<u64> payloads;
  for (const token2& t : res.tokens) payloads.insert(t.b);
  for (int t = 0; t < tokens_total; ++t)
    EXPECT_TRUE(payloads.count(0xBEEF + t));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DisseminationProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 32, 256)));

TEST(Dissemination, EmptyInstanceCostsOnlyCountAggregation) {
  const graph g = gen::path(64);
  hybrid_net net(g, cfg(), 1);
  const auto res = disseminate(net, std::vector<std::vector<token2>>(64));
  EXPECT_TRUE(res.tokens.empty());
  EXPECT_LE(net.round(), 16u);
}

TEST(Dissemination, ReceiveLoadStaysLogarithmic) {
  const graph g = gen::erdos_renyi_connected(256, 5.0, 1, 3);
  hybrid_net net(g, cfg(), 8);
  std::vector<std::vector<token2>> initial(256);
  rng r(4);
  for (int t = 0; t < 300; ++t)
    initial[r.next_below(256)].push_back({static_cast<u64>(t), 1});
  disseminate(net, initial);
  // Lemma D.2-style bound: a small multiple of γ = 4·log2(n).
  EXPECT_LE(net.raw_metrics().max_global_recv_per_round,
            4 * net.global_cap());
}

TEST(Dissemination, SqrtKScaling) {
  // Rounds should grow far slower than k (≈ √k up to polylogs).
  const graph g = gen::erdos_renyi_connected(128, 5.0, 1, 17);
  std::vector<u64> rounds;
  for (u32 k : {64u, 1024u}) {
    hybrid_net net(g, cfg(), 19);
    rng r(6);
    std::vector<std::vector<token2>> initial(128);
    for (u32 t = 0; t < k; ++t)
      initial[r.next_below(128)].push_back({t, t});
    disseminate(net, initial);
    rounds.push_back(net.round());
  }
  // k grew 16×; Õ(√k) predicts ≈ 4×; require well under linear.
  EXPECT_LT(rounds[1], rounds[0] * 8);
}

}  // namespace
}  // namespace hybrid
