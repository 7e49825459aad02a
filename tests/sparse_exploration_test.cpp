// Differential suite for the sparse (neighborhood-bounded) exploration path
// against the dense reference (proto/sparse_exploration.hpp): identical
// (source, dist, first_hop) triples and identical round/message metrics on
// randomized and adversarial graphs, at threads ∈ {1, 2, 8}; plus the
// foregrounded edge cases (h = 0, single-node components, isolated
// vertices, early-exit round accounting, first-hop tie-breaks) and the
// sparse_dist_map unit semantics. Runs in the TSAN CI job at 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/kssp_framework.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

sim_options opts(u32 threads, exploration_path path) {
  sim_options o;
  o.threads = threads;
  o.exploration = path;
  return o;
}

struct run_out {
  sparse_exploration_result res;
  run_metrics m;
};

run_out run_path(const graph& g, u32 h, bool advance_rounds, u32 threads,
                 exploration_path path,
                 const std::vector<u32>* sources = nullptr) {
  hybrid_net net(g, cfg(), 1, opts(threads, path));
  run_out o;
  o.res = run_local_exploration(net, h, advance_rounds, sources);
  o.m = net.snapshot();
  return o;
}

void expect_metrics_eq(const run_metrics& a, const run_metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.local_items, b.local_items);
  EXPECT_EQ(a.global_messages, b.global_messages);
  EXPECT_EQ(a.global_payload_words, b.global_payload_words);
  EXPECT_EQ(a.max_global_recv_per_round, b.max_global_recv_per_round);
}

/// Both paths, every tested thread count, one dense@1 reference.
void differential(const graph& g, u32 h,
                  const std::vector<u32>* sources = nullptr) {
  const run_out ref = run_path(g, h, true, 1, exploration_path::kDense,
                               sources);
  for (u32 threads : {1u, 2u, 8u})
    for (exploration_path path :
         {exploration_path::kDense, exploration_path::kSparse}) {
      const run_out got = run_path(g, h, true, threads, path, sources);
      ASSERT_EQ(got.res, ref.res)
          << "threads=" << threads << " sparse=" << (path != exploration_path::kDense);
      expect_metrics_eq(got.m, ref.m);
    }
}

/// Two components (path, triangle) plus two isolated vertices.
graph disconnected_graph() {
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {2, 3, 3},
                               {4, 5, 1}, {5, 6, 2}, {4, 6, 2}};
  return graph::from_edges(9, edges);
}

/// The seen-bitset floods against the exploration on an unweighted graph,
/// every node a seed / publisher / hello source. A unit flood's first
/// arrival is final, so hop_discovery, table_flood (one word per table)
/// and truncated_eccentricity must reach exactly the h-ball with hop =
/// dist, in the same rounds and with the same local items as
/// run_local_exploration on both paths, at every tested thread count.
void unit_flood_differential(const graph& g, u32 h) {
  const u32 n = g.num_nodes();
  std::vector<u32> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0u);
  const std::vector<u64> words(n, 1);
  for (u32 threads : {1u, 2u, 8u})
    for (exploration_path path :
         {exploration_path::kDense, exploration_path::kSparse}) {
      const run_out want = run_path(g, h, true, threads, path);
      hybrid_net hop_net(g, cfg(), 1, opts(threads, path));
      const auto known = hop_discovery(hop_net, everyone, h);
      hybrid_net table_net(g, cfg(), 1, opts(threads, path));
      const auto holds = table_flood(table_net, everyone, words, h);
      hybrid_net ecc_net(g, cfg(), 1, opts(threads, path));
      const std::vector<u32> ecc = truncated_eccentricity(ecc_net, h);
      for (u32 v = 0; v < n; ++v) {
        std::vector<std::pair<u32, u64>> ball, heard;
        std::vector<u32> ids, tables(holds[v]);
        u64 far = 0;
        for (const exploration_entry& e : want.res.reached(v)) {
          ball.push_back({e.source, e.dist});
          ids.push_back(e.source);
          far = std::max(far, e.dist);
        }
        for (const discovered_seed& d : known[v])
          heard.push_back({d.seed, d.hop});
        std::sort(heard.begin(), heard.end());
        std::sort(tables.begin(), tables.end());
        ASSERT_EQ(heard, ball) << "node " << v << " threads=" << threads;
        ASSERT_EQ(tables, ids) << "node " << v << " threads=" << threads;
        ASSERT_EQ(ecc[v], far) << "node " << v << " threads=" << threads;
      }
      for (const hybrid_net* net : {&hop_net, &table_net, &ecc_net}) {
        EXPECT_EQ(net->raw_metrics().rounds, want.m.rounds);
        EXPECT_EQ(net->raw_metrics().local_items, want.m.local_items);
      }
    }
}

// ---- randomized differential runs --------------------------------------------

TEST(SparseExplorationDiff, ErdosRenyiRandomized) {
  for (u64 seed : {11u, 12u, 13u, 14u}) {
    rng r(seed);
    const u32 n = 40 + static_cast<u32>(r.next_below(110));
    const double deg = 3.0 + r.next_double() * 3.0;
    const u64 max_w = r.next_bool(0.5) ? 1 : 7;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    differential(g, static_cast<u32>(1 + r.next_below(6)));
  }
}

TEST(SparseExplorationDiff, Grid) {
  differential(gen::grid(8, 8, 5, 21), 5);
}

TEST(SparseExplorationDiff, Star) {
  // balanced_tree with arity n-1 is a star centered at node 0: every leaf
  // reaches every other leaf in exactly 2 hops through the hub.
  differential(gen::balanced_tree(48, 47, 3, 9), 2);
}

TEST(SparseExplorationDiff, DisconnectedWithIsolatedVertices) {
  const graph g = disconnected_graph();
  differential(g, 4);
  // Isolated vertices (7, 8) reach exactly themselves; components do not
  // leak into each other.
  const run_out got = run_path(g, 4, true, 1, exploration_path::kSparse);
  for (u32 v : {7u, 8u}) {
    ASSERT_EQ(got.res.reached(v).size(), 1u);
    EXPECT_EQ(got.res.reached(v)[0],
              (exploration_entry{0, v, v}));
  }
  for (const exploration_entry& e : got.res.reached(0))
    EXPECT_LT(e.source, 4u);  // path component only
}

TEST(SparseExplorationDiff, UnitFloodsMatchExploration) {
  unit_flood_differential(gen::erdos_renyi_connected(60, 3.5, 1, 17), 3);
  unit_flood_differential(gen::erdos_renyi_connected(90, 5.0, 1, 18), 6);
  // h = 20 outlasts the grid's diameter (14): saturation padding too.
  unit_flood_differential(gen::grid(8, 8, 1, 21), 5);
  unit_flood_differential(gen::grid(8, 8, 1, 21), 20);
  unit_flood_differential(gen::balanced_tree(48, 47, 1, 9), 2);
  const graph disconnected = graph::from_edges(
      9, std::vector<edge_spec>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                                {4, 5, 1}, {5, 6, 1}, {4, 6, 1}});
  unit_flood_differential(disconnected, 4);
}

TEST(SparseExplorationDiff, SourceSubset) {
  // The limited_bellman_ford-shaped workload kssp_framework runs.
  const graph g = gen::erdos_renyi_connected(90, 4.0, 6, 5);
  const std::vector<u32> sources{3, 17, 42, 88};
  differential(g, 4, &sources);
  // Distances agree with the centralized d_h reference.
  const run_out got =
      run_path(g, 4, true, 1, exploration_path::kSparse, &sources);
  for (u32 s : sources) {
    const std::vector<u64> ref = limited_distance(g, s, 4);
    for (u32 v = 0; v < 90; ++v) {
      u64 mine = kInfDist;
      for (const exploration_entry& e : got.res.reached(v))
        if (e.source == s) mine = e.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << s << " node " << v;
    }
  }
}

TEST(SparseExplorationDiff, MatchesCentralizedReferenceAllSources) {
  const graph g = gen::erdos_renyi_connected(60, 4.5, 5, 31);
  const run_out got = run_path(g, 4, true, 1, exploration_path::kSparse);
  for (u32 s = 0; s < 60; ++s) {
    const std::vector<u64> ref = limited_distance(g, s, 4);
    for (u32 v = 0; v < 60; ++v) {
      u64 mine = kInfDist;
      for (const exploration_entry& e : got.res.reached(v))
        if (e.source == s) mine = e.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << s << " node " << v;
    }
  }
}

// ---- edge cases ----------------------------------------------------------------

TEST(SparseExplorationEdge, HZeroReachesSelfOnly) {
  const graph g = gen::erdos_renyi_connected(30, 4.0, 3, 2);
  differential(g, 0);
  const run_out got = run_path(g, 0, true, 1, exploration_path::kSparse);
  EXPECT_EQ(got.m.rounds, 0u);
  EXPECT_EQ(got.m.local_items, 0u);
  ASSERT_EQ(got.res.total_reached(), 30u);
  for (u32 v = 0; v < 30; ++v) {
    ASSERT_EQ(got.res.reached(v).size(), 1u);
    EXPECT_EQ(got.res.reached(v)[0], (exploration_entry{0, v, v}));
  }
}

TEST(SparseExplorationEdge, SingleNodeComponents) {
  // hybrid_net requires n >= 2, so the minimal instance is two singleton
  // components: each node's whole h-ball is itself for every h.
  const graph g = graph::from_edges(2, std::vector<edge_spec>{});
  differential(g, 3);
  const run_out got = run_path(g, 3, true, 1, exploration_path::kSparse);
  EXPECT_EQ(got.res.total_reached(), 2u);
  // Budgeted rounds elapse silently even though the frontier died at once.
  EXPECT_EQ(got.m.rounds, 3u);
}

TEST(SparseExplorationEdge, EarlyExitRoundAccounting) {
  // Path of 6: the frontier saturates after 5 rounds, but the fixed budget
  // h = 20 still elapses in full when rounds advance...
  const graph g = gen::path(6, 4, 7);
  for (exploration_path path :
       {exploration_path::kDense, exploration_path::kSparse}) {
    hybrid_net net(g, cfg(), 1, opts(1, path));
    run_local_exploration(net, 20, /*advance_rounds=*/true);
    EXPECT_EQ(net.round(), 20u);
  }
  // ...and is not charged at all in run-in-parallel mode, where only
  // traffic is charged.
  run_metrics parallel_m[2];
  int i = 0;
  for (exploration_path path :
       {exploration_path::kDense, exploration_path::kSparse}) {
    hybrid_net net(g, cfg(), 1, opts(1, path));
    run_local_exploration(net, 20, /*advance_rounds=*/false);
    parallel_m[i++] = net.snapshot();
    EXPECT_EQ(net.round(), 0u);
    EXPECT_GT(net.raw_metrics().local_items, 0u);
  }
  expect_metrics_eq(parallel_m[0], parallel_m[1]);
}

TEST(SparseExplorationEdge, FirstHopTieBreakDeterminism) {
  // Diamond 0-1-3, 0-2-3: node 3 sees two equal-cost routes to source 0.
  // The contract: the first strictly-improving neighbor in sorted adjacency
  // order wins and equal later offers never overwrite — so 3's first hop
  // toward 0 is neighbor 1, on both paths, at every thread count.
  const graph unweighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}});
  // Weighted twist: both routes cost 3 but arrive via different neighbors.
  const graph weighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 2}, {0, 2, 1}, {1, 3, 1}, {2, 3, 2}});
  for (const graph& g : {unweighted, weighted}) {
    differential(g, 3);
    for (u32 threads : {1u, 2u, 8u})
      for (exploration_path path :
           {exploration_path::kDense, exploration_path::kSparse}) {
        const run_out got = run_path(g, 3, true, threads, path);
        u32 hop = ~u32{0};
        for (const exploration_entry& e : got.res.reached(3))
          if (e.source == 0) hop = e.first_hop;
        EXPECT_EQ(hop, 1u);
      }
  }
}

TEST(SparseExplorationEdge, NoFirstHopsModeStaysBitIdentical) {
  // The cores only consume (source, dist); first_hops = false spares the
  // dense path its n² first-hop matrix and must blank the field on both
  // paths so cross-path bit-identity still holds.
  const graph g = gen::erdos_renyi_connected(70, 4.0, 5, 3);
  sparse_exploration_result res[2];
  int i = 0;
  for (exploration_path path :
       {exploration_path::kDense, exploration_path::kSparse}) {
    hybrid_net net(g, cfg(), 1, opts(1, path));
    res[i++] = run_local_exploration(net, 4, true, nullptr,
                                     /*first_hops=*/false);
  }
  ASSERT_EQ(res[0], res[1]);
  for (const exploration_entry& e : res[0].entries)
    ASSERT_EQ(e.first_hop, ~u32{0});
  // Same triples as the first_hops mode, minus the hop field.
  const run_out with = run_path(g, 4, true, 1, exploration_path::kSparse);
  ASSERT_EQ(res[0].offsets, with.res.offsets);
  for (u64 k = 0; k < res[0].entries.size(); ++k) {
    ASSERT_EQ(res[0].entries[k].source, with.res.entries[k].source);
    ASSERT_EQ(res[0].entries[k].dist, with.res.entries[k].dist);
  }
}

TEST(SparseExplorationEdge, RejectsDuplicateSources) {
  const graph g = gen::path(8);
  const std::vector<u32> dup{2, 2};
  for (exploration_path path :
       {exploration_path::kDense, exploration_path::kSparse}) {
    hybrid_net net(g, cfg(), 1, opts(1, path));
    EXPECT_THROW(run_local_exploration(net, 2, true, &dup),
                 std::invalid_argument);
  }
}

// ---- sparse_dist_map unit semantics -------------------------------------------

TEST(SparseDistMap, RelaxInsertImproveReject) {
  sparse_dist_map m;
  EXPECT_EQ(m.dist_of(7), kInfDist);
  EXPECT_TRUE(m.relax(7, 10, 1));
  EXPECT_EQ(m.dist_of(7), 10u);
  EXPECT_FALSE(m.relax(7, 10, 2));  // equal never overwrites (tie-break)
  EXPECT_TRUE(m.relax(7, 4, 3));
  EXPECT_EQ(m.dist_of(7), 4u);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.entries()[0], (exploration_entry{4, 7, 3}));
}

TEST(SparseDistMap, GrowthKeepsAllEntries) {
  sparse_dist_map m;
  for (u32 s = 0; s < 5000; ++s) EXPECT_TRUE(m.relax(s * 977 + 1, s + 1, s));
  ASSERT_EQ(m.size(), 5000u);
  for (u32 s = 0; s < 5000; ++s) EXPECT_EQ(m.dist_of(s * 977 + 1), s + 1);
  EXPECT_EQ(m.dist_of(0), kInfDist);
}

TEST(SparseDistMap, ClearReuses) {
  sparse_dist_map m;
  for (u32 s = 0; s < 100; ++s) m.relax(s, s, s);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.dist_of(3), kInfDist);
  EXPECT_TRUE(m.relax(3, 9, 1));
  EXPECT_EQ(m.dist_of(3), 9u);
  EXPECT_EQ(m.size(), 1u);
}

// ---- the rewired cores agree across paths --------------------------------------

TEST(SparseExplorationCores, ApspExactIdenticalAcrossPaths) {
  const graph g = gen::erdos_renyi_connected(80, 4.0, 6, 17);
  const apsp_result dense = hybrid_apsp_exact(
      g, cfg(), 3, /*build_routes=*/true, opts(1, exploration_path::kDense));
  for (u32 threads : {1u, 8u}) {
    const apsp_result sparse = hybrid_apsp_exact(
        g, cfg(), 3, true, opts(threads, exploration_path::kSparse));
    ASSERT_EQ(sparse.dist, dense.dist);
    ASSERT_EQ(sparse.next_hop, dense.next_hop);
    expect_metrics_eq(sparse.metrics, dense.metrics);
  }
}

TEST(SparseExplorationCores, ApspBaselineIdenticalAcrossPaths) {
  const graph g = gen::grid(8, 8, 4, 13);
  const apsp_baseline_result dense =
      baseline_apsp_ahkss(g, cfg(), 5, opts(1, exploration_path::kDense));
  const apsp_baseline_result sparse =
      baseline_apsp_ahkss(g, cfg(), 5, opts(8, exploration_path::kSparse));
  ASSERT_EQ(sparse.dist, dense.dist);
  expect_metrics_eq(sparse.metrics, dense.metrics);
}

TEST(SparseExplorationCores, KsspIdenticalAcrossPaths) {
  const graph g = gen::erdos_renyi_connected(96, 4.0, 5, 7);
  const auto alg = make_clique_kssp_1eps(0.25, injection::none);
  const std::vector<u32> sources{4, 31, 77};
  const kssp_result dense = hybrid_kssp(g, cfg(), 7, sources, alg, false,
                                        opts(1, exploration_path::kDense));
  for (u32 threads : {1u, 8u}) {
    const kssp_result sparse = hybrid_kssp(g, cfg(), 7, sources, alg, false,
                                           opts(threads, exploration_path::kSparse));
    ASSERT_EQ(sparse.dist, dense.dist);
    expect_metrics_eq(sparse.metrics, dense.metrics);
  }
}

}  // namespace
}  // namespace hybrid
