// Store-level differential suite for the h-hop exploration
// (proto/sparse_exploration.hpp): the two per-node stores of
// proto/local_engine.hpp — dense rows and sparse_dist_maps — run through
// the same explore() and must give identical (source, dist, first_hop)
// triples and identical charged metrics on randomized and adversarial
// graphs, at threads ∈ {1, 2, 8}, for all-node and source-set roots, with
// first hops on and off; run_local_exploration (which picks the store by
// n) must agree with both. Plus the foregrounded edge cases (h = 0,
// single-node components, isolated vertices, early-exit round accounting,
// first-hop tie-breaks), the sparse_dist_map unit semantics, and the cores
// built on the exploration against their references at several thread
// counts. Runs in the TSAN CI job at 8 threads.
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
#include "proto/local_engine.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

using local_engine::dense_rows;
using local_engine::sparse_rows;

model_config cfg() { return model_config{}; }

sim_options opts(u32 threads) {
  sim_options o;
  o.threads = threads;
  return o;
}

struct run_out {
  sparse_exploration_result res;
  run_metrics m;
};

/// One store, driven directly through local_engine::explore on a charged
/// reliable net: every node explores, or the (distinct) `sources`.
template <class Rows>
run_out run_store(const graph& g, u32 h, bool advance_rounds, u32 threads,
                  const std::vector<u32>* sources = nullptr,
                  bool first_hops = true) {
  hybrid_net net(g, cfg(), 1, opts(threads));
  std::vector<local_engine::root> roots;
  if (sources) {
    for (const u32 s : *sources) roots.push_back({s, s});
  } else {
    for (u32 v = 0; v < g.num_nodes(); ++v) roots.push_back({v, v});
  }
  run_out o;
  o.res = local_engine::explore<Rows>(
      g.num_nodes(), h, roots, local_engine::graph_edges{net.g()},
      local_engine::round_policy::charged(net, advance_rounds), first_hops);
  o.m = net.snapshot();
  return o;
}

/// The public entry point (the store it picks is an n-based detail).
run_out run_entry(const graph& g, u32 h, bool advance_rounds, u32 threads,
                  const std::vector<u32>* sources = nullptr,
                  bool first_hops = true) {
  hybrid_net net(g, cfg(), 1, opts(threads));
  run_out o;
  o.res = run_local_exploration(net, h, advance_rounds, sources, first_hops);
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

/// Both stores and the entry point, every tested thread count, first hops
/// on and off, against one dense@1 reference per first-hop mode. Without
/// first hops every first_hop is ~0 and (source, dist) match the tracked
/// run.
void differential(const graph& g, u32 h,
                  const std::vector<u32>* sources = nullptr) {
  const run_out tracked = run_store<dense_rows>(g, h, true, 1, sources);
  for (const bool first_hops : {true, false}) {
    const run_out ref =
        run_store<dense_rows>(g, h, true, 1, sources, first_hops);
    for (u32 threads : {1u, 2u, 8u}) {
      const run_out got[] = {
          run_store<dense_rows>(g, h, true, threads, sources, first_hops),
          run_store<sparse_rows>(g, h, true, threads, sources, first_hops),
          run_entry(g, h, true, threads, sources, first_hops)};
      for (u32 k = 0; k < 3; ++k) {
        ASSERT_EQ(got[k].res, ref.res) << "threads=" << threads << " run="
                                       << k << " first_hops=" << first_hops;
        expect_metrics_eq(got[k].m, ref.m);
      }
    }
    if (first_hops) continue;
    ASSERT_EQ(ref.res.offsets, tracked.res.offsets);
    for (u64 k = 0; k < ref.res.entries.size(); ++k) {
      ASSERT_EQ(ref.res.entries[k].first_hop, ~u32{0});
      ASSERT_EQ(ref.res.entries[k].source, tracked.res.entries[k].source);
      ASSERT_EQ(ref.res.entries[k].dist, tracked.res.entries[k].dist);
    }
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
/// run_local_exploration, at every tested thread count.
void unit_flood_differential(const graph& g, u32 h) {
  const u32 n = g.num_nodes();
  std::vector<u32> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0u);
  const std::vector<u64> words(n, 1);
  for (u32 threads : {1u, 2u, 8u}) {
    const run_out want = run_entry(g, h, true, threads);
    hybrid_net hop_net(g, cfg(), 1, opts(threads));
    const auto known = hop_discovery(hop_net, everyone, h);
    hybrid_net table_net(g, cfg(), 1, opts(threads));
    const auto holds = table_flood(table_net, everyone, words, h);
    hybrid_net ecc_net(g, cfg(), 1, opts(threads));
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
  const run_out got = run_entry(g, 4, true, 1);
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
      run_entry(g, 4, true, 1, &sources);
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
  const run_out got = run_entry(g, 4, true, 1);
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
  const run_out got = run_entry(g, 0, true, 1);
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
  const run_out got = run_entry(g, 3, true, 1);
  EXPECT_EQ(got.res.total_reached(), 2u);
  // Budgeted rounds elapse silently even though the frontier died at once.
  EXPECT_EQ(got.m.rounds, 3u);
}

TEST(SparseExplorationEdge, EarlyExitRoundAccounting) {
  // Path of 6: the frontier saturates after 5 rounds, but the fixed budget
  // h = 20 still elapses in full when rounds advance...
  const graph g = gen::path(6, 4, 7);
  EXPECT_EQ(run_store<dense_rows>(g, 20, true, 1).m.rounds, 20u);
  EXPECT_EQ(run_store<sparse_rows>(g, 20, true, 1).m.rounds, 20u);
  EXPECT_EQ(run_entry(g, 20, true, 1).m.rounds, 20u);
  // ...and is not charged at all in run-in-parallel mode, where only
  // traffic is charged.
  const run_out dense = run_store<dense_rows>(g, 20, false, 1);
  const run_out sparse = run_store<sparse_rows>(g, 20, false, 1);
  EXPECT_EQ(dense.m.rounds, 0u);
  EXPECT_GT(dense.m.local_items, 0u);
  EXPECT_EQ(sparse.res, dense.res);
  expect_metrics_eq(sparse.m, dense.m);
  expect_metrics_eq(run_entry(g, 20, false, 1).m, dense.m);
}

TEST(SparseExplorationEdge, FirstHopTieBreakDeterminism) {
  // Diamond 0-1-3, 0-2-3: node 3 sees two equal-cost routes to source 0.
  // The contract: the first strictly-improving neighbor in sorted adjacency
  // order wins and equal later offers never overwrite — so 3's first hop
  // toward 0 is neighbor 1, in both stores, at every thread count.
  const graph unweighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}});
  // Weighted twist: both routes cost 3 but arrive via different neighbors.
  const graph weighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 2}, {0, 2, 1}, {1, 3, 1}, {2, 3, 2}});
  for (const graph& g : {unweighted, weighted}) {
    differential(g, 3);
    for (u32 threads : {1u, 2u, 8u})
      for (const run_out& got : {run_store<dense_rows>(g, 3, true, threads),
                                 run_store<sparse_rows>(g, 3, true, threads)}) {
        u32 hop = ~u32{0};
        for (const exploration_entry& e : got.res.reached(3))
          if (e.source == 0) hop = e.first_hop;
        EXPECT_EQ(hop, 1u);
      }
  }
}

TEST(SparseExplorationEdge, NoFirstHopsModeStaysBitIdentical) {
  // The cores only consume (source, dist); first_hops = false spares the
  // dense rows their vias and must blank the field in both stores so the
  // store-level bit-identity still holds.
  const graph g = gen::erdos_renyi_connected(70, 4.0, 5, 3);
  const std::vector<u32> sources{2, 9, 40, 41, 66};
  const std::vector<u32>* const root_sets[] = {nullptr, &sources};
  for (const std::vector<u32>* roots : root_sets) {
    const run_out dense =
        run_store<dense_rows>(g, 4, true, 1, roots, /*first_hops=*/false);
    const run_out sparse =
        run_store<sparse_rows>(g, 4, true, 1, roots, /*first_hops=*/false);
    ASSERT_EQ(dense.res, sparse.res);
    for (const exploration_entry& e : dense.res.entries)
      ASSERT_EQ(e.first_hop, ~u32{0});
    // Same triples as the first_hops mode, minus the hop field.
    const run_out with = run_store<sparse_rows>(g, 4, true, 1, roots);
    ASSERT_EQ(dense.res.offsets, with.res.offsets);
    for (u64 k = 0; k < dense.res.entries.size(); ++k) {
      ASSERT_EQ(dense.res.entries[k].source, with.res.entries[k].source);
      ASSERT_EQ(dense.res.entries[k].dist, with.res.entries[k].dist);
    }
  }
}

TEST(SparseExplorationEdge, RejectsDuplicateSources) {
  const graph g = gen::path(8);
  const std::vector<u32> dup{2, 2};
  hybrid_net net(g, cfg(), 1, opts(1));
  EXPECT_THROW(run_local_exploration(net, 2, true, &dup),
               std::invalid_argument);
  EXPECT_THROW(limited_bellman_ford(net, dup, 2), std::invalid_argument);
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

// ---- the cores built on the exploration --------------------------------------

TEST(SparseExplorationCores, ApspExactThreadInvariantAndExact) {
  const graph g = gen::erdos_renyi_connected(80, 4.0, 6, 17);
  const apsp_result ref =
      hybrid_apsp_exact(g, cfg(), 3, /*build_routes=*/true, opts(1));
  ASSERT_EQ(ref.dist, apsp_reference(g));
  // Every next hop is a neighbour on a shortest path.
  for (u32 u = 0; u < 80; ++u)
    for (u32 v = 0; v < 80; ++v) {
      if (u == v) continue;
      const u32 hop = ref.next_hop[u][v];
      u64 w = kInfDist;
      for (const edge& e : g.neighbors(u))
        if (e.to == hop) w = std::min(w, e.weight);
      ASSERT_NE(w, kInfDist) << u << "->" << v;
      ASSERT_EQ(w + ref.dist[hop][v], ref.dist[u][v]) << u << "->" << v;
    }
  for (u32 threads : {2u, 8u}) {
    const apsp_result got = hybrid_apsp_exact(g, cfg(), 3, true, opts(threads));
    ASSERT_EQ(got.dist, ref.dist);
    ASSERT_EQ(got.next_hop, ref.next_hop);
    expect_metrics_eq(got.metrics, ref.metrics);
  }
}

TEST(SparseExplorationCores, ApspBaselineThreadInvariantAndExact) {
  const graph g = gen::grid(8, 8, 4, 13);
  const apsp_baseline_result ref = baseline_apsp_ahkss(g, cfg(), 5, opts(1));
  ASSERT_EQ(ref.dist, apsp_reference(g));
  const apsp_baseline_result got = baseline_apsp_ahkss(g, cfg(), 5, opts(8));
  ASSERT_EQ(got.dist, ref.dist);
  expect_metrics_eq(got.metrics, ref.metrics);
}

TEST(SparseExplorationCores, KsspThreadInvariantAndWithinBound) {
  const graph g = gen::erdos_renyi_connected(96, 4.0, 5, 7);
  const auto alg = make_clique_kssp_1eps(0.25, injection::none);
  const std::vector<u32> sources{4, 31, 77};
  const kssp_result ref = hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(1));
  const auto truth = multi_source_reference(g, sources);
  for (u32 j = 0; j < sources.size(); ++j)
    for (u32 v = 0; v < 96; ++v) {
      ASSERT_GE(ref.dist[j][v], truth[j][v]) << j << "/" << v;
      ASSERT_LE(static_cast<double>(ref.dist[j][v]),
                ref.bound_weighted * static_cast<double>(truth[j][v]) + 1e-9)
          << j << "/" << v;
    }
  for (u32 threads : {2u, 8u}) {
    const kssp_result got =
        hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(threads));
    ASSERT_EQ(got.dist, ref.dist);
    expect_metrics_eq(got.metrics, ref.metrics);
  }
}

}  // namespace
}  // namespace hybrid
