// Exact APSP in Õ(√n) HYBRID rounds (paper Theorem 1.1, Section 3).
//
// Pipeline (x = √n, p = 1/x):
//   1. skeleton: sample V_S with probability 1/√n, h = Õ(√n) local rounds
//      teach every node d_h to nearby skeletons and give V_S its edges;
//   2. the Õ(n) skeleton edges are token-disseminated (Õ(√n) rounds), after
//      which every node solves APSP on S locally and knows d(v, s) for all
//      s ∈ V_S (via min over nearby skeleton nodes);
//   3. the replaced bottleneck: instead of broadcasting all |V_S|·n distance
//      labels ([3]'s Õ(n^{2/3}) approach, see apsp_baseline.hpp), every node
//      v routes one token per skeleton node s carrying d(v, s) with token
//      routing — Õ(n·(n/x)/n + √n) = Õ(√n) rounds (proof of Theorem 1.1);
//   4. every skeleton node s now knows d(s, v) for all v and floods the
//      label table h hops; every node now holds the per-node labels of
//      core/dist_oracle.hpp and can answer
//        d(u, v) = min(d_h(u, v), min_{s near u} d_h(u, s) + d(s, v))
//      as a free local computation.
//
// Fault behavior (docs/FAULTS.md): every stage self-heals under injected
// message loss on both planes plus crash/recovery — the floods and the
// exploration through their healed re-offer engines, token routing through
// its acknowledgement layer — so the labels come out bit-identical to the
// fault-free run or the pipeline throws fault_failure explicitly. The one
// refusal: charged_token_routing=true throws fault_unsupported under any
// injected fault (its closed-form budgets move no real messages).
#pragma once

#include "core/dist_oracle.hpp"
#include "graph/graph.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {

struct apsp_result {
  /// The native output: queryable per-node distance labels (always built).
  /// `labels.query(u, v)` / `labels.next_hop(u, v)` / `labels.row(u)` answer
  /// from Õ(|ball_h(u)| + |V_S|)-word node labels; `labels.topo` points at
  /// the caller's graph, which must outlive the result.
  dist_labels labels;
  /// Dense adapters over the labels, filled when resolve_materialize(opts,
  /// n) holds (sim_options{storage}; auto = n ≤ kDenseExplorationMaxNodes)
  /// so pre-oracle callers stay source-compatible: dist[u][v], and — with
  /// `build_routes` — next_hop[u][v] = u's neighbor on a shortest u→v path
  /// (u itself on the diagonal). Greedy forwarding along next-hop entries
  /// realizes exactly dist[u][v] — the paper's IP-routing application
  /// (Section 1).
  std::vector<std::vector<u64>> dist;
  std::vector<std::vector<u32>> next_hop;
  run_metrics metrics;
  u32 skeleton_size = 0;
  u32 h = 0;

  bool materialized() const { return !dist.empty(); }
};

/// Theorem 1.1. With `build_routes` every node additionally exchanges its
/// distance labels with its neighbors in one more LOCAL round, after which
/// next-hop routing is a free local computation (the round complexity is
/// otherwise unchanged). `opts` selects the executor thread count and the
/// result storage (docs/CONCURRENCY.md, core/dist_oracle.hpp); distances,
/// labels, and metrics are bit-identical for every thread count and either
/// storage mode.
apsp_result hybrid_apsp_exact(const graph& g, const model_config& cfg,
                              u64 seed, bool build_routes = false,
                              sim_options opts = {});

}  // namespace hybrid
