#include "core/apsp.hpp"

#include <algorithm>
#include <cmath>

#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"
#include "util/assert.hpp"

namespace hybrid {

apsp_result hybrid_apsp_exact(const graph& g, const model_config& cfg,
                              u64 seed, bool build_routes, sim_options opts) {
  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();
  apsp_result out;

  // ---- 1. skeleton with p = 1/√n (overridable) ---------------------------
  net.begin_phase("skeleton");
  const double p = cfg.skeleton_p_override > 0.0
                       ? cfg.skeleton_p_override
                       : 1.0 / std::sqrt(static_cast<double>(n));
  const skeleton_result sk = compute_skeleton(net, p);
  const u32 n_s = static_cast<u32>(sk.nodes.size());
  out.skeleton_size = n_s;
  out.h = sk.h;

  // ---- 2. make E_S public ------------------------------------------------
  net.begin_phase("skeleton_dissemination");
  const bool two_level = opts.hierarchy == oracle_hierarchy::kTwoLevel;
  std::vector<std::vector<token2>> edge_tokens(n);
  for (u32 i = 0; i < n_s; ++i)
    for (const auto& [j, w] : sk.edges[i])
      if (i < j)  // each edge announced once, by its smaller endpoint
        edge_tokens[sk.nodes[i]].push_back({(u64{i} << 32) | j, w});
  // Two level runs a dense level-1 skeleton (p₁ ≫ 1/√n), so the gossip
  // simulation's Θ(n·|E_S|) per-node known sets are the memory wall; the
  // charged stand-in keeps the accounting and drops the state (E_S is
  // consumed only inside the skeleton there — DESIGN.md deviation 10).
  // Under active faults the stand-in cannot heal, so the real gossip runs.
  if (two_level && !net.faults_active())
    disseminate_charged(net, std::move(edge_tokens));
  else
    disseminate(net, std::move(edge_tokens));
  super_skeleton_result ss;
  if (!two_level) {
    // ---- 3. single level: solve APSP on S locally, then token routing:
    // every v sends d(v, s) to each s ∈ V_S. d(v, s) = min_{u near v}
    // d_h(v, u) + d_S(u, s) is free local computation (all inputs known to
    // v), written straight into v's token batch — no n × n_s staging matrix
    // (parallel over v).
    const std::vector<std::vector<u64>> dist_s =
        skeleton_apsp(sk, net.executor());
    net.begin_phase("token_routing");
    routing_spec spec;
    spec.senders.resize(n);
    for (u32 v = 0; v < n; ++v) spec.senders[v] = v;
    spec.receivers = sk.nodes;
    spec.p_s = 1.0;
    spec.p_r = p;
    spec.k_s = n_s;
    spec.k_r = n;
    std::vector<std::vector<routed_token>> batch(n);
    net.executor().for_nodes(n, [&](u32 v) {
      batch[v].reserve(n_s);
      for (u32 s = 0; s < n_s; ++s)
        batch[v].push_back({v, sk.nodes[s], 0, kInfDist});
      for (const source_distance& sd : sk.near[v])
        for (u32 s = 0; s < n_s; ++s) {
          const u64 cand = sd.dist + dist_s[sd.source][s];
          batch[v][s].payload = std::min(batch[v][s].payload, cand);
        }
    });
    auto delivered = run_token_routing(net, std::move(spec), std::move(batch));

    // skel[s·n + v] = d(s, v) assembled at skeleton node s (parallel over
    // s; each delivered slice is dropped once its row is written).
    out.labels.skel.assign(u64{n_s} * n, kInfDist);
    net.executor().for_nodes(n_s, [&](u32 s) {
      HYB_INVARIANT(delivered[s].size() == n, "skeleton node missed tokens");
      u64* lbl = out.labels.skel.data() + u64{s} * n;
      for (const routed_token& t : delivered[s]) lbl[t.sender] = t.payload;
      std::vector<routed_token>().swap(delivered[s]);
    });
  } else {
    // ---- 3'. two level: recurse once instead of routing n_s × n rows.
    // A super-skeleton V_S2 ⊆ V_S is sampled and announced; ball1/gw1 over
    // G_S and the n_s2 × n_s2 super-pair table are then free local
    // computation from the public E_S (the skeleton_apsp precedent) — no
    // token-routing phase and no n_s × n table anywhere, which is the
    // whole memory story at n = 10⁵.
    net.begin_phase("super_skeleton");
    const double p2 = cfg.super_p_override > 0.0
                          ? cfg.super_p_override
                          : 1.0 / std::sqrt(static_cast<double>(n_s));
    const u32 h1 =
        cfg.super_h_override > 0
            ? cfg.super_h_override
            : std::max<u32>(
                  1, static_cast<u32>(std::ceil(
                         cfg.skeleton_xi * (1.0 / p2) *
                         std::log(std::max<double>(2.0, n_s)))));
    ss = compute_super_skeleton(net, sk, p2, h1);
    out.labels.n_s2 = static_cast<u32>(ss.members.size());
  }

  // ---- 4. label flood + parallel local exploration -----------------------
  net.begin_phase("label_flood");
  if (!two_level) {
    table_flood(net, sk.nodes, std::vector<u64>(n_s, n), sk.h);
  } else {
    // Each skeleton node floods its level-1 label row (ball1 + gw1
    // triples); super members additionally flood their super-pair row.
    std::vector<u64> words(n_s);
    for (u32 i = 0; i < n_s; ++i) {
      const u64 b1 = ss.ball_offsets[i + 1] - ss.ball_offsets[i];
      const u64 g1 = ss.gw_offsets[i + 1] - ss.gw_offsets[i];
      words[i] = 3 * b1 + 3 * g1 +
                 (ss.index_of[i] != super_skeleton_result::npos
                      ? u64{out.labels.n_s2}
                      : 0);
    }
    table_flood(net, sk.nodes, words, sk.h);
  }
  // The full h-hop exploration runs on the local network in parallel with
  // everything above (LOCAL bandwidth is unbounded): charge traffic only.
  // run_local_exploration picks dense rows or ball-bounded sparse maps by n
  // (proto/sparse_exploration.hpp) — triples and charging are bit-identical
  // either way.
  out.labels.ball = run_local_exploration(
      net, sk.h, /*advance_rounds=*/false, nullptr, /*first_hops=*/false);

  // Every node now holds its label: ball + gateways + the flooded skeleton
  // table. Package them as the dist_labels oracle (core/dist_oracle.hpp).
  out.labels.n = n;
  out.labels.n_s = n_s;
  out.labels.h = sk.h;
  out.labels.scheme =
      two_level ? label_scheme::kTwoLevel : label_scheme::kSkeletonRows;
  out.labels.topo = &g;
  out.labels.skeleton_nodes = sk.nodes;
  if (two_level) {
    out.labels.ball1_offsets = std::move(ss.ball_offsets);
    out.labels.ball1_entries = std::move(ss.ball_entries);
    out.labels.gw1_offsets = std::move(ss.gw_offsets);
    out.labels.gw1 = std::move(ss.gateways);
    out.labels.super_nodes = std::move(ss.members);
    out.labels.skel = std::move(ss.pairs);
  }
  out.labels.gw_offsets.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v)
    out.labels.gw_offsets[v + 1] = out.labels.gw_offsets[v] + sk.near[v].size();
  out.labels.gateways.resize(out.labels.gw_offsets[n]);
  net.executor().for_nodes(n, [&](u32 v) {
    std::copy(sk.near[v].begin(), sk.near[v].end(),
              out.labels.gateways.begin() +
                  static_cast<std::ptrdiff_t>(out.labels.gw_offsets[v]));
  });

  if (build_routes) {
    // One more LOCAL round: every node shares its (exact) distance labels
    // with its neighbors; next_hop(u, v) = argmin_w w(u,w) + d(w,v). With
    // exact distances and weights ≥ 1 the remaining distance strictly
    // decreases along every hop, so greedy forwarding is loop-free and
    // realizes d(u,v) (the paper's IP-routing application).
    net.begin_phase("route_tables");
    net.charge_local(2 * g.num_edges() * n);
    // Closed-form neighbor-exchange budget: reliability-abstracted, so the
    // whole charge counts as delivered (run_metrics::local_delivered).
    net.note_local_delivered(2 * g.num_edges() * n);
    net.advance_round();
    out.labels.routes = true;
  }
  out.metrics = net.snapshot();

  // Dense adapters for pre-oracle callers (free local computation — the
  // labels already determine every entry).
  if (resolve_materialize(opts, n)) {
    out.dist = out.labels.materialize(net.executor());
    if (build_routes)
      out.next_hop = out.labels.materialize_next_hops(out.dist, net.executor());
  }
  return out;
}

}  // namespace hybrid
