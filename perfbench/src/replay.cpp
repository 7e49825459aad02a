#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "clique/algorithms.hpp"
#include "core/dist_oracle.hpp"
#include "proto/clique_embed.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"

namespace perfbench {

using namespace hybrid;

const char* stage_name(stage s) {
  static constexpr const char* kNames[kStageCount] = {
      "skeleton",         "disseminate",   "routing_context",
      "route_tokens",     "clique_embedding", "clique_rounds",
      "super_skeleton",   "table_flood",   "local_exploration"};
  return kNames[static_cast<std::size_t>(s)];
}

namespace {

/// One proto call: a span plus the counter deltas it caused. `charged`
/// marks a call the pipeline makes to a charged stand-in.
class stage_scope {
 public:
  stage_scope(tracer& tr, hybrid_net& net, replay_result& out, stage st,
              bool charged = false)
      : tr_(tr), net_(net), out_(out),
        stats_(out.stages[static_cast<std::size_t>(st)]), charged_(charged),
        before_(net.raw_metrics()), allocs_(heap_allocations()),
        peak_ok_(reset_peak_rss()),
        span_(tr.open(std::string("proto.") + stage_name(st))) {}
  ~stage_scope() {
    stats_.s += tr_.close(span_);
    const run_metrics& m = net_.raw_metrics();
    stats_.rounds += m.rounds - before_.rounds;
    if (charged_) out_.charged_rounds += m.rounds - before_.rounds;
    stats_.msgs += m.global_messages - before_.global_messages;
    stats_.local_items += m.local_items - before_.local_items;
    stats_.local_delivered += m.local_delivered - before_.local_delivered;
    stats_.retransmitted += m.retransmitted - before_.retransmitted;
    stats_.extra_rounds += m.extra_rounds - before_.extra_rounds;
    stats_.allocs += heap_allocations() - allocs_;
    if (peak_ok_) stats_.peak_mb = std::max(stats_.peak_mb, peak_rss_mb());
  }
  stage_scope(const stage_scope&) = delete;
  stage_scope& operator=(const stage_scope&) = delete;

 private:
  tracer& tr_;
  hybrid_net& net_;
  replay_result& out_;
  stage_stats& stats_;
  bool charged_;
  run_metrics before_;
  unsigned long long allocs_;
  bool peak_ok_;
  int span_;
};

/// sk.near flattened into the labels' gateway CSR (both pipelines).
template <class Labels>
void assemble_gateways(const skeleton_result& sk, u32 n, hybrid_net& net,
                       Labels& lab) {
  lab.gw_offsets.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v)
    lab.gw_offsets[v + 1] = lab.gw_offsets[v] + sk.near[v].size();
  lab.gateways.resize(lab.gw_offsets[n]);
  net.executor().for_nodes(n, [&](u32 v) {
    std::copy(sk.near[v].begin(), sk.near[v].end(),
              lab.gateways.begin() +
                  static_cast<std::ptrdiff_t>(lab.gw_offsets[v]));
  });
}

}  // namespace

replay_result replay_apsp(const graph& g, const model_config& cfg, u64 seed,
                          bool build_routes, const sim_options& opts,
                          tracer& tr) {
  replay_result out;
  const int root = tr.open("core.apsp");
  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();

  net.begin_phase("skeleton");
  const double p = cfg.skeleton_p_override > 0.0
                       ? cfg.skeleton_p_override
                       : 1.0 / std::sqrt(static_cast<double>(n));
  skeleton_result sk;
  {
    stage_scope s(tr, net, out, stage::skeleton);
    sk = compute_skeleton(net, p);
  }
  const u32 n_s = static_cast<u32>(sk.nodes.size());

  net.begin_phase("skeleton_dissemination");
  const bool two_level = opts.hierarchy == oracle_hierarchy::kTwoLevel;
  std::vector<std::vector<token2>> edge_tokens(n);
  for (u32 i = 0; i < n_s; ++i)
    for (const auto& [j, w] : sk.edges[i])
      if (i < j) edge_tokens[sk.nodes[i]].push_back({(u64{i} << 32) | j, w});
  const bool charged_gossip = two_level && !net.faults_active();
  {
    stage_scope s(tr, net, out, stage::disseminate, charged_gossip);
    if (charged_gossip)
      disseminate_charged(net, std::move(edge_tokens));
    else
      disseminate(net, std::move(edge_tokens));
  }

  dist_labels lab;
  super_skeleton_result ss;
  if (!two_level) {
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
    routing_context ctx;
    {
      stage_scope s(tr, net, out, stage::routing_context,
                    cfg.charged_token_routing);
      ctx = build_routing_context(net, std::move(spec));
    }
    std::vector<std::vector<routed_token>> delivered;
    {
      stage_scope s(tr, net, out, stage::route_tokens,
                    cfg.charged_token_routing);
      delivered = route_tokens(net, ctx, std::move(batch));
    }
    lab.skel.assign(u64{n_s} * n, kInfDist);
    net.executor().for_nodes(n_s, [&](u32 s) {
      u64* row = lab.skel.data() + u64{s} * n;
      for (const routed_token& t : delivered[s]) row[t.sender] = t.payload;
      std::vector<routed_token>().swap(delivered[s]);
    });
  } else {
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
    {
      stage_scope s(tr, net, out, stage::super_skeleton);
      ss = compute_super_skeleton(net, sk, p2, h1);
    }
    lab.n_s2 = static_cast<u32>(ss.members.size());
  }

  net.begin_phase("label_flood");
  std::vector<u64> words(n_s, n);
  if (two_level)
    for (u32 i = 0; i < n_s; ++i)
      words[i] = 3 * (ss.ball_offsets[i + 1] - ss.ball_offsets[i]) +
                 3 * (ss.gw_offsets[i + 1] - ss.gw_offsets[i]) +
                 (ss.index_of[i] != super_skeleton_result::npos
                      ? u64{lab.n_s2}
                      : 0);
  {
    stage_scope s(tr, net, out, stage::table_flood);
    table_flood(net, sk.nodes, words, sk.h);
  }
  {
    stage_scope s(tr, net, out, stage::local_exploration);
    lab.ball = run_local_exploration(net, sk.h, /*advance_rounds=*/false,
                                     nullptr, /*first_hops=*/false);
  }

  lab.n = n;
  lab.n_s = n_s;
  lab.h = sk.h;
  lab.scheme =
      two_level ? label_scheme::kTwoLevel : label_scheme::kSkeletonRows;
  lab.topo = &g;
  lab.skeleton_nodes = sk.nodes;
  if (two_level) {
    lab.ball1_offsets = std::move(ss.ball_offsets);
    lab.ball1_entries = std::move(ss.ball_entries);
    lab.gw1_offsets = std::move(ss.gw_offsets);
    lab.gw1 = std::move(ss.gateways);
    lab.super_nodes = std::move(ss.members);
    lab.skel = std::move(ss.pairs);
  }
  assemble_gateways(sk, n, net, lab);

  if (build_routes) {
    net.begin_phase("route_tables");
    net.charge_local(2 * g.num_edges() * n);
    net.note_local_delivered(2 * g.num_edges() * n);
    net.advance_round();
    lab.routes = true;
  }
  out.metrics = net.snapshot();
  if (resolve_materialize(opts, n)) {
    const std::vector<std::vector<u64>> dist = lab.materialize(net.executor());
    if (build_routes) lab.materialize_next_hops(dist, net.executor());
  }
  out.total_s = tr.close(root);
  return out;
}

replay_result replay_sssp(const graph& g, const model_config& cfg, u64 seed,
                          u32 source, const sim_options& opts, tracer& tr) {
  replay_result out;
  const int root = tr.open("core.sssp");
  const clique_sp_algorithm alg = make_clique_sssp_exact();
  hybrid_net net(g, cfg, seed, opts);
  const u32 n = net.n();
  const std::vector<u32> sources = {source};

  net.begin_phase("skeleton");
  const double x = 2.0 / (3.0 + 2.0 * alg.delta());
  const double p = std::pow(static_cast<double>(n), x - 1.0);
  skeleton_result sk;
  {
    stage_scope s(tr, net, out, stage::skeleton);
    sk = compute_skeleton(net, p, sources);
  }
  const u32 n_s = static_cast<u32>(sk.nodes.size());

  // The source is a skeleton node (Lemma 4.5): it is its own
  // representative, so the representatives phase moves nothing.
  net.begin_phase("representatives");
  const u32 rep = sk.index_of[source];

  net.begin_phase("clique_embedding");
  clique_embedding emb;
  {
    stage_scope s(tr, net, out, stage::clique_embedding);
    emb = build_clique_embedding(net, sk);
  }
  net.begin_phase("clique_simulation");
  {
    stage_scope s(tr, net, out, stage::clique_rounds);
    charge_clique_rounds(net, emb, alg.declared_rounds(n_s));
  }
  u64 max_skel_weight = 1;
  for (const auto& adj : sk.edges)
    for (const auto& e : adj) max_skel_weight = std::max(max_skel_weight, e.second);
  clique_problem prob;
  prob.n_s = n_s;
  prob.edges = &sk.edges;
  prob.sources = {rep};
  prob.max_edge_weight = max_skel_weight;
  const std::vector<std::vector<u64>> est = alg.solve(prob);

  net.begin_phase("estimate_flood");
  {
    stage_scope s(tr, net, out, stage::table_flood);
    table_flood(net, sk.nodes, std::vector<u64>(n_s, 1), sk.h);
  }

  net.begin_phase("local_exploration");
  const u64 eta_h =
      static_cast<u64>(std::ceil(alg.eta() * static_cast<double>(sk.h))) + 1;
  const u64 elapsed = net.round();
  const u64 depth = std::max(eta_h, elapsed);
  for (u64 r = elapsed; r < depth; ++r) net.advance_round();
  kssp_labels lab;
  {
    stage_scope s(tr, net, out, stage::local_exploration);
    lab.ball = run_local_exploration(net, static_cast<u32>(depth),
                                     /*advance_rounds=*/false, &sources,
                                     /*first_hops=*/false);
  }
  lab.n = n;
  lab.n_s = n_s;
  lab.sources = sources;
  lab.rep_slot = {0};
  lab.rep_leg = {0};
  lab.est.assign(est[0].begin(), est[0].end());
  assemble_gateways(sk, n, net, lab);

  out.metrics = net.snapshot();
  if (resolve_materialize(opts, n)) lab.materialize(net.executor());
  out.total_s = tr.close(root);
  return out;
}

std::string check_replay(const run_metrics& pipeline,
                         const run_metrics& replay) {
  const auto differ = [](const char* what, u64 a, u64 b) {
    return std::string(what) + ": pipeline " + std::to_string(a) +
           ", replay " + std::to_string(b);
  };
  if (pipeline.phases.size() != replay.phases.size())
    return differ("phase count", pipeline.phases.size(), replay.phases.size());
  for (std::size_t i = 0; i < pipeline.phases.size(); ++i) {
    const phase_entry& a = pipeline.phases[i];
    const phase_entry& b = replay.phases[i];
    if (a.name != b.name) return "phase " + a.name + " replayed as " + b.name;
    if (a.rounds != b.rounds)
      return differ((a.name + " rounds").c_str(), a.rounds, b.rounds);
    if (a.global_messages != b.global_messages)
      return differ((a.name + " global messages").c_str(), a.global_messages,
                    b.global_messages);
    if (a.retransmitted != b.retransmitted)
      return differ((a.name + " retransmitted").c_str(), a.retransmitted,
                    b.retransmitted);
    if (a.extra_rounds != b.extra_rounds)
      return differ((a.name + " extra rounds").c_str(), a.extra_rounds,
                    b.extra_rounds);
  }
  if (pipeline.rounds != replay.rounds)
    return differ("rounds", pipeline.rounds, replay.rounds);
  if (pipeline.global_messages != replay.global_messages)
    return differ("global messages", pipeline.global_messages,
                  replay.global_messages);
  if (pipeline.local_items != replay.local_items)
    return differ("local items", pipeline.local_items, replay.local_items);
  if (pipeline.local_delivered != replay.local_delivered)
    return differ("local delivered", pipeline.local_delivered,
                  replay.local_delivered);
  return {};
}

}  // namespace perfbench
