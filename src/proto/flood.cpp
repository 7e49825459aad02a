// The LOCAL primitives as thin adapters over the two loops of
// proto/local_engine.hpp. On a reliable local plane each primitive seeds a
// store and runs the relaxation loop on the round executor
// (docs/CONCURRENCY.md): hop_discovery, table_flood and
// truncated_eccentricity over the seen-bitset store, limited_bellman_ford
// and full_local_exploration over dense rows. Pull order is sorted
// adjacency order, so results, tie-breaks and charged traffic are
// thread-count-invariant.
//
// Fault healing (docs/FAULTS.md §3): under local-plane faults each
// primitive runs its relaxation loop free for the reliable answer, returns
// that answer, and runs the re-offer loop to pay for the healing: every
// round every node offers its whole held set to its neighbours (not just
// the last round's frontier), so an item lost to a drop gets fresh chances
// every subsequent round, until a crash-aware quiet window; the referee
// then checks the healed state against the answer and turns premature
// stability into fault_failure, never a silently incomplete return. The
// held sets are Pareto-minimal (dist, hops) pairs per key, and only pairs
// with hops < T are offered, so the hop and table floods heal their T-ball
// (hop = dist under unit weights) and Bellman–Ford its d_h. The
// exploration-shaped primitives (full_local_exploration,
// truncated_eccentricity) heal through healed_local_exploration
// (proto/sparse_exploration.cpp). All return results bit-identical to the
// fault-free run.
#include "proto/flood.hpp"

#include "proto/local_engine.hpp"

namespace hybrid {

using namespace local_engine;

namespace {

/// The healed hop and table floods. The fault-free flood, run free, is the
/// answer: per node the (item, hop) pairs within `spec.rounds` hops, in
/// learn order. The re-offer loop then pays for the healing and referees
/// its T-ball against that answer, keyed by item index. Item i starts at
/// node roots[i] and costs words[i] local items per offer (one when `words`
/// is null).
std::vector<std::vector<discovered_seed>> healed_flood(
    hybrid_net& net, const std::vector<u32>& roots,
    const std::vector<u64>* words, const heal_spec& spec) {
  const u32 n = net.n();
  round_executor& exec = net.executor();
  const u32 items = static_cast<u32>(roots.size());
  std::vector<std::vector<discovered_seed>> known(n);
  {
    std::vector<std::vector<u32>> frontier(n);
    seen_store store(n, items, nullptr, [&](u32 v, u32 i, u32 r) {
      known[v].push_back({i, r});
    });
    for (u32 i = 0; i < items; ++i) store.seed(roots[i], i, frontier[roots[i]]);
    relax(store, frontier, spec.rounds, graph_edges{net.g()},
          round_policy::free(exec));
  }
  sparse_exploration_result ref;
  ref.offsets.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v)
    ref.offsets[v + 1] = ref.offsets[v] + known[v].size();
  ref.entries.resize(ref.offsets[n]);
  exec.for_nodes(n, [&](u32 v) {
    exploration_entry* at = ref.entries.data() + ref.offsets[v];
    for (const discovered_seed& d : known[v]) *at++ = {d.hop, d.seed, ~u32{0}};
    std::sort(ref.entries.data() + ref.offsets[v], at,
              [](const exploration_entry& a, const exploration_entry& b) {
                return a.source < b.source;
              });
  });
  std::vector<root> keyed(items);
  for (u32 i = 0; i < items; ++i) keyed[i] = {roots[i], i};
  pareto_held held(ref, spec.rounds, keyed, true, words);
  reoffer(net, held, spec);
  return known;
}

}  // namespace

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  const u32 n = net.n();
  for (const u32 s : seeds) HYB_REQUIRE(s < n, "seed out of range");
  if (net.local_faults_active()) {
    return healed_flood(net, seeds, nullptr,
                        {"hop_discovery", rounds, rounds, rounds, early_exit});
  }
  std::vector<std::vector<discovered_seed>> known(n);
  std::vector<std::vector<u32>> frontier(n);
  seen_store store(n, static_cast<u32>(seeds.size()), nullptr,
                   [&](u32 v, u32 i, u32 r) { known[v].push_back({i, r}); });
  for (u32 i = 0; i < seeds.size(); ++i)
    store.seed(seeds[i], i, frontier[seeds[i]]);
  relax(store, frontier, rounds, graph_edges{net.g()},
        round_policy::charged(net, true, early_exit));
  return known;
}

std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  const u32 n = net.n();
  const u32 s_count = static_cast<u32>(sources.size());
  for (const u32 s : sources) HYB_REQUIRE(s < n, "source out of range");
  std::vector<std::vector<source_distance>> out(n);
  if (net.local_faults_active()) {
    // Keys are source indices. The referee is the reliable relaxation run
    // free, and its result is what gets returned: healed vias depend on
    // which copy survived the drop pattern, while callers are promised
    // labels bit-identical to the fault-free run. With a frozen round
    // counter the fault stream would re-roll the same draws every
    // iteration, so the healed path always advances; because the caller
    // asked for a frozen counter its nominal budget is 0 and every round
    // consumed surfaces as extra_rounds (docs/FAULTS.md §3).
    std::vector<root> roots(s_count);
    for (u32 i = 0; i < s_count; ++i) roots[i] = {sources[i], i};
    const sparse_exploration_result ref =
        explore_sparse(n, h, roots, graph_edges{net.g()},
                       round_policy::free(net.executor()), true);
    pareto_held held(ref, h, roots, false);
    reoffer(net, held,
            {"limited_bellman_ford", h, h, advance_rounds ? h : 0});
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : ref.reached(v))
        out[v].push_back({e.source, e.dist, e.first_hop});
    return out;
  }
  dense_store store(n, s_count, true);
  std::vector<std::vector<source_distance>> frontier(n);
  for (u32 i = 0; i < s_count; ++i)
    store.seed(sources[i], i, frontier[sources[i]]);
  relax(store, frontier, h, graph_edges{net.g()},
        round_policy::charged(net, advance_rounds));
  for (u32 v = 0; v < n; ++v)
    for (u32 i = 0; i < s_count; ++i)
      if (store.dist[v][i] != kInfDist)
        out[v].push_back({i, store.dist[v][i], store.via[v][i]});
  return out;
}

std::vector<std::vector<u64>> full_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    std::vector<std::vector<u32>>* first_hop) {
  const u32 n = net.n();
  if (net.local_faults_active()) {
    // Heal through the exploration engine and expand its canonical CSR
    // triples back into the dense matrix shape this primitive promises.
    const sparse_exploration_result got = healed_local_exploration(
        net, h, advance_rounds, nullptr, first_hop != nullptr);
    std::vector<std::vector<u64>> dist(n, std::vector<u64>(n, kInfDist));
    if (first_hop) first_hop->assign(n, std::vector<u32>(n, ~u32{0}));
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : got.reached(v)) {
        dist[v][e.source] = e.dist;
        if (first_hop) (*first_hop)[v][e.source] = e.first_hop;
      }
    return dist;
  }
  dense_store store(n, n, first_hop != nullptr);
  std::vector<std::vector<source_distance>> frontier(n);
  for (u32 v = 0; v < n; ++v) store.seed(v, v, frontier[v]);
  relax(store, frontier, h, graph_edges{net.g()},
        round_policy::charged(net, advance_rounds));
  if (first_hop) *first_hop = std::move(store.via);
  return std::move(store.dist);
}

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  const u32 n = net.n();
  for (const u32 p : publishers) HYB_REQUIRE(p < n, "publisher out of range");
  std::vector<std::vector<u32>> holds(n);
  if (net.local_faults_active()) {
    const std::vector<std::vector<discovered_seed>> known = healed_flood(
        net, publishers, &table_words, {"table_flood", rounds, rounds, rounds});
    for (u32 v = 0; v < n; ++v) {
      holds[v].reserve(known[v].size());
      for (const discovered_seed& d : known[v]) holds[v].push_back(d.seed);
    }
    return holds;
  }
  std::vector<std::vector<u32>> frontier(n);
  seen_store store(n, static_cast<u32>(publishers.size()), &table_words,
                   [&](u32 v, u32 i, u32) { holds[v].push_back(i); });
  for (u32 i = 0; i < publishers.size(); ++i)
    store.seed(publishers[i], i, frontier[publishers[i]]);
  relax(store, frontier, rounds, graph_edges{net.g()},
        round_policy::charged(net));
  return holds;
}

std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds) {
  const u32 n = net.n();
  std::vector<u32> ecc(n, 0);
  if (net.local_faults_active()) {
    // Hello floods carry hop counts, so heal with unit weights and read
    // each node's truncated eccentricity off its refereed reached set.
    const sparse_exploration_result got = healed_local_exploration(
        net, rounds, true, nullptr, false, true);
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : got.reached(v))
        ecc[v] = std::max(ecc[v], static_cast<u32>(e.dist));
  } else {
    // Every node floods its own id; the last round a node learns a new id
    // is its h_v. One seen bit per (node, id): O(n²/8) memory.
    std::vector<std::vector<u32>> frontier(n);
    seen_store store(n, n, nullptr, [&](u32 v, u32, u32 r) { ecc[v] = r; });
    for (u32 v = 0; v < n; ++v) store.seed(v, v, frontier[v]);
    relax(store, frontier, rounds, graph_edges{net.g()},
          round_policy::charged(net));
  }
  const run_metrics& m = net.raw_metrics();
  HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                "local plane ledger must balance after a hello flood");
  return ecc;
}

}  // namespace hybrid
