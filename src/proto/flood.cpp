// The LOCAL primitives as thin adapters over proto/local_engine.hpp. The
// hop and table floods share one seen-bitset flood (seen_flood), the
// hello flood runs the relaxation loop over the seen-bitset store too, and
// limited_bellman_ford and full_local_exploration re-key and reshape the
// one h-hop exploration entry (run_local_exploration). Pull order is
// sorted adjacency order, so results, tie-breaks and charged traffic are
// thread-count-invariant (docs/CONCURRENCY.md).
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
// (hop = dist under unit weights) and the explorations their d_h. The
// hello flood heals through the exploration body with unit weights. All
// return results bit-identical to the fault-free run.
#include "proto/flood.hpp"

#include "proto/local_engine.hpp"

namespace hybrid {

using namespace local_engine;

namespace {

/// The seen-store flood behind hop_discovery and table_flood: item i starts
/// at node roots[i]; per node the (item, hop) pairs within `spec.rounds`
/// hops, in learn order. On a reliable local plane the flood is charged,
/// item i costing words[i] local items per edge crossing (one when `words`
/// is null). On a faulty one it runs free for that answer, and the
/// re-offer loop pays for the healing and referees its T-ball against it,
/// keyed by item index.
std::vector<std::vector<discovered_seed>> seen_flood(
    hybrid_net& net, const std::vector<u32>& roots,
    const std::vector<u64>* words, const heal_spec& spec) {
  const u32 n = net.n();
  round_executor& exec = net.executor();
  const u32 items = static_cast<u32>(roots.size());
  const bool healing = net.local_faults_active();
  std::vector<std::vector<discovered_seed>> known(n);
  {
    std::vector<std::vector<u32>> frontier(n);
    seen_store store(n, items, words, [&](u32 v, u32 i, u32 r) {
      known[v].push_back({i, r});
    });
    for (u32 i = 0; i < items; ++i) store.seed(roots[i], i, frontier[roots[i]]);
    relax(store, frontier, spec.rounds, graph_edges{net.g()},
          healing ? round_policy::free(exec)
                  : round_policy::charged(net, true, spec.aggregate_exit));
  }
  if (!healing) return known;
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
  for (const u32 s : seeds) HYB_REQUIRE(s < net.n(), "seed out of range");
  return seen_flood(net, seeds, nullptr,
                    {"hop_discovery", rounds, rounds, rounds, early_exit});
}

std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  const u32 n = net.n();
  const sparse_exploration_result got =
      run_local_exploration(net, h, advance_rounds, &sources, true);
  // Re-key the node-id triples to indices into `sources`, in index order.
  std::vector<u32> index_of(n, ~u32{0});
  for (u32 i = 0; i < sources.size(); ++i) index_of[sources[i]] = i;
  std::vector<std::vector<source_distance>> out(n);
  net.executor().for_nodes(n, [&](u32 v) {
    for (const exploration_entry& e : got.reached(v))
      out[v].push_back({index_of[e.source], e.dist, e.first_hop});
    std::sort(out[v].begin(), out[v].end(),
              [](const source_distance& a, const source_distance& b) {
                return a.source < b.source;
              });
  });
  return out;
}

std::vector<std::vector<u64>> full_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    std::vector<std::vector<u32>>* first_hop) {
  const u32 n = net.n();
  const sparse_exploration_result got = run_local_exploration(
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

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  const u32 n = net.n();
  for (const u32 p : publishers) HYB_REQUIRE(p < n, "publisher out of range");
  const std::vector<std::vector<discovered_seed>> known = seen_flood(
      net, publishers, &table_words, {"table_flood", rounds, rounds, rounds});
  std::vector<std::vector<u32>> holds(n);
  for (u32 v = 0; v < n; ++v) {
    holds[v].reserve(known[v].size());
    for (const discovered_seed& d : known[v]) holds[v].push_back(d.seed);
  }
  return holds;
}

std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds) {
  const u32 n = net.n();
  std::vector<u32> ecc(n, 0);
  if (net.local_faults_active()) {
    // Hello floods carry hop counts, so heal with unit weights and read
    // each node's truncated eccentricity off its refereed reached set.
    const sparse_exploration_result got =
        explore_ball(net, rounds, true, nullptr, false, true);
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
