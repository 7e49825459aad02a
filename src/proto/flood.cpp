// The LOCAL primitives as thin adapters over the two loops of
// proto/local_engine.hpp. On a reliable local plane each primitive seeds a
// store and runs the relaxation loop on the round executor
// (docs/CONCURRENCY.md): hop_discovery, table_flood and
// truncated_eccentricity over the seen-bitset store, limited_bellman_ford
// and full_local_exploration over dense rows. Pull order is sorted
// adjacency order, so results, tie-breaks and charged traffic are
// thread-count-invariant.
//
// Fault healing (docs/FAULTS.md §3): under local-plane faults the floods
// and Bellman–Ford run the re-offer loop instead — every round every node
// offers its whole held set to its neighbours (not just the last round's
// frontier), so an item lost to a drop gets fresh chances every subsequent
// round, until a crash-aware quiet window; a referee then turns premature
// stability into fault_failure, never a silently incomplete return. The
// hop and table floods hold seen-sets and run to saturation (their
// referee checks that each node holds exactly its component's items), so
// learned hop values become learn-round stamps. Bellman–Ford holds
// Pareto-minimal (dist, hops) sets per source and offers only pairs with
// hops < h, so every accepted value is realized by a ≤h-hop walk; it
// returns its referee's reliable result, vias included. The
// exploration-shaped primitives (full_local_exploration,
// truncated_eccentricity) heal through healed_local_exploration
// (proto/sparse_exploration.cpp) and return results bit-identical to the
// fault-free run.
#include "proto/flood.hpp"

#include "proto/local_engine.hpp"

namespace hybrid {

using namespace local_engine;

namespace {

/// Connected-component labels for the seen-set referee.
std::vector<u32> component_labels(const graph& g) {
  const u32 n = g.num_nodes();
  std::vector<u32> comp(n, ~u32{0});
  std::vector<u32> stack;
  u32 c = 0;
  for (u32 start = 0; start < n; ++start) {
    if (comp[start] != ~u32{0}) continue;
    comp[start] = c;
    stack.push_back(start);
    while (!stack.empty()) {
      const u32 u = stack.back();
      stack.pop_back();
      for (const edge& e : g.neighbors(u))
        if (comp[e.to] == ~u32{0}) {
          comp[e.to] = c;
          stack.push_back(e.to);
        }
    }
    ++c;
  }
  return comp;
}

/// Seen-set held policy (healed hop and table floods): a node holds the
/// items it has heard in learn order, each stamped with the iteration that
/// merged it (hop_discovery returns the stamp as the hop), and offers all
/// of them every round; the first copy to get through is kept. Item i
/// starts at node roots[i] and is charged words[i] local items per edge
/// crossing (one when `words` is null).
class seen_held {
 public:
  seen_held(const graph& g, const std::vector<u32>& roots,
            const std::vector<u64>* words)
      : g_(g), roots_(roots), words_(words), seen_(0, 0) {}

  void reset() {
    const u32 n = g_.num_nodes();
    held.assign(n, {});
    add_.assign(n, {});
    seen_ = seen_bits(n, static_cast<u32>(roots_.size()));
    for (u32 i = 0; i < roots_.size(); ++i)
      if (seen_.mark(roots_[i], i)) held[roots_[i]].push_back({i, 0});
  }
  template <class Offer>
  void pull(u32 v, const edge& e, Offer&& offer) {
    const std::vector<discovered_seed>& from = held[e.to];
    const u32 count = static_cast<u32>(from.size());
    for (const discovered_seed& d : from)
      if (offer(count, d.hop, words_ ? (*words_)[d.seed] : 1) &&
          !seen_.has(v, d.seed))
        add_[v].push_back(d.seed);
  }
  bool merge(u32 v, u32 it) {
    bool changed = false;
    for (const u32 i : add_[v])
      if (seen_.mark(v, i)) {
        held[v].push_back({i, it});
        changed = true;
      }
    add_[v].clear();
    return changed;
  }
  /// Frontier stability is a heuristic (an adversarial-prefix schedule can
  /// starve a link forever and look quiet), so at convergence every node
  /// must hold exactly the items rooted in its own component.
  const char* referee() const {
    const std::vector<u32> comp = component_labels(g_);
    std::vector<u64> want;
    for (const u32 r : roots_) {
      if (comp[r] >= want.size()) want.resize(comp[r] + 1, 0);
      ++want[comp[r]];
    }
    for (u32 v = 0; v < held.size(); ++v)
      if (held[v].size() != (comp[v] < want.size() ? want[comp[v]] : 0))
        return "stabilized before reaching every node";
    return nullptr;
  }

  std::vector<std::vector<discovered_seed>> held;

 private:
  const graph& g_;
  const std::vector<u32>& roots_;
  const std::vector<u64>* words_;
  seen_bits seen_;
  std::vector<std::vector<u32>> add_;
};

}  // namespace

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  const u32 n = net.n();
  for (const u32 s : seeds) HYB_REQUIRE(s < n, "seed out of range");
  if (net.local_faults_active()) {
    seen_held held(net.g(), seeds, nullptr);
    reoffer(net, held, {"hop_discovery", rounds, rounds, rounds, early_exit});
    return std::move(held.held);
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
    pareto_held held(n, h, roots, indexed_sets(s_count), false, ref);
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
    seen_held held(net.g(), publishers, &table_words);
    reoffer(net, held, {"table_flood", rounds, rounds, rounds});
    for (u32 v = 0; v < n; ++v) {
      holds[v].reserve(held.held[v].size());
      for (const discovered_seed& d : held.held[v]) holds[v].push_back(d.seed);
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
