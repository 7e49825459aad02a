// Sparse h-hop exploration and the healed exploration engine, as thin
// adapters over proto/local_engine.hpp. sparse_local_exploration runs the
// relaxation loop over one sparse_dist_map per node; the dense path
// (proto/flood.cpp) runs the same loop over n-wide rows, so both produce
// the same triples and charge the same rounds and traffic — the store is
// the only difference (the differential suite asserts it, triples and
// metrics both). explore_adjacency is the same loop, free, over an
// explicit adjacency list; the healed engine is the re-offer loop,
// refereed by the relaxation loop run free.
#include "proto/sparse_exploration.hpp"

#include "proto/local_engine.hpp"

namespace hybrid {

using namespace local_engine;

namespace {

/// Fibonacci multiplicative mix; sources are sequential small ints, so the
/// multiply spreads them across the probe table.
u32 hash_source(u32 source, u32 mask) {
  return static_cast<u32>((u64{source} * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

void require_distinct(const std::vector<u32>& sources, u32 n) {
  std::vector<u32> sorted(sources);
  std::sort(sorted.begin(), sorted.end());
  HYB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "exploration sources must be distinct");
  HYB_REQUIRE(sorted.empty() || sorted.back() < n, "source out of range");
}

/// Roots keyed by node id: every node, or the (distinct) `sources`.
std::vector<root> node_roots(u32 n, const std::vector<u32>* sources) {
  std::vector<root> roots;
  if (sources) {
    require_distinct(*sources, n);
    for (const u32 s : *sources) roots.push_back({s, s});
  } else {
    for (u32 v = 0; v < n; ++v) roots.push_back({v, v});
  }
  return roots;
}

}  // namespace

u64 sparse_dist_map::dist_of(u32 source) const {
  if (table_.empty()) return kInfDist;
  u32 i = hash_source(source, mask_);
  for (;;) {
    const u32 slot = table_[i];
    if (slot == 0) return kInfDist;
    if (entries_[slot - 1].source == source) return entries_[slot - 1].dist;
    i = (i + 1) & mask_;
  }
}

u32* sparse_dist_map::find_slot(u32 source) {
  u32 i = hash_source(source, mask_);
  for (;;) {
    u32& slot = table_[i];
    if (slot == 0 || entries_[slot - 1].source == source) return &slot;
    i = (i + 1) & mask_;
  }
}

bool sparse_dist_map::relax(u32 source, u64 nd, u32 via) {
  if (table_.empty()) grow();
  u32* slot = find_slot(source);
  if (*slot != 0) {
    exploration_entry& e = entries_[*slot - 1];
    if (nd >= e.dist) return false;
    e.dist = nd;
    e.first_hop = via;
    return true;
  }
  entries_.push_back({nd, source, via});
  *slot = static_cast<u32>(entries_.size());
  // Keep load factor under 1/2 so probe chains stay short.
  if (2 * entries_.size() >= table_.size()) grow();
  return true;
}

void sparse_dist_map::grow() {
  const u32 cap = table_.empty() ? 8 : static_cast<u32>(table_.size()) * 2;
  table_.assign(cap, 0);
  mask_ = cap - 1;
  for (u32 k = 0; k < entries_.size(); ++k)
    *find_slot(entries_[k].source) = k + 1;
}

void sparse_dist_map::clear() {
  entries_.clear();
  std::fill(table_.begin(), table_.end(), 0);
}

sparse_exploration_result local_engine::flatten(
    round_executor& exec, const std::vector<sparse_dist_map>& dist,
    bool first_hops) {
  const u32 n = static_cast<u32>(dist.size());
  sparse_exploration_result out;
  out.offsets.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v)
    out.offsets[v + 1] = out.offsets[v] + dist[v].size();
  out.entries.resize(out.offsets[n]);
  exec.for_nodes(n, [&](u32 v) {
    const std::span<const exploration_entry> src = dist[v].entries();
    exploration_entry* at = out.entries.data() + out.offsets[v];
    std::copy(src.begin(), src.end(), at);
    if (!first_hops)
      for (u32 k = 0; k < src.size(); ++k) at[k].first_hop = ~u32{0};
    std::sort(at, at + src.size(),
              [](const exploration_entry& a, const exploration_entry& b) {
                return a.source < b.source;
              });
  });
  return out;
}

sparse_exploration_result healed_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops, bool unit_weights) {
  HYB_REQUIRE(net.local_faults_active(),
              "healed exploration requires an injected local fault plane");
  const u32 n = net.n();
  const std::vector<root> roots = node_roots(n, sources);
  // The referee fixed point is computed once — it is a pure function of the
  // graph, so retries only redraw the fault schedule, never the target —
  // and it is what gets returned: bit-identical to the fault-free run (the
  // healed state is validated to be the same fixed point, but its first
  // hops depend on the drop pattern; the referee's do not).
  const graph_edges edges{net.g(), unit_weights};
  const sparse_exploration_result ref = explore_sparse(
      n, h, roots, edges, round_policy::free(net.executor()), first_hops);
  pareto_held held(ref, h, roots, unit_weights);
  // Nominal budget h when advancing, 0 when not: the run-in-parallel trick
  // is unavailable under faults, so every round spent is then overhead.
  // Random schedules converge with overwhelming probability within four
  // attempts; only adversarial ones exhaust them.
  const u32 nominal = advance_rounds ? h : 0;
  reoffer(net, held, {"local exploration", h, nominal, nominal, false, 4});
  return ref;
}

sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  return explore_sparse(net.n(), h, node_roots(net.n(), sources),
                        graph_edges{net.g()},
                        round_policy::charged(net, advance_rounds),
                        first_hops);
}

sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  const u32 n = net.n();
  sparse_exploration_result out;
  out.offsets.assign(n + 1, 0);
  if (!sources) {
    // The n² u32 first-hop matrix is only materialized when asked for.
    std::vector<std::vector<u32>> first_hop;
    const std::vector<std::vector<u64>> dist = full_local_exploration(
        net, h, advance_rounds, first_hops ? &first_hop : nullptr);
    for (u32 v = 0; v < n; ++v) {
      u64 reached = 0;
      for (u32 s = 0; s < n; ++s) reached += dist[v][s] != kInfDist;
      out.offsets[v + 1] = out.offsets[v] + reached;
    }
    out.entries.resize(out.offsets[n]);
    net.executor().for_nodes(n, [&](u32 v) {
      exploration_entry* at = out.entries.data() + out.offsets[v];
      for (u32 s = 0; s < n; ++s)
        if (dist[v][s] != kInfDist)
          *at++ = {dist[v][s], s, first_hops ? first_hop[v][s] : ~u32{0}};
    });
    return out;
  }
  require_distinct(*sources, n);
  const std::vector<std::vector<source_distance>> got =
      limited_bellman_ford(net, *sources, h, advance_rounds);
  for (u32 v = 0; v < n; ++v)
    out.offsets[v + 1] = out.offsets[v] + got[v].size();
  out.entries.resize(out.offsets[n]);
  net.executor().for_nodes(n, [&](u32 v) {
    exploration_entry* at = out.entries.data() + out.offsets[v];
    for (const source_distance& sd : got[v])
      *at++ = {sd.dist, (*sources)[sd.source],
               first_hops ? sd.via : ~u32{0}};
    std::sort(out.entries.data() + out.offsets[v], at,
              [](const exploration_entry& a, const exploration_entry& b) {
                return a.source < b.source;
              });
  });
  return out;
}

sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex) {
  const u32 n = static_cast<u32>(adj.size());
  return explore_sparse(n, h, node_roots(n, nullptr), adjacency_list{adj},
                        round_policy::free(ex), true);
}

sparse_exploration_result run_local_exploration(hybrid_net& net, u32 h,
                                                bool advance_rounds,
                                                const std::vector<u32>* sources,
                                                bool first_hops) {
  // Both message-level paths assume reliable neighborhood reads; under
  // local-plane faults the healed engine takes over before either runs, so
  // the dense/sparse choice never changes fault behavior (docs/FAULTS.md).
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  return resolve_exploration(net.options(), net.n()) == exploration_path::kDense
             ? dense_local_exploration(net, h, advance_rounds, sources,
                                       first_hops)
             : sparse_local_exploration(net, h, advance_rounds, sources,
                                        first_hops);
}

}  // namespace hybrid
