// The h-hop exploration as a thin adapter over proto/local_engine.hpp,
// plus sparse_dist_map. explore_ball is the one body: relax() over dense
// rows or sparse_dist_maps (picked by n; same triples, same charges — the
// store-level differential suite asserts both), charged on a reliable
// local plane, run free and healed by reoffer() on a faulty one.
// explore_adjacency is the same loop, free, over an explicit adjacency
// list.
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

sparse_exploration_result local_engine::explore_ball(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops, bool unit_weights) {
  const u32 n = net.n();
  const std::vector<root> roots = node_roots(n, sources);
  const bool healing = net.local_faults_active();
  const graph_edges edges{net.g(), unit_weights};
  const round_policy policy = healing
                                  ? round_policy::free(net.executor())
                                  : round_policy::charged(net, advance_rounds);
  sparse_exploration_result out =
      n <= kDenseExplorationMaxNodes
          ? explore<dense_rows>(n, h, roots, edges, policy, first_hops)
          : explore<sparse_rows>(n, h, roots, edges, policy, first_hops);
  if (healing) {
    // The free run is the answer: a pure function of the graph, so retries
    // only redraw the fault schedule, never the target. Random schedules
    // converge with overwhelming probability within four attempts; only
    // adversarial ones exhaust them.
    pareto_held held(out, h, roots, unit_weights);
    const u32 nominal = advance_rounds ? h : 0;
    reoffer(net, held, {"local exploration", h, nominal, nominal, false, 4});
  }
  return out;
}

sparse_exploration_result run_local_exploration(hybrid_net& net, u32 h,
                                                bool advance_rounds,
                                                const std::vector<u32>* sources,
                                                bool first_hops) {
  return explore_ball(net, h, advance_rounds, sources, first_hops, false);
}

sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex) {
  const u32 n = static_cast<u32>(adj.size());
  return explore<sparse_rows>(n, h, node_roots(n, nullptr), adjacency_list{adj},
                              round_policy::free(ex), true);
}

}  // namespace hybrid
