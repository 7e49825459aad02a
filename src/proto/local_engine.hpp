// The LOCAL relaxation engine behind proto/flood.cpp,
// proto/sparse_exploration.cpp and proto/clustering.cpp — an internal
// header, not public API.
//
// Every LOCAL-mode step the paper uses is one synchronous relaxation over
// the local graph (the h-ball pattern: ruling-set and cluster floods, the
// skeleton's h-hop Bellman–Ford, the APSP local exploration, the label
// table flood), so two loops implement all of them:
//
//  * relax() — the fault-free loop. A round pulls every neighbour's
//    round-frozen frontier in sorted adjacency order, keeps strict
//    improvements, drops superseded entries, charges the pulled items and
//    advances (or freezes) the round; once no frontier is left the rest of
//    the budget is padded, or one AND-aggregation pays for the early exit.
//    It is parameterized by the per-node store (dense rows,
//    sparse_dist_map, or a seen-bitset for unit floods, where the first
//    arrival is final), the neighbour source (graph edges, unit weights,
//    same-cluster edges, an explicit adjacency list) and the round policy
//    (charged on a hybrid_net, or free: the referees and
//    explore_adjacency). The helper-set cluster_flood runs it on either
//    local plane: it has no drop model (docs/FAULTS.md §3).
//  * reoffer() — the self-healing loop for a faulty local plane
//    (docs/FAULTS.md §3). Every healed primitive first runs relax() free
//    for the reliable answer and returns that answer; reoffer() only pays
//    for the healing and referees it. Every round every node offers its
//    whole held set to its neighbours through the edge's local_link_draws
//    stream (built once per edge per round), so a dropped item gets a fresh
//    chance each round; acceptances merge after the barrier; the loop ends
//    after a crash-aware quiet window (or throws fault_failure when the
//    budget runs out) and pareto_held referees the converged state against
//    the reliable fixed point. Its one held-set policy — per node a flat
//    Pareto vector offered in key order — fixes every fault draw.
//
// Every weighted h-hop exploration (run_local_exploration and the
// Bellman–Ford and full-exploration adapters over it) enters through one
// body, explore_ball(), which picks the store from n alone and the loop
// from the local plane.
//
// Both loops follow the executor's determinism contract
// (docs/CONCURRENCY.md): a node's step reads other nodes' round-frozen
// state and writes only its own rows.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid::local_engine {

/// One exploration root: `key` starts at distance 0 at `node`. Keys are
/// node ids for the explorations and item indices for the floods.
struct root {
  u32 node;
  u32 key;
};

// ---- relaxation loop -------------------------------------------------------

/// How relax() pays for a round. Charged (`net` set): pulled items are
/// local traffic, all delivered (relax only runs on a reliable plane);
/// rounds advance unless `advance` is false (the run-in-parallel trick of
/// Lemma 4.3); a frontier that empties early pads the rest of the budget,
/// or with `aggregate_exit` pays one AND-aggregation (Lemma B.2) instead.
/// Free (`net` null): plain local computation on `exec`.
struct round_policy {
  round_executor& exec;
  hybrid_net* net = nullptr;
  bool advance = true;
  bool aggregate_exit = false;

  static round_policy charged(hybrid_net& net, bool advance = true,
                              bool aggregate_exit = false) {
    return {net.executor(), &net, advance, aggregate_exit};
  }
  static round_policy free(round_executor& exec) { return {exec}; }
};

/// Neighbour source over the sorted graph adjacency; `unit` floods hop
/// counts instead of weighted distances.
struct graph_edges {
  const graph& g;
  bool unit = false;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const edge& e : g.neighbors(v)) f(e.to, unit ? u64{1} : e.weight);
  }
};

/// Unit-weight graph edges inside v's own part (`part[u]` labels node u):
/// cluster floods never cross a cluster boundary.
struct cluster_edges {
  const graph& g;
  const std::vector<u32>& part;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const edge& e : g.neighbors(v))
      if (part[e.to] == part[v]) f(e.to, u64{1});
  }
};

/// Neighbour source over an explicit (neighbour, weight) adjacency list.
struct adjacency_list {
  const std::vector<std::vector<std::pair<u32, u64>>>& adj;
  template <class F>
  void operator()(u32 v, F&& f) const {
    for (const auto& [to, w] : adj[v]) f(to, w);
  }
};

/// Weighted store: per node the best (dist, via) per key. Frontier items
/// carry the value of the round that produced them, so a value moves
/// exactly one hop per round. `Rows` supplies dist_of and relax (adopt iff
/// strictly better — the first improving neighbour in pull order wins).
template <class Rows>
struct weighted_store : Rows {
  using item = source_distance;
  using Rows::Rows;

  void seed(u32 v, u32 key, std::vector<item>& frontier) {
    if (this->relax(v, key, 0, v)) frontier.push_back({key, 0, v});
  }
  static u64 cost(std::span<const item> from) { return from.size(); }
  void pull(u32 v, const item& f, u32 from, u64 w, u32,
            std::vector<item>& next) {
    const u64 nd = f.dist + w;
    if (this->relax(v, f.source, nd, from))
      next.push_back({f.source, nd, from});
  }
  /// Drop superseded entries: a later, smaller update for the same key
  /// makes earlier queued ones redundant (v's row is final once its step
  /// ends).
  void settle(u32 v, std::vector<item>& next) const {
    std::erase_if(next, [&](const item& sd) {
      return sd.dist != this->dist_of(v, sd.source);
    });
  }
};

/// Dense rows: a `width`-wide distance vector per node (O(n·width)
/// memory), plus via rows when first hops are tracked.
struct dense_rows {
  std::vector<std::vector<u64>> dist;
  std::vector<std::vector<u32>> via;  ///< empty when not tracked

  dense_rows(u32 n, u32 width, bool track_via)
      : dist(n, std::vector<u64>(width, kInfDist)) {
    if (track_via) via.assign(n, std::vector<u32>(width, ~u32{0}));
  }
  u64 dist_of(u32 v, u32 key) const { return dist[v][key]; }
  bool relax(u32 v, u32 key, u64 nd, u32 from) {
    if (nd >= dist[v][key]) return false;
    dist[v][key] = nd;
    if (!via.empty()) via[v][key] = from;
    return true;
  }
  u64 reached(u32 v) const {
    return dist[v].size() -
           static_cast<u64>(std::count(dist[v].begin(), dist[v].end(),
                                       kInfDist));
  }
  /// f(key, dist, via) per reached key, in key order (via ~0 untracked).
  template <class F>
  void each(u32 v, F&& f) const {
    for (u32 k = 0; k < dist[v].size(); ++k)
      if (dist[v][k] != kInfDist)
        f(k, dist[v][k], via.empty() ? ~u32{0} : via[v][k]);
  }
};

/// Sparse rows: one sparse_dist_map per node, O(Σ|ball_h(v)|) memory.
/// Vias are always tracked; the width is unbounded.
struct sparse_rows {
  std::vector<sparse_dist_map> dist;

  sparse_rows(u32 n, u32, bool) : dist(n) {}
  u64 dist_of(u32 v, u32 key) const { return dist[v].dist_of(key); }
  bool relax(u32 v, u32 key, u64 nd, u32 from) {
    return dist[v].relax(key, nd, from);
  }
  u64 reached(u32 v) const { return dist[v].size(); }
  /// f(key, dist, via) per reached key, in discovery order.
  template <class F>
  void each(u32 v, F&& f) const {
    for (const exploration_entry& e : dist[v].entries())
      f(e.source, e.dist, e.first_hop);
  }
};

/// One bit per (node, item), rows contiguous.
class seen_bits {
 public:
  seen_bits(u32 n, u32 items)
      : words_((u64{items} + 63) / 64), bits_(u64{n} * words_, 0) {}
  bool has(u32 v, u32 i) const {
    return (bits_[v * words_ + i / 64] >> (i % 64)) & 1;
  }
  /// Sets the bit; true when it was clear.
  bool mark(u32 v, u32 i) {
    u64& w = bits_[v * words_ + i / 64];
    const u64 bit = u64{1} << (i % 64);
    if (w & bit) return false;
    w |= bit;
    return true;
  }

 private:
  u64 words_;
  std::vector<u64> bits_;
};

/// Unit-flood store: the first arrival of an item is final, so frontier
/// items are bare item indices and a node keeps one seen bit per item.
/// `learn(v, item, round)` records each first arrival; `words` (optional)
/// charges item i as words[i] local items instead of one (table floods).
template <class Learn>
struct seen_store {
  using item = u32;
  seen_bits seen;
  const std::vector<u64>* words;
  Learn learn;

  seen_store(u32 n, u32 items, const std::vector<u64>* item_words,
             Learn on_learn)
      : seen(n, items), words(item_words), learn(std::move(on_learn)) {}

  void seed(u32 v, u32 i, std::vector<item>& frontier) {
    if (!seen.mark(v, i)) return;
    learn(v, i, 0);
    frontier.push_back(i);
  }
  u64 cost(std::span<const item> from) const {
    if (!words) return from.size();
    u64 c = 0;
    for (const u32 i : from) c += (*words)[i];
    return c;
  }
  void pull(u32 v, u32 i, u32, u64, u32 r, std::vector<item>& next) {
    if (!seen.mark(v, i)) return;
    learn(v, i, r);
    next.push_back(i);
  }
  void settle(u32, std::vector<item>&) const {}
};

/// The relaxation loop: up to `budget` synchronous rounds from the seeded
/// `frontier` (one entry list per node). Frontier buffers are swapped and
/// reused across rounds; on return `frontier` holds the last round's.
template <class Store, class Neighbors>
void relax(Store& store,
           std::vector<std::vector<typename Store::item>>& frontier,
           u32 budget, const Neighbors& nbrs, const round_policy& policy) {
  using item = typename Store::item;
  const u32 n = static_cast<u32>(frontier.size());
  std::vector<std::vector<item>> next(n);
  for (u32 r = 1; r <= budget; ++r) {
    const u64 items = policy.exec.sum_nodes(n, [&](u32 v) -> u64 {
      std::vector<item>& out = next[v];
      out.clear();
      u64 mine = 0;
      nbrs(v, [&](u32 from, u64 w) {
        mine += store.cost(frontier[from]);
        for (const item& f : frontier[from]) store.pull(v, f, from, w, r, out);
      });
      store.settle(v, out);
      return mine;
    });
    frontier.swap(next);
    const bool live = policy.exec.any_node(
        n, [&](u32 v) { return !frontier[v].empty(); });
    if (hybrid_net* net = policy.net) {
      net->charge_local(items);
      net->note_local_delivered(items);
      if (policy.advance) net->advance_round();
      // Fixed round budgets are part of the protocols: the remaining rounds
      // are silent but still elapse — unless saturation is detected, which
      // costs one aggregation.
      if (!live && policy.advance && r < budget) {
        const u32 pad =
            policy.aggregate_exit ? aggregation_rounds(n) : budget - r;
        for (u32 k = 0; k < pad; ++k) net->advance_round();
      }
    }
    if (!live) break;
  }
}

/// relax() over `Rows` from `roots`, flattened straight into the CSR
/// arena: root i is key i of the store (so dense rows are roots.size()
/// wide) and comes out as source roots[i].key. Each node's triples are
/// sorted by source (canonical, thread-count-invariant); without
/// `first_hops` dense rows track no vias and every first_hop is ~0.
template <class Rows, class Neighbors>
sparse_exploration_result explore(u32 n, u32 h, const std::vector<root>& roots,
                                  const Neighbors& nbrs,
                                  const round_policy& policy, bool first_hops) {
  weighted_store<Rows> store(n, static_cast<u32>(roots.size()), first_hops);
  {
    std::vector<std::vector<source_distance>> frontier(n);
    for (u32 i = 0; i < roots.size(); ++i)
      store.seed(roots[i].node, i, frontier[roots[i].node]);
    relax(store, frontier, h, nbrs, policy);
  }
  sparse_exploration_result out;
  out.offsets.assign(n + 1, 0);
  policy.exec.for_nodes(n,
                        [&](u32 v) { out.offsets[v + 1] = store.reached(v); });
  for (u32 v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.entries.resize(out.offsets[n]);
  policy.exec.for_nodes(n, [&](u32 v) {
    exploration_entry* const begin = out.entries.data() + out.offsets[v];
    exploration_entry* at = begin;
    store.each(v, [&](u32 key, u64 dist, u32 via) {
      *at++ = {dist, roots[key].key, first_hops ? via : ~u32{0}};
    });
    const auto by_source = [](const exploration_entry& a,
                              const exploration_entry& b) {
      return a.source < b.source;
    };
    if (!std::is_sorted(begin, at, by_source)) std::sort(begin, at, by_source);
  });
  return out;
}

// ---- re-offer loop ---------------------------------------------------------

/// One Pareto-minimal (dist, hops) pair a healing node holds for `key`,
/// stamped with the iteration that merged it.
struct held_entry {
  u64 dist;
  u32 key;
  u32 hops;
  u32 stamp;
};

/// The held-set policy of every healed primitive. Under drops a
/// smaller-dist/more-hops pair can arrive before (or instead of) a
/// fewer-hops one, and only pairs with hops < h may be extended, so keeping
/// just the best dist per key would lose valid ≤h-hop distances. Each node
/// keeps one flat vector of Pareto-minimal entries sorted by key, then by
/// dist ascending (so hops strictly descending), and offers those with
/// hops < h in that order; every held pair is realized by a ≤h-hop walk, so
/// at convergence the fronts are d_h. `ref` is the reliable fixed point,
/// keyed the same way; each node's vector is reserved to its ref ball. Item
/// `key` costs words[key] local items per offer (one when `words` is null).
class pareto_held {
 public:
  pareto_held(const sparse_exploration_result& ref, u32 h,
              const std::vector<root>& roots, bool unit_weights,
              const std::vector<u64>* words = nullptr)
      : ref_(ref), h_(h), roots_(roots), unit_(unit_weights), words_(words),
        cur_(ref.offsets.size() - 1), add_(cur_.size()) {
    for (u32 v = 0; v < cur_.size(); ++v)
      cur_[v].reserve(ref.reached(v).size());
  }

  void reset() {
    for (u32 v = 0; v < cur_.size(); ++v) {
      cur_[v].clear();
      add_[v].clear();
    }
    for (const root& r : roots_) insert(cur_[r.node], {0, r.key, 0, 0});
  }
  /// v pulls e.to's offers: count first (the adversarial mode needs it),
  /// then one offer per extendable pair. Both sets are sorted by key, so
  /// one cursor walks v's own set alongside.
  template <class Offer>
  void pull(u32 v, const edge& e, Offer&& offer) {
    const std::vector<held_entry>& from = cur_[e.to];
    u32 count = 0;
    for (const held_entry& he : from) count += he.hops < h_;
    const u64 w = unit_ ? 1 : e.weight;
    auto at = cur_[v].cbegin();
    const auto end = cur_[v].cend();
    for (const held_entry& he : from) {
      if (he.hops >= h_ ||
          !offer(count, he.stamp, words_ ? (*words_)[he.key] : 1))
        continue;
      const staged got{he.dist + w, he.key, he.hops + 1};
      while (at != end && at->key < got.key) ++at;
      if (!dominated(at, end, got.key, got.dist, got.hops))
        add_[v].push_back(got);
    }
  }
  bool merge(u32 v, u32 it) {
    bool changed = false;
    for (const staged& s : add_[v])
      changed |= insert(cur_[v], {s.dist, s.key, s.hops, it});
    add_[v].clear();
    return changed;
  }
  /// The healed support is a subset of the reliable one, so matching key
  /// counts plus matching front distances on every reference entry means
  /// the healed state IS the fixed point. Anything less is premature
  /// stability.
  const char* referee() const {
    for (u32 v = 0; v < cur_.size(); ++v) {
      const std::span<const exploration_entry> want = ref_.reached(v);
      const std::vector<held_entry>& set = cur_[v];
      u32 keys = 0;
      for (u32 k = 0; k < set.size(); ++k)
        keys += k == 0 || set[k].key != set[k - 1].key;
      if (keys != want.size()) return "stabilized before reaching the h-ball";
      const held_entry* front = set.data();
      for (const exploration_entry& e : want) {
        if (front->key != e.source || front->dist != e.dist)
          return "stabilized before convergence";
        while (front != set.data() + set.size() && front->key == e.source)
          ++front;
      }
    }
    return nullptr;
  }

 private:
  /// An accepted offer, stamped when merged.
  struct staged {
    u64 dist;
    u32 key;
    u32 hops;
  };
  using cursor = std::vector<held_entry>::const_iterator;
  /// True when an entry for `key`, from `at` on, dominates (dist, hops).
  static bool dominated(cursor at, cursor end, u32 key, u64 dist, u32 hops) {
    for (; at != end && at->key == key; ++at)
      if (at->dist <= dist && at->hops <= hops) return true;
    return false;
  }
  /// Adds x unless dominated, dropping the entries x dominates; true when
  /// added.
  static bool insert(std::vector<held_entry>& set, const held_entry& x) {
    const auto lo = std::lower_bound(
        set.begin(), set.end(), x.key,
        [](const held_entry& e, u32 key) { return e.key < key; });
    if (dominated(lo, set.cend(), x.key, x.dist, x.hops)) return false;
    const auto hi = std::find_if(
        lo, set.end(), [&](const held_entry& e) { return e.key != x.key; });
    const auto kept = std::remove_if(lo, hi, [&](const held_entry& e) {
      return e.dist >= x.dist && e.hops >= x.hops;
    });
    const auto at = std::lower_bound(lo, kept, x.dist,
                                     [](const held_entry& e, u64 d) {
                                       return e.dist < d;
                                     }) -
                    set.begin();
    set.erase(kept, hi);
    set.insert(set.begin() + at, x);
    return true;
  }

  const sparse_exploration_result& ref_;
  u32 h_;
  const std::vector<root>& roots_;
  bool unit_;
  const std::vector<u64>* words_;
  std::vector<std::vector<held_entry>> cur_;
  /// Acceptances staged per round and merged after the barrier: steps read
  /// other nodes' cur_ (docs/CONCURRENCY.md).
  std::vector<std::vector<staged>> add_;
};

/// Round accounting around reoffer(): the healing budget is
/// heal_budget_mult · max(rounds, 1) + heal_stability_rounds; after
/// convergence the counter is padded to `pad_to` (or, with
/// `aggregate_exit`, by one AND-aggregation) and every round beyond
/// `nominal` is surfaced as extra_rounds.
struct heal_spec {
  const char* what;  ///< primitive name in fault_failure messages
  u32 rounds;        ///< the fault-free round budget
  u32 pad_to;
  u32 nominal;
  bool aggregate_exit = false;
  /// Attempts before fault_failure propagates; each retry sees fresh fault
  /// draws because the round counter moved.
  u32 attempts = 1;
};

/// The re-offer loop over `held`: reset() seeds the roots; each round
/// pull(v, e, offer) enumerates e.to's offers to v in key order, calling
/// offer(count, stamp, cost) → delivered per item and staging what v
/// accepts; merge(v, iteration) → changed runs after the barrier; at the
/// end referee() (null when the converged state is the reliable fixed
/// point, else why it is not) decides between success and fault_failure.
/// An offer in a later iteration than stamp + 1 is a retransmission
/// (docs/FAULTS.md §2), counted whether or not the copy is then dropped.
/// Rounds always advance: a frozen counter would re-roll the same drops
/// forever, so callers with a frozen budget pass nominal 0 and see every
/// round as extra_rounds. A final failure surfaces every round spent as
/// extra_rounds before the fault_failure propagates.
inline void reoffer(hybrid_net& net, pareto_held& held,
                    const heal_spec& spec) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  round_executor& exec = net.executor();
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  std::vector<u64> retx(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(spec.rounds, 1) +
                     fo.heal_stability_rounds;
  u64 spent = 0;
  for (u32 attempt = 1;; ++attempt) {
    try {
      held.reset();
      u32 quiet = 0;
      u64 used = 0;
      while (quiet < fo.heal_stability_rounds) {
        if (used >= budget)
          throw fault_failure(std::string(spec.what) +
                              " healing budget exhausted");
        const u32 it = static_cast<u32>(++used);
        const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
          u64 mine = 0;
          u64 lost = 0;
          u64 re = 0;
          if (net.is_up(v))
            for (const edge& e : g.neighbors(v)) {
              const hybrid_net::local_link link =
                  net.local_link_draws(e.to, v);
              u32 idx = 0;
              held.pull(v, e, [&](u32 count, u32 stamp, u64 cost) {
                mine += cost;
                if (stamp + 1 < it) ++re;
                if (!link.drop(idx++, count)) return true;
                ++lost;
                return false;
              });
            }
          dropped[v] = lost;
          retx[v] = re;
          return mine;
        });
        net.charge_local(items);
        u64 lost = 0;
        u64 re = 0;
        for (u32 v = 0; v < n; ++v) {
          lost += dropped[v];
          re += retx[v];
        }
        net.note_local_delivered(items - lost);
        net.note_local_dropped(lost);
        net.note_retransmitted(re);
        net.advance_round();
        ++spent;
        exec.for_nodes(n, [&](u32 v) { changed[v] = held.merge(v, it); });
        // Progress resets the quiet window; so does any node still down —
        // a paused node has pulls pending that only run after recovery, so
        // its silence is not convergence (a never-recovering node pushes
        // the loop into its budget and an explicit fault_failure).
        const bool busy =
            exec.any_node(n, [&](u32 v) { return changed[v] != 0; }) ||
            (!fo.crashes.empty() &&
             exec.any_node(n, [&](u32 v) { return !net.is_up(v); }));
        quiet = busy ? 0 : quiet + 1;
      }
      if (const char* why = held.referee())
        throw fault_failure(std::string(spec.what) + " healing " + why);
      break;
    } catch (const fault_failure&) {
      if (attempt >= spec.attempts) {
        net.note_extra_rounds(spent);
        throw;
      }
    }
  }
  // Round-accounting parity with the reliable path: pad the fixed budget
  // (or the early-exit detection aggregation), and surface the healing
  // overshoot. Stability detection itself is simulator-level, like the
  // reliable path's frontier-emptiness check.
  if (spec.aggregate_exit) {
    for (u32 k = aggregation_rounds(n); k > 0; --k) net.advance_round();
  } else {
    for (; spent < spec.pad_to; ++spent) net.advance_round();
  }
  if (spent > spec.nominal) net.note_extra_rounds(spent - spec.nominal);
}

// ---- the h-hop exploration ---------------------------------------------------

/// The one body behind run_local_exploration (same `sources` contract):
/// `h` hops of explore() over dense rows when n ≤ kDenseExplorationMaxNodes
/// and over sparse_dist_maps beyond (the same triples and charges; the
/// dense rows are faster while they fit). On a reliable local plane relax()
/// runs charged (rounds frozen unless `advance_rounds`). On a faulty one it
/// runs free, and reoffer() heals toward that answer, up to four attempts,
/// and referees it (docs/FAULTS.md §3): the returned triples are the
/// fault-free ones, vias included. Healing needs real rounds, so they
/// advance anyway and the nominal budget is h when advancing, 0 when not;
/// every round beyond it is extra_rounds. With `unit_weights` every edge
/// counts 1 (truncated_eccentricity's hello flood).
sparse_exploration_result explore_ball(hybrid_net& net, u32 h,
                                       bool advance_rounds,
                                       const std::vector<u32>* sources,
                                       bool first_hops, bool unit_weights);

}  // namespace hybrid::local_engine
