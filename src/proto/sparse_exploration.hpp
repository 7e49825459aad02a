// Neighborhood-bounded local exploration (the sparse counterpart of
// proto/flood.hpp's full_local_exploration / limited_bellman_ford).
//
// The paper's APSP/k-SSP algorithms spend their local phase on h-hop
// exploration. The dense primitives keep an n-wide distance vector per node
// — O(n²) memory by design — which dies long before n ≈ 10⁵ on sparse
// graphs even though each node only ever hears from its h-ball. This module
// stores exactly what a node learns: per node v an open-addressed flat map
// from source id to (dist, first_hop), so total memory is O(Σᵥ|ball_h(v)|)
// instead of O(n²). The sparse regime is where HYBRID shines (Feldmann et
// al. 2020, PAPERS.md), and the trick is sound because Kuhn & Schneider's
// "run local exploration in parallel" step only ever needs the h-ball.
//
// Equivalence contract (differentially tested in
// tests/sparse_exploration_test.cpp, gated in CI):
//   * the sparse path produces the same (source, dist, first_hop) triples
//     as the dense path, bit for bit, at every thread count;
//   * it charges the same local traffic and advances the same rounds —
//     both paths run the one relaxation loop of proto/local_engine.hpp,
//     only the per-node store differs (sparse_dist_map vs dense rows);
//   * tie-breaks are identical: the first neighbor in sorted adjacency
//     order that strictly improves a source's distance becomes the first
//     hop (docs/CONCURRENCY.md §3).
#pragma once

#include <span>
#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

/// One reached source at one node: d_h(v, source) plus v's first hop on a
/// d_h-realizing path toward it (self for the source itself). Field order
/// keeps the struct at 16 bytes — the unit the O(Σ|ball_h(v)|) bound counts.
struct exploration_entry {
  u64 dist;
  u32 source;     ///< source NODE id (not an index into a sources vector)
  u32 first_hop;  ///< neighbor toward the source; self at the source
  friend bool operator==(const exploration_entry&,
                         const exploration_entry&) = default;
};

/// Open-addressed flat map keyed by source id, holding each node's reached
/// set during an exploration. Entries live in a dense insertion-ordered
/// vector (cheap iteration and flattening); the power-of-two probe table
/// stores slot indices only. clear() keeps capacity so a map can be reused
/// as per-node scratch across explorations without reallocating.
class sparse_dist_map {
 public:
  /// d(source) as currently known, kInfDist when the source was never seen.
  u64 dist_of(u32 source) const;

  /// The relaxation primitive: adopt (nd, via) iff nd strictly improves on
  /// the current distance (absent counts as kInfDist). Returns true when it
  /// did — the exact condition the dense loops use to extend the frontier.
  bool relax(u32 source, u64 nd, u32 via);

  /// Reached sources in insertion (discovery) order.
  std::span<const exploration_entry> entries() const { return entries_; }
  u32 size() const { return static_cast<u32>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  /// Forget all entries but keep both arrays' capacity.
  void clear();

 private:
  u32* find_slot(u32 source);
  void grow();

  std::vector<exploration_entry> entries_;
  /// Probe table of entry index + 1 (0 = empty); size is a power of two.
  std::vector<u32> table_;
  u32 mask_ = 0;  ///< table_.size() - 1, 0 while the table is empty
};

/// Per-node reached sets in one flat CSR arena: node v's triples are
/// entries[offsets[v] .. offsets[v+1]), sorted by source id. Memory is
/// O(total_reached()) = O(Σᵥ|ball_h(v)|), never O(n²).
struct sparse_exploration_result {
  std::vector<u64> offsets;  ///< size n + 1
  std::vector<exploration_entry> entries;

  std::span<const exploration_entry> reached(u32 v) const {
    return {entries.data() + offsets[v], entries.data() + offsets[v + 1]};
  }
  u64 total_reached() const { return entries.size(); }
  friend bool operator==(const sparse_exploration_result&,
                         const sparse_exploration_result&) = default;
};

/// h rounds of exploration from `sources` (nullptr = every node explores,
/// the full_local_exploration workload; otherwise the limited_bellman_ford
/// workload — sources must be distinct). Per-node distance state lives in
/// sparse_dist_maps, so memory is bounded by the h-ball sizes. Round and
/// traffic accounting matches the dense primitives exactly; with
/// `advance_rounds` false only traffic is charged (the paper's
/// run-in-parallel trick, Lemma 4.3). With `first_hops` false every
/// entry's first_hop is ~0 — callers that only consume (source, dist)
/// spare the dense reference path its n² first-hop matrix, and the
/// cross-path bit-identity contract holds in either mode.
sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// The dense reference path behind the same interface: runs
/// full_local_exploration (or limited_bellman_ford for a source subset)
/// and flattens the n-wide rows into the sparse triple format. O(n²)
/// memory — callers bound n; kept for small instances and for
/// differentially testing the sparse path.
sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// What the cores call: dispatches on resolve_exploration(net.options(),
/// net.n()). Both paths return identical triples and charge identical
/// rounds/messages, so the choice is a memory/speed trade only. Under
/// local-plane faults every entry point routes to healed_local_exploration
/// below, so the choice of path never changes fault behavior either.
sparse_exploration_result run_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true);

/// h-hop all-sources exploration over an EXPLICIT adjacency list — free
/// local computation, no hybrid_net, no rounds, no traffic charging. This
/// is the level-1 table builder of the two-level hierarchy: once the
/// skeleton edge set E_S is public (disseminated), every node can run this
/// over G_S locally, exactly like skeleton_apsp. `adj[v]` holds (neighbor,
/// weight) pairs; entries come back sorted by source INDEX (the vertices of
/// `adj` are their own id space), first_hop = the producing neighbor index
/// (self at the source). Deterministic and bit-identical at every thread
/// count of `ex` — it is the same relaxation loop, run without a network
/// over the adjacency list, with per-node state private to each node's
/// step.
sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex);

/// Self-healing h-hop exploration for a faulty local plane (docs/FAULTS.md
/// §3) — the engine behind every exploration entry point (sparse, dense,
/// full_local_exploration, truncated_eccentricity) once
/// hybrid_net::local_faults_active(). It is the re-offer loop of
/// proto/local_engine.hpp with Pareto sets in key order, under the
/// same correct-or-explicitly-failed contract as the healed floods: per
/// node it keeps Pareto-minimal (dist, hops) sets per source with
/// per-entry epoch stamps, re-offers every extendable entry each round
/// (stamped re-offers count as retransmitted) until a crash-aware quiet
/// window, then validates the converged state against the reliable
/// relaxation loop's ball-triple fixed point Σ|ball_h(v)| (run without a
/// network) and throws fault_failure on premature stability —
/// retrying up to four times with fresh fault draws (the round counter
/// moved) before giving up. On success it returns the referee's canonical
/// triples, so the result is bit-identical to the fault-free run, vias and
/// all.
///
/// Healing needs real rounds (a frozen round counter re-rolls the same
/// drops forever), so with `advance_rounds` false the paper's
/// run-in-parallel trick is unavailable: rounds advance anyway and every
/// one of them is surfaced through note_extra_rounds (the nominal budget is
/// h when advancing, 0 when not). With `unit_weights` every edge counts 1
/// (the truncated_eccentricity workload, which floods hop counts, not
/// weighted distances).
sparse_exploration_result healed_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources = nullptr, bool first_hops = true,
    bool unit_weights = false);

}  // namespace hybrid
