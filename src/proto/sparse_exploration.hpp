// The h-hop local exploration: one entry point, run_local_exploration,
// behind the paper's APSP/k-SSP local phase and the skeleton's h-hop
// Bellman–Ford (proto/flood.hpp's limited_bellman_ford and
// full_local_exploration reshape its triples).
//
// The paper's APSP/k-SSP algorithms spend their local phase on h-hop
// exploration. n-wide distance rows per node cost O(n²) memory, which dies
// long before n ≈ 10⁵ on sparse graphs even though each node only ever
// hears from its h-ball. So beyond kDenseExplorationMaxNodes nodes the
// entry stores exactly what a node learns: per node v an open-addressed
// flat map from source id to (dist, first_hop), O(Σᵥ|ball_h(v)|) memory.
// The sparse regime is where HYBRID shines (Feldmann et al. 2020,
// PAPERS.md), and the trick is sound because Kuhn & Schneider's "run local
// exploration in parallel" step only ever needs the h-ball. At or below
// the cutoff the dense rows stay: forcing the maps on n = 1024 APSP made
// the exploration 2.2× slower (docs/ARCHITECTURE.md §6.2).
//
// Equivalence contract (store-level differential in
// tests/sparse_exploration_test.cpp, gated in CI):
//   * dense rows and sparse maps produce the same (source, dist, first_hop)
//     triples, bit for bit, at every thread count — both run the one
//     relaxation loop of proto/local_engine.hpp and flatten straight into
//     the same CSR, only the per-node store differs;
//   * they charge the same local traffic and advance the same rounds, so
//     the n-based store pick never changes a counter;
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

/// h rounds of exploration from `sources` (nullptr = every node explores;
/// otherwise sources must be distinct). Per-node distance state lives in
/// dense rows up to kDenseExplorationMaxNodes nodes and in
/// sparse_dist_maps beyond, so memory is bounded by the h-ball sizes where
/// n² would not fit; the triples and charges are the same either way. With
/// `advance_rounds` false only traffic is charged (the paper's
/// run-in-parallel trick, Lemma 4.3). With `first_hops` false every
/// entry's first_hop is ~0 — callers that only consume (source, dist)
/// spare the dense rows their vias.
///
/// Under local-plane faults the exploration self-heals (docs/FAULTS.md §3):
/// the reliable relaxation runs free and is what gets returned, and a
/// re-offer loop of per-node Pareto-minimal (dist, hops) sets pays for the
/// healing, referees the converged state against it and retries up to four
/// times with fresh fault draws before throwing fault_failure. The result
/// is bit-identical to the fault-free run, vias and all. Healing needs real
/// rounds, so with `advance_rounds` false they advance anyway and every one
/// is surfaced through note_extra_rounds (the nominal budget is h when
/// advancing, 0 when not).
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

}  // namespace hybrid
