// Audited LOCAL-mode primitives (paper Section 1, "The Hybrid Network
// Model": the unbounded-bandwidth LOCAL mode; used by Algorithms 1, 5, 6
// and 9).
//
// The paper's protocols use the local graph in exactly four ways; each gets
// one primitive here so that all LOCAL information flow goes through code
// that advances simulated rounds and charges traffic:
//
//  1. hop_discovery        — multi-source BFS flooding for T rounds; every
//                            node learns (seed, hop) for seeds within T hops
//                            ("flood information on R / W", Algorithm 1).
//  2. limited_bellman_ford — h synchronous relaxation rounds from a source
//                            set; node v learns d_h(v, s) (Algorithm 6's
//                            skeleton-edge discovery, Algorithm 5's local
//                            source exploration).
//  3. full_local_exploration — h rounds in which every node forwards all
//                            topology it knows; afterwards each node knows
//                            d_h(u, v) for all pairs it can see (the APSP
//                            algorithm's "local exploration", Section 3).
//  4. table_flood          — skeleton nodes publish an immutable table that
//                            floods T hops; recipients get shared read-only
//                            access (the "distribute distance labels to the
//                            Õ(x)-neighborhood" step). Payload bits are
//                            charged per edge crossing; sharing the storage
//                            is a simulator optimization, not an information
//                            leak, because the content is identical for all
//                            recipients.
//
// All primitives run over the whole graph; the cluster-restricted flood of
// the helper-set construction is cluster_flood (proto/clustering.hpp).
// Each one is a thin adapter over the two loops of proto/local_engine.hpp:
// the relaxation loop on a reliable local plane, the re-offer loop under
// local-plane faults (docs/FAULTS.md §3). cluster_flood adapts the
// relaxation loop too, on either plane.
#pragma once

#include <memory>
#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

struct discovered_seed {
  u32 seed;  ///< index into the seeds vector passed in
  u32 hop;
  friend bool operator==(const discovered_seed&,
                         const discovered_seed&) = default;
};

/// (1) Multi-source BFS flood for `rounds` rounds.
/// Returns per node the seeds heard with their hop distance (ascending hop).
/// With `early_exit` the flood stops once no node has anything new to
/// forward; since frontier-emptiness is global information, the saved
/// rounds cost one charged AND-aggregation (Lemma B.2). The result is
/// identical either way — once saturated, the remaining budget is silent.
/// Under local-plane faults the flood self-heals and returns the identical
/// result, order and hops included (docs/FAULTS.md §3).
std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit = false);

struct source_distance {
  u32 source;  ///< index into the sources vector passed in
  u64 dist;    ///< d_h(v, source) for the h used
  /// Neighbor through which the best value arrived — the node's first hop
  /// on a d_h-realizing path toward the source (self for the source).
  /// Exactly what routing-table construction needs (paper §1's IP-routing
  /// motivation).
  u32 via = ~u32{0};
  friend bool operator==(const source_distance&,
                         const source_distance&) = default;
};

/// (2) h rounds of synchronous Bellman–Ford from the distinct `sources`.
/// Returns per node the h-hop-limited distances to every source it reached,
/// in source-index order: run_local_exploration's triples, re-keyed.
/// When `advance_rounds` is false the primitive models the paper's "run the
/// local exploration in parallel with the rest of the algorithm" trick
/// (Lemma 4.3's final paragraph): traffic is charged but rounds are not.
/// Under local-plane faults the frozen-round trick is unavailable (healing
/// needs fresh fault draws, so the counter must move): the call falls back
/// to the healed advancing path automatically, with every consumed round
/// surfaced as extra_rounds (docs/FAULTS.md §3).
std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds = true);

/// (3) Full h-hop-limited APSP: matrix[u][v] = d_h(u, v) (kInfDist when v is
/// outside u's h-hop horizon). Quadratic memory — callers bound n; it is
/// run_local_exploration's triples (proto/sparse_exploration.hpp, what the
/// cores use) expanded into the matrix, with the same charging.
/// When `first_hop` is non-null it receives an n×n matrix with each node's
/// first hop on a d_h-realizing path to the target (self on the diagonal,
/// ~0u when unreachable).
std::vector<std::vector<u64>> full_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    std::vector<std::vector<u32>>* first_hop = nullptr);

/// (4) Flood per-publisher immutable tables for `rounds` rounds.
/// `table_words[i]` is the accounted size of publisher i's table in 64-bit
/// words. Returns for each node the publisher indices whose table it holds.
/// Under local-plane faults, like hop_discovery, the flood self-heals and
/// returns the identical result.
std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds);

/// Hello-flood eccentricity: every node floods its ID for `rounds` rounds;
/// returns per node the largest hop at which it heard a new ID, i.e.
/// h_v = max_{u in N_rounds(v)} hop(v, u) truncated at `rounds`
/// (Algorithm 9's h_v). Under local-plane faults the flood self-heals
/// through the h-hop exploration body with unit weights and returns the
/// identical h_v vector.
std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds);

}  // namespace hybrid
