// Traced stage replay of the three pipeline shapes the workloads run.
//
// Each replay calls the proto/sim public functions in the order, and with
// the arguments, of the library pipeline it mirrors (core/apsp.cpp for
// hybrid_apsp_exact, core/kssp_framework.cpp for hybrid_sssp_exact), on one
// hybrid_net, and wraps every proto call in a span plus run_metrics,
// allocation and peak-RSS deltas. The glue in between — skeleton APSP,
// batch building, label assembly, materialize — is the core layer's own
// work and is left unspanned. check_replay() then holds the replay to the
// real pipeline's phase ledger, so the per-layer split cannot drift away
// from the code it explains.
#pragma once

#include <array>
#include <string>

#include "common.hpp"
#include "graph/graph.hpp"
#include "sim/hybrid_net.hpp"

namespace perfbench {

enum class stage : u8 {
  skeleton,
  disseminate,
  routing_context,
  route_tokens,
  clique_embedding,
  clique_rounds,
  super_skeleton,
  table_flood,
  local_exploration,
};
inline constexpr std::size_t kStageCount = 9;
const char* stage_name(stage s);

struct stage_stats {
  double s = 0;
  u64 rounds = 0;
  u64 msgs = 0;
  u64 local_items = 0;
  u64 local_delivered = 0;
  u64 retransmitted = 0;
  u64 extra_rounds = 0;
  u64 allocs = 0;
  double peak_mb = 0;
};

struct replay_result {
  std::array<stage_stats, kStageCount> stages{};
  double total_s = 0;          ///< root span: the whole replayed pipeline
  hybrid::run_metrics metrics;  ///< the replayed net's final snapshot
  /// Rounds paid in closed form by charged stand-ins (charged token
  /// routing, charged dissemination): counted, never run through the loop.
  u64 charged_rounds = 0;
};

/// hybrid_apsp_exact, single- or two-level per opts.hierarchy.
replay_result replay_apsp(const hybrid::graph& g,
                          const hybrid::model_config& cfg, u64 seed,
                          bool build_routes, const hybrid::sim_options& opts,
                          tracer& tr);

/// hybrid_sssp_exact (the k-SSP framework, source forced into the skeleton).
replay_result replay_sssp(const hybrid::graph& g,
                          const hybrid::model_config& cfg, u64 seed,
                          u32 source, const hybrid::sim_options& opts,
                          tracer& tr);

/// Empty string when the replay reproduced `pipeline` exactly: every phase
/// (name, rounds, global messages, retransmissions, extra rounds) and the
/// totals (rounds, global messages, local items, local delivered — phases
/// do not record local items, so those are held at the total). Otherwise a
/// description of the first difference.
std::string check_replay(const hybrid::run_metrics& pipeline,
                         const hybrid::run_metrics& replay);

}  // namespace perfbench
