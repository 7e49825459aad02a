// Seeded fault injection for the simulators (docs/FAULTS.md).
//
// The HYBRID model assumes perfectly reliable edges; this module adds the
// fault axis the ROADMAP asks for: seeded message loss on either plane
// (local edges, NCC global sends) and an optional per-round node
// crash/recovery schedule. Two design rules govern everything here:
//
//   * Determinism: every drop decision is a pure function of
//     (seed, fault_seed, plane, link, round, msg_idx) — a dedicated stream
//     chained through derive_seed, independent of scheduling, thread count,
//     and of how many draws anything else consumed. A run is bit-identical
//     per (seed, fault_seed, threads) triple and thread-count-invariant
//     like every other observable (docs/CONCURRENCY.md).
//   * Zero overhead when off: `fault_options{}` injects nothing and every
//     fault branch in the simulators is hoisted behind one cached bool, so
//     the fault-free hot paths are unchanged.
//
// Protocols degrade in one of two explicit ways (docs/FAULTS.md):
// self-healing stages re-send until convergence and throw `fault_failure`
// when their bounded budget runs out; stages without a healing path refuse
// up front with `fault_unsupported`. Results are correct or explicitly
// failed — never silently wrong.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace hybrid {

enum class fault_mode : u8 {
  /// Each message is dropped independently with probability p.
  kRandom = 0,
  /// Adversarial prefix: of a node's `c` sends in a round, the first
  /// ⌈p·c⌉ are dropped — a deterministic worst-ish case (it always severs
  /// the same positions, so protocols that rely on send order must
  /// reshuffle or retransmit to make progress).
  kAdversarialPrefix,
};

/// One scheduled outage: `node` is down for rounds [down_round, up_round).
/// A down node sends nothing, receives nothing (both planes), but keeps its
/// protocol state — fail-pause, not fail-stop.
struct crash_event {
  u32 node = 0;
  u64 down_round = 0;
  u64 up_round = 0;
};

struct fault_options {
  /// Per-message drop probability on the NCC global plane (and the clique).
  double drop_global = 0.0;
  /// Per-item drop probability on LOCAL-mode edge crossings.
  double drop_local = 0.0;
  /// Extra seed mixed into the drop stream; (seed, fault_seed) together
  /// determine every fault decision.
  u64 fault_seed = 0;
  fault_mode mode = fault_mode::kRandom;
  /// Crash/recovery schedule, applied to both planes.
  std::vector<crash_event> crashes;
  /// Self-healing stages stop after this many consecutive rounds in which
  /// no node learned anything new. Early false stability has probability
  /// ≲ p^stability per pending item per window; the default keeps that
  /// negligible at the drop rates the tests and benches run.
  u32 heal_stability_rounds = 8;
  /// Healing round budget multiplier: a stage with fault-free budget B may
  /// spend up to heal_budget_mult·B rounds before throwing fault_failure.
  u32 heal_budget_mult = 64;

  bool global_faulty() const { return drop_global > 0.0 || !crashes.empty(); }
  bool local_faulty() const { return drop_local > 0.0 || !crashes.empty(); }
  bool enabled() const { return global_faulty() || local_faulty(); }
};

/// A self-healing stage exhausted its bounded retry/round budget (e.g. a
/// node is crashed for longer than the budget tolerates). The computation
/// is explicitly failed, never silently wrong.
class fault_failure : public std::runtime_error {
 public:
  explicit fault_failure(const std::string& what) : std::runtime_error(what) {}
};

/// The requested stage has no self-healing path under the active fault
/// planes and refuses to produce possibly-wrong results.
class fault_unsupported : public std::runtime_error {
 public:
  explicit fault_unsupported(const std::string& what)
      : std::runtime_error(what) {}
};

// ---- the fault stream ------------------------------------------------------
//
// fault_rng(seed, fault_seed, node/link, round, msg_idx): a splitmix chain
// through derive_seed. The per-plane base is precomputed once per network.
// On the local plane the (link, round) key — the chain's first two
// finalizers — is hoisted per edge (hybrid_net::local_link_draws), so each
// item pays one finalizer and the stream is unchanged.

inline constexpr u64 kFaultPlaneGlobal = 0x67;  // NCC sends in hybrid_net
inline constexpr u64 kFaultPlaneLocal = 0x6C;   // LOCAL edge crossings
inline constexpr u64 kFaultPlaneClique = 0x63;  // clique_net sends

inline u64 fault_plane_base(u64 seed, u64 fault_seed, u64 plane) {
  return derive_seed(derive_seed(derive_seed(seed, 0xFA17FA17), fault_seed),
                     plane);
}

/// The raw 64-bit draw for one message. `link` identifies the sender (global
/// plane) or the directed edge packed as (from << 32) | to (local plane);
/// `idx` is the message's position within that link's sends this round.
inline u64 fault_draw(u64 plane_base, u64 link, u64 round, u64 idx) {
  return derive_seed(derive_seed(derive_seed(plane_base, link), round), idx);
}

/// Bernoulli(p) decision from a draw, mirroring rng::next_double's mapping.
inline bool fault_roll(u64 draw, double p) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < p;
}

/// kAdversarialPrefix: how many of `count` sends are dropped (the first ones).
inline u32 adversarial_prefix_count(double p, u32 count) {
  const u32 k = static_cast<u32>(std::ceil(p * static_cast<double>(count)));
  return k > count ? count : k;
}

}  // namespace hybrid
