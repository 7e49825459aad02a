// Parallel round executor for the synchronous simulators.
//
// The HYBRID model (paper Section 1) is a synchronous round model: within a
// round, nodes act on the state of the *previous* round only, so the
// per-node protocol steps of one round are independent and can run
// concurrently. `round_executor` exploits exactly that structure — and
// nothing more:
//
//   * node IDs [0, n) are partitioned into contiguous shards, one per
//     worker thread (static sharding, no work stealing);
//   * each shard runs its nodes' step callbacks in ID order;
//   * the executor joins all shards before returning — the round barrier —
//     after which the caller may mutate shared state (advance_round()).
//
// Determinism contract (docs/CONCURRENCY.md): a step callback for node v
// may read any round-frozen shared state but write only v-private state
// (including v's outbox/budget inside hybrid_net). Under that discipline
// every quantity the simulation produces is bit-identical for any thread
// count, because each node's write sequence is a pure function of the
// frozen round state. Reductions (`sum_nodes`) accumulate per shard and
// combine over u64 addition, which is order-insensitive.
//
// Thread count resolution: sim_options{threads} wins when nonzero; else the
// HYBRID_THREADS environment variable; else std::thread::hardware_concurrency.
// One thread means strictly inline execution — no pool is ever spawned, so
// single-threaded runs behave exactly like the pre-executor simulator.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/fault.hpp"
#include "util/bits.hpp"

namespace hybrid {

/// Result-storage mode for the oracle-producing cores (core/dist_oracle.hpp):
/// `kDense` additionally materializes the n×n result matrices from the
/// distance labels (the pre-PR-5 output format), `kLabels` keeps only the
/// queryable per-node labels — O(Σ|label(v)|) memory instead of O(n²).
/// `kAuto` materializes up to kDenseExplorationMaxNodes nodes; beyond that
/// the matrices are exactly the memory wall the labels exist to remove.
enum class result_storage : u8 { kAuto = 0, kDense, kLabels };

/// Oracle hierarchy for the label-producing APSP core (core/apsp.hpp).
/// `kSingleLevel` is the Theorem 1.1 one-sided scheme: token-routed
/// n_s × n skeleton rows, exact everywhere a gateway exists but Õ(n^1.5)
/// label words for full coverage. `kTwoLevel` samples a super-skeleton over
/// the skeleton and stores the recursive two-sided composition
/// (label_scheme::kTwoLevel) instead of the rows — each level's table is
/// Õ(√ of the level below), which is what keeps full coverage at n = 10⁵
/// inside the 2 GB budget (ROADMAP; the `label_large` bench gates it).
enum class oracle_hierarchy : u8 { kSingleLevel = 0, kTwoLevel };

struct sim_options {
  /// Worker threads for node-parallel round steps. 0 = auto: the
  /// HYBRID_THREADS environment variable when set to a positive integer,
  /// else std::thread::hardware_concurrency().
  u32 threads = 0;
  /// Whether APSP/k-SSP results carry dense matrices besides their labels.
  result_storage storage = result_storage::kAuto;
  /// Skeleton hierarchy depth for hybrid_apsp_exact (single-level rows vs
  /// the two-level recursive labels). Orthogonal to the knobs above; the
  /// other cores ignore it.
  oracle_hierarchy hierarchy = oracle_hierarchy::kSingleLevel;
  /// Fault injection: seeded message loss and node crash/recovery
  /// (sim/fault.hpp, docs/FAULTS.md). Default-constructed = disabled, and
  /// the simulators' fault-free paths are untouched.
  fault_options faults = {};
};

/// Largest n for which the h-hop exploration (run_local_exploration)
/// keeps dense per-node rows rather than sparse maps; also the
/// result_storage::kAuto materialization cutoff. Calibrated from measured
/// dense/sparse crossover sweeps (docs/ARCHITECTURE.md §6.2): the true
/// discriminator is ball density, which is unknown up front, so this n
/// bounds the regret instead — dense through 4096 costs at most ~155 ms /
/// ~183 MB against the sparsest measured workload while keeping a 2.3–2.7×
/// time-and-RSS win when balls saturate; 8192 would quadruple the
/// worst-case footprint, 2048 forfeits the saturated win.
inline constexpr u32 kDenseExplorationMaxNodes = 4096;

/// Whether `sim_options` asks for dense result matrices at this n.
inline bool resolve_materialize(const sim_options& opts, u32 n) {
  if (opts.storage != result_storage::kAuto)
    return opts.storage == result_storage::kDense;
  return n <= kDenseExplorationMaxNodes;
}

/// The thread count `sim_options` resolves to (see above). Never 0.
u32 resolve_threads(const sim_options& opts);

class round_executor {
 public:
  explicit round_executor(sim_options opts = {});
  ~round_executor();

  round_executor(const round_executor&) = delete;
  round_executor& operator=(const round_executor&) = delete;

  u32 threads() const { return threads_; }

  /// The static shard partition for n nodes: min(threads, n) shards of
  /// ⌈n/shards⌉ contiguous IDs; shard s covers [shard_begin(n, s),
  /// shard_begin(n, s+1)) (tail shards may be empty). Exposed so
  /// barrier-phase code (flat_mailbox delivery) can mirror the exact
  /// partition for_shards uses.
  u32 shard_count(u32 n) const { return n == 0 ? 0 : std::min(threads_, n); }
  u32 shard_begin(u32 n, u32 shard) const {
    if (n == 0) return 0;
    const u32 chunk = static_cast<u32>(ceil_div(n, shard_count(n)));
    return std::min(n, shard * chunk);
  }

  /// Run `step(v)` for every v in [0, n); returns after ALL nodes finished
  /// (the round barrier). Steps must follow the determinism contract above.
  /// Exceptions thrown by steps are rethrown here (first one wins).
  /// Dispatching is not reentrant: a step must never call back into the
  /// executor (enforced — nested dispatch throws).
  void for_nodes(u32 n, const std::function<void(u32)>& step);

  /// Shard-granular variant: `body(shard, begin, end)` runs once per
  /// contiguous shard (`shard` ascending with `begin`). Use when the step
  /// needs shard-local scratch; ranges are a static partition of [0, n)
  /// and do not depend on scheduling.
  void for_shards(u32 n, const std::function<void(u32, u32, u32)>& body);

  /// Deterministic reduction: sum of `term(v)` over v in [0, n).
  /// Accumulated per shard, combined in shard order; u64 addition is
  /// order-insensitive, so the result is thread-count-invariant.
  u64 sum_nodes(u32 n, const std::function<u64(u32)>& term);

  /// Deterministic reduction: max of `term(v)` over v in [0, n); 0 when
  /// n == 0. Order-insensitive like sum_nodes, so thread-count-invariant.
  /// Note: the simulators' advance_round hot paths use a fused for_shards
  /// instantiation of this same shape (several counters in one pass, with
  /// a member scratch buffer) instead of calling this per counter; prefer
  /// max_nodes in protocol code, where one reduction per barrier is the
  /// common case.
  u64 max_nodes(u32 n, const std::function<u64(u32)>& term);

  /// True when `pred(v)` holds for at least one node (barrier included).
  bool any_node(u32 n, const std::function<bool(u32)>& pred);

 private:
  void spawn_workers();
  void worker_loop();
  void run_job(u64 my_generation);

  u32 threads_;

  // Pool state (untouched when threads_ == 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  u64 generation_ = 0;
  bool stop_ = false;
  // Current job, valid while pending_shards_ > 0.
  const std::function<void(u32, u32, u32)>* job_ = nullptr;
  u32 job_n_ = 0;
  u32 job_shards_ = 0;
  u32 next_shard_ = 0;
  u32 pending_shards_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace hybrid
