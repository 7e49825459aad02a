// The HYBRID network model simulator (paper Section 1, "The Hybrid Network
// Model": LOCAL + NCC).
//
// Synchronous rounds. In every round a node may
//   (a) exchange arbitrary messages with each neighbor in the local graph G
//       (LOCAL mode; unbounded bandwidth, traffic is accounted but not
//       capped), and
//   (b) send at most γ = global_cap() messages of at most
//       max_payload_words·64 bits each to arbitrary nodes (NCC mode; the cap
//       is enforced at send time, receive loads are recorded so tests can
//       check Lemma D.2's O(log n) bound).
//
// Protocols are written against this class: they keep per-node state arrays,
// and all information flow between nodes goes through global mailboxes or
// the audited LOCAL utilities in proto/flood.hpp (which charge local items
// and advance rounds). Node-private and public randomness both derive from
// one run seed, so every simulation is reproducible.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/executor.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace hybrid {

struct model_config {
  /// γ = ceil(global_cap_mult · log2 n) global messages per node per round.
  double global_cap_mult = 4.0;
  /// Global message payload cap in 64-bit words (Θ(log n) bits).
  u32 max_payload_words = 3;
  /// Hash independence k = ceil(hash_independence_mult · log2 n) (Lemma D.2).
  double hash_independence_mult = 3.0;
  /// Skeleton hop budget h = ceil(skeleton_xi · (1/p) · ln n) (Lemma C.1's ξ).
  double skeleton_xi = 2.0;
  /// Level-1 sampling probability override for the APSP cores; 0 keeps the
  /// Theorem 1.1 default p = 1/√n. The two-level bench raises it (denser
  /// skeleton, smaller h) to trade ball size against table size.
  double skeleton_p_override = 0.0;
  /// Super-skeleton sampling probability (oracle_hierarchy::kTwoLevel);
  /// 0 = 1/√n_s, the same Õ(√·) recursion step as level 1.
  double super_p_override = 0.0;
  /// Super-skeleton hop budget h1 over the skeleton graph; 0 = the Lemma
  /// C.1 formula with skeleton_xi at level 1: ⌈ξ·(1/p₂)·ln n_s⌉ (which
  /// saturates to exact ball1 coverage at test sizes).
  u32 super_h_override = 0;
  /// Helper-set join probability q = min(helper_q_mult · µ / |C|, 1)
  /// (Algorithm 1 uses 2; larger values harden the |H_w| ≥ µ event at
  /// simulation sizes).
  double helper_q_mult = 4.0;
  /// Copies of each token seeded to random nodes before gossip in the token
  /// dissemination protocol (Θ(log n) in the analysis).
  double dissemination_seed_mult = 1.0;
  /// Charged stand-in for token routing's helper machinery (DESIGN.md §4,
  /// deviation 9): route_tokens charges the Theorem 2.2 / Algorithm 1
  /// round, message, and flood budgets in closed form and delivers tokens
  /// directly, skipping the ruling-set/cluster simulation. Default off —
  /// everything stays message-level simulated. The exact path takes
  /// 2.5 s / 227 MB at n = 4096 and 7.7 s / 771 MB at n = 8192 on
  /// bench_apsp's label_oracle inputs, where the stand-in over-charges
  /// rounds 19–25×. Only the single-level pipelines read the flag: the
  /// two-level label path (every n ≥ 30000 run) never routes tokens, so
  /// there it changes neither rounds, messages nor results.
  bool charged_token_routing = false;
  /// Optional node bipartition for Section-7-style cut accounting; when its
  /// size equals n it is registered at network construction, so the full
  /// algorithms (which build their own nets) can be instrumented.
  std::vector<u8> cut_side;
};

/// One NCC message: a packed 64-bit header plus three payload words, 32
/// bytes on a 32-byte boundary, so no record crosses a cache line and the
/// mailbox moves no padding. Node ids are 23 bits (hybrid_net refuses
/// n > 2²³), tags 16 bits, nw ≤ 3. make() rejects any field that does not
/// fit; direct member stores truncate, like any bit-field.
struct alignas(32) global_msg {
  static constexpr u32 kNodeBits = 23;
  static constexpr u32 kTagBits = 16;
  static constexpr u32 kMaxNodes = u32{1} << kNodeBits;

  u64 src : kNodeBits = 0;
  u64 dst : kNodeBits = 0;
  u64 tag : kTagBits = 0;
  u64 nw : 2 = 0;
  std::array<u64, 3> w{};  ///< payload words (w[0..nw))

  static global_msg make(u32 src, u32 dst, u32 tag,
                         std::initializer_list<u64> words);
};
static_assert(sizeof(global_msg) == 32 && alignof(global_msg) == 32);

class hybrid_net {
 public:
  hybrid_net(const graph& g, model_config cfg, u64 seed,
             sim_options opts = {});

  const graph& g() const { return *g_; }
  u32 n() const { return g_->num_nodes(); }
  const model_config& config() const { return cfg_; }
  /// The sim_options this net was constructed with (thread count as given,
  /// storage mode unresolved — see resolve_materialize).
  const sim_options& options() const { return opts_; }

  /// Node-parallel round executor (docs/CONCURRENCY.md). Protocol drivers
  /// run their per-node round steps through this; within a step for node v,
  /// only v-private state (and v's own send budget) may be written.
  round_executor& executor() { return exec_; }

  /// γ: per-node global sends per round.
  u32 global_cap() const { return global_cap_; }
  /// Hash independence parameter for this n.
  u32 hash_independence() const { return hash_independence_; }

  // ---- round lifecycle -----------------------------------------------
  /// Close the current round: deliver queued global messages (parallel
  /// counting sort on the executor, sim/mailbox.hpp), account aggregate
  /// metrics via deterministic reductions, reset send budgets, bump the
  /// round counter. Orchestrating thread only, after the round barrier.
  void advance_round();
  u64 round() const { return metrics_.rounds; }

  // ---- NCC global mode -------------------------------------------------
  /// Send if src still has budget this round; returns false when the γ cap
  /// is exhausted (callers keep the message queued for a later round).
  /// Thread-safe across distinct src within one parallel round step: all
  /// writes are src-private; aggregate metrics are accounted when the
  /// delivering advance_round() closes the round.
  bool try_send_global(const global_msg& m);
  /// Remaining sends for src this round.
  u32 global_budget(u32 src) const;
  /// Messages delivered to v at the last advance_round(), sorted by
  /// (src, send-index). The span aliases the flat inbox arena and is
  /// valid until the next advance_round().
  std::span<const global_msg> global_inbox(u32 v) const;
  /// Mailbox arena occupancy/allocation probe (tests assert arenas stop
  /// growing after warm-up).
  mailbox_stats global_mailbox_stats() const { return mail_.stats(); }
  /// Release the mailbox high-water arenas (memory only, they regrow on
  /// demand; sim/mailbox.hpp trim()). disseminate() calls it before it
  /// returns, token routing before its long global-silent stretches.
  /// Orchestrating thread only.
  void trim_mailboxes() { mail_.trim(); }

  // ---- LOCAL mode accounting -------------------------------------------
  /// Charge `items` O(log n)-bit records crossing local edges this round.
  void charge_local(u64 items) { metrics_.local_items += items; }

  // ---- fault injection (sim/fault.hpp, docs/FAULTS.md) -------------------
  const fault_options& faults() const { return opts_.faults; }
  bool faults_active() const { return fault_global_ || fault_local_; }
  /// Global plane faulty: queued global sends may be dropped at delivery.
  bool global_faults_active() const { return fault_global_; }
  /// Local plane faulty: LOCAL primitives must route every pulled item
  /// through local_drop() and take their self-healing paths.
  bool local_faults_active() const { return fault_local_; }
  /// Whether v is up in the current round (crash schedule). Down nodes
  /// send and receive nothing on either plane but keep their state.
  bool is_up(u32 v) const { return !has_crashes_ || !down_cur_[v]; }
  /// The local fault stream of one directed edge in the current round: the
  /// crash verdict, p, the mode and the (link, round) key of fault_draw,
  /// fixed when the link is built, so drop() pays one finalizer per item.
  /// Build one per edge per pull; a link is stale once the round advances.
  class local_link {
   public:
    /// Whether the idx-th of `count` items crossing this edge is lost —
    /// exactly fault_roll(fault_draw(base, (from << 32) | to, round, idx),
    /// p), or the adversarial prefix rule.
    bool drop(u32 idx, u32 count) const {
      if (down_) return true;
      if (p_ <= 0.0) return false;
      if (prefix_) return idx < adversarial_prefix_count(p_, count);
      return fault_roll(derive_seed(key_, idx), p_);
    }

   private:
    friend class hybrid_net;
    u64 key_ = 0;
    double p_ = 0.0;
    bool down_ = false;
    bool prefix_ = false;
  };
  /// The fault stream of the edge `from` → `to` this round (never drops
  /// when the local plane is reliable). Pure in (round, from, to), so
  /// callable from parallel steps.
  local_link local_link_draws(u32 from, u32 to) const;
  /// Whether the idx-th of `count` items pulled from `from` by `to` across
  /// a local edge this round is lost. Pure in (round, from, to, idx), so
  /// callable from parallel steps; callers count drops per node and report
  /// the sum through note_local_dropped (the charge_local charge includes
  /// dropped items — they did cross the edge). Loops over one edge's items
  /// build local_link_draws once instead.
  bool local_drop(u32 from, u32 to, u32 idx, u32 count) const {
    return local_link_draws(from, to).drop(idx, count);
  }
  /// Items that arrived (= charged minus dropped at the charging site).
  /// Every charge_local caller reports its delivered share so the ledger
  /// local_items == local_delivered + local_dropped holds at all times;
  /// charged stand-ins report their whole charge (loss is not modeled for
  /// closed-form budgets, see run_metrics::local_delivered).
  void note_local_delivered(u64 items) { metrics_.local_delivered += items; }
  void note_local_dropped(u64 items) { metrics_.local_dropped += items; }
  void note_retransmitted(u64 count) { metrics_.retransmitted += count; }
  void note_extra_rounds(u64 rounds) { metrics_.extra_rounds += rounds; }

  // ---- charged stand-ins (DESIGN.md §4) ----------------------------------
  /// Account `rounds` silent rounds without simulating them (no delivery,
  /// no budget reset — callers must have no queued sends). Used by charged
  /// stand-ins whose round cost is a documented closed form
  /// (model_config{charged_token_routing}); orchestrating thread only.
  void charge_rounds(u64 rounds) { metrics_.rounds += rounds; }
  /// Account global messages/payload words a charged stand-in would have
  /// sent (receive-load tracking is not modeled for stand-ins).
  void charge_global(u64 messages, u64 payload_words) {
    metrics_.global_messages += messages;
    metrics_.global_payload_words += payload_words;
  }

  // ---- randomness --------------------------------------------------------
  /// Node v's persistent private stream, derived from (seed, v). Node-
  /// private, so it is safe inside a parallel step as long as only v's own
  /// step draws from it — but its draw positions depend on the node's whole
  /// history. Prefer round_rng() in parallel step code.
  rng& node_rng(u32 v);
  /// A fresh stream derived from (seed, v, round()) — the determinism
  /// contract's randomness primitive (docs/CONCURRENCY.md): draws depend
  /// only on the (seed, node, round) triple, never on scheduling or on how
  /// many values other rounds consumed.
  rng round_rng(u32 v) const;
  /// Shared public coins (the broadcastable seed of Lemma 2.3).
  rng& public_rng() { return public_rng_; }

  // ---- metrics / instrumentation -----------------------------------------
  void begin_phase(std::string name);
  /// Finalize the open phase and return a copy of the metrics.
  run_metrics snapshot();
  const run_metrics& raw_metrics() const { return metrics_; }

  /// Register a bipartition for Section-7-style cut accounting; bits of
  /// global messages crossing it accumulate in metrics().cut_bits.
  void set_cut(std::vector<u8> side);
  void clear_cut() { cut_side_.clear(); }

 private:
  void close_phase();
  /// Drop decision for one queued global message (send round = the round
  /// advance_round is closing). Pure per (round, src, idx), so the mailbox
  /// may evaluate it from parallel shards, twice per message.
  bool global_drop(u32 src, u32 idx, const global_msg& m) const;
  /// Recompute the crash bitmap for `round` into `down`.
  void fill_down(std::vector<u8>& down, u64 round) const;

  const graph* g_;
  model_config cfg_;
  sim_options opts_;
  round_executor exec_;
  u32 global_cap_;
  u32 hash_independence_;
  u32 header_bits_;

  flat_mailbox<global_msg> mail_;
  /// Per-shard cut bits for advance_round's cut reduction (only while a cut
  /// is registered); a member so steady-state rounds stay allocation-free.
  std::vector<u64> cut_scratch_;

  std::vector<std::optional<rng>> node_rng_;
  /// Per-node round_rng stream ids, derived once at construction (they are
  /// a pure function of (seed_, v), so recomputing them every round was
  /// pure waste).
  std::vector<u64> node_stream_;
  u64 seed_;
  rng public_rng_;

  run_metrics metrics_;
  std::optional<phase_entry> open_phase_;
  u64 phase_start_rounds_ = 0;
  u64 phase_start_msgs_ = 0;
  u64 phase_start_retx_ = 0;
  u64 phase_start_extra_ = 0;

  std::vector<u8> cut_side_;

  // ---- fault state (all dormant when fault_options{} is default) ---------
  bool fault_global_ = false;
  bool fault_local_ = false;
  bool has_crashes_ = false;
  u64 fault_base_global_ = 0;
  u64 fault_base_local_ = 0;
  /// Crash bitmaps: down_cur_ describes the current round; during delivery
  /// down_next_ already holds the upcoming round (messages are lost when
  /// the sender was down at send time or the receiver is down at delivery).
  std::vector<u8> down_cur_;
  std::vector<u8> down_next_;
  /// The mailbox drop filter, bound once at construction (null when the
  /// global plane is reliable, which keeps delivery on the exact
  /// unfiltered path).
  flat_mailbox<global_msg>::drop_filter drop_filter_;
};

}  // namespace hybrid
