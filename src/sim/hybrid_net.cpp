#include "sim/hybrid_net.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hybrid {

global_msg global_msg::make(u32 src, u32 dst, u32 tag,
                            std::initializer_list<u64> words) {
  HYB_REQUIRE(src < kMaxNodes && dst < kMaxNodes,
              "message endpoint exceeds the 23-bit node id");
  HYB_REQUIRE(tag < (u32{1} << kTagBits), "message tag exceeds 16 bits");
  global_msg m;
  HYB_REQUIRE(words.size() <= m.w.size(), "payload exceeds message capacity");
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  u32 i = 0;
  for (u64 x : words) m.w[i++] = x;
  m.nw = i;
  return m;
}

namespace {

/// Validates n before any n-sized allocation (the mailbox arenas are built
/// in the member initializers).
u32 checked_node_count(const graph& g) {
  const u32 n = g.num_nodes();
  HYB_REQUIRE(n >= 2, "HYBRID networks need at least two nodes");
  HYB_REQUIRE(n <= global_msg::kMaxNodes,
              "HYBRID networks support at most 2^23 nodes (global_msg ids)");
  return n;
}

u32 compute_global_cap(const model_config& cfg, u32 n) {
  return std::max<u32>(
      1, static_cast<u32>(std::ceil(cfg.global_cap_mult * id_bits(n))));
}

}  // namespace

hybrid_net::hybrid_net(const graph& g, model_config cfg, u64 seed,
                       sim_options opts)
    : g_(&g),
      cfg_(cfg),
      opts_(opts),
      exec_(opts),
      global_cap_(compute_global_cap(cfg, checked_node_count(g))),
      // Slabs start at 8 slots, not γ: an idle or send-light network pays
      // O(n) idle memory instead of O(n·γ), and γ-saturating protocols
      // re-stride to γ once at the first barrier and are overflow- and
      // allocation-free from then on.
      mail_(g.num_nodes(), global_cap_, std::min<u32>(global_cap_, 8)),
      node_rng_(g.num_nodes()),
      seed_(seed),
      public_rng_(derive_seed(seed, ~u64{0})) {
  const u32 logn = id_bits(g.num_nodes());
  hash_independence_ = std::max<u32>(
      2, static_cast<u32>(std::ceil(cfg.hash_independence_mult * logn)));
  header_bits_ = 2 * logn;  // src + dst IDs
  // Stream ids: v for the persistent per-node streams, ~0 for the public
  // stream; the high bit keeps the per-round family disjoint from both.
  node_stream_.reserve(n());
  for (u32 v = 0; v < n(); ++v)
    node_stream_.push_back(derive_seed(seed, (u64{1} << 63) | v));
  if (cfg_.cut_side.size() == n()) cut_side_ = cfg_.cut_side;

  // Fault wiring (sim/fault.hpp): everything below stays dormant — and the
  // delivery filter stays null — with the default fault_options.
  const fault_options& fo = opts_.faults;
  HYB_REQUIRE(fo.drop_global >= 0.0 && fo.drop_global <= 1.0 &&
                  fo.drop_local >= 0.0 && fo.drop_local <= 1.0,
              "drop probabilities must lie in [0, 1]");
  for (const crash_event& c : fo.crashes) {
    HYB_REQUIRE(c.node < n(), "crash event node out of range");
    HYB_REQUIRE(c.down_round < c.up_round, "crash interval must be nonempty");
  }
  fault_global_ = fo.global_faulty();
  fault_local_ = fo.local_faulty();
  has_crashes_ = !fo.crashes.empty();
  if (fault_global_)
    fault_base_global_ = fault_plane_base(seed, fo.fault_seed,
                                          kFaultPlaneGlobal);
  if (fault_local_)
    fault_base_local_ = fault_plane_base(seed, fo.fault_seed,
                                         kFaultPlaneLocal);
  if (has_crashes_) {
    down_cur_.assign(n(), 0);
    down_next_.assign(n(), 0);
    fill_down(down_cur_, 0);
  }
  if (fault_global_)
    drop_filter_ = [this](u32 src, u32 idx, const global_msg& m) {
      return global_drop(src, idx, m);
    };
}

void hybrid_net::fill_down(std::vector<u8>& down, u64 round) const {
  std::fill(down.begin(), down.end(), 0);
  for (const crash_event& c : opts_.faults.crashes)
    if (round >= c.down_round && round < c.up_round) down[c.node] = 1;
}

bool hybrid_net::global_drop(u32 src, u32 idx, const global_msg& m) const {
  // Called from inside mail_.deliver() while advance_round is closing round
  // rounds-1: down_cur_ still describes the send round, down_next_ the
  // round being opened (the delivery round).
  if (has_crashes_ && (down_cur_[src] || down_next_[m.dst])) return true;
  const fault_options& fo = opts_.faults;
  if (fo.drop_global <= 0.0) return false;
  if (fo.mode == fault_mode::kAdversarialPrefix)
    return idx < adversarial_prefix_count(fo.drop_global, mail_.sends(src));
  return fault_roll(
      fault_draw(fault_base_global_, src, metrics_.rounds - 1, idx),
      fo.drop_global);
}

hybrid_net::local_link hybrid_net::local_link_draws(u32 from, u32 to) const {
  local_link l;
  if (!fault_local_) return l;
  const fault_options& fo = opts_.faults;
  l.down_ = has_crashes_ && (down_cur_[from] || down_cur_[to]);
  l.p_ = fo.drop_local;
  l.prefix_ = fo.mode == fault_mode::kAdversarialPrefix;
  // fault_draw's first two finalizers; drop() applies the per-item third.
  const u64 link = (u64{from} << 32) | to;
  l.key_ = derive_seed(derive_seed(fault_base_local_, link), metrics_.rounds);
  return l;
}

void hybrid_net::advance_round() {
  // The round barrier: called from the orchestrating thread only, after the
  // executor joined all per-node steps (docs/CONCURRENCY.md). Delivery is
  // the mailbox's parallel counting sort; it fixes inbox order as
  // (src, send-index), independent of send interleaving and thread count.
  ++metrics_.rounds;
  // Crash schedule: compute the opening round's bitmap before delivery
  // (global_drop reads both — sender down at send time, receiver down at
  // delivery), then promote it to current.
  if (has_crashes_) fill_down(down_next_, metrics_.rounds);
  mail_.deliver(exec_, fault_global_ ? &drop_filter_ : nullptr);
  if (has_crashes_) down_cur_.swap(down_next_);
  // Aggregate metrics are accounted here rather than at send time so that
  // try_send_global writes only src-private state during parallel steps.
  // The executor's sum/max reductions are order-insensitive, so every
  // counter stays thread-count-invariant (docs/CONCURRENCY.md §5).
  const u64 delivered = mail_.delivered_last_round();
  metrics_.global_messages += delivered;
  metrics_.global_sent += mail_.sent_last_round();
  metrics_.global_dropped += mail_.dropped_last_round();
  // Payload words and the largest inbox come out of delivery itself (count
  // pass and prefix pass); only cut accounting re-reads the inboxes.
  metrics_.global_payload_words += mail_.payload_words_last_round();
  metrics_.max_global_recv_per_round = std::max(
      metrics_.max_global_recv_per_round, mail_.max_inbox_last_round());
  if (delivered == 0 || cut_side_.empty()) return;
  // Per-shard cut bits over the delivered slices, combined in shard order;
  // the sum is order-insensitive, so it is thread-count-invariant
  // (docs/CONCURRENCY.md §5).
  const u32 shards = exec_.shard_count(n());
  cut_scratch_.assign(shards, 0);
  const u8* cut = cut_side_.data();
  exec_.for_shards(n(), [&](u32 s, u32 begin, u32 end) {
    u64 bits = 0;
    for (u32 v = begin; v < end; ++v)
      for (const global_msg& m : mail_.inbox(v))
        if (cut[m.src] != cut[m.dst])
          bits += static_cast<u64>(m.nw) * 64 + header_bits_;
    cut_scratch_[s] = bits;
  });
  for (u64 bits : cut_scratch_) metrics_.cut_bits += bits;
}

bool hybrid_net::try_send_global(const global_msg& m) {
  HYB_REQUIRE(m.src < n() && m.dst < n(), "message endpoint out of range");
  HYB_INVARIANT(m.nw <= cfg_.max_payload_words,
                "payload exceeds the O(log n)-bit model cap");
  if (mail_.sends(m.src) >= global_cap_) return false;
  mail_.push(m);
  return true;
}

u32 hybrid_net::global_budget(u32 src) const {
  return global_cap_ - mail_.sends(src);
}

std::span<const global_msg> hybrid_net::global_inbox(u32 v) const {
  return mail_.inbox(v);
}

rng& hybrid_net::node_rng(u32 v) {
  HYB_REQUIRE(v < n(), "node out of range");
  if (!node_rng_[v]) node_rng_[v].emplace(derive_seed(seed_, v));
  return *node_rng_[v];
}

rng hybrid_net::round_rng(u32 v) const {
  HYB_REQUIRE(v < n(), "node out of range");
  return rng(derive_seed(node_stream_[v], metrics_.rounds));
}

void hybrid_net::begin_phase(std::string name) {
  close_phase();
  open_phase_ = phase_entry{std::move(name)};
  phase_start_rounds_ = metrics_.rounds;
  phase_start_msgs_ = metrics_.global_messages;
  phase_start_retx_ = metrics_.retransmitted;
  phase_start_extra_ = metrics_.extra_rounds;
}

void hybrid_net::close_phase() {
  if (!open_phase_) return;
  open_phase_->rounds = metrics_.rounds - phase_start_rounds_;
  open_phase_->global_messages = metrics_.global_messages - phase_start_msgs_;
  open_phase_->retransmitted = metrics_.retransmitted - phase_start_retx_;
  open_phase_->extra_rounds = metrics_.extra_rounds - phase_start_extra_;
  metrics_.phases.push_back(*open_phase_);
  open_phase_.reset();
}

run_metrics hybrid_net::snapshot() {
  close_phase();
  return metrics_;
}

void hybrid_net::set_cut(std::vector<u8> side) {
  HYB_REQUIRE(side.size() == n(), "cut must label every node");
  cut_side_ = std::move(side);
}

}  // namespace hybrid
