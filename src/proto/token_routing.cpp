#include "proto/token_routing.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace hybrid {

namespace {

constexpr u32 kTokenTag = 0x7071;    // sender-helper → intermediate
constexpr u32 kRequestTag = 0x7072;  // receiver-helper → intermediate
constexpr u32 kAnswerTag = 0x7073;   // intermediate → receiver-helper
constexpr u32 kTokAckTag = 0x7074;   // intermediate → sender-helper (faults)
constexpr u32 kMaxTokenIndex = 1u << 22;

/// Pack a label (s, r, i) into one word for flooding and messages.
u64 pack_label(u32 s, u32 r, u32 i) {
  HYB_REQUIRE(s < (1u << 21) && r < (1u << 21) && i < kMaxTokenIndex,
              "label component out of packing range");
  return (u64{s} << 43) | (u64{r} << 22) | i;
}
u32 label_s(u64 p) { return static_cast<u32>(p >> 43); }
u32 label_r(u64 p) { return static_cast<u32>((p >> 22) & ((1u << 21) - 1)); }
u32 label_i(u64 p) { return static_cast<u32>(p & (kMaxTokenIndex - 1)); }

struct helper_task {
  u64 label;    // packed (s, r, i)
  u64 payload;  // valid only on the sender side
};

/// Canonical balanced share: tasks sorted by label, helper with position
/// `pos` among `count` takes indices ≡ pos (mod count). Both the owner and
/// its helpers can compute this locally (Fact 2.4's "balanced assignment").
void take_share(std::vector<helper_task>& all, u32 pos, u32 count,
                std::vector<helper_task>& out) {
  std::sort(all.begin(), all.end(),
            [](const helper_task& x, const helper_task& y) {
              return x.label < y.label;
            });
  for (u32 j = pos; j < all.size(); j += count) out.push_back(all[j]);
}

}  // namespace

namespace {

/// β = 2µ⌈log n⌉: the ruling set's domination-radius guarantee, the only
/// radius the charged stand-in can budget floods by (the simulated path
/// floods by the tighter measured max_radius).
u64 charged_beta(u32 mu, u32 n) { return u64{2} * mu * id_bits(n); }

/// One intra-cluster flood's round budget: 2β+1 reaches the whole cluster.
u64 charged_flood_budget(u32 mu, u32 n) { return 2 * charged_beta(mu, n) + 1; }

/// Rounds the Algorithm 1 construction for one helper side is budgeted at
/// (DESIGN.md deviation 9's charged stand-in): the (2µ+1, 2µ⌈log n⌉)-ruling
/// set, the β-round cluster-assignment flood, and the two intra-cluster
/// floods of 2β+1 rounds each (member discovery + helper announcement).
u64 charged_setup_rounds(u32 mu, u32 n) {
  if (mu <= 1) return 0;
  return 2 * charged_beta(mu, n) + 2 * charged_flood_budget(mu, n);
}

/// The batch validation both delivery paths share (k_s, sender slot,
/// receiver membership, label packing, k_r; self tokens count against
/// neither bound). `take(si, ri, t, label)` gets every token with its
/// receiver position and packed label (nullopt for a self token); each
/// sender slab is released once absorbed. Returns the routed-token count.
template <class Take>
u64 absorb_batch(const routing_spec& spec, const std::vector<u32>& receiver_pos,
                 std::vector<std::vector<routed_token>>& by_sender,
                 Take&& take) {
  std::vector<u64> routed_to(spec.receivers.size(), 0);
  u64 total_routed = 0;
  for (u32 si = 0; si < by_sender.size(); ++si) {
    HYB_REQUIRE(by_sender[si].size() <= spec.k_s, "sender exceeds k_s tokens");
    for (const routed_token& t : by_sender[si]) {
      HYB_REQUIRE(t.sender == spec.senders[si],
                  "token sender does not match its slot");
      const u32 ri = receiver_pos[t.receiver];
      HYB_REQUIRE(ri != ~u32{0}, "token addressed to a non-receiver");
      std::optional<u64> label;
      if (t.sender != t.receiver) {
        label = pack_label(t.sender, t.receiver, t.index);
        ++routed_to[ri];
        ++total_routed;
      }
      take(si, ri, t, label);
    }
    std::vector<routed_token>().swap(by_sender[si]);  // memory only
  }
  for (u32 ri = 0; ri < spec.receivers.size(); ++ri)
    HYB_REQUIRE(routed_to[ri] <= spec.k_r, "receiver exceeds k_r tokens");
  return total_routed;
}

/// A budgeted intra-cluster flood of `tokens` items: charged and, with no
/// per-item drop model, delivered in full; its rounds elapse.
void charge_cluster_flood(hybrid_net& net, u64 tokens, u32 flood_rounds) {
  net.charge_local(tokens * flood_rounds);
  net.note_local_delivered(tokens * flood_rounds);
  for (u32 r = 0; r < flood_rounds; ++r) net.advance_round();
}

}  // namespace

routing_context build_routing_context(hybrid_net& net, routing_spec spec) {
  const u64 start = net.round();
  routing_context ctx;
  ctx.mu_s = helper_mu(spec.k_s, spec.p_s);
  ctx.mu_r = helper_mu(spec.k_r, spec.p_r);
  ctx.spec = std::move(spec);
  if (net.config().charged_token_routing) {
    // Charged stand-in (DESIGN.md deviation 9): pay the construction's
    // round budget and the setup floods' local traffic in closed form; the
    // helper families stay empty and are never consulted. No hash is drawn
    // (the stand-in consumes no public randomness).
    const u32 n = net.n();
    for (const u32 mu : {ctx.mu_s, ctx.mu_r}) {
      net.charge_rounds(charged_setup_rounds(mu, n));
      // The two intra-cluster floods move every node's record through its
      // cluster: n records for a 2β+1-round budget, twice.
      if (mu > 1) {
        const u64 items = 2 * u64{n} * charged_flood_budget(mu, n);
        net.charge_local(items);
        // Closed-form budgets are reliability-abstracted: the whole charge
        // counts as delivered (run_metrics::local_delivered).
        net.note_local_delivered(items);
      }
    }
    // Hash-seed broadcast, charged as one aggregation (Lemma B.2).
    net.charge_rounds(aggregation_rounds(n));
    net.charge_global(n, n);
    ctx.setup_rounds = net.round() - start;
    return ctx;
  }
  ctx.sender_helpers = compute_helpers(net, ctx.spec.senders, ctx.mu_s);
  ctx.receiver_helpers = compute_helpers(net, ctx.spec.receivers, ctx.mu_r);
  // Public hash: the O(log² n)-bit seed comes from the shared randomness
  // (broadcastable in Õ(1) rounds, Lemma 2.3; we charge one aggregation's
  // worth of rounds as the broadcast).
  ctx.hash.emplace(net.hash_independence(), net.public_rng());
  global_aggregate(net, agg_op::max,
                   std::vector<u64>(net.n(), ctx.hash->seed_bits()));
  ctx.setup_rounds = net.round() - start;
  return ctx;
}

/// The charged stand-in's delivery: validate with the simulated path's
/// absorb_batch, hand every token to its receiver slot directly (sorted by
/// (sender, index) — a canonical order; the simulated path's order is
/// unspecified), and charge Theorem 2.2's round/message/flood accounting in
/// closed form.
static std::vector<std::vector<routed_token>> charged_route_tokens(
    hybrid_net& net, routing_context& ctx,
    std::vector<std::vector<routed_token>>& by_sender) {
  const u32 n = net.n();
  const routing_spec& spec = ctx.spec;
  std::vector<u32> receiver_pos(n, ~u32{0});
  for (u32 i = 0; i < spec.receivers.size(); ++i)
    receiver_pos[spec.receivers[i]] = i;
  // Global phases before a charged route can leave n·γ-slot arenas behind
  // (dissemination trims its own); nothing global moves while the stand-in
  // runs, so release them (memory only, they regrow on demand).
  net.trim_mailboxes();
  std::vector<std::vector<routed_token>> delivered(spec.receivers.size());
  // One pass: validate, hand each token to its receiver slot, release each
  // sender slab as it is absorbed (the whole point of this path is the
  // n = 10⁵ memory budget).
  const u64 total_routed = absorb_batch(
      spec, receiver_pos, by_sender,
      [&](u32, u32 ri, const routed_token& t, std::optional<u64>) {
        delivered[ri].push_back(t);
      });
  for (auto& tokens : delivered)
    std::sort(tokens.begin(), tokens.end(),
              [](const routed_token& a, const routed_token& b) {
                return a.sender != b.sender ? a.sender < b.sender
                                            : a.index < b.index;
              });
  if (total_routed == 0) return delivered;

  // Rounds: K/(n·γ) pipelined global rounds + the √k terms + the hand-off /
  // collection floods (budgeted at 2β+1 with β = 2µ⌈log n⌉) + the
  // completion AND-aggregation. Messages: token + request + answer per
  // routed token (2 + 1 + 2 payload words), plus one word per node for the
  // aggregation.
  const u64 gamma = net.global_cap();
  u64 rounds = ceil_div(total_routed, u64{n} * gamma);
  rounds += static_cast<u64>(std::ceil(std::sqrt(static_cast<double>(spec.k_s))));
  rounds += static_cast<u64>(std::ceil(std::sqrt(static_cast<double>(spec.k_r))));
  u64 flood_items = 0;
  if (ctx.mu_s > 1) {
    const u64 budget = charged_flood_budget(ctx.mu_s, n);
    rounds += budget;  // sender hand-off flood
    flood_items += total_routed * budget;
  }
  if (ctx.mu_r > 1) {
    const u64 budget = charged_flood_budget(ctx.mu_r, n);
    rounds += 2 * budget;  // receiver hand-off + final collection floods
    flood_items += 2 * total_routed * budget;
  }
  rounds += aggregation_rounds(n);
  net.charge_rounds(rounds);
  net.charge_local(flood_items);
  net.note_local_delivered(flood_items);  // closed-form budget: no loss model
  net.charge_global(3 * total_routed + n, 5 * total_routed + n);
  return delivered;
}

std::vector<std::vector<routed_token>> route_tokens(
    hybrid_net& net, routing_context& ctx,
    std::vector<std::vector<routed_token>> by_sender) {
  const u32 n = net.n();
  const routing_spec& spec = ctx.spec;
  HYB_REQUIRE(by_sender.size() == spec.senders.size(),
              "token batch must align with the sender list");
  if (net.config().charged_token_routing) {
    // The stand-in moves no real messages, so there is nothing to drop and
    // nothing to heal — its closed-form budgets cannot model any fault
    // plane (docs/FAULTS.md).
    if (net.faults_active())
      throw fault_unsupported(
          "charged token routing cannot run under injected faults: the "
          "stand-in charges closed-form budgets and moves no real messages, "
          "so there is nothing to drop or heal; set "
          "model_config::charged_token_routing=false to run the "
          "message-level healed path (docs/FAULTS.md)");
    return charged_route_tokens(net, ctx, by_sender);
  }
  // Fault degradation (docs/FAULTS.md): under a faulty global plane the
  // push/request/answer triangle gains an acknowledgement layer. An
  // intermediate acks every kTokenTag it receives and keeps answered tokens
  // in its store (re-requests must stay answerable); sender-helpers re-push
  // unacked tokens and receiver-helpers re-request unanswered labels every
  // few rounds (a full round trip, so in-flight acks get a chance to land
  // before the retransmission fires). Crashed nodes pause with their queues
  // intact. The progress guard becomes a heal budget: exhausting it throws
  // fault_failure instead of tripping an invariant.
  const bool faulty = net.global_faults_active();

  std::vector<u32> receiver_pos(n, ~u32{0});
  for (u32 i = 0; i < spec.receivers.size(); ++i)
    receiver_pos[spec.receivers[i]] = i;

  std::vector<std::vector<routed_token>> delivered(spec.receivers.size());

  // ---- collect labels; deliver s == r tokens directly --------------------
  // label lists per sender position / receiver position.
  std::vector<std::vector<helper_task>> sender_tokens(spec.senders.size());
  std::vector<std::vector<helper_task>> receiver_labels(
      spec.receivers.size());
  const u64 total_routed = absorb_batch(
      spec, receiver_pos, by_sender,
      [&](u32 si, u32 ri, const routed_token& t, std::optional<u64> lbl) {
        if (!lbl) {
          delivered[ri].push_back(t);
          return;
        }
        sender_tokens[si].push_back({*lbl, t.payload});
        receiver_labels[ri].push_back({*lbl, 0});
      });
  if (total_routed == 0) return delivered;

  // ---- Algorithm 3: hand tokens to sender-helpers, labels to
  // receiver-helpers -------------------------------------------------------
  // send_tasks[v]: tokens v must push to intermediates;
  // want[v]: labels v must fetch from intermediates.
  std::vector<std::vector<helper_task>> send_tasks(n);
  std::vector<std::vector<helper_task>> want(n);

  // Algorithm 3 floods every owner's tokens through its whole cluster for
  // 2(µ_S+µ_R)⌈log n⌉ rounds and lets helpers pick their share. We charge
  // exactly those rounds and the flood's traffic, but deliver each helper's
  // canonical share directly — the flood gives all cluster members strictly
  // more knowledge than the share the helpers extract from it, so outcomes
  // are identical (see docs/DESIGN.md §4 on simulator shortcuts).
  auto distribute = [&](const helper_family& fam,
                        const std::vector<u32>& owners,
                        std::vector<std::vector<helper_task>>& tasks,
                        std::vector<std::vector<helper_task>>& dest) {
    if (fam.trivial()) {
      for (u32 i = 0; i < owners.size(); ++i) {
        for (const helper_task& t : tasks[i]) dest[owners[i]].push_back(t);
        std::vector<helper_task>().swap(tasks[i]);  // handed over; release
      }
      return;
    }
    const u32 flood_rounds = fam.clusters.flood_budget();
    u64 token_count = 0;
    for (u32 i = 0; i < owners.size(); ++i) {
      token_count += tasks[i].size();
      const auto& helpers = fam.helpers_of[i];
      for (u32 pos = 0; pos < helpers.size(); ++pos) {
        std::vector<helper_task> mine;
        take_share(tasks[i], pos, static_cast<u32>(helpers.size()), mine);
        for (const helper_task& t : mine) dest[helpers[pos]].push_back(t);
      }
      std::vector<helper_task>().swap(tasks[i]);  // handed over; release
    }
    charge_cluster_flood(net, token_count, flood_rounds);
  };
  distribute(ctx.sender_helpers, spec.senders, sender_tokens, send_tasks);
  distribute(ctx.receiver_helpers, spec.receivers, receiver_labels, want);

  // ---- Algorithm 4: route via hash-chosen intermediates ------------------
  const kwise_hash& h = *ctx.hash;
  auto intermediate_of = [&](u64 lbl) {
    const u64 key = kwise_hash::encode_label(label_s(lbl), label_r(lbl),
                                             label_i(lbl), n, kMaxTokenIndex);
    return h.eval_to_range(key, n);
  };

  // Per-node intermediate storage and pending (unanswerable yet) requests —
  // open-addressed flat maps (util/flat_map.hpp): the round loop below does
  // a point lookup per received message, and node-based unordered_maps made
  // each one a heap-node cache miss on the exact path's hottest edge.
  std::vector<flat_u64_map<u64>> store(n);
  std::vector<flat_u64_map<std::vector<u32>>> pending(n);
  std::vector<std::deque<std::pair<u64, u32>>> answer_queue(n);
  // fetched[v]: tokens v obtained as receiver-helper.
  std::vector<std::vector<helper_task>> fetched(n);
  std::vector<u64> want_left(n, 0);
  std::vector<u64> send_cursor(n, 0), req_cursor(n, 0);
  for (u32 v = 0; v < n; ++v) want_left[v] = want[v].size();

  // Retransmission bookkeeping, allocated only under faults: per-task
  // pushed/acked flags and a label→index map to resolve acks (sender side),
  // per-label answered flags to dedup duplicate answers (receiver side).
  std::vector<std::vector<u8>> pushed, acked, requested, answered;
  std::vector<flat_u64_map<u32>> task_of, want_of;
  std::vector<u64> acked_left(n, 0), retx;
  if (faulty) {
    pushed.resize(n);
    acked.resize(n);
    requested.resize(n);
    answered.resize(n);
    task_of.resize(n);
    want_of.resize(n);
    retx.assign(n, 0);
    for (u32 v = 0; v < n; ++v) {
      pushed[v].assign(send_tasks[v].size(), 0);
      acked[v].assign(send_tasks[v].size(), 0);
      acked_left[v] = send_tasks[v].size();
      for (u32 i = 0; i < send_tasks[v].size(); ++i)
        task_of[v][send_tasks[v][i].label] = i;
      requested[v].assign(want[v].size(), 0);
      answered[v].assign(want[v].size(), 0);
      for (u32 i = 0; i < want[v].size(); ++i)
        want_of[v][want[v][i].label] = i;
    }
  }

  round_executor& exec = net.executor();
  // Read-only early-exit scan between barriers; cheaper sequential than as
  // a pool dispatch (it usually bails at the first busy node).
  auto phase_done = [&]() {
    if (faulty) {
      // Done = every token acked by its intermediate AND every label
      // answered; cursor position alone means nothing when sends can drop.
      for (u32 v = 0; v < n; ++v)
        if (acked_left[v] != 0 || want_left[v] != 0) return false;
      return true;
    }
    for (u32 v = 0; v < n; ++v)
      if (send_cursor[v] < send_tasks[v].size() || want_left[v] != 0)
        return false;
    return true;
  };

  const u64 guard0 =
      16 * (total_routed / std::max<u64>(1, n) + spec.k_s + spec.k_r + n) +
      64;
  const u64 guard_rounds =
      faulty ? u64{net.faults().heal_budget_mult} * guard0 : guard0;
  u64 spent = 0;
  // Every node plays its three roles against its own queues, cursors, and
  // send budget; the public hash is immutable, so both halves of the round
  // run node-parallel on the executor.
  while (!phase_done()) {
    if (faulty) {
      if (spent++ >= guard_rounds)
        throw fault_failure("token routing healing budget exhausted");
    } else {
      HYB_INVARIANT(spent++ < guard_rounds,
                    "token routing failed to make progress");
    }
    exec.for_nodes(n, [&](u32 v) {
      if (faulty && !net.is_up(v)) return;  // fail-pause: queues freeze
      // Intermediate role first: answer what we can.
      while (!answer_queue[v].empty() && net.global_budget(v) > 0) {
        auto [lbl, dst] = answer_queue[v].front();
        answer_queue[v].pop_front();
        const u64* tok = store[v].find(lbl);
        HYB_INVARIANT(tok != nullptr, "answering a missing token");
        net.try_send_global(
            global_msg::make(v, dst, kAnswerTag, {lbl, *tok}));
        // Under faults the answer may drop and the receiver re-request, so
        // the store must stay answerable.
        if (!faulty) store[v].erase(lbl);
      }
      // Sender-helper role: push tokens (keep a reserve for requests).
      const u32 reserve = net.global_cap() / 4;
      while (send_cursor[v] < send_tasks[v].size() &&
             net.global_budget(v) > reserve) {
        const u32 i = static_cast<u32>(send_cursor[v]++);
        if (faulty && acked[v][i]) continue;
        const helper_task& t = send_tasks[v][i];
        net.try_send_global(global_msg::make(
            v, intermediate_of(t.label), kTokenTag, {t.label, t.payload}));
        if (faulty) {
          if (pushed[v][i]) ++retx[v];
          pushed[v][i] = 1;
        }
      }
      // v-private release of a drained queue (an empty vector satisfies the
      // cursor checks above and in phase_done, so this is memory only).
      // Under faults the queue must survive for retransmission.
      if (!faulty && !send_tasks[v].empty() &&
          send_cursor[v] == send_tasks[v].size()) {
        std::vector<helper_task>().swap(send_tasks[v]);
        send_cursor[v] = 0;
      }
      // Receiver-helper role: request labels.
      while (req_cursor[v] < want[v].size() && net.global_budget(v) > 0) {
        const u32 i = static_cast<u32>(req_cursor[v]++);
        if (faulty && answered[v][i]) continue;
        const u64 lbl = want[v][i].label;
        net.try_send_global(
            global_msg::make(v, intermediate_of(lbl), kRequestTag, {lbl}));
        if (faulty) {
          if (requested[v][i]) ++retx[v];
          requested[v][i] = 1;
        }
      }
      if (!faulty && !want[v].empty() && req_cursor[v] == want[v].size()) {
        std::vector<helper_task>().swap(want[v]);
        req_cursor[v] = 0;
      }
      // Retransmission cadence: once the sweep finished but work remains
      // unacked/unanswered, rewind the cursor every 4th round — one full
      // push→ack (or request→answer) round trip.
      if (faulty && spent % 4 == 0) {
        if (acked_left[v] != 0 && send_cursor[v] >= send_tasks[v].size())
          send_cursor[v] = 0;
        if (want_left[v] != 0 && req_cursor[v] >= want[v].size())
          req_cursor[v] = 0;
      }
    });
    net.advance_round();
    exec.for_nodes(n, [&](u32 v) {
      if (faulty && !net.is_up(v)) return;
      for (const global_msg& m : net.global_inbox(v)) {
        switch (m.tag) {
          case kTokenTag: {
            store[v].emplace(m.w[0], m.w[1]);
            if (std::vector<u32>* waiters = pending[v].find(m.w[0])) {
              for (u32 dst : *waiters)
                answer_queue[v].push_back({m.w[0], dst});
              pending[v].erase(m.w[0]);
            }
            // Ack even duplicates — the previous ack may have dropped.
            // Best-effort: a lost ack just means one more re-push.
            if (faulty)
              net.try_send_global(
                  global_msg::make(v, m.src, kTokAckTag, {m.w[0]}));
            break;
          }
          case kRequestTag: {
            if (store[v].contains(m.w[0]))
              answer_queue[v].push_back({m.w[0], static_cast<u32>(m.src)});
            else
              pending[v][m.w[0]].push_back(m.src);
            break;
          }
          case kAnswerTag: {
            if (faulty) {
              const u32* idx = want_of[v].find(m.w[0]);
              HYB_INVARIANT(idx != nullptr, "answer for an unrequested label");
              if (answered[v][*idx]) break;  // duplicate answer
              answered[v][*idx] = 1;
            }
            fetched[v].push_back({m.w[0], m.w[1]});
            HYB_INVARIANT(want_left[v] > 0, "unexpected answer");
            --want_left[v];
            break;
          }
          case kTokAckTag: {
            const u32* idx = task_of[v].find(m.w[0]);
            HYB_INVARIANT(idx != nullptr, "ack for an unknown token");
            if (!acked[v][*idx]) {
              acked[v][*idx] = 1;
              HYB_INVARIANT(acked_left[v] > 0, "ack bookkeeping underflow");
              --acked_left[v];
            }
            break;
          }
          default:
            break;
        }
      }
    });
  }
  if (faulty) {
    u64 resent = 0;
    for (u32 v = 0; v < n; ++v) resent += retx[v];
    net.note_retransmitted(resent);
  }
  // Distributed completion detection, charged as one AND-aggregation.
  global_aggregate(net, agg_op::logical_and, std::vector<u64>(n, 1));

  // ---- final collection: receivers gather from their helpers -------------
  // Same simulator shortcut as `distribute`: the 2µ_R⌈log n⌉-round flood is
  // charged, the tokens are handed over directly.
  if (ctx.receiver_helpers.trivial()) {
    for (u32 ri = 0; ri < spec.receivers.size(); ++ri)
      for (const helper_task& t : fetched[spec.receivers[ri]])
        delivered[ri].push_back({label_s(t.label), label_r(t.label),
                                 label_i(t.label), t.payload});
  } else {
    const u32 flood_rounds = ctx.receiver_helpers.clusters.flood_budget();
    u64 token_count = 0;
    for (u32 v = 0; v < n; ++v) {
      token_count += fetched[v].size();
      for (const helper_task& t : fetched[v]) {
        const u32 ri = receiver_pos[label_r(t.label)];
        HYB_INVARIANT(ri != ~u32{0}, "fetched token has no receiver");
        delivered[ri].push_back({label_s(t.label), label_r(t.label),
                                 label_i(t.label), t.payload});
      }
      std::vector<helper_task>().swap(fetched[v]);  // handed over; release
    }
    charge_cluster_flood(net, token_count, flood_rounds);
  }
  return delivered;
}

std::vector<std::vector<routed_token>> run_token_routing(
    hybrid_net& net, routing_spec spec,
    std::vector<std::vector<routed_token>> by_sender) {
  routing_context ctx = build_routing_context(net, std::move(spec));
  return route_tokens(net, ctx, std::move(by_sender));
}

}  // namespace hybrid
