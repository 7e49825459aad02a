// Tests for the flat-arena mailbox delivery path (sim/mailbox.hpp):
// (src, send-index) inbox ordering, bit-identical delivery and receive-load
// metrics across thread counts, arena reuse (no heap growth after warm-up,
// probed via mailbox stats), γ-cap saturation on the flat outbox, the
// clique mirror's overflow/re-stride path, the counters delivery folds into
// its count and prefix passes, and dissemination's arena trim. Run under -fsanitize=thread this
// suite doubles as a race detector for the parallel counting sort (the TSAN
// CI job does exactly that).
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "proto/dissemination.hpp"
#include "sim/clique_net.hpp"
#include "sim/hybrid_net.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

// Order-sensitive digest of one inbox span (FNV-style fold), so two runs
// agree iff contents AND order agree.
template <class Msg>
u64 inbox_digest(std::span<const Msg> box) {
  u64 h = 1469598103934665603ull;
  auto mix = [&](u64 x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const Msg& m : box) {
    mix(m.src);
    mix(m.dst);
    mix(m.tag);
    mix(m.nw);
    for (u8 i = 0; i < m.nw; ++i) mix(m.w[i]);
  }
  return h;
}

TEST(FlatMailbox, InboxSortedBySrcThenSendIndex) {
  const graph g = gen::path(8);
  hybrid_net net(g, model_config{}, 1);
  // Enqueue in scrambled source order; within each source, send order is
  // the tag sequence.
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, /*tag=*/50, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 10, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, 51, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 2, 0, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 11, {})));
  net.advance_round();
  const auto box = net.global_inbox(2);
  ASSERT_EQ(box.size(), 5u);
  const u32 want_src[] = {0, 1, 1, 5, 5};
  const u32 want_tag[] = {0, 10, 11, 50, 51};
  for (u32 i = 0; i < 5; ++i) {
    EXPECT_EQ(box[i].src, want_src[i]) << i;
    EXPECT_EQ(box[i].tag, want_tag[i]) << i;
  }
}

// A multi-round workload where every node sends a round_rng-chosen batch
// from inside a parallel step — the exact shape advance_round()'s counting
// sort must deliver identically at every thread count.
TEST(FlatMailbox, DeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 257;  // prime-ish: exercises uneven shard tails
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 12;
  auto run = [&](u32 threads) {
    hybrid_net net(g, model_config{}, 31, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(net.try_send_global(
              global_msg::make(v, dst, i, {rv.next(), u64{v} << 32 | r})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.global_inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_pair(digests, net.snapshot());
  };
  const auto [d1, m1] = run(1);
  for (u32 threads : {2u, 8u}) {
    const auto [dt, mt] = run(threads);
    EXPECT_EQ(dt, d1) << threads << " threads";
    EXPECT_EQ(mt.global_messages, m1.global_messages) << threads;
    EXPECT_EQ(mt.global_payload_words, m1.global_payload_words) << threads;
    EXPECT_EQ(mt.max_global_recv_per_round, m1.max_global_recv_per_round)
        << threads;
  }
}

TEST(FlatMailbox, ArenasStopGrowingAfterWarmup) {
  const u32 n = 128;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 7);
  hybrid_net net(g, model_config{}, 5, sim_options{2});
  auto saturate_round = [&](u32 r) {
    net.executor().for_nodes(n, [&](u32 v) {
      rng rv = net.round_rng(v);
      while (net.global_budget(v) > 0) {
        const u32 dst = static_cast<u32>(rv.next_below(n));
        net.try_send_global(global_msg::make(v, dst, r, {rv.next()}));
      }
    });
    net.advance_round();
  };
  for (u32 r = 0; r < 4; ++r) saturate_round(r);
  const mailbox_stats warm = net.global_mailbox_stats();
  // Slabs start small and re-stride to γ at the first barrier; the send
  // cap guarantees they never need to grow past γ.
  EXPECT_EQ(warm.stride, net.global_cap());
  EXPECT_GT(warm.overflow_messages, 0u);  // round 1 spilled, pre-re-stride
  for (u32 r = 4; r < 24; ++r) saturate_round(r);
  const mailbox_stats done = net.global_mailbox_stats();
  EXPECT_EQ(done.grow_events, warm.grow_events) << "arena grew after warm-up";
  EXPECT_EQ(done.inbox_slots, warm.inbox_slots);
  EXPECT_EQ(done.outbox_slots, warm.outbox_slots);
  EXPECT_EQ(done.overflow_messages, warm.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(done.delivered_total, u64{24} * n * net.global_cap());
}

TEST(FlatMailbox, GammaCapSaturationOnFlatOutbox) {
  const u32 n = 64;
  const graph g = gen::path(n);
  hybrid_net net(g, model_config{}, 9, sim_options{4});
  const u32 cap = net.global_cap();
  net.executor().for_nodes(n, [&](u32 v) {
    for (u32 i = 0; i < cap; ++i)
      ASSERT_TRUE(net.try_send_global(
          global_msg::make(v, (v + i + 1) % n, i, {u64{v}})));
    ASSERT_EQ(net.global_budget(v), 0u);
    ASSERT_FALSE(net.try_send_global(global_msg::make(v, 0, 99, {})));
  });
  net.advance_round();
  u64 delivered = 0;
  for (u32 v = 0; v < n; ++v) {
    delivered += net.global_inbox(v).size();
    EXPECT_EQ(net.global_budget(v), cap);  // budget reset at the barrier
  }
  EXPECT_EQ(delivered, u64{n} * cap);
  EXPECT_EQ(net.raw_metrics().global_messages, u64{n} * cap);
  net.advance_round();
  for (u32 v = 0; v < n; ++v)
    EXPECT_TRUE(net.global_inbox(v).empty());  // cleared next round
}

TEST(FlatMailbox, CliqueOverflowRestridesOnceThenStaysFlat) {
  const u32 n = 64;
  const u32 per_node = 40;  // above the initial slab width of 16
  clique_net net(n, sim_options{2});
  auto full_round = [&] {
    net.executor().for_nodes(n, [&](u32 v) {
      for (u32 i = 0; i < per_node; ++i) {
        clique_msg m;
        m.src = v;
        m.dst = (v + i) % n;
        m.tag = i;
        net.send(m);
      }
    });
    net.advance_round();
  };
  full_round();
  const mailbox_stats first = net.mailbox_stats_probe();
  EXPECT_GT(first.overflow_messages, 0u);  // round 1 spilled past the slab
  EXPECT_GE(first.stride, per_node);       // ...and re-strided at the barrier
  full_round();
  full_round();
  const mailbox_stats later = net.mailbox_stats_probe();
  EXPECT_EQ(later.overflow_messages, first.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(later.grow_events, first.grow_events);
  EXPECT_EQ(net.total_messages(), u64{3} * n * per_node);
  EXPECT_EQ(net.max_recv_per_round(), per_node);
  // Inboxes stay (src, send-index)-sorted through slab + overflow delivery.
  const auto box = net.inbox(0);
  ASSERT_EQ(box.size(), per_node);
  for (u32 i = 1; i < box.size(); ++i)
    EXPECT_LT(box[i - 1].src, box[i].src) << i;
}

TEST(FlatMailbox, CliqueDeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 96;
  const u32 rounds = 6;
  auto run = [&](u32 threads) {
    clique_net net(n, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv(derive_seed(derive_seed(1234, v), r));
        const u32 k = static_cast<u32>(rv.next_below(n));
        for (u32 i = 0; i < k; ++i) {
          clique_msg m;
          m.src = v;
          m.dst = static_cast<u32>(rv.next_below(n));
          m.tag = i;
          m.w[0] = rv.next();
          m.nw = 1;
          net.send(m);
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_tuple(digests, net.total_messages(),
                           net.max_recv_per_round());
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// Filtered delivery (the fault-injection drop path, sim/fault.hpp): the
// dual-pass counting sort must keep survivors in (src, send-index) order,
// deliver bit-identically at every thread count, and account sent/dropped
// consistently — specifically under sparse scatter, where most nodes send
// nothing and a rotating minority sends bursts, so shard tails see empty
// and dense source runs side by side.
TEST(FlatMailbox, FilteredSparseScatterKeepsOrderAcrossThreadCounts) {
  const u32 n = 257;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 10;
  auto run = [&](u32 threads) {
    sim_options opts;
    opts.threads = threads;
    opts.faults.drop_global = 0.35;
    opts.faults.fault_seed = 13;
    hybrid_net net(g, model_config{}, 31, opts);
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        if (v % 17 != r % 17) return;  // sparse: ~n/17 senders per round
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(
              net.try_send_global(global_msg::make(v, dst, i, {rv.next()})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = net.global_inbox(v);
        // Survivors keep (src, send-index) order: the tag is the per-source
        // send counter, so within one src it must stay strictly increasing
        // after the filter removed arbitrary positions.
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
    }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digests, m.global_sent, m.global_messages,
                           m.global_dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<3>(base), 0u);
  EXPECT_EQ(std::get<1>(base), std::get<2>(base) + std::get<3>(base));
}

// The keyed (filtered) kernel through the overflow/re-stride transition:
// the per-shard key streams are sized from the live send counts, so the
// round that spills past the initial slab width and triggers the barrier
// re-stride is exactly where a sizing bug would corrupt the frozen filter
// verdicts. Drive flat_mailbox directly (the bench_scatter shape) with a
// tiny initial stride so round 0 overflows with the filter already
// active, and require bit-identical inboxes and drop accounting at every
// thread count, before AND after the re-stride.
TEST(FlatMailbox, FilteredDeliveryBitIdenticalThroughRestride) {
  const u32 n = 97;
  const u32 cap = 24;
  const u32 rounds = 6;
  const flat_mailbox<global_msg>::drop_filter drop =
      [](u32 src, u32 idx, const global_msg& m) {
        return derive_seed(derive_seed(src, idx), m.w[0]) % 4 == 0;
      };
  auto run = [&](u32 threads) {
    round_executor exec(sim_options{threads});
    flat_mailbox<global_msg> mail(n, cap, /*initial_stride=*/3);
    std::vector<u64> digests;
    u64 delivered = 0, dropped = 0;
    for (u32 r = 0; r < rounds; ++r) {
      exec.for_nodes(n, [&](u32 v) {
        // Every node overflows the 3-slot slab in round 0; later rounds
        // mix empty, slab-only, and full senders.
        const u32 k = r == 0 ? cap : (v + r) % (cap + 1);
        for (u32 i = 0; i < k; ++i)
          mail.push(global_msg::make(v, (v * 31 + i * 7 + r) % n, i,
                                     {derive_seed(v, i ^ r)}));
      });
      mail.deliver(exec, &drop);
      delivered += mail.delivered_last_round();
      dropped += mail.dropped_last_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = mail.inbox(v);
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
      if (r == 0) {
        // The overflow round must also have re-strided at its barrier.
        EXPECT_GT(mail.stats().overflow_messages, 0u) << threads;
        EXPECT_EQ(mail.stats().stride, cap) << threads;
      }
    }
    EXPECT_GT(dropped, 0u) << threads;
    return std::make_tuple(digests, delivered, dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST(FlatMailbox, EmptyRoundsDeliverNothingAndResetInboxes) {
  const graph g = gen::path(4);
  hybrid_net net(g, model_config{}, 3, sim_options{8});
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 1, 0, {7})));
  net.advance_round();
  EXPECT_EQ(net.global_inbox(1).size(), 1u);
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_EQ(net.raw_metrics().global_messages, 1u);
}

// Delivery folds payload words into its count pass and the largest inbox
// into its prefix pass; only cut bits still re-read the inboxes. All three
// must equal a brute-force recount over the delivered inboxes, with and
// without a cut, with and without global drops, at every thread count.
TEST(FlatMailbox, FoldedCountersMatchInboxRecount) {
  const u32 n = 257;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 13);
  const u64 header_bits = 2 * id_bits(n);
  for (bool with_cut : {false, true})
    for (bool with_drops : {false, true})
      for (u32 threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << "cut " << with_cut << " drops "
                                        << with_drops << " threads "
                                        << threads);
        sim_options opts{threads};
        if (with_drops) {
          opts.faults.drop_global = 0.3;
          opts.faults.fault_seed = 5;
        }
        hybrid_net net(g, model_config{}, 17, opts);
        std::vector<u8> side(n);
        if (with_cut) {
          for (u32 v = 0; v < n; ++v) side[v] = (v * 7 + 3) % 5 < 2;
          net.set_cut(side);
        }
        u64 messages = 0, words = 0, cut_bits = 0;
        u32 max_recv = 0;
        for (u32 r = 0; r < 10; ++r) {
          // Round 4 is silent: the empty-round fast path must reset the
          // folded counters too.
          if (r != 4)
            net.executor().for_nodes(n, [&](u32 v) {
              rng rv = net.round_rng(v);
              const u32 k =
                  static_cast<u32>(rv.next_below(net.global_cap() + 1));
              for (u32 i = 0; i < k; ++i) {
                // A third of the traffic hits eight hot nodes, so the
                // largest inbox is well above the mean.
                const u32 dst = static_cast<u32>(
                    rv.next_below(3) == 0 ? rv.next_below(8)
                                          : rv.next_below(n));
                global_msg m = global_msg::make(v, dst, i, {});
                m.nw = static_cast<u32>(rv.next_below(4));
                for (u32 j = 0; j < m.nw; ++j) m.w[j] = rv.next();
                ASSERT_TRUE(net.try_send_global(m));
              }
            });
          net.advance_round();
          for (u32 v = 0; v < n; ++v) {
            const auto box = net.global_inbox(v);
            messages += box.size();
            max_recv = std::max(max_recv, static_cast<u32>(box.size()));
            for (const global_msg& m : box) {
              words += m.nw;
              if (with_cut && side[m.src] != side[m.dst])
                cut_bits += u64{m.nw} * 64 + header_bits;
            }
          }
        }
        const run_metrics& got = net.raw_metrics();
        EXPECT_EQ(got.global_messages, messages);
        EXPECT_EQ(got.global_payload_words, words);
        EXPECT_EQ(got.max_global_recv_per_round, max_recv);
        EXPECT_EQ(got.cut_bits, cut_bits);
        EXPECT_EQ(with_cut, cut_bits > 0);
        EXPECT_EQ(with_drops, got.global_dropped > 0);
      }
}

// disseminate() hands its γ-saturated arenas back before it returns, and a
// trimmed mailbox regrows transparently: the next γ-saturated round
// delivers exactly the inboxes a never-trimmed, warmed-up net delivers.
TEST(FlatMailbox, DisseminateTrimsArenasAndRegrowsTransparently) {
  const u32 n = 128;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 7);
  hybrid_net trimmed(g, model_config{}, 5, sim_options{2});
  const u32 gamma = trimmed.global_cap();
  const u32 construction_stride = std::min(gamma, 8u);
  ASSERT_GT(gamma, construction_stride);  // the gossip must outgrow it
  std::vector<std::vector<token2>> initial(n);
  for (u32 v = 0; v < n; v += 3) initial[v].push_back({v, u64{v} * 7});
  disseminate(trimmed, initial);
  const mailbox_stats after = trimmed.global_mailbox_stats();
  EXPECT_EQ(after.inbox_slots, 0u);
  EXPECT_EQ(after.stride, construction_stride);
  EXPECT_EQ(after.outbox_slots, u64{n} * construction_stride);
  EXPECT_GT(after.delivered_total, u64{n} * gamma);  // it did saturate

  // Message content depends only on (salt, v), never on the net's round,
  // so both nets send the same γ-saturated batch.
  auto saturate = [&](hybrid_net& net, u64 salt) {
    net.executor().for_nodes(n, [&](u32 v) {
      rng rv(derive_seed(salt, v));
      u32 i = 0;
      while (net.global_budget(v) > 0) {
        const u32 dst = static_cast<u32>(rv.next_below(n));
        ASSERT_TRUE(net.try_send_global(
            global_msg::make(v, dst, i++, {rv.next(), salt})));
      }
    });
    net.advance_round();
  };
  hybrid_net warm(g, model_config{}, 5, sim_options{2});
  saturate(warm, 1);
  saturate(warm, 2);
  ASSERT_EQ(warm.global_mailbox_stats().stride, gamma);
  saturate(trimmed, 3);
  saturate(warm, 3);
  EXPECT_EQ(trimmed.global_mailbox_stats().delivered_last_round,
            u64{n} * gamma);
  EXPECT_EQ(trimmed.global_mailbox_stats().stride, gamma);
  for (u32 v = 0; v < n; ++v)
    EXPECT_EQ(inbox_digest(trimmed.global_inbox(v)),
              inbox_digest(warm.global_inbox(v)))
        << v;
}

}  // namespace
}  // namespace hybrid
