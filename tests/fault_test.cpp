// Fault-model suite (sim/fault.hpp, docs/FAULTS.md): the seeded drop
// stream's purity and statistics; drop/crash semantics and determinism of
// both simulators per (seed, fault_seed, threads); the self-healing
// protocol paths (flood re-offer, Pareto Bellman–Ford, acked aggregation,
// gossip dissemination, retransmitting token routing, and the healed
// h-hop exploration behind the skeleton (retried attempts included) and
// full/truncated local exploration) against their fault-free
// results; the two remaining documented refusals with remediation-naming
// messages; and the correct-or-explicitly-failed contract of the full
// APSP/SSSP/diameter pipelines under drops on either plane plus
// crash/recovery.
//
// Everything here is deterministic per (seed, fault_seed): a property that
// passes once passes forever, so the multi-seed loops are real coverage,
// not flake lotteries. Carries the `faults` ctest label (the CI fault
// matrix runs exactly this suite over global p ∈ {0, 0.1, 0.3} and local
// p ∈ {0, 0.1, 0.3} cells × threads {1, 8}).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/diameter.hpp"
#include "core/sssp.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"
#include "sim/clique_net.hpp"
#include "sim/hybrid_net.hpp"

namespace hybrid {
namespace {

model_config default_cfg() { return model_config{}; }

sim_options with_faults(fault_options f, u32 threads = 0) {
  sim_options o;
  o.threads = threads == 0 ? 1 : threads;
  o.faults = std::move(f);
  return o;
}

fault_options drop_global_opts(double p, u64 fault_seed = 1) {
  fault_options f;
  f.drop_global = p;
  f.fault_seed = fault_seed;
  return f;
}

fault_options drop_local_opts(double p, u64 fault_seed = 1) {
  fault_options f;
  f.drop_local = p;
  f.fault_seed = fault_seed;
  return f;
}

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
    for (u8 i = 0; i < m.nw; ++i) mix(m.w[i]);
  }
  return h;
}

// ---- the fault stream ------------------------------------------------------

TEST(FaultRng, DrawIsPureAndInputSensitive) {
  const u64 base = fault_plane_base(7, 9, kFaultPlaneGlobal);
  EXPECT_EQ(fault_draw(base, 3, 5, 0), fault_draw(base, 3, 5, 0));
  EXPECT_NE(fault_draw(base, 3, 5, 0), fault_draw(base, 3, 5, 1));
  EXPECT_NE(fault_draw(base, 3, 5, 0), fault_draw(base, 3, 6, 0));
  EXPECT_NE(fault_draw(base, 4, 5, 0), fault_draw(base, 3, 5, 0));
  EXPECT_NE(fault_plane_base(7, 9, kFaultPlaneGlobal),
            fault_plane_base(7, 9, kFaultPlaneLocal));
  EXPECT_NE(fault_plane_base(7, 9, kFaultPlaneGlobal),
            fault_plane_base(7, 10, kFaultPlaneGlobal));
  EXPECT_NE(fault_plane_base(8, 9, kFaultPlaneGlobal),
            fault_plane_base(7, 9, kFaultPlaneGlobal));
}

TEST(FaultRng, RollFrequencyMatchesProbability) {
  const u64 base = fault_plane_base(3, 4, kFaultPlaneLocal);
  for (double p : {0.05, 0.3, 0.7}) {
    u32 hits = 0;
    const u32 trials = 20000;
    for (u32 i = 0; i < trials; ++i)
      if (fault_roll(fault_draw(base, 1, i / 8, i % 8), p)) ++hits;
    const double freq = static_cast<double>(hits) / trials;
    EXPECT_NEAR(freq, p, 0.02) << "p=" << p;
  }
  EXPECT_FALSE(fault_roll(0, 0.0));
  EXPECT_TRUE(fault_roll(0, 1.0));
}

TEST(FaultRng, AdversarialPrefixCountCeilsAndClamps) {
  EXPECT_EQ(adversarial_prefix_count(0.0, 10), 0u);
  EXPECT_EQ(adversarial_prefix_count(0.3, 10), 3u);
  EXPECT_EQ(adversarial_prefix_count(0.25, 10), 3u);  // ceil
  EXPECT_EQ(adversarial_prefix_count(1.0, 5), 5u);
  EXPECT_EQ(adversarial_prefix_count(0.5, 1), 1u);
  EXPECT_EQ(adversarial_prefix_count(0.3, 0), 0u);
}

// hybrid_net::local_link_draws hoists fault_draw's (link, round) key out of
// the per-item loop; every decision must still be the reference formula.
TEST(FaultRng, LinkDrawsMatchFaultDraw) {
  const graph g = gen::grid(5, 5);
  const u64 seed = 5, fault_seed = 11;
  const double p = 0.3;
  const u64 base = fault_plane_base(seed, fault_seed, kFaultPlaneLocal);
  auto check = [&](const fault_options& f, auto&& want) {
    hybrid_net net(g, default_cfg(), seed, with_faults(f));
    rng pick(42);
    for (u32 r = 0; r < 4; ++r) {
      net.advance_round();
      for (u32 trial = 0; trial < 16; ++trial) {
        const u32 to = static_cast<u32>(pick.next_below(g.num_nodes()));
        const auto nbrs = g.neighbors(to);
        const u32 from = nbrs[pick.next_below(nbrs.size())].to;
        const auto link = net.local_link_draws(from, to);
        for (u32 count : {0u, 1u, 7u, 64u})
          for (u32 idx = 0; idx < std::max(count, 1u); ++idx) {
            const bool got = link.drop(idx, count);
            ASSERT_EQ(got, want(net, from, to, idx, count))
                << from << "->" << to << " round " << net.round() << " idx "
                << idx << "/" << count;
            ASSERT_EQ(got, net.local_drop(from, to, idx, count));
          }
      }
    }
  };
  auto formula = [&](const hybrid_net& net, u32 from, u32 to, u32 idx, u32) {
    return fault_roll(
        fault_draw(base, (u64{from} << 32) | to, net.round(), idx), p);
  };
  check(drop_local_opts(p, fault_seed), formula);

  fault_options prefix = drop_local_opts(p, fault_seed);
  prefix.mode = fault_mode::kAdversarialPrefix;
  check(prefix, [&](const hybrid_net&, u32, u32, u32 idx, u32 count) {
    return idx < adversarial_prefix_count(p, count);
  });

  // Node 12 (the grid's centre) is down in rounds [2, 4).
  fault_options crash = drop_local_opts(p, fault_seed);
  crash.crashes.push_back({12, 2, 4});
  check(crash, [&](const hybrid_net& net, u32 from, u32 to, u32 idx,
                   u32 count) {
    if (!net.is_up(from) || !net.is_up(to)) return true;
    return formula(net, from, to, idx, count);
  });
  hybrid_net net(g, default_cfg(), seed, with_faults(crash));
  net.advance_round();
  net.advance_round();
  ASSERT_FALSE(net.is_up(12));
  for (const edge& e : g.neighbors(12))
    for (u32 idx = 0; idx < 8; ++idx) {
      EXPECT_TRUE(net.local_link_draws(e.to, 12).drop(idx, 8));
      EXPECT_TRUE(net.local_link_draws(12, e.to).drop(idx, 8));
    }
}

// ---- simulator drop/crash semantics ---------------------------------------

TEST(HybridNetFaults, DefaultOptionsInjectNothing) {
  const graph g = gen::path(8);
  hybrid_net net(g, default_cfg(), 1);
  EXPECT_FALSE(net.faults_active());
  for (u32 r = 0; r < 3; ++r) {
    net.try_send_global(global_msg::make(0, 7, r, {r}));
    net.advance_round();
  }
  EXPECT_EQ(net.raw_metrics().global_sent, 3u);
  EXPECT_EQ(net.raw_metrics().global_messages, 3u);
  EXPECT_EQ(net.raw_metrics().global_dropped, 0u);
}

TEST(HybridNetFaults, DropsAreDeterministicPerSeedPair) {
  const graph g = gen::path(32);
  auto run = [&](u64 fault_seed) {
    hybrid_net net(g, default_cfg(), 11,
                   with_faults(drop_global_opts(0.5, fault_seed)));
    std::vector<u64> digests;
    for (u32 r = 0; r < 8; ++r) {
      net.executor().for_nodes(32, [&](u32 v) {
        for (u32 i = 0; i < 4; ++i)
          net.try_send_global(
              global_msg::make(v, (v + i + 1) % 32, i, {u64{v} * 100 + r}));
      });
      net.advance_round();
      u64 d = 0;
      for (u32 v = 0; v < 32; ++v)
        d ^= (v + 1) * inbox_digest(net.global_inbox(v));
      digests.push_back(d);
    }
    return std::make_pair(digests, net.raw_metrics().global_dropped);
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.first, c.first) << "fault_seed must steer the drop pattern";
  EXPECT_GT(a.second, 0u);
  EXPECT_LT(a.second, u64{8} * 32 * 4);
}

TEST(HybridNetFaults, DropsAreThreadCountInvariant) {
  const u32 n = 257;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  auto run = [&](u32 threads) {
    hybrid_net net(g, default_cfg(), 31,
                   with_faults(drop_global_opts(0.3, 7), threads));
    std::vector<u64> digests;
    for (u32 r = 0; r < 8; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i)
          net.try_send_global(global_msg::make(
              v, static_cast<u32>(rv.next_below(n)), i, {rv.next()}));
      });
      net.advance_round();
      u64 d = 0;
      for (u32 v = 0; v < n; ++v)
        d ^= (v + 1) * inbox_digest(net.global_inbox(v));
      digests.push_back(d);
    }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digests, m.global_sent, m.global_messages,
                           m.global_dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<3>(base), 0u);
}

TEST(HybridNetFaults, AdversarialPrefixDropsLeadingSends) {
  const graph g = gen::path(8);
  fault_options f;
  f.drop_global = 0.5;
  f.mode = fault_mode::kAdversarialPrefix;
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  for (u32 i = 0; i < 4; ++i)
    net.try_send_global(global_msg::make(0, 5, i, {i}));
  net.advance_round();
  // ⌈0.5·4⌉ = 2 leading sends lost; the survivors keep send order.
  const auto box = net.global_inbox(5);
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(box[0].tag, 2u);
  EXPECT_EQ(box[1].tag, 3u);
  EXPECT_EQ(net.raw_metrics().global_dropped, 2u);
}

TEST(HybridNetFaults, CrashedSenderAndReceiverLoseMessages) {
  const graph g = gen::path(8);
  fault_options f;
  f.crashes.push_back({2, 0, 2});  // node 2 down for rounds 0 and 1
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  EXPECT_FALSE(net.is_up(2));
  EXPECT_TRUE(net.is_up(3));
  // Round 0: down sender's message lost, message TO the down node is lost
  // too (it is still down at delivery in round 1).
  net.try_send_global(global_msg::make(2, 5, 0, {1}));
  net.try_send_global(global_msg::make(5, 2, 0, {2}));
  net.advance_round();
  EXPECT_TRUE(net.global_inbox(5).empty());
  EXPECT_TRUE(net.global_inbox(2).empty());
  EXPECT_FALSE(net.is_up(2));
  // Round 1: node 2 recovers at round 2, so a message sent now IS delivered
  // (receiver up at delivery round 2).
  net.try_send_global(global_msg::make(5, 2, 1, {3}));
  net.advance_round();
  EXPECT_TRUE(net.is_up(2));
  ASSERT_EQ(net.global_inbox(2).size(), 1u);
  EXPECT_EQ(net.global_inbox(2)[0].w[0], 3u);
  // Recovered node sends normally.
  net.try_send_global(global_msg::make(2, 5, 2, {4}));
  net.advance_round();
  EXPECT_EQ(net.global_inbox(5).size(), 1u);
  EXPECT_EQ(net.raw_metrics().global_dropped, 2u);
}

TEST(HybridNetFaults, LocalDropIsPureAndCrashAware) {
  const graph g = gen::path(8);
  fault_options f = drop_local_opts(0.4, 3);
  f.crashes.push_back({6, 1, 2});
  hybrid_net net(g, default_cfg(), 9, with_faults(f));
  // Pure per (from, to, idx) at a fixed round.
  for (u32 idx = 0; idx < 16; ++idx)
    EXPECT_EQ(net.local_drop(0, 1, idx, 16), net.local_drop(0, 1, idx, 16));
  u32 direction_diff = 0, dropped = 0;
  for (u32 idx = 0; idx < 64; ++idx) {
    if (net.local_drop(0, 1, idx, 64) != net.local_drop(1, 0, idx, 64))
      ++direction_diff;
    if (net.local_drop(0, 1, idx, 64)) ++dropped;
  }
  EXPECT_GT(direction_diff, 0u) << "directed edges must draw independently";
  EXPECT_GT(dropped, 10u);
  EXPECT_LT(dropped, 45u);
  // Crash round: every crossing touching the down node is lost.
  net.advance_round();  // now at round 1, node 6 down
  EXPECT_FALSE(net.is_up(6));
  for (u32 idx = 0; idx < 8; ++idx) {
    EXPECT_TRUE(net.local_drop(6, 7, idx, 8));
    EXPECT_TRUE(net.local_drop(7, 6, idx, 8));
  }
}

TEST(HybridNetFaults, InvalidOptionsAreRejected) {
  const graph g = gen::path(4);
  EXPECT_THROW(hybrid_net(g, default_cfg(), 1,
                          with_faults(drop_global_opts(1.5))),
               std::invalid_argument);
  EXPECT_THROW(hybrid_net(g, default_cfg(), 1,
                          with_faults(drop_local_opts(-0.1))),
               std::invalid_argument);
  fault_options bad_node;
  bad_node.crashes.push_back({9, 0, 2});
  EXPECT_THROW(hybrid_net(g, default_cfg(), 1, with_faults(bad_node)),
               std::invalid_argument);
  fault_options empty_interval;
  empty_interval.crashes.push_back({1, 3, 3});
  EXPECT_THROW(hybrid_net(g, default_cfg(), 1, with_faults(empty_interval)),
               std::invalid_argument);
}

TEST(CliqueNetFaults, DropsDeterministicAndAccounted) {
  auto run = [&](u64 fault_seed) {
    clique_net net(16, with_faults(drop_global_opts(0.4, fault_seed), 2));
    std::vector<u64> digests;
    for (u32 r = 0; r < 6; ++r) {
      net.executor().for_nodes(16, [&](u32 v) {
        for (u32 i = 0; i < 8; ++i) {
          clique_msg m;
          m.src = v;
          m.dst = (v + i + 1) % 16;
          m.tag = r * 8 + i;
          net.send(m);
        }
      });
      net.advance_round();
      u64 d = 0;
      for (u32 v = 0; v < 16; ++v) d ^= (v + 1) * inbox_digest(net.inbox(v));
      digests.push_back(d);
    }
    return std::make_tuple(digests, net.total_sent(), net.total_messages(),
                           net.total_dropped());
  };
  const auto a = run(3);
  EXPECT_EQ(run(3), a);
  EXPECT_NE(std::get<0>(run(4)), std::get<0>(a));
  EXPECT_EQ(std::get<1>(a), u64{6} * 16 * 8);
  EXPECT_EQ(std::get<1>(a), std::get<2>(a) + std::get<3>(a));
  EXPECT_GT(std::get<3>(a), 0u);
}

TEST(CliqueNetFaults, CrashScheduleAppliesToBothDirections) {
  fault_options f;
  f.crashes.push_back({1, 0, 1});
  clique_net net(4, with_faults(f));
  clique_msg out;
  out.src = 1;
  out.dst = 2;
  clique_msg in;
  in.src = 3;
  in.dst = 1;
  net.send(out);
  net.send(in);
  net.advance_round();
  EXPECT_TRUE(net.inbox(2).empty());  // sender was down at send time
  // Node 1 recovered at round 1 == delivery round, but the SEND round
  // decides for outgoing and the delivery round for incoming: the message
  // to it was checked against delivery round 1, where it is up again.
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.total_dropped(), 1u);
}

// ---- healed local floods ---------------------------------------------------

TEST(FaultHealing, FloodsReturnFaultFreeTBallOnFiftySeeds) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 42);
  const std::vector<u32> roots = {0, 11};
  const std::vector<u64> words = {3, 5};
  // A budget below the diameter: the healed floods must stop at the T-ball,
  // not run on to every node of the component.
  const u32 t = 2;
  ASSERT_LT(t, hop_diameter(g));
  hybrid_net clean(g, default_cfg(), 17);
  const auto want_hops = hop_discovery(clean, roots, t);
  const auto want_tables = table_flood(clean, roots, words, t);
  for (u64 fs = 0; fs < 50; ++fs) {
    hybrid_net net(g, default_cfg(), 17,
                   with_faults(drop_local_opts(0.3, fs), 2));
    // T rounds are far below convergence + the stability window, so the
    // healed floods must overshoot (extra_rounds) and still return exactly
    // the fault-free result: per-node order, seeds and hops.
    ASSERT_EQ(hop_discovery(net, roots, t), want_hops) << "fault_seed " << fs;
    ASSERT_EQ(table_flood(net, roots, words, t), want_tables) << fs;
    ASSERT_GT(net.raw_metrics().extra_rounds, 0u) << fs;
    ASSERT_GT(net.raw_metrics().local_dropped, 0u) << fs;
  }
}

TEST(FaultHealing, FloodMatchesFaultFreeReachabilityAndBoundsHops) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 7);
  const std::vector<u32> seeds = {0, 5, 13};
  hybrid_net clean(g, default_cfg(), 9);
  const auto want = hop_discovery(clean, seeds, n);
  hybrid_net net(g, default_cfg(), 9, with_faults(drop_local_opts(0.3, 2), 2));
  // The healed flood returns the fault-free answer exactly: same seeds in
  // the same order, each with its true hop distance.
  EXPECT_EQ(hop_discovery(net, seeds, n), want);
  EXPECT_GT(net.raw_metrics().local_dropped, 0u);
}

TEST(FaultHealing, BellmanFordExactDistancesUnderDrops) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 21);  // weighted
  const std::vector<u32> sources = {0, 7};
  hybrid_net clean(g, default_cfg(), 3);
  const auto want = limited_bellman_ford(clean, sources, n);
  for (u64 fs = 0; fs < 10; ++fs) {
    hybrid_net net(g, default_cfg(), 3,
                   with_faults(drop_local_opts(0.3, fs), 2));
    const auto got = limited_bellman_ford(net, sources, n);
    for (u32 v = 0; v < n; ++v) {
      ASSERT_EQ(got[v].size(), want[v].size()) << v << " fs=" << fs;
      for (u32 i = 0; i < got[v].size(); ++i) {
        EXPECT_EQ(got[v][i].source, want[v][i].source) << v;
        EXPECT_EQ(got[v][i].dist, want[v][i].dist) << v << " fs=" << fs;
      }
    }
  }
}

TEST(FaultHealing, BellmanFordRespectsHopLimit) {
  // Weighted path 0-1-...-11: d_h from node 0 reaches exactly h hops, so a
  // healed run that leaked items past the hop budget would show extra
  // entries; one that lost the few-hops Pareto entries would miss some.
  const u32 n = 12;
  std::vector<edge_spec> edges;
  for (u32 v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 2});
  const graph g = graph::from_edges(n, edges);
  const u32 h = 4;
  hybrid_net clean(g, default_cfg(), 5);
  const auto want = limited_bellman_ford(clean, {0}, h);
  for (u64 fs = 0; fs < 10; ++fs) {
    hybrid_net net(g, default_cfg(), 5, with_faults(drop_local_opts(0.3, fs)));
    const auto got = limited_bellman_ford(net, {0}, h);
    for (u32 v = 0; v < n; ++v) {
      ASSERT_EQ(got[v].size(), want[v].size())
          << "node " << v << " fs=" << fs;
      if (!got[v].empty()) {
        EXPECT_EQ(got[v][0].dist, want[v][0].dist) << v;
        EXPECT_EQ(got[v][0].via, want[v][0].via) << v;
      }
    }
    EXPECT_TRUE(got[h].size() == 1 && got[h + 1].empty());
  }
}

TEST(FaultHealing, TableFloodDeliversEveryTableUnderDrops) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 13);
  const std::vector<u32> publishers = {1, 9, 17};
  const std::vector<u64> words = {4, 4, 4};
  hybrid_net clean(g, default_cfg(), 2);
  const auto want = table_flood(clean, publishers, words, n);
  hybrid_net net(g, default_cfg(), 2, with_faults(drop_local_opts(0.3, 5), 2));
  EXPECT_EQ(table_flood(net, publishers, words, n), want);
  EXPECT_GT(net.raw_metrics().local_dropped, 0u);
}

TEST(FaultHealing, HealedFloodDeterministicAcrossThreads) {
  const u32 n = 48;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 5, 33);
  auto run = [&](u32 threads) {
    hybrid_net net(g, default_cfg(), 13,
                   with_faults(drop_local_opts(0.3, 4), threads));
    const auto got = limited_bellman_ford(net, {0, 11, 30}, 10);
    u64 digest = 1469598103934665603ull;
    for (u32 v = 0; v < n; ++v)
      for (const auto& sd : got[v]) {
        digest ^= (u64{v} << 40) ^ (u64{sd.source} << 32) ^ sd.dist ^
                  (u64{sd.via} << 8);
        digest *= 1099511628211ull;
      }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digest, m.rounds, m.local_items, m.local_dropped,
                           m.extra_rounds);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST(FaultHealing, HealedFloodsCountRetransmissions) {
  // docs/FAULTS.md §2: `retransmitted` counts every re-send by a healing
  // layer. The healed hop flood, table flood and Bellman–Ford re-offer
  // their whole held set every round, so each must report re-sends — the
  // same count at every thread count — with the local ledger balanced.
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 5, 19);
  const std::vector<u32> roots = {0, 9, 21};
  const std::vector<u64> words = {4, 4, 4};
  for (const int primitive : {0, 1, 2}) {
    u64 base = 0;
    for (const u32 threads : {1u, 2u, 8u}) {
      hybrid_net net(g, default_cfg(), 13,
                     with_faults(drop_local_opts(0.3, 6), threads));
      if (primitive == 0) hop_discovery(net, roots, 8);
      if (primitive == 1) table_flood(net, roots, words, 8);
      if (primitive == 2) limited_bellman_ford(net, roots, 8);
      const run_metrics m = net.raw_metrics();
      EXPECT_GT(m.retransmitted, 0u) << primitive << " threads=" << threads;
      EXPECT_EQ(m.local_items, m.local_delivered + m.local_dropped)
          << primitive << " threads=" << threads;
      if (threads == 1) base = m.retransmitted;
      EXPECT_EQ(m.retransmitted, base) << primitive << " threads=" << threads;
    }
  }
}

TEST(FaultHealing, OnlyDocumentedStageRefusesAndNamesRemediation) {
  // Exactly one fault_unsupported case remains (docs/FAULTS.md §3): the
  // charged routing stand-in
  // (FaultRouting.ChargedStandInRefusesFaultsNamingRemediation). Everything
  // exploration-shaped heals now — pinned by the no-throw calls below.
  const graph g = gen::path(8);
  hybrid_net net(g, default_cfg(), 1, with_faults(drop_local_opts(0.1)));
  EXPECT_NO_THROW(limited_bellman_ford(net, {0}, 3, /*advance_rounds=*/false));
  EXPECT_NO_THROW(full_local_exploration(net, 3, true));
  EXPECT_NO_THROW(truncated_eccentricity(net, 3));
  EXPECT_NO_THROW(run_local_exploration(net, 3, true));
  EXPECT_NO_THROW(hop_discovery(net, {0}, 8));
}

TEST(FaultHealing, FrozenRoundBellmanFordHonorsItsRemediation) {
  // The formerly refusing frozen-round Bellman–Ford (PR 8's documented
  // leftover) now falls back to the advancing healed path automatically.
  // Its results must match the fault-free frozen-round run exactly, and —
  // because the caller's nominal budget with advance_rounds=false is zero
  // rounds — every round the fallback consumed must be surfaced as
  // extra_rounds.
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 21);  // weighted
  const std::vector<u32> sources = {0, 7};
  const u32 h = 6;
  hybrid_net clean(g, default_cfg(), 3);
  const auto want = limited_bellman_ford(clean, sources, h,
                                         /*advance_rounds=*/false);
  EXPECT_EQ(clean.round(), 0u);  // the trick really freezes the counter
  for (u64 fs = 0; fs < 5; ++fs) {
    hybrid_net net(g, default_cfg(), 3,
                   with_faults(drop_local_opts(0.3, fs), 2));
    const auto got = limited_bellman_ford(net, sources, h,
                                          /*advance_rounds=*/false);
    for (u32 v = 0; v < n; ++v) {
      ASSERT_EQ(got[v].size(), want[v].size()) << v << " fs=" << fs;
      for (u32 i = 0; i < got[v].size(); ++i) {
        EXPECT_EQ(got[v][i].source, want[v][i].source) << v;
        EXPECT_EQ(got[v][i].dist, want[v][i].dist) << v << " fs=" << fs;
        EXPECT_EQ(got[v][i].via, want[v][i].via) << v << " fs=" << fs;
      }
    }
    // Healing consumed real rounds, and all of them are accounted extra.
    const run_metrics m = net.raw_metrics();
    EXPECT_GT(net.round(), 0u) << fs;
    EXPECT_EQ(m.extra_rounds, net.round()) << fs;
    EXPECT_EQ(m.local_items, m.local_delivered + m.local_dropped) << fs;
  }
}

// ---- healed exploration engine ---------------------------------------------

TEST(FaultHealing, ExplorationMatchesFaultFreeOnFiftySeeds) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 37);  // weighted
  const u32 h = 5;
  for (const bool first_hops : {true, false}) {
    hybrid_net clean(g, default_cfg(), 11);
    const sparse_exploration_result want =
        run_local_exploration(clean, h, true, nullptr, first_hops);
    for (u64 fs = 0; fs < 50; ++fs) {
      const u32 threads = fs % 3 == 0 ? 1 : fs % 3 == 1 ? 2 : 8;
      hybrid_net net(g, default_cfg(), 11,
                     with_faults(drop_local_opts(0.3, fs), threads));
      const sparse_exploration_result got =
          run_local_exploration(net, h, true, nullptr, first_hops);
      ASSERT_EQ(got, want) << "fs=" << fs << " first_hops=" << first_hops;
      ASSERT_GT(net.raw_metrics().local_dropped, 0u) << fs;
      ASSERT_GT(net.raw_metrics().extra_rounds, 0u) << fs;
      // The local ledger balances through the healed engine.
      const run_metrics m = net.raw_metrics();
      ASSERT_EQ(m.local_items, m.local_delivered + m.local_dropped) << fs;
    }
  }
}

TEST(FaultHealing, ExplorationSourceSubsetMatchesFaultFree) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 37);
  const std::vector<u32> sources = {0, 7, 19};
  hybrid_net clean(g, default_cfg(), 11);
  const sparse_exploration_result want =
      run_local_exploration(clean, 6, true, &sources, true);
  for (u64 fs = 0; fs < 10; ++fs) {
    hybrid_net net(g, default_cfg(), 11,
                   with_faults(drop_local_opts(0.3, fs), 2));
    EXPECT_EQ(run_local_exploration(net, 6, true, &sources, true), want)
        << fs;
  }
}

TEST(FaultHealing, ExplorationDeterministicAcrossThreads) {
  const u32 n = 48;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 5, 33);
  auto run = [&](u32 threads) {
    hybrid_net net(g, default_cfg(), 13,
                   with_faults(drop_local_opts(0.3, 4), threads));
    const sparse_exploration_result got =
        run_local_exploration(net, 8, true, nullptr, true);
    u64 digest = 1469598103934665603ull;
    for (const exploration_entry& e : got.entries) {
      digest ^= e.dist ^ (u64{e.source} << 32) ^ (u64{e.first_hop} << 8);
      digest *= 1099511628211ull;
    }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digest, m.rounds, m.local_items, m.local_delivered,
                           m.local_dropped, m.retransmitted, m.extra_rounds);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<5>(base), 0u) << "re-offers must count retransmissions";
}

TEST(FaultHealing, FullExplorationMatrixAndFirstHopsHealed) {
  const u32 n = 20;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 41);
  hybrid_net clean(g, default_cfg(), 3);
  std::vector<std::vector<u32>> want_fh;
  const auto want = full_local_exploration(clean, 5, true, &want_fh);
  for (u64 fs = 0; fs < 10; ++fs) {
    hybrid_net net(g, default_cfg(), 3,
                   with_faults(drop_local_opts(0.3, fs), 2));
    std::vector<std::vector<u32>> got_fh;
    const auto got = full_local_exploration(net, 5, true, &got_fh);
    ASSERT_EQ(got, want) << fs;
    // First hops too: the healed path returns the referee's canonical ones,
    // not drop-pattern-dependent arrival orders.
    ASSERT_EQ(got_fh, want_fh) << fs;
  }
}

TEST(FaultHealing, TruncatedEccentricityExactUnderDrops) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 29);
  for (const u32 rounds : {2u, 5u, n}) {
    hybrid_net clean(g, default_cfg(), 7);
    const std::vector<u32> want = truncated_eccentricity(clean, rounds);
    for (u64 fs = 0; fs < 10; ++fs) {
      hybrid_net net(g, default_cfg(), 7,
                     with_faults(drop_local_opts(0.3, fs), 2));
      ASSERT_EQ(truncated_eccentricity(net, rounds), want)
          << "rounds=" << rounds << " fs=" << fs;
      ASSERT_GT(net.raw_metrics().local_dropped, 0u) << fs;
    }
  }
}

TEST(FaultHealing, ExplorationSurvivesCrashRecoveryMidBallGrowth) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 9, 37);
  hybrid_net clean(g, default_cfg(), 11);
  const sparse_exploration_result want =
      run_local_exploration(clean, 5, true, nullptr, true);
  // Node 3 crashes mid-ball-growth and stays down well past the quiet
  // window: with heal_stability_rounds = 2, counting its down rounds as
  // quiet would declare stability around round 4 with its items still
  // pending — the crash-aware quiet rule (down rounds never count) is what
  // lets this run converge instead of tripping the referee.
  fault_options f = drop_local_opts(0.1, 3);
  f.heal_stability_rounds = 2;
  f.crashes.push_back({3, 2, 20});
  hybrid_net net(g, default_cfg(), 11, with_faults(f, 2));
  const sparse_exploration_result got =
      run_local_exploration(net, 5, true, nullptr, true);
  EXPECT_EQ(got, want);
  const run_metrics m = net.raw_metrics();
  EXPECT_GT(m.retransmitted, 0u);
  EXPECT_GT(m.extra_rounds, 0u);
  EXPECT_EQ(m.local_items, m.local_delivered + m.local_dropped);
}

TEST(FaultHealing, ExplorationAdversarialPrefixFailsExplicitly) {
  // Same starvation argument as the flood case above: a path node's whole
  // offer set sits in the adversarial prefix every round, so the engine
  // stabilizes prematurely and the referee must surface fault_failure —
  // after all four retry attempts burn out.
  const graph g = gen::path(6);
  fault_options f = drop_local_opts(0.9, 1);
  f.mode = fault_mode::kAdversarialPrefix;
  f.heal_budget_mult = 4;
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(run_local_exploration(net, 6, true), fault_failure);
  hybrid_net net2(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(truncated_eccentricity(net2, 6), fault_failure);
}

TEST(FaultHealing, AdversarialPrefixFailsExplicitly) {
  // kAdversarialPrefix drops the same positions every round; a path node
  // re-offering its single known item always loses it, so the flood looks
  // stable with nodes unreached. The referee must turn that into an
  // explicit fault_failure, never a silently truncated result.
  const graph g = gen::path(6);
  fault_options f = drop_local_opts(0.9, 1);
  f.mode = fault_mode::kAdversarialPrefix;
  f.heal_budget_mult = 4;  // keep a budget-exhaustion path short too
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(hop_discovery(net, {0}, 6), fault_failure);
  hybrid_net net2(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(limited_bellman_ford(net2, {0}, 6), fault_failure);
  hybrid_net net3(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(table_flood(net3, {0}, {4}, 6), fault_failure);
}

TEST(FaultHealing, HelperSetsMatchFaultFreeUnderLocalFaults) {
  // Algorithm 1's ruling set and clusters read hop_discovery's T-balls, and
  // the label step reads table_flood's. Under local drops, with and without
  // a crash schedule, all four must equal the fault-free run at every thread
  // count. The grid's hop diameter (14) exceeds the 2µ = 2 ruling-set floods
  // and the 3-round table flood, so a flood that ran past T would show.
  const graph g = gen::grid(8, 8);
  const u32 mu = 1;
  const u32 t = 3;
  hybrid_net clean(g, default_cfg(), 5);
  const ruling_set_result want_rs = compute_ruling_set(clean, mu);
  const cluster_decomposition want_cd = compute_clusters(clean, want_rs);
  const std::vector<u64> words(want_rs.rulers.size(), 2);
  const auto want_hops = hop_discovery(clean, want_rs.rulers, t);
  const auto want_tables = table_flood(clean, want_rs.rulers, words, t);
  fault_options crash = drop_local_opts(0.3, 8);
  crash.crashes.push_back({9, 2, 12});
  for (const fault_options& f : {drop_local_opts(0.3, 7), crash})
    for (const u32 threads : {1u, 2u, 8u}) {
      const std::string at =
          "threads=" + std::to_string(threads) +
          " crashes=" + std::to_string(f.crashes.size());
      hybrid_net net(g, default_cfg(), 5, with_faults(f, threads));
      const ruling_set_result rs = compute_ruling_set(net, mu);
      EXPECT_EQ(rs.rulers, want_rs.rulers) << at;
      const cluster_decomposition cd = compute_clusters(net, rs);
      EXPECT_EQ(cd.cluster_of, want_cd.cluster_of) << at;
      EXPECT_EQ(cd.hops_to_ruler, want_cd.hops_to_ruler) << at;
      EXPECT_EQ(cd.max_radius, want_cd.max_radius) << at;
      EXPECT_EQ(hop_discovery(net, want_rs.rulers, t), want_hops) << at;
      EXPECT_EQ(table_flood(net, want_rs.rulers, words, t), want_tables)
          << at;
      EXPECT_GT(net.raw_metrics().local_dropped, 0u) << at;
    }
}

// ---- healed aggregation ----------------------------------------------------

TEST(FaultAggregation, AllOpsMatchFaultFreeUnderDrops) {
  const u32 n = 13;  // uneven binary tree
  const graph g = gen::path(n);
  std::vector<u64> values(n);
  for (u32 v = 0; v < n; ++v) values[v] = (v * 37 + 5) % 11;
  hybrid_net clean(g, default_cfg(), 1);
  for (agg_op op :
       {agg_op::max, agg_op::min, agg_op::sum, agg_op::logical_and}) {
    const u64 want = global_aggregate(clean, op, values);
    hybrid_net net(g, default_cfg(), 1,
                   with_faults(drop_global_opts(0.3, 8), 2));
    EXPECT_EQ(global_aggregate(net, op, values), want);
    EXPECT_GT(net.raw_metrics().global_dropped, 0u);
  }
}

TEST(FaultAggregation, SurvivesCrashRecoveryAndCountsRetransmissions) {
  const u32 n = 13;
  const graph g = gen::path(n);
  std::vector<u64> values(n, 1);
  values[7] = 40;
  fault_options f;
  f.crashes.push_back({1, 1, 5});  // an inner tree node pauses mid-protocol
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  EXPECT_EQ(global_aggregate(net, agg_op::sum, values), u64{12 + 40});
  const run_metrics m = net.raw_metrics();
  EXPECT_GT(m.retransmitted, 0u);
  EXPECT_GT(m.extra_rounds, 0u);
  EXPECT_EQ(m.global_sent, m.global_messages + m.global_dropped);
}

TEST(FaultAggregation, PermanentCrashFailsExplicitly) {
  const u32 n = 13;
  const graph g = gen::path(n);
  fault_options f;
  f.crashes.push_back({3, 0, ~u64{0}});  // never recovers
  f.heal_budget_mult = 8;                // keep the failing run short
  hybrid_net net(g, default_cfg(), 1, with_faults(f));
  EXPECT_THROW(global_aggregate(net, agg_op::sum, std::vector<u64>(n, 1)),
               fault_failure);
}

TEST(FaultAggregation, DeterministicPerFaultSeedAcrossThreads) {
  const u32 n = 61;
  const graph g = gen::path(n);
  std::vector<u64> values(n);
  for (u32 v = 0; v < n; ++v) values[v] = v * v % 97;
  auto run = [&](u32 threads) {
    hybrid_net net(g, default_cfg(), 5,
                   with_faults(drop_global_opts(0.25, 12), threads));
    const u64 r = global_aggregate(net, agg_op::sum, values);
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(r, m.rounds, m.global_sent, m.global_dropped,
                           m.retransmitted, m.extra_rounds);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<4>(base), 0u);
}

// ---- skeleton under local faults -------------------------------------------

TEST(FaultSkeleton, ConvergesToFaultFreeSkeletonOnFiftySeeds) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 4, 19);
  hybrid_net clean(g, default_cfg(), 7);
  const skeleton_result want = compute_skeleton(clean, 0.4);
  for (u64 fs = 0; fs < 50; ++fs) {
    hybrid_net net(g, default_cfg(), 7,
                   with_faults(drop_local_opts(0.3, fs), 2));
    const skeleton_result got = compute_skeleton(net, 0.4);
    ASSERT_EQ(got.nodes, want.nodes) << fs;  // sampling is fault-blind
    ASSERT_EQ(got.h, want.h) << fs;
    ASSERT_EQ(got.edges, want.edges) << fs;  // healed BF is exact
  }
}

TEST(FaultSkeleton, SurvivesCrashRecovery) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 4, 19);
  hybrid_net clean(g, default_cfg(), 7);
  const skeleton_result want = compute_skeleton(clean, 0.4);
  fault_options f = drop_local_opts(0.1, 3);
  f.crashes.push_back({5, 2, 6});
  f.crashes.push_back({14, 4, 7});
  hybrid_net net(g, default_cfg(), 7, with_faults(f, 2));
  const skeleton_result got = compute_skeleton(net, 0.4);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.edges, want.edges);
}

TEST(FaultSkeleton, RetriesAFailedHealingAttempt) {
  // Half the local items dropped and a one-round quiet window: with fault
  // seeds 2 and 5 the first healing attempt stabilizes prematurely, the
  // referee rejects it, and a retry with fresh draws converges. The
  // skeleton is still the fault-free one, at every thread count, and every
  // round past the nominal h — the failed attempt included — is
  // extra_rounds.
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 4, 19);
  hybrid_net clean(g, default_cfg(), 7);
  const skeleton_result want = compute_skeleton(clean, 0.4);
  for (const u64 fs : {2u, 5u})
    for (const u32 threads : {1u, 2u, 8u}) {
      fault_options f = drop_local_opts(0.5, fs);
      f.heal_stability_rounds = 1;
      hybrid_net net(g, default_cfg(), 7, with_faults(f, threads));
      const skeleton_result got = compute_skeleton(net, 0.4);
      ASSERT_EQ(got.edges, want.edges) << fs << " threads=" << threads;
      ASSERT_EQ(net.raw_metrics().extra_rounds, net.round() - got.h)
          << fs << " threads=" << threads;
    }
}

// ---- dissemination under faults -------------------------------------------

TEST(FaultDissemination, CompletesUnderGlobalDrops) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 23);
  auto make_initial = [&]() {
    std::vector<std::vector<token2>> initial(n);
    for (u32 v = 0; v < n; v += 3) initial[v].push_back({v, u64{v} * 7});
    return initial;
  };
  hybrid_net clean(g, default_cfg(), 3);
  const auto want = disseminate(clean, make_initial());
  hybrid_net net(g, default_cfg(), 3, with_faults(drop_global_opts(0.2, 6), 2));
  const auto got = disseminate(net, make_initial());
  EXPECT_EQ(got.tokens, want.tokens);
  EXPECT_GT(net.raw_metrics().global_dropped, 0u);
  EXPECT_EQ(net.raw_metrics().global_sent,
            net.raw_metrics().global_messages +
                net.raw_metrics().global_dropped);
}

TEST(FaultDissemination, CompletesUnderBothPlanesAndCrashes) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 23);
  std::vector<std::vector<token2>> initial(n);
  for (u32 v = 0; v < n; v += 4) initial[v].push_back({v + 1, v + 2});
  fault_options f = drop_global_opts(0.15, 9);
  f.drop_local = 0.15;
  f.crashes.push_back({3, 2, 8});
  hybrid_net net(g, default_cfg(), 3, with_faults(f, 2));
  const auto got = disseminate(net, initial);
  EXPECT_EQ(got.tokens.size(), 8u);  // completion is the proof: the final
                                     // AND-aggregation saw every node done
  EXPECT_GT(net.raw_metrics().local_dropped + net.raw_metrics().global_dropped,
            0u);
}

// ---- token routing under faults -------------------------------------------

std::vector<routed_token> sorted_flat(
    std::vector<std::vector<routed_token>> by_receiver) {
  std::vector<routed_token> all;
  for (auto& part : by_receiver)
    for (const routed_token& t : part) all.push_back(t);
  std::sort(all.begin(), all.end(),
            [](const routed_token& a, const routed_token& b) {
              return std::tie(a.sender, a.receiver, a.index, a.payload) <
                     std::tie(b.sender, b.receiver, b.index, b.payload);
            });
  return all;
}

routing_spec cross_spec(u32 n) {
  routing_spec spec;
  for (u32 v = 0; v < n; v += 2) spec.senders.push_back(v);
  for (u32 v = 1; v < n; v += 2) spec.receivers.push_back(v);
  spec.k_s = 4;
  spec.k_r = 4;
  return spec;
}

std::vector<std::vector<routed_token>> cross_batch(const routing_spec& spec) {
  std::vector<std::vector<routed_token>> batch(spec.senders.size());
  for (u32 si = 0; si < spec.senders.size(); ++si) {
    const u32 s = spec.senders[si];
    for (u32 i = 0; i < 4; ++i) {
      const u32 r = spec.receivers[(si + i) % spec.receivers.size()];
      batch[si].push_back({s, r, i, u64{s} << 16 | i});
    }
  }
  return batch;
}

TEST(FaultRouting, RoutesEveryTokenUnderDropsWithRetransmissions) {
  const u32 n = 24;
  const graph g = gen::path(n);
  const routing_spec spec = cross_spec(n);
  hybrid_net clean(g, default_cfg(), 5);
  routing_spec spec_copy = spec;
  const auto want =
      sorted_flat(run_token_routing(clean, spec_copy, cross_batch(spec)));
  for (u64 fs = 0; fs < 5; ++fs) {
    hybrid_net net(g, default_cfg(), 5,
                   with_faults(drop_global_opts(0.2, fs), 2));
    routing_spec sc = spec;
    const auto got =
        sorted_flat(run_token_routing(net, sc, cross_batch(spec)));
    ASSERT_EQ(got.size(), want.size()) << fs;
    for (u32 i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].sender, want[i].sender) << fs;
      EXPECT_EQ(got[i].receiver, want[i].receiver) << fs;
      EXPECT_EQ(got[i].index, want[i].index) << fs;
      EXPECT_EQ(got[i].payload, want[i].payload) << fs;
    }
    EXPECT_GT(net.raw_metrics().retransmitted, 0u) << fs;
  }
}

TEST(FaultRouting, SurvivesCrashRecovery) {
  const u32 n = 24;
  const graph g = gen::path(n);
  const routing_spec spec = cross_spec(n);
  hybrid_net clean(g, default_cfg(), 5);
  routing_spec spec_copy = spec;
  const auto want =
      sorted_flat(run_token_routing(clean, spec_copy, cross_batch(spec)));
  fault_options f;
  f.crashes.push_back({4, 3, 9});    // a sender pauses
  f.crashes.push_back({11, 5, 12});  // a receiver pauses
  hybrid_net net(g, default_cfg(), 5, with_faults(f, 2));
  routing_spec sc = spec;
  const auto got = sorted_flat(run_token_routing(net, sc, cross_batch(spec)));
  ASSERT_EQ(got.size(), want.size());
  for (u32 i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
}

TEST(FaultRouting, ChargedStandInRefusesFaultsNamingRemediation) {
  // The second of the two documented fault_unsupported cases: the charged
  // stand-in moves no real messages, so it refuses under EITHER faulty
  // plane — and its message must name the way out.
  const u32 n = 16;
  const graph g = gen::path(n);
  model_config cfg;
  cfg.charged_token_routing = true;
  for (const fault_options& f :
       {drop_global_opts(0.1), drop_local_opts(0.1)}) {
    hybrid_net net(g, cfg, 5, with_faults(f));
    routing_spec spec = cross_spec(n);
    try {
      run_token_routing(net, spec, cross_batch(cross_spec(n)));
      FAIL() << "charged routing must refuse under injected faults";
    } catch (const fault_unsupported& e) {
      EXPECT_NE(std::string(e.what()).find("charged_token_routing=false"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- full pipelines --------------------------------------------------------

TEST(FaultPipelines, ZeroProbabilityIsBitIdenticalToFaultFree) {
  const u32 n = 40;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 51);
  const auto base = hybrid_sssp_exact(g, default_cfg(), 21, 0);
  // p = 0 with a nonzero fault_seed and no crashes must not change a bit —
  // the fault machinery stays entirely dormant.
  for (u32 threads : {1u, 2u, 8u}) {
    const auto run = hybrid_sssp_exact(g, default_cfg(), 21, 0,
                                       with_faults(drop_global_opts(0.0, 99),
                                                   threads));
    EXPECT_EQ(run.dist, base.dist) << threads;
    EXPECT_EQ(run.metrics.rounds, base.metrics.rounds) << threads;
    EXPECT_EQ(run.metrics.global_messages, base.metrics.global_messages)
        << threads;
    EXPECT_EQ(run.metrics.global_dropped, 0u) << threads;
    EXPECT_EQ(run.metrics.retransmitted, 0u) << threads;
  }
}

TEST(FaultPipelines, SsspExactUnderGlobalDrops) {
  const u32 n = 40;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 51);
  const auto ref = dijkstra(g, 0);
  const auto run = hybrid_sssp_exact(g, default_cfg(), 21, 0,
                                     with_faults(drop_global_opts(0.1, 4), 2));
  EXPECT_EQ(run.dist, ref);
  EXPECT_GT(run.metrics.global_dropped, 0u);
  EXPECT_EQ(run.metrics.global_sent,
            run.metrics.global_messages + run.metrics.global_dropped);
}

TEST(FaultPipelines, ApspExactUnderGlobalDrops) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 15);
  const auto ref = apsp_reference(g);
  const auto run = hybrid_apsp_exact(g, default_cfg(), 9, false,
                                     with_faults(drop_global_opts(0.1, 2), 2));
  ASSERT_TRUE(run.materialized());
  EXPECT_EQ(run.dist, ref);
  EXPECT_GT(run.metrics.global_dropped, 0u);
}

TEST(FaultPipelines, ApspDeterministicPerFaultSeedAcrossThreads) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 15);
  auto run = [&](u32 threads) {
    const auto r = hybrid_apsp_exact(g, default_cfg(), 9, false,
                                     with_faults(drop_global_opts(0.1, 5),
                                                 threads));
    return std::make_tuple(r.dist, r.metrics.rounds, r.metrics.global_sent,
                           r.metrics.global_dropped, r.metrics.retransmitted,
                           r.metrics.extra_rounds);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

void expect_labels_identical(const dist_labels& got, const dist_labels& want) {
  ASSERT_EQ(got.n, want.n);
  ASSERT_EQ(got.n_s, want.n_s);
  ASSERT_EQ(got.h, want.h);
  ASSERT_EQ(got.scheme, want.scheme);
  ASSERT_EQ(got.routes, want.routes);
  ASSERT_EQ(got.ball, want.ball);
  ASSERT_EQ(got.gw_offsets, want.gw_offsets);
  ASSERT_EQ(got.gateways.size(), want.gateways.size());
  for (u32 i = 0; i < got.gateways.size(); ++i) {
    ASSERT_EQ(got.gateways[i].source, want.gateways[i].source) << i;
    ASSERT_EQ(got.gateways[i].dist, want.gateways[i].dist) << i;
    ASSERT_EQ(got.gateways[i].via, want.gateways[i].via) << i;
  }
  ASSERT_EQ(got.skeleton_nodes, want.skeleton_nodes);
  ASSERT_EQ(got.skel, want.skel);
  ASSERT_EQ(got.n_s2, want.n_s2);
  ASSERT_EQ(got.ball1_offsets, want.ball1_offsets);
  ASSERT_EQ(got.ball1_entries, want.ball1_entries);
  ASSERT_EQ(got.gw1_offsets, want.gw1_offsets);
  ASSERT_EQ(got.gw1, want.gw1);
  ASSERT_EQ(got.super_nodes, want.super_nodes);
}

TEST(FaultPipelines, LocalFaultsHealEndToEnd) {
  // The former refusal case: local drops on the exploration stages now heal
  // (docs/FAULTS.md §3), so the full pipelines complete with results
  // bit-identical to the fault-free runs.
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 5);
  const auto apsp_want = hybrid_apsp_exact(g, default_cfg(), 3, false);
  const auto apsp_got = hybrid_apsp_exact(g, default_cfg(), 3, false,
                                          with_faults(drop_local_opts(0.1)));
  expect_labels_identical(apsp_got.labels, apsp_want.labels);
  EXPECT_EQ(apsp_got.dist, apsp_want.dist);
  EXPECT_GT(apsp_got.metrics.local_dropped, 0u);
  const auto alg = make_clique_diameter_32(0.25, injection::none);
  const auto dia_want = hybrid_diameter(g, default_cfg(), 3, alg);
  const auto dia_got = hybrid_diameter(g, default_cfg(), 3, alg,
                                       with_faults(drop_local_opts(0.1)));
  EXPECT_EQ(dia_got.estimate, dia_want.estimate);
  EXPECT_EQ(dia_got.h_hat, dia_want.h_hat);
  EXPECT_EQ(dia_got.skeleton_estimate, dia_want.skeleton_estimate);
  EXPECT_EQ(dia_got.exact_path, dia_want.exact_path);
}

TEST(FaultPipelines, ApspLabelsIdenticalUnderLocalDropsOnFiftySeeds) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 15);  // weighted
  const auto want = hybrid_apsp_exact(g, default_cfg(), 9, true);
  for (u64 fs = 0; fs < 50; ++fs) {
    const u32 threads = fs % 3 == 0 ? 1 : fs % 3 == 1 ? 2 : 8;
    const auto got =
        hybrid_apsp_exact(g, default_cfg(), 9, true,
                          with_faults(drop_local_opts(0.3, fs), threads));
    expect_labels_identical(got.labels, want.labels);
    ASSERT_EQ(got.dist, want.dist) << fs;
    ASSERT_EQ(got.next_hop, want.next_hop) << fs;
    ASSERT_GT(got.metrics.local_dropped, 0u) << fs;
    ASSERT_EQ(got.metrics.local_items,
              got.metrics.local_delivered + got.metrics.local_dropped)
        << fs;
    // Healing cost lands in the per-stage breakdown: phase deltas must add
    // up to the run totals (metrics.hpp phase_entry).
    u64 phase_extra = 0, phase_retx = 0;
    for (const phase_entry& ph : got.metrics.phases) {
      phase_extra += ph.extra_rounds;
      phase_retx += ph.retransmitted;
    }
    ASSERT_EQ(phase_extra, got.metrics.extra_rounds) << fs;
    ASSERT_EQ(phase_retx, got.metrics.retransmitted) << fs;
    ASSERT_GT(got.metrics.extra_rounds, 0u) << fs;
  }
}

TEST(FaultPipelines, BaselineApspLabelsIdenticalUnderLocalDrops) {
  const u32 n = 24;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 15);
  const auto want = baseline_apsp_ahkss(g, default_cfg(), 9);
  for (u64 fs = 0; fs < 10; ++fs) {
    const auto got = baseline_apsp_ahkss(
        g, default_cfg(), 9, with_faults(drop_local_opts(0.3, fs), 2));
    expect_labels_identical(got.labels, want.labels);
    ASSERT_EQ(got.dist, want.dist) << fs;
  }
}

TEST(FaultPipelines, TwoLevelApspLabelsIdenticalUnderLocalDrops) {
  // The two-level path swaps its charged E_S dissemination stand-in for the
  // real healing gossip whenever a fault plane is active (DESIGN.md
  // deviation 10) — labels must come out bit-equal to the fault-free
  // two-level run, which never sees the gossip at all.
  const u32 n = 40;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 8, 15);
  sim_options o;
  o.hierarchy = oracle_hierarchy::kTwoLevel;
  const auto want = hybrid_apsp_exact(g, default_cfg(), 9, false, o);
  ASSERT_EQ(want.labels.scheme, label_scheme::kTwoLevel);
  ASSERT_GE(want.labels.n_s2, 1u);
  for (u64 fs = 0; fs < 8; ++fs) {
    sim_options fo = with_faults(drop_local_opts(0.3, fs), fs % 2 ? 2 : 1);
    fo.hierarchy = oracle_hierarchy::kTwoLevel;
    const auto got = hybrid_apsp_exact(g, default_cfg(), 9, false, fo);
    expect_labels_identical(got.labels, want.labels);
    ASSERT_GT(got.metrics.local_dropped, 0u) << fs;
  }
}

TEST(FaultPipelines, SsspExactUnderBothPlanesAndCrashes) {
  const u32 n = 40;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 8, 51);
  const auto ref = dijkstra(g, 0);
  const auto base = hybrid_sssp_exact(g, default_cfg(), 21, 0);
  fault_options f = drop_global_opts(0.1, 4);
  f.drop_local = 0.1;
  f.crashes.push_back({6, 3, 9});
  for (u32 threads : {1u, 2u, 8u}) {
    const auto run =
        hybrid_sssp_exact(g, default_cfg(), 21, 0, with_faults(f, threads));
    EXPECT_EQ(run.dist, ref) << threads;
    EXPECT_EQ(run.dist, base.dist) << threads;
    EXPECT_GT(run.metrics.local_dropped, 0u) << threads;
    EXPECT_GT(run.metrics.global_dropped, 0u) << threads;
    EXPECT_EQ(run.metrics.global_sent,
              run.metrics.global_messages + run.metrics.global_dropped)
        << threads;
    EXPECT_EQ(run.metrics.local_items,
              run.metrics.local_delivered + run.metrics.local_dropped)
        << threads;
  }
}

// Pins the fault counters of one lossy pipeline at its recorded values, so a
// change to any fault stream, healing loop or charge shows up in tier-1 and
// not only in the bench gate. The grid and parameters mirror a scaled-down
// lossy SSSP benchmark run.
TEST(FaultPipelines, LossySsspCountersArePinned) {
  const graph g = gen::grid(12, 12, 16, derive_seed(1, 1));
  fault_options f = drop_global_opts(0.1, 9);
  f.drop_local = 0.1;
  const auto ref = dijkstra(g, 78);
  for (u32 threads : {1u, 2u, 8u}) {
    const auto run =
        hybrid_sssp_exact(g, default_cfg(), 7, 78, with_faults(f, threads));
    const run_metrics& m = run.metrics;
    EXPECT_EQ(run.dist, ref) << threads;
    EXPECT_EQ(m.rounds, 1265u) << threads;
    EXPECT_EQ(m.global_dropped, 8060u) << threads;
    EXPECT_EQ(m.local_items, 3373356u) << threads;
    EXPECT_EQ(m.local_dropped, 316906u) << threads;
    EXPECT_EQ(m.retransmitted, 2973567u) << threads;
    EXPECT_EQ(m.extra_rounds, 245u) << threads;
  }
}

TEST(FaultPipelines, DiameterIdenticalUnderLocalDropsOnManySeeds) {
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 1, 15);  // unweighted
  const auto alg = make_clique_diameter_32(0.25, injection::none);
  const auto want = hybrid_diameter(g, default_cfg(), 7, alg);
  for (u64 fs = 0; fs < 10; ++fs) {
    const u32 threads = fs % 3 == 0 ? 1 : fs % 3 == 1 ? 2 : 8;
    const auto got =
        hybrid_diameter(g, default_cfg(), 7, alg,
                        with_faults(drop_local_opts(0.3, fs), threads));
    ASSERT_EQ(got.estimate, want.estimate) << fs;
    ASSERT_EQ(got.h_hat, want.h_hat) << fs;
    ASSERT_EQ(got.skeleton_estimate, want.skeleton_estimate) << fs;
    ASSERT_EQ(got.exact_path, want.exact_path) << fs;
    ASSERT_GT(got.metrics.local_dropped, 0u) << fs;
  }
}

// ---- CI fault matrix hook --------------------------------------------------

// The CI fault-matrix leg re-runs `ctest -L faults` at HYBRID_FAULT_P ∈
// {0, 0.1, 0.3} × HYBRID_THREADS ∈ {1, 8}; this test reads both from the
// environment (threads via the executor's own HYBRID_THREADS handling) so
// one binary exercises every cell with genuinely different drop rates.
TEST(FaultMatrix, PipelinesCorrectAtEnvironmentProbability) {
  double p = 0.1;
  if (const char* env = std::getenv("HYBRID_FAULT_P")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed >= 0.0 && parsed <= 1.0) p = parsed;
  }
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 6, 27);
  sim_options opts;  // threads = 0: defer to HYBRID_THREADS
  opts.faults = drop_global_opts(p, 3);
  const auto run = hybrid_sssp_exact(g, default_cfg(), 13, 0, opts);
  EXPECT_EQ(run.dist, dijkstra(g, 0));
  EXPECT_EQ(run.metrics.global_sent,
            run.metrics.global_messages + run.metrics.global_dropped);
  if (p > 0.0) {
    EXPECT_GT(run.metrics.global_dropped, 0u);
  } else {
    EXPECT_EQ(run.metrics.global_dropped, 0u);
    EXPECT_EQ(run.metrics.retransmitted, 0u);
  }
}

TEST(FaultMatrix, PipelinesCorrectAtEnvironmentLocalProbability) {
  double p = 0.1;
  if (const char* env = std::getenv("HYBRID_FAULT_LOCAL_P")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && parsed >= 0.0 && parsed <= 1.0) p = parsed;
  }
  const u32 n = 32;
  const graph g = gen::erdos_renyi_connected(n, 3.0, 6, 27);
  sim_options opts;  // threads = 0: defer to HYBRID_THREADS
  opts.faults = drop_local_opts(p, 3);
  const auto run = hybrid_sssp_exact(g, default_cfg(), 13, 0, opts);
  EXPECT_EQ(run.dist, dijkstra(g, 0));
  EXPECT_EQ(run.metrics.local_items,
            run.metrics.local_delivered + run.metrics.local_dropped);
  if (p > 0.0) {
    EXPECT_GT(run.metrics.local_dropped, 0u);
  } else {
    EXPECT_EQ(run.metrics.local_dropped, 0u);
    EXPECT_EQ(run.metrics.retransmitted, 0u);
  }
}

}  // namespace
}  // namespace hybrid
