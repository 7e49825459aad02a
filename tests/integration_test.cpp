// Cross-module integration tests: the full algorithms on the lower-bound
// constructions, determinism, configuration robustness, cut instrumentation
// through complete pipelines, and the weighted-diameter 2-approximation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/apsp.hpp"
#include "core/diameter.hpp"
#include "core/kssp_framework.hpp"
#include "core/sssp.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "lb/gamma_graph.hpp"
#include "lb/kssp_lb_graph.hpp"
#include "proto/skeleton.hpp"
#include "sim/clique_net.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

// ---- full pipelines on the adversarial constructions ------------------------

TEST(Integration, ApspExactOnGammaGraph) {
  rng r(3);
  std::vector<u8> a(36, 0), b(36, 0);
  for (u32 i = 0; i < 36; ++i) {
    a[i] = r.next_bool(0.5);
    b[i] = a[i] ? 0 : 1;
  }
  const lb::gamma_graph gg = lb::build_gamma({6, 6, 1}, a, b);
  const apsp_result res = hybrid_apsp_exact(gg.g, cfg(), 17);
  const auto ref = apsp_reference(gg.g);
  for (u32 u = 0; u < gg.g.num_nodes(); ++u) ASSERT_EQ(res.dist[u], ref[u]);
  // A node can derive the exact diameter — the capability Theorem 1.6
  // prices at Ω̃(n^{1/3}).
  u64 diam = 0;
  for (const auto& row : res.dist)
    for (u64 d : row) diam = std::max(diam, d);
  EXPECT_EQ(diam, hop_diameter(gg.g));
}

TEST(Integration, KsspOnLowerBoundFamilyIsCorrect) {
  rng r(5);
  const lb::kssp_lb_graph inst = lb::build_kssp_lb({128, 16, 8}, r);
  const auto alg = make_clique_apsp_2eps(0.25, injection::none);
  const kssp_result res = hybrid_kssp(inst.g, cfg(), 5, inst.sources, alg);
  // b (node 0) must learn distances that separate S1 from S2 — the
  // information whose transfer the lower bound prices.
  for (u32 j = 0; j < inst.sources.size(); ++j) {
    const u64 d = res.dist[j][inst.b];
    if (inst.in_s1[j])
      EXPECT_EQ(d, inst.dist_b_s1());
    else
      EXPECT_EQ(d, inst.dist_b_s2());
  }
}

TEST(Integration, CutInstrumentationThroughApsp) {
  rng r(7);
  const lb::kssp_lb_graph inst = lb::build_kssp_lb({64, 16, 8}, r);
  model_config c = cfg();
  c.cut_side = inst.path_cut();
  const apsp_result res = hybrid_apsp_exact(inst.g, c, 23);
  // The S1/S2 split (16 bits of entropy) must have crossed the cut, with
  // lots of slack for protocol overhead.
  EXPECT_GE(res.metrics.cut_bits, 16u);
  const auto ref = apsp_reference(inst.g);
  for (u32 u = 0; u < inst.g.num_nodes(); ++u)
    ASSERT_EQ(res.dist[u], ref[u]);
}

// ---- determinism -------------------------------------------------------------

TEST(Integration, ApspFullyDeterministicPerSeed) {
  const graph g = gen::erdos_renyi_connected(128, 5.0, 9, 31);
  const apsp_result a = hybrid_apsp_exact(g, cfg(), 42);
  const apsp_result b = hybrid_apsp_exact(g, cfg(), 42);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.global_messages, b.metrics.global_messages);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.skeleton_size, b.skeleton_size);
}

TEST(Integration, DifferentSeedsDifferentSkeletons) {
  const graph g = gen::erdos_renyi_connected(256, 5.0, 9, 31);
  const apsp_result a = hybrid_apsp_exact(g, cfg(), 1);
  const apsp_result b = hybrid_apsp_exact(g, cfg(), 2);
  // Results identical (exact), internals differ.
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_NE(a.metrics.global_messages, b.metrics.global_messages);
}

TEST(Integration, SsspDeterministicPerSeed) {
  const graph g = gen::grid(12, 12, 5, 3);
  const sssp_result a = hybrid_sssp_exact(g, cfg(), 9, 7);
  const sssp_result b = hybrid_sssp_exact(g, cfg(), 9, 7);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.dist, b.dist);
}

// ---- configuration robustness -------------------------------------------------

class ConfigRobustness : public ::testing::TestWithParam<double> {};

TEST_P(ConfigRobustness, ApspExactUnderGammaSweep) {
  model_config c = cfg();
  c.global_cap_mult = GetParam();
  const graph g = gen::erdos_renyi_connected(128, 5.0, 7, 13);
  const apsp_result res = hybrid_apsp_exact(g, c, 19);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < 128; ++u) ASSERT_EQ(res.dist[u], ref[u]);
}

INSTANTIATE_TEST_SUITE_P(Gammas, ConfigRobustness,
                         ::testing::Values(1.0, 2.0, 8.0));

TEST(ConfigRobustnessExtra, LowIndependenceStillDelivers) {
  // Pairwise independence only: receive loads may spike but delivery is
  // guaranteed by the queueing protocol.
  model_config c = cfg();
  c.hash_independence_mult = 0.1;  // clamps to k = 2
  const graph g = gen::erdos_renyi_connected(128, 5.0, 1, 17);
  const sssp_result res = hybrid_sssp_exact(g, c, 3, 0);
  EXPECT_EQ(res.dist, dijkstra(g, 0));
}

TEST(ConfigRobustnessExtra, TinyPayloadBudgetRejected) {
  // Token routing needs 2-word payloads; a 1-word model cap must fail fast
  // (invariant), not silently truncate.
  model_config c = cfg();
  c.max_payload_words = 1;
  const graph g = gen::erdos_renyi_connected(64, 5.0, 1, 19);
  EXPECT_THROW(hybrid_apsp_exact(g, c, 3), std::logic_error);
}

// ---- weighted diameter 2-approximation ---------------------------------------

class WeightedDiam2Approx : public ::testing::TestWithParam<std::tuple<int, u64>> {
};

TEST_P(WeightedDiam2Approx, BandHolds) {
  const auto [kind, seed] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(160, 5.0, 12, seed); break;
    case 1: g = gen::grid(12, 13, 9, seed); break;
    default: g = gen::path(160, 12, seed); break;
  }
  const u64 dw = weighted_diameter(g);
  const weighted_diameter_result res =
      hybrid_weighted_diameter_2approx(g, cfg(), seed);
  EXPECT_LE(res.eccentricity, dw);
  EXPECT_GE(res.estimate, dw);          // never underestimates
  EXPECT_LE(res.estimate, 2 * dw);      // 2-approximation
  EXPECT_EQ(res.estimate, 2 * res.eccentricity);
}

INSTANTIATE_TEST_SUITE_P(Graphs, WeightedDiam2Approx,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3u, 4u)));

TEST(WeightedDiam2ApproxExtra, PivotChoiceAffectsTightnessNotSoundness) {
  const graph g = gen::path(100, 10, 5);
  const u64 dw = weighted_diameter(g);
  // Endpoint pivot: e(v) = D, estimate = 2D. Center pivot: e ≈ D/2,
  // estimate ≈ D.
  const auto end = hybrid_weighted_diameter_2approx(g, cfg(), 3, 0);
  const auto mid = hybrid_weighted_diameter_2approx(g, cfg(), 3, 50);
  EXPECT_GE(end.estimate, dw);
  EXPECT_GE(mid.estimate, dw);
  EXPECT_LE(mid.estimate, end.estimate);
}

// ---- equation (3) threshold behavior -----------------------------------------

TEST(Integration, DiameterBranchSwitchesWithEta) {
  // Same graph: a generous ε (deep exploration) catches D exactly; a tiny
  // exploration falls back to the skeleton estimate.
  const graph g = gen::path(700);
  const diameter_result deep = hybrid_diameter(
      g, cfg(), 3, make_clique_diameter_32(0.1, injection::none));
  const diameter_result shallow = hybrid_diameter(
      g, cfg(), 3, make_clique_diameter_32(1.0, injection::none));
  EXPECT_TRUE(deep.exact_path);
  EXPECT_EQ(deep.estimate, 699u);
  EXPECT_FALSE(shallow.exact_path);
  EXPECT_GE(shallow.estimate, 699u);
}

// ---- exactness across the full family matrix ---------------------------------

// `kind` is 8 bytes wide so the struct has no padding: ctest names each case
// after the raw bytes gtest prints for it, and padding bytes are
// indeterminate, which would make the case names change from run to run.
struct family_case {
  i64 kind;
  u64 max_w;
};
static_assert(sizeof(family_case) == 2 * sizeof(u64));

class ApspFamilyMatrix : public ::testing::TestWithParam<family_case> {};

TEST_P(ApspFamilyMatrix, Exact) {
  const auto [kind, max_w] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::cycle(150, max_w, 7); break;
    case 1: g = gen::barbell(20, 60, max_w, 7); break;
    case 2: g = gen::balanced_tree(150, 3, max_w, 7); break;
    default: g = gen::random_geometric(150, 7.0, max_w, 7); break;
  }
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 29);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(res.dist[u], ref[u]);
}

INSTANTIATE_TEST_SUITE_P(Families, ApspFamilyMatrix,
                         ::testing::Values(family_case{0, 1},
                                           family_case{0, 11},
                                           family_case{1, 1},
                                           family_case{1, 8},
                                           family_case{2, 9},
                                           family_case{3, 6}));

TEST(Integration, ApspOnScaleFreeOverlay) {
  // The P2P-overlay shape from the paper's motivation: heavy-tailed degrees.
  const graph g = gen::preferential_attachment(200, 3, 7, 13);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 21);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(res.dist[u], ref[u]);
}

TEST(Integration, KsspOnScaleFreeWithInjection) {
  const graph g = gen::preferential_attachment(200, 3, 9, 17);
  rng r(5);
  const auto sources = r.sample_without_replacement(200, 10);
  const auto alg = make_clique_kssp_1eps(0.25, injection::worst_case);
  const kssp_result res = hybrid_kssp(g, cfg(), 11, sources, alg);
  const auto ref = multi_source_reference(g, sources);
  for (u32 j = 0; j < sources.size(); ++j)
    for (u32 v = 0; v < 200; ++v) {
      ASSERT_GE(res.dist[j][v], ref[j][v]);
      ASSERT_LE(static_cast<double>(res.dist[j][v]),
                res.bound_weighted * static_cast<double>(ref[j][v]) + 1e-9);
    }
}

TEST(Integration, MessageLevelCliqueSsspMatchesSkeletonSolve) {
  // Cross-validate the charged-complexity plug-ins against the honest
  // message-level CLIQUE Bellman–Ford on a real skeleton instance.
  const graph g = gen::grid(14, 14, 6, 3);
  hybrid_net net(g, cfg(), 9);
  const skeleton_result sk = compute_skeleton(net, 0.15);
  clique_problem prob;
  prob.n_s = static_cast<u32>(sk.nodes.size());
  prob.edges = &sk.edges;
  prob.max_edge_weight = 6;
  clique_net cnet(prob.n_s);
  const auto msg_level = bellman_ford_clique_sssp(cnet, prob, 0);
  EXPECT_EQ(msg_level, skeleton_sssp(sk, 0));
}

}  // namespace
}  // namespace hybrid
