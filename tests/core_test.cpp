// End-to-end tests of the paper's headline algorithms against centralized
// ground truth: Theorem 1.1 (exact APSP), the AHKSS20 baseline, Theorem 4.1
// (k-SSP framework + worst-case error injection), Theorem 1.3 (exact SSSP),
// Theorem 5.1 (diameter).
#include <gtest/gtest.h>

#include <cmath>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/diameter.hpp"
#include "core/kssp_framework.hpp"
#include "core/sssp.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

graph make_graph(int kind, u32 n, u64 max_w, u64 seed) {
  switch (kind) {
    case 0: return gen::erdos_renyi_connected(n, 5.0, max_w, seed);
    case 1: return gen::grid(n / 16, 16, max_w, seed);
    default: return gen::path(n, max_w, seed);
  }
}

// ---- Theorem 1.1: exact APSP -----------------------------------------------

class ApspExactness : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(ApspExactness, MatchesDijkstraEverywhere) {
  const auto [kind, seed] = GetParam();
  const graph g = make_graph(kind, 192, 9, seed);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), seed);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < g.num_nodes(); ++u)
    ASSERT_EQ(res.dist[u], ref[u]) << "row " << u << " kind " << kind;
  EXPECT_GT(res.metrics.rounds, 0u);
  EXPECT_LE(res.metrics.max_global_recv_per_round,
            4u * 4 * id_bits(g.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(Graphs, ApspExactness,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 2u)));

TEST(Apsp, UnweightedGraphs) {
  const graph g = gen::erdos_renyi_connected(160, 6.0, 1, 4);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 4);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(res.dist[u], ref[u]);
}

TEST(Apsp, PhaseBreakdownPresent) {
  const graph g = gen::erdos_renyi_connected(128, 5.0, 4, 8);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 8);
  ASSERT_GE(res.metrics.phases.size(), 4u);
  EXPECT_EQ(res.metrics.phases[0].name, "skeleton");
  u64 total = 0;
  for (const auto& ph : res.metrics.phases) total += ph.rounds;
  EXPECT_EQ(total, res.metrics.rounds);
}

// ---- AHKSS20 baseline --------------------------------------------------------

TEST(ApspBaseline, ExactToo) {
  const graph g = gen::erdos_renyi_connected(160, 5.0, 7, 31);
  const apsp_baseline_result res = baseline_apsp_ahkss(g, cfg(), 31);
  const auto ref = apsp_reference(g);
  for (u32 u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(res.dist[u], ref[u]);
  EXPECT_GT(res.labels_broadcast, 0u);
}

// ---- Theorem 1.3: exact SSSP --------------------------------------------------

class SsspExactness : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(SsspExactness, MatchesDijkstra) {
  const auto [kind, seed] = GetParam();
  const graph g = make_graph(kind, 224, 8, seed);
  const u32 source = static_cast<u32>(seed % g.num_nodes());
  const sssp_result res = hybrid_sssp_exact(g, cfg(), seed, source);
  const auto ref = dijkstra(g, source);
  EXPECT_EQ(res.dist, ref) << "kind " << kind;
}

INSTANTIATE_TEST_SUITE_P(Graphs, SsspExactness,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3u, 4u)));

// ---- Theorem 4.1 / 1.2: k-SSP approximations ---------------------------------

// The fields are laid out so the struct has no padding: ctest names each case
// after the raw bytes gtest prints for it, and padding bytes are
// indeterminate, which would make the case names change from run to run.
struct kssp_case {
  int graph_kind;
  injection inject;
  u64 max_w;  // 1 = unweighted
  u64 n;
};
static_assert(sizeof(kssp_case) ==
              sizeof(int) + sizeof(injection) + 2 * sizeof(u64));

class KsspApprox : public ::testing::TestWithParam<kssp_case> {};

TEST_P(KsspApprox, WithinProvenBounds) {
  const kssp_case c = GetParam();
  const graph g = make_graph(c.graph_kind, static_cast<u32>(c.n), c.max_w, 7);
  const u32 n = g.num_nodes();
  // k ≈ n^{1/3} sources (Corollary 4.6's regime).
  const u32 k = static_cast<u32>(std::cbrt(static_cast<double>(n))) + 2;
  rng r(17);
  std::vector<u32> sources = r.sample_without_replacement(n, k);

  const auto alg = make_clique_kssp_1eps(0.25, c.inject);
  const kssp_result res = hybrid_kssp(g, cfg(), 7, sources, alg);

  const auto ref = multi_source_reference(g, sources);
  const double bound =
      c.max_w == 1 ? res.bound_unweighted : res.bound_weighted;
  for (u32 j = 0; j < sources.size(); ++j)
    for (u32 v = 0; v < n; ++v) {
      ASSERT_GE(res.dist[j][v], ref[j][v])
          << "underestimate at source " << j << " node " << v;
      ASSERT_LE(static_cast<double>(res.dist[j][v]),
                bound * static_cast<double>(ref[j][v]) + 1e-9)
          << "bound " << bound << " violated at source " << j << " node "
          << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KsspApprox,
    ::testing::Values(kssp_case{0, injection::none, 1, 192},
                      kssp_case{0, injection::worst_case, 1, 192},
                      kssp_case{0, injection::none, 9, 192},
                      kssp_case{0, injection::worst_case, 9, 192},
                      kssp_case{1, injection::worst_case, 1, 192},
                      kssp_case{2, injection::worst_case, 6, 192}));

TEST(Kssp, ExactWhenNoInjectionAndAlphaOne) {
  // α = 1, β = 0, single source in skeleton ⇒ exact (Lemma 4.5).
  const graph g = make_graph(0, 160, 5, 23);
  const kssp_result res = hybrid_kssp(g, cfg(), 23, {12},
                                      make_clique_sssp_exact(),
                                      /*source_into_skeleton=*/true);
  EXPECT_EQ(res.dist[0], dijkstra(g, 12));
}

TEST(Kssp, SevenPlusEpsVariant) {
  // Corollary 4.7 under worst-case injection on a weighted graph.
  const graph g = make_graph(0, 192, 12, 29);
  rng r(5);
  std::vector<u32> sources = r.sample_without_replacement(g.num_nodes(), 24);
  const auto alg = make_clique_apsp_2eps(0.25, injection::worst_case);
  const kssp_result res = hybrid_kssp(g, cfg(), 29, sources, alg);
  const auto ref = multi_source_reference(g, sources);
  for (u32 j = 0; j < sources.size(); ++j)
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      ASSERT_GE(res.dist[j][v], ref[j][v]);
      ASSERT_LE(static_cast<double>(res.dist[j][v]),
                res.bound_weighted * static_cast<double>(ref[j][v]) + 1e-9);
    }
  EXPECT_LE(res.bound_weighted, 7.0 + 4 * 0.25 + 1.0)
      << "2α+1 with α=2+ε plus β/T_B should stay near 7+ε";
}

TEST(Kssp, RejectsDuplicateSources) {
  const graph g = gen::path(64);
  EXPECT_THROW(hybrid_kssp(g, cfg(), 1, {3, 3},
                           make_clique_kssp_1eps(0.25, injection::none)),
               std::invalid_argument);
}

TEST(Kssp, GammaZeroRequiresSingleSource) {
  const graph g = gen::path(64);
  EXPECT_THROW(hybrid_kssp(g, cfg(), 1, {3, 4}, make_clique_sssp_exact(),
                           /*source_into_skeleton=*/true),
               std::invalid_argument);
}

// ---- Theorem 5.1 / 1.4: diameter ----------------------------------------------

class DiameterApprox : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(DiameterApprox, WithinBoundsAndNeverUnder) {
  const auto [kind, seed] = GetParam();
  const graph g = make_graph(kind, 192, 1, seed);
  const u32 d_true = hop_diameter(g);
  const auto alg = make_clique_diameter_32(0.25, injection::worst_case);
  const diameter_result res = hybrid_diameter(g, cfg(), seed, alg);
  EXPECT_GE(res.estimate, d_true) << "diameter must not be underestimated";
  EXPECT_LE(static_cast<double>(res.estimate),
            res.bound * static_cast<double>(d_true) + 1e-9)
      << "claimed bound " << res.bound;
}

INSTANTIATE_TEST_SUITE_P(Graphs, DiameterApprox,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(5u, 6u)));

TEST(Diameter, SmallDiameterComputedExactly) {
  // ER graphs have tiny diameter: the ĥ branch of Equation (3) fires.
  const graph g = gen::erdos_renyi_connected(256, 8.0, 1, 9);
  const auto alg = make_clique_diameter_32(0.25, injection::worst_case);
  const diameter_result res = hybrid_diameter(g, cfg(), 9, alg);
  EXPECT_TRUE(res.exact_path);
  EXPECT_EQ(res.estimate, hop_diameter(g));
}

TEST(Diameter, LargeDiameterUsesSkeletonEstimate) {
  const graph g = gen::path(1500);
  const auto alg = make_clique_diameter_32(0.25, injection::none);
  const diameter_result res = hybrid_diameter(g, cfg(), 3, alg);
  const u32 d_true = 1499;
  if (!res.exact_path) {
    EXPECT_GE(res.estimate, static_cast<u64>(d_true));
    EXPECT_LE(static_cast<double>(res.estimate),
              res.bound * static_cast<double>(d_true));
  } else {
    EXPECT_EQ(res.estimate, d_true);
  }
}

TEST(Diameter, RejectsWeightedGraphs) {
  const graph g = gen::path(64, 5, 2);
  const auto alg = make_clique_diameter_32(0.25, injection::none);
  EXPECT_THROW(hybrid_diameter(g, cfg(), 1, alg), std::invalid_argument);
}

}  // namespace
}  // namespace hybrid
