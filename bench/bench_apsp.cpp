// E2 — Theorem 1.1: exact APSP in Õ(√n) rounds, vs. the Õ(n^{2/3}) AHKSS20
// baseline it improves on, vs. the Ω̃(√n) lower bound (Theorem 1.5 with
// k = n).
//
// Reproduced shape: the new algorithm's fitted exponent ≈ 0.5, the
// baseline's ≈ 0.67, and the new algorithm wins at large n. Absolute round
// counts carry polylog factors and protocol constants; the fit deflates one
// log factor (see util/stats.hpp).
//
// E2e adds the distance-label oracle regime (core/dist_oracle.hpp): APSP
// whose result is queryable per-node labels instead of n×n matrices, which
// opens bounded-degree workloads up to n = 10⁵ end to end (with a
// peak-RSS budget asserted) plus a cheap skeleton diameter estimate.
// Usage: bench_apsp [n_large] [--json <path>]
#include "peak_rss.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/diameter.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/assert.hpp"
#include "util/bench_io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hybrid;

u64 count_wrong(const std::vector<std::vector<u64>>& got, const graph& g) {
  u64 wrong = 0;
  for (u32 u = 0; u < g.num_nodes(); ++u) {
    const auto ref = dijkstra(g, u);
    for (u32 v = 0; v < g.num_nodes(); ++v)
      if (got[u][v] != ref[v]) ++wrong;
  }
  return wrong;
}

struct oracle_run {
  apsp_result res;
  double wall_ms = 0;
  double peak_mb = 0;    ///< this run's own peak (water mark reset per run)
  bool peak_valid = false;  ///< reset took; otherwise peak_mb is stale
};

/// Knobs of run_oracle beyond the hop budget. `p` overrides the level-1
/// sampling probability (0 keeps the 1/√n default); `p2`/`h1` configure the
/// super-skeleton when `two_level` is set (0 keeps the pipeline defaults).
/// `charged_routing` runs token routing as the charged stand-in (DESIGN.md
/// deviation 9). The exact helper-set simulation is cheap here: on these
/// inputs n = 4096 takes 2.5 s / 227 MB and n = 8192 7.7 s / 771 MB
/// (4 threads). The stand-in charges 19–25× more rounds than the exact path
/// but keeps the n = 10⁵ run inside its memory budget: a single cluster's
/// member lists are Σ|C|² entries.
struct oracle_knobs {
  double p = 0.0;
  bool two_level = false;
  double p2 = 0.0;
  u32 h1 = 0;
  bool charged_routing = true;
};

/// Label-only APSP with the skeleton hop budget pinned to `target_h`
/// (skeleton_xi back-solved from h = ⌈ξ·√n·ln n⌉): the practical
/// sparse-graph parameterization — h of a few hops keeps the balls, and
/// with them the labels, small (Feldmann et al. 2020's regime; the paper's
/// Õ(√n) h is a w.h.p. worst-case budget, not a memory-friendly one).
oracle_run run_oracle(const graph& g, u32 target_h, u64 seed, bool routes,
                      const oracle_knobs& k = {}) {
  oracle_run out;
  out.peak_valid = benchrss::reset_peak_rss();
  const double n = static_cast<double>(g.num_nodes());
  model_config cfg;
  // Back-solve h = ⌈ξ·(1/p)·ln n⌉ = target_h at the p actually in force.
  const double p_eff = k.p > 0.0 ? k.p : 1.0 / std::sqrt(n);
  cfg.skeleton_xi = (static_cast<double>(target_h) - 0.25) * p_eff /
                    std::log(n);
  cfg.skeleton_p_override = k.p;
  cfg.super_p_override = k.p2;
  cfg.super_h_override = k.h1;
  cfg.charged_token_routing = k.charged_routing;
  sim_options o;
  o.storage = result_storage::kLabels;
  o.hierarchy = k.two_level ? oracle_hierarchy::kTwoLevel
                          : oracle_hierarchy::kSingleLevel;
  out.wall_ms =
      timed_ms([&] { out.res = hybrid_apsp_exact(g, cfg, seed, routes, o); });
  // A failed water-mark reset would make this read whatever ran before;
  // keep the field absent rather than wrong.
  out.peak_mb = out.peak_valid ? benchrss::peak_rss_mb() : 0.0;
  return out;
}

/// Sampled accuracy vs centralized Dijkstra: `finite` counts pairs the
/// oracle answers at all, `exact` the answered pairs matching ground truth.
/// At bench-scale h the oracle is exact inside each ball and an upper
/// bound beyond it (the skeleton legs add slack when h ≪ the Õ(√n)
/// w.h.p. budget) — honest partial precision, never an underestimate.
struct sampled_accuracy {
  u64 sampled = 0;
  u64 finite = 0;
  u64 exact = 0;
};

sampled_accuracy sample_rows(const graph& g, const dist_labels& lab,
                             u32 rows, u64 seed) {
  sampled_accuracy acc;
  rng r(seed);
  std::vector<u64> row;
  for (u32 i = 0; i < rows; ++i) {
    const u32 s = static_cast<u32>(r.next_below(g.num_nodes()));
    lab.row_into(s, row);
    const std::vector<u64> ref = dijkstra(g, s);
    for (u32 v = 0; v < g.num_nodes(); ++v) {
      ++acc.sampled;
      if (row[v] < kInfDist) ++acc.finite;
      if (row[v] == ref[v]) ++acc.exact;
    }
  }
  return acc;
}

/// ns/query over uniformly sampled pairs (checksummed so the loop is not
/// optimized away); also returns queries/sec via out-params for the JSON.
double query_ns(const dist_labels& lab, u32 queries, u64 seed,
                double* per_sec) {
  rng r(seed);
  std::vector<std::pair<u32, u32>> pairs(queries);
  for (auto& [u, v] : pairs) {
    u = static_cast<u32>(r.next_below(lab.n));
    v = static_cast<u32>(r.next_below(lab.n));
  }
  u64 sink = 0;
  const double ms = timed_ms([&] {
    for (const auto& [u, v] : pairs) sink += lab.query(u, v) & 0xffff;
  });
  volatile u64 keep = sink;  // the queries must not be optimized away
  (void)keep;
  *per_sec = queries / (ms / 1000.0);
  return ms * 1e6 / queries;
}

}  // namespace

int main(int argc, char** argv) {
  bench_recorder rec(argc, argv, "bench_apsp");
  u32 n_large = 100000;
  for (int i = 1; i < argc && argv[i][0] != '-'; ++i)
    n_large = static_cast<u32>(std::atoi(argv[i]));
  print_section(
      "E2 / Theorem 1.1 — exact APSP: this paper (sqrt(n)) vs AHKSS20 "
      "baseline (n^{2/3})");
  std::cout << "graphs: weighted Erdős–Rényi (avg deg 6, W=16); "
               "'wrong' counts mismatches vs centralized Dijkstra.\n";

  table t({"n", "rounds(Thm1.1)", "wrong", "|V_S|", "rounds(AHKSS20)",
           "wrong_b", "|V_S|_b", "labels_b", "speedup"});
  std::vector<double> ns, new_rounds, base_rounds;
  for (u32 n : {128, 256, 512, 1024, 2048}) {
    const graph g = gen::erdos_renyi_connected(n, 6.0, 16, 1000 + n);
    apsp_result a;
    apsp_baseline_result b;
    const double ms_a =
        timed_ms([&] { a = hybrid_apsp_exact(g, model_config{}, 7 + n); });
    const double ms_b =
        timed_ms([&] { b = baseline_apsp_ahkss(g, model_config{}, 9 + n); });
    rec.add("thm11_scaling", {{"n", n},
                              {"rounds", a.metrics.rounds},
                              {"messages", a.metrics.global_messages},
                              {"wall_ms", ms_a}});
    rec.add("ahkss_baseline", {{"n", n},
                               {"rounds", b.metrics.rounds},
                               {"messages", b.metrics.global_messages},
                               {"wall_ms", ms_b}});
    ns.push_back(n);
    new_rounds.push_back(static_cast<double>(a.metrics.rounds));
    base_rounds.push_back(static_cast<double>(b.metrics.rounds));
    t.add_row({table::integer(n),
               table::integer(static_cast<long long>(a.metrics.rounds)),
               table::integer(static_cast<long long>(count_wrong(a.dist, g))),
               table::integer(a.skeleton_size),
               table::integer(static_cast<long long>(b.metrics.rounds)),
               table::integer(static_cast<long long>(count_wrong(b.dist, g))),
               table::integer(b.skeleton_size),
               table::integer(static_cast<long long>(b.labels_broadcast)),
               table::num(static_cast<double>(b.metrics.rounds) /
                              static_cast<double>(a.metrics.rounds),
                          2)});
  }
  t.print();

  const linear_fit fn = loglog_exponent(ns, new_rounds);
  const linear_fit fb = loglog_exponent(ns, base_rounds);
  std::cout << "\nraw fitted exponents (polylog factors still inside):\n"
            << "  Theorem 1.1 : n^" << table::num(fn.slope, 3)
            << "  (claim 0.5 — also the Omega~(sqrt n) lower bound)  r2="
            << table::num(fn.r2, 3) << "\n  AHKSS20     : n^"
            << table::num(fb.slope, 3)
            << "  (claim 0.667)  r2=" << table::num(fb.r2, 3)
            << "\nthe crossover in the speedup column (baseline wins small "
               "n, Theorem 1.1 wins from n~1024 on) is the paper's "
               "improvement.\n";

  print_section("E2b — APSP phase breakdown at n=1024 (Theorem 1.1)");
  {
    const graph g = gen::erdos_renyi_connected(1024, 6.0, 16, 2024);
    const apsp_result a = hybrid_apsp_exact(g, model_config{}, 5);
    table t2({"phase", "rounds", "global msgs"});
    for (const auto& ph : a.metrics.phases)
      t2.add_row({ph.name, table::integer(static_cast<long long>(ph.rounds)),
                  table::integer(static_cast<long long>(ph.global_messages))});
    t2.print();
    std::cout << "max global receive load/round: "
              << a.metrics.max_global_recv_per_round << " (gamma = "
              << 4 * id_bits(1024) << "; Lemma D.2 predicts O(log n))\n";
  }

  print_section("E2c — exactness holds on structured graphs (n=576)");
  {
    table t3({"family", "rounds", "wrong", "|V_S|"});
    const graph grid = gen::grid(24, 24, 16, 3);
    const apsp_result ag = hybrid_apsp_exact(grid, model_config{}, 11);
    t3.add_row({"grid 24x24",
                table::integer(static_cast<long long>(ag.metrics.rounds)),
                table::integer(static_cast<long long>(count_wrong(ag.dist, grid))),
                table::integer(ag.skeleton_size)});
    const graph tor = gen::random_geometric(576, 7.0, 16, 5);
    const apsp_result at = hybrid_apsp_exact(tor, model_config{}, 13);
    t3.add_row({"geometric",
                table::integer(static_cast<long long>(at.metrics.rounds)),
                table::integer(static_cast<long long>(count_wrong(at.dist, tor))),
                table::integer(at.skeleton_size)});
    t3.print();
  }

  print_section("E2d — why hybrid: LOCAL-only needs Theta(D) rounds, "
                "NCC-only needs Omega~(n) (paper Section 1)");
  std::cout << "large-diameter local graphs (paths): LOCAL flooding costs "
               "D rounds, the NCC global mode alone needs ~n/log n rounds "
               "to move Omega(n) bits per node; HYBRID APSP beats both.\n";
  {
    table t4({"n", "D", "LOCAL-only rounds (=D)", "NCC-only LB (n/log n)",
              "HYBRID rounds (Thm 1.1)", "wrong"});
    std::vector<double> pn, pr;
    for (u32 n : {1024u, 2048u}) {
      const graph g = gen::path(n, 1, 21 + n);
      const apsp_result a = hybrid_apsp_exact(g, model_config{}, 31 + n);
      pn.push_back(n);
      pr.push_back(static_cast<double>(a.metrics.rounds));
      t4.add_row(
          {table::integer(n), table::integer(n - 1), table::integer(n - 1),
           table::integer(static_cast<long long>(n / id_bits(n))),
           table::integer(static_cast<long long>(a.metrics.rounds)),
           table::integer(static_cast<long long>(count_wrong(a.dist, g)))});
    }
    t4.print();
    // Extrapolate the measured power law to the LOCAL = Θ(n) crossover.
    const linear_fit pf = loglog_exponent(pn, pr);
    double cross = pn.back();
    while (std::exp(pf.intercept) * std::pow(cross, pf.slope) > cross - 1 &&
           cross < 1e9)
      cross *= 1.1;
    std::cout << "\nHYBRID grows as n^" << table::num(pf.slope, 2)
              << " on paths vs LOCAL's n^1; measured-curve crossover at "
                 "n ~ "
              << table::num(cross, 0)
              << " (past feasible simulation; the exponent gap is the "
                 "paper's point — and NCC-only can never do APSP in o(n))\n";
  }

  print_section(
      "E2e — distance-label oracle: APSP + diameter estimate without the "
      "n^2 matrices (core/dist_oracle.hpp)");
  // Small-instance differential: label-only storage produces labels whose
  // materialization is bit-identical (distances, next hops, metrics) to the
  // dense-storage run — the same guard the oracle test suite locks in.
  {
    const graph g = gen::erdos_renyi_connected(2048, 4.0, 8, 77);
    sim_options dense_o;
    dense_o.storage = result_storage::kDense;
    sim_options label_o;
    label_o.storage = result_storage::kLabels;
    apsp_result dense;
    apsp_result label;
    const double ms_dense = timed_ms(
        [&] { dense = hybrid_apsp_exact(g, model_config{}, 41, true, dense_o); });
    const double ms_label = timed_ms(
        [&] { label = hybrid_apsp_exact(g, model_config{}, 41, true, label_o); });
    round_executor ex;
    const auto dist = label.labels.materialize(ex);
    HYB_INVARIANT(dist == dense.dist,
                  "label materialization diverged from the dense storage");
    HYB_INVARIANT(label.labels.materialize_next_hops(dist, ex) == dense.next_hop,
                  "label next hops diverged from the dense storage");
    HYB_INVARIANT(label.metrics.rounds == dense.metrics.rounds &&
                      label.metrics.global_messages == dense.metrics.global_messages,
                  "storage mode changed charged rounds/messages");
    std::cout << "differential n=2048: label materialization bit-identical "
                 "to dense storage (dense "
              << table::num(ms_dense, 0) << " ms, labels "
              << table::num(ms_label, 0) << " ms)\n\n";
    rec.add("oracle_differential", {{"n", 2048},
                                    {"rounds", dense.metrics.rounds},
                                    {"messages", dense.metrics.global_messages},
                                    {"wall_ms", ms_dense},
                                    {"label_wall_ms", ms_label}});
  }

  // Label-mode scenarios on bounded-degree graphs (deg <= 3, unweighted):
  // n = 8192 with h = 8 (full gateway coverage — the exact single-level
  // regime) and the n_large = 10^5 scale run through the two-level
  // hierarchy (dense p₁ = 0.08 skeleton for coverage at h = 5 — the short
  // ball radius is what keeps the ball CSR and the exploration maps small —
  // super-pair table for memory) under a 2 GB peak-RSS budget.
  // 'finite'/'exact' are sampled-row counts vs Dijkstra; covered/finite
  // are gated.
  table t5({"scenario", "n", "h", "rounds", "|labels|", "covered", "finite",
            "exact", "D_est", "D_exact", "D_true", "ns/query", "wall ms",
            "peak MB"});
  {
    const u32 n_mid = 8192;
    const graph g = gen::bounded_degree(n_mid, 3, 1, 42);
    oracle_run run = run_oracle(g, 8, 7, /*routes=*/true);
    const dist_labels& lab = run.res.labels;
    const label_diameter_estimate est = diameter_estimate_from_labels(lab);
    const sampled_accuracy acc = sample_rows(g, lab, 16, 5);
    double qps = 0;
    const double ns = query_ns(lab, 200000, 9, &qps);
    double nhps = 0;
    rng r(11);
    u64 nh_sink = 0;
    const double nh_ms = timed_ms([&] {
      for (u32 q = 0; q < 20000; ++q) {
        const u32 u = static_cast<u32>(r.next_below(n_mid));
        const u32 v = static_cast<u32>(r.next_below(n_mid));
        nh_sink += lab.next_hop(u, v);
      }
    });
    volatile u64 keep = nh_sink;
    (void)keep;
    nhps = 20000 / (nh_ms / 1000.0);
    // Skip pairs the h = 8 skeleton cannot answer (a handful when the
    // skeleton graph is not fully connected at this h) — the finite/exact
    // columns quantify them.
    const u64 d_exact = labels_exact_diameter(lab, /*require_connected=*/false);
    const u64 d_true = weighted_diameter(g);
    t5.add_row({"label_oracle", table::integer(n_mid), table::integer(lab.h),
                table::integer(static_cast<long long>(run.res.metrics.rounds)),
                table::integer(static_cast<long long>(lab.label_entries())),
                table::integer(est.covered),
                table::integer(static_cast<long long>(acc.finite)),
                table::integer(static_cast<long long>(acc.exact)),
                table::integer(static_cast<long long>(est.estimate)),
                table::integer(static_cast<long long>(d_exact)),
                table::integer(static_cast<long long>(d_true)),
                table::num(ns, 0), table::num(run.wall_ms, 0),
                run.peak_valid ? table::num(run.peak_mb, 0) : "-"});
    std::vector<bench_field> fields = {
        {"n", n_mid},
        {"h", lab.h},
        {"rounds", run.res.metrics.rounds},
        {"messages", run.res.metrics.global_messages},
        {"label_entries", lab.label_entries()},
        {"covered", est.covered},
        {"sampled", acc.sampled},
        {"finite", acc.finite},
        {"exact", acc.exact},
        {"diam_estimate", est.estimate},
        {"diam_exact", d_exact},
        {"diam_true", d_true},
        {"wall_ms", run.wall_ms},
        {"queries_per_sec", qps},
        {"next_hops_per_sec", nhps}};
    if (run.peak_valid) fields.push_back({"peak_mem_mb", run.peak_mb});
    rec.add("label_oracle", std::move(fields));
  }
  {
    // The label_oracle inputs at n = 4096 with token routing simulated
    // message by message (helper-set cluster floods included) instead of
    // charged: the exact path's memory bar.
    const u32 n_exact = 4096;
    const graph g = gen::bounded_degree(n_exact, 3, 1, 42);
    const oracle_run run =
        run_oracle(g, 8, 7, /*routes=*/true, {.charged_routing = false});
    t5.add_row({"exact_routing", table::integer(n_exact),
                table::integer(run.res.labels.h),
                table::integer(static_cast<long long>(run.res.metrics.rounds)),
                table::integer(
                    static_cast<long long>(run.res.labels.label_entries())),
                "-", "-", "-", "-", "-", "-", "-", table::num(run.wall_ms, 0),
                run.peak_valid ? table::num(run.peak_mb, 0) : "-"});
    std::vector<bench_field> fields = {
        {"n", n_exact},
        {"h", run.res.labels.h},
        {"rounds", run.res.metrics.rounds},
        {"messages", run.res.metrics.global_messages},
        {"wall_ms", run.wall_ms}};
    if (run.peak_valid) fields.push_back({"peak_mem_mb", run.peak_mb});
    rec.add("exact_routing", std::move(fields));
    if (run.peak_valid)
      HYB_INVARIANT(run.peak_mb < 512.0,
                    "exact token routing exceeded the 512 MB peak-RSS budget");
  }
  if (n_large > 0) {
    const graph g = gen::bounded_degree(n_large, 3, 1, 42);
    // Two-level hierarchy: a denser level-1 skeleton (p₁ = 0.08, so h = 5
    // covers essentially every node — p₁·|ball_5| ≈ 7.5 gateways each)
    // whose n_s × n table would be far too large, with the quadratic table
    // pushed down to a p₂ = 0.05 super-skeleton (n_s2 ≈ 400) — queries
    // compose through both gateway layers (ARCHITECTURE.md, "two-level
    // hierarchy").
    oracle_run run = run_oracle(
        g, 5, 13, /*routes=*/false,
        {.p = 0.08, .two_level = true, .p2 = 0.05, .h1 = 3});
    const dist_labels& lab = run.res.labels;
    const label_diameter_estimate est = diameter_estimate_from_labels(lab);
    const sampled_accuracy acc = sample_rows(g, lab, 8, 5);
    double qps = 0;
    const double ns = query_ns(lab, 200000, 9, &qps);
    t5.add_row({"label_large", table::integer(n_large), table::integer(lab.h),
                table::integer(static_cast<long long>(run.res.metrics.rounds)),
                table::integer(static_cast<long long>(lab.label_entries())),
                table::integer(est.covered),
                table::integer(static_cast<long long>(acc.finite)),
                table::integer(static_cast<long long>(acc.exact)),
                table::integer(static_cast<long long>(est.estimate)), "-", "-",
                table::num(ns, 0), table::num(run.wall_ms, 0),
                run.peak_valid ? table::num(run.peak_mb, 0) : "-"});
    std::vector<bench_field> fields = {
        {"n", n_large},
        {"h", lab.h},
        {"n_s", lab.n_s},
        {"n_s2", lab.n_s2},
        {"rounds", run.res.metrics.rounds},
        {"messages", run.res.metrics.global_messages},
        {"label_entries", lab.label_entries()},
        {"covered", est.covered},
        {"sampled", acc.sampled},
        {"finite", acc.finite},
        {"exact", acc.exact},
        {"diam_estimate", est.estimate},
        {"wall_ms", run.wall_ms},
        {"queries_per_sec", qps}};
    if (run.peak_valid) fields.push_back({"peak_mem_mb", run.peak_mb});
    rec.add("label_large", std::move(fields));
    // The acceptance bars at n = 10^5: sampled rows answer (near-)all pairs
    // finitely, the skeleton reaches (near-)all nodes, and the whole APSP +
    // diameter-estimate pipeline stays under 2 GB peak RSS (vs ~80 GB for
    // the dense matrices alone). covered/finite are deterministic and gated
    // in compare_bench_json.py.
    HYB_INVARIANT(acc.finite * 100 >= acc.sampled * 99,
                  "two-level oracle answered < 99% of sampled pairs");
    HYB_INVARIANT(u64{est.covered} * 100 >= u64{n_large} * 99,
                  "skeleton gateways cover < 99% of nodes");
    if (run.peak_valid)
      HYB_INVARIANT(run.peak_mb < 2048.0,
                    "label-mode APSP exceeded the 2 GB peak-RSS budget");
  }
  t5.print();
  std::cout << "\nthe dense n^2 matrices at n = " << n_large << " would need ~"
            << u64{n_large} * n_large * 8 / 1000000000
            << " GB (dist) before next hops; the oracle's labels answer "
               "query/next_hop directly.\n";

  return rec.write() ? 0 : 1;
}
