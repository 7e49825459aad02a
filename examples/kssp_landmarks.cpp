// Landmark-based distance oracle via k-SSP (paper Theorem 1.2).
//
// A standard application of k-source shortest paths: pick k = n^{1/3}
// landmark nodes, let every node learn its (approximate) distance to every
// landmark (one k-SSP run, Õ(n^{1/3}/ε) rounds), and answer arbitrary
// point-to-point distance queries locally as
//     d̂(u, v) = min_l  d̃(u, l) + d̃(l, v),
// a classic triangle-inequality oracle. The demo measures the oracle's
// stretch distribution over random queries.
//
//   ./examples/kssp_landmarks [n] [seed]
#include <algorithm>
#include <cmath>
#include <iostream>

#include "cli_args.hpp"
#include "core/kssp_framework.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrid;
  // n >= 4: the demo samples max(4, n^{1/3}) landmarks.
  const cli::args args(argc, argv, "[n>=4] [seed]", 2);
  const u32 n = static_cast<u32>(args.get(1, 512, 4, cli::kMaxNodes));
  const u64 seed = args.get(2, 5);

  std::cout << "Landmark distance oracle demo (k-SSP, Theorem 1.2)\n";
  const graph g = gen::random_geometric(n, 8.0, 8, seed);
  const u32 k = std::max<u32>(4, static_cast<u32>(std::cbrt(n)));
  rng r(derive_seed(seed, 2));
  const std::vector<u32> landmarks = r.sample_without_replacement(n, k);
  std::cout << "geometric network: n = " << n << ", m = " << g.num_edges()
            << ", landmarks k = " << k << " (= n^{1/3})\n";

  const auto alg = make_clique_kssp_1eps(0.25, injection::none);
  const kssp_result res = hybrid_kssp(g, model_config{}, seed, landmarks, alg);
  std::cout << "k-SSP finished in " << res.metrics.rounds
            << " simulated HYBRID rounds (|V_S| = " << res.skeleton_size
            << ", h = " << res.h << ")\n\n";

  // Answer random queries with the oracle; compare against Dijkstra.
  rng q(derive_seed(seed, 3));
  const u32 queries = 2000;
  std::vector<double> stretches;
  for (u32 i = 0; i < queries; ++i) {
    const u32 u = static_cast<u32>(q.next_below(n));
    const auto ref = dijkstra(g, u);
    const u32 v = static_cast<u32>(q.next_below(n));
    if (u == v || ref[v] == 0) continue;
    u64 est = kInfDist;
    for (u32 l = 0; l < k; ++l)
      est = std::min(est, res.dist[l][u] + res.dist[l][v]);
    stretches.push_back(static_cast<double>(est) /
                        static_cast<double>(ref[v]));
  }
  std::sort(stretches.begin(), stretches.end());
  auto pct = [&](double p) {
    return stretches[static_cast<std::size_t>(p * (stretches.size() - 1))];
  };
  table t({"metric", "value"});
  t.add_row({"queries answered", table::integer(static_cast<long long>(
                                      stretches.size()))});
  t.add_row({"median stretch", table::num(pct(0.5), 3)});
  t.add_row({"p90 stretch", table::num(pct(0.9), 3)});
  t.add_row({"p99 stretch", table::num(pct(0.99), 3)});
  t.add_row({"max stretch", table::num(stretches.back(), 3)});
  t.print();
  std::cout << "\n(oracle stretch ≥ 1 always — estimates never undercut "
               "true distances; landmark oracles trade one k-SSP run for "
               "O(1)-time local queries afterwards)\n";
  return 0;
}
