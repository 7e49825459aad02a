// Quickstart: build a small hybrid network, run the paper's headline
// algorithm (exact APSP in Õ(√n) rounds, Theorem 1.1), and check the result
// against a centralized Dijkstra.
//
//   ./examples/quickstart [n] [seed]
#include <iostream>

#include "cli_args.hpp"
#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrid;
  const cli::args args(argc, argv, "[n>=2] [seed]", 2);
  const u32 n = static_cast<u32>(args.get(1, 256, 2, cli::kMaxNodes));
  const u64 seed = args.get(2, 1);

  std::cout << "HYBRID model quickstart — exact APSP (Theorem 1.1)\n";
  const graph g = gen::erdos_renyi_connected(n, 6.0, /*max_weight=*/16, seed);
  std::cout << "local graph: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " (weighted Erdős–Rényi)\n";

  const apsp_result res = hybrid_apsp_exact(g, model_config{}, seed);

  // Verify against centralized ground truth.
  const auto ref = apsp_reference(g);
  u64 wrong = 0;
  for (u32 u = 0; u < n; ++u)
    for (u32 v = 0; v < n; ++v)
      if (res.dist[u][v] != ref[u][v]) ++wrong;

  std::cout << "skeleton |V_S|=" << res.skeleton_size << ", h=" << res.h
            << "\n";
  std::cout << "simulated HYBRID rounds: " << res.metrics.rounds << "\n";
  std::cout << "global messages: " << res.metrics.global_messages
            << ", max receive load/round: "
            << res.metrics.max_global_recv_per_round << "\n";
  std::cout << "distance entries wrong vs Dijkstra: " << wrong << " of "
            << static_cast<u64>(n) * n << "\n";

  table t({"phase", "rounds", "global msgs"});
  for (const auto& ph : res.metrics.phases)
    t.add_row({ph.name, table::integer(static_cast<long long>(ph.rounds)),
               table::integer(static_cast<long long>(ph.global_messages))});
  t.print();
  return wrong == 0 ? 0 : 1;
}
