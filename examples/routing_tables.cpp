// Distributed IP-routing demo: APSP with next-hop tables (paper Section 1:
// "learning the topology of the local network … can be used for efficient
// IP-routing").
//
// After one run of Theorem 1.1's APSP (plus one local round of
// distance-vector exchange), every node owns a routing table. The demo then
// forwards sample packets hop by hop — each step consults only the current
// node's table — and verifies the realized path length equals the exact
// distance.
//
//   ./examples/routing_tables [n] [seed]
#include <iostream>

#include "cli_args.hpp"
#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrid;
  const cli::args args(argc, argv, "[n>=2] [seed]", 2);
  const u32 n = static_cast<u32>(args.get(1, 200, 2, cli::kMaxNodes));
  const u64 seed = args.get(2, 9);

  std::cout << "Routing-table demo (Theorem 1.1 + one distance-vector "
               "round)\n";
  const graph g = gen::random_geometric(n, 7.0, 9, seed);
  const apsp_result res =
      hybrid_apsp_exact(g, model_config{}, seed, /*build_routes=*/true);
  std::cout << "network: n = " << n << ", m = " << g.num_edges()
            << "; tables built in " << res.metrics.rounds
            << " simulated rounds\n\n";

  rng r(derive_seed(seed, 4));
  table t({"packet", "path", "weight", "exact d(u,v)"});
  u32 ok = 0, total = 0;
  for (u32 q = 0; q < 5; ++q) {
    const u32 src = static_cast<u32>(r.next_below(n));
    const u32 dst = static_cast<u32>(r.next_below(n));
    std::string path = std::to_string(src);
    u64 weight = 0;
    u32 cur = src;
    u32 hops = 0;
    while (cur != dst && hops++ < n) {
      const u32 nh = res.next_hop[cur][dst];
      for (const edge& e : g.neighbors(cur))
        if (e.to == nh) {
          weight += e.weight;
          break;
        }
      cur = nh;
      if (path.size() < 48) path += "->" + std::to_string(cur);
    }
    if (path.size() >= 48) path += "->...";
    ++total;
    if (cur == dst && weight == res.dist[src][dst]) ++ok;
    t.add_row({std::to_string(src) + " => " + std::to_string(dst), path,
               table::integer(static_cast<long long>(weight)),
               table::integer(static_cast<long long>(res.dist[src][dst]))});
  }
  t.print();

  // Exhaustive verification over all pairs.
  u64 mismatches = 0;
  for (u32 u = 0; u < n; ++u)
    for (u32 v = 0; v < n; ++v) {
      u32 cur = u;
      u64 w = 0;
      u32 hops = 0;
      while (cur != v && hops++ <= n) {
        const u32 nh = res.next_hop[cur][v];
        for (const edge& e : g.neighbors(cur))
          if (e.to == nh) {
            w += e.weight;
            break;
          }
        cur = nh;
      }
      if (cur != v || w != res.dist[u][v]) ++mismatches;
    }
  std::cout << "\nexhaustive check: " << (static_cast<u64>(n) * n - mismatches)
            << " / " << static_cast<u64>(n) * n
            << " routed paths realize the exact distance\n";
  return (ok == total && mismatches == 0) ? 0 : 1;
}
