// Token routing walkthrough (paper Section 2): a set of sampled senders
// must deliver point-to-point tokens to sampled receivers. The demo prints
// the helper-set structure (Definition 2.1) the protocol builds, then routes
// a batch and reports the phase costs and the Lemma D.2 receive-load check.
//
//   ./examples/token_routing_demo [n] [seed]
#include <algorithm>
#include <iostream>

#include "cli_args.hpp"
#include "graph/generators.hpp"
#include "proto/token_routing.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hybrid;
  const cli::args args(argc, argv, "[n>=2] [seed]", 2);
  const u32 n = static_cast<u32>(args.get(1, 512, 2, cli::kMaxNodes));
  const u64 seed = args.get(2, 7);

  std::cout << "Token routing demo (Theorem 2.2)\n";
  const graph g = gen::erdos_renyi_connected(n, 6.0, 1, seed);

  // Sample senders at rate 1/8 and receivers at rate 1/16.
  rng r(derive_seed(seed, 1));
  routing_spec spec;
  for (u32 v = 0; v < n; ++v) {
    if (r.next_bool(1.0 / 8)) spec.senders.push_back(v);
    if (r.next_bool(1.0 / 16)) spec.receivers.push_back(v);
  }
  spec.p_s = 1.0 / 8;
  spec.p_r = 1.0 / 16;
  spec.k_s = spec.receivers.size();
  spec.k_r = spec.senders.size();
  std::cout << "|S| = " << spec.senders.size()
            << ", |R| = " << spec.receivers.size()
            << ", one token per (sender, receiver) pair => K = "
            << spec.senders.size() * spec.receivers.size() << "\n";

  hybrid_net net(g, model_config{}, seed);
  net.begin_phase("context (helper sets + hash seed)");
  routing_context ctx = build_routing_context(net, spec);

  std::cout << "\nhelper-set structure (Definition 2.1):\n";
  std::cout << "  sender side:   mu_S = " << ctx.mu_s
            << (ctx.sender_helpers.trivial() ? " (trivial, H_w = {w})" : "")
            << "\n";
  std::cout << "  receiver side: mu_R = " << ctx.mu_r << "\n";
  if (!ctx.receiver_helpers.trivial()) {
    std::size_t min_h = ~std::size_t{0}, max_h = 0;
    for (const auto& hs : ctx.receiver_helpers.helpers_of) {
      min_h = std::min(min_h, hs.size());
      max_h = std::max(max_h, hs.size());
    }
    std::size_t max_roles = 0;
    for (const auto& roles : ctx.receiver_helpers.helps)
      max_roles = std::max(max_roles, roles.size());
    std::cout << "  receiver helper sets: size range [" << min_h << ", "
              << max_h << "] (>= mu_R = " << ctx.mu_r
              << " w.h.p.), max sets one node serves: " << max_roles
              << " (Õ(1))\n";
    std::cout << "  clusters: " << ctx.receiver_helpers.clusters.rulers.size()
              << " around the ruling set, max radius "
              << ctx.receiver_helpers.clusters.max_radius << " hops\n";
  }

  // Build and route the batch.
  net.begin_phase("routing");
  std::vector<std::vector<routed_token>> batch(spec.senders.size());
  u64 expected = 0;
  for (u32 i = 0; i < spec.senders.size(); ++i)
    for (u32 j = 0; j < spec.receivers.size(); ++j) {
      batch[i].push_back({spec.senders[i], spec.receivers[j], 0,
                          (u64{i} << 32) | j});
      ++expected;
    }
  const auto delivered = route_tokens(net, ctx, batch);
  u64 got = 0;
  for (const auto& d : delivered) got += d.size();

  const run_metrics m = net.snapshot();
  std::cout << "\ndelivered " << got << " / " << expected << " tokens\n";
  table t({"phase", "rounds", "global msgs"});
  for (const auto& ph : m.phases)
    t.add_row({ph.name, table::integer(static_cast<long long>(ph.rounds)),
               table::integer(static_cast<long long>(ph.global_messages))});
  t.print();
  std::cout << "max receive load/round: " << m.max_global_recv_per_round
            << " (cap gamma = " << net.global_cap()
            << "; Lemma D.2 promises O(log n) w.h.p.)\n";
  return got == expected ? 0 : 1;
}
