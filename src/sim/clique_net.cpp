#include "sim/clique_net.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hybrid {

clique_net::clique_net(u32 n, sim_options opts)
    // Initial slab width 16 (clamped to n): small enough that sparse
    // workloads never pay n² memory, large enough that the unit-test
    // cliques (n ≤ 16) start overflow-free; heavier senders trigger one
    // re-stride at the next barrier and are slab-resident from then on.
    : n_(n), exec_(opts), mail_(n, n, 16), faults_(opts.faults) {
  HYB_REQUIRE(n >= 2, "clique needs at least two nodes");
  HYB_REQUIRE(faults_.drop_global >= 0.0 && faults_.drop_global <= 1.0,
              "drop probability must lie in [0, 1]");
  for (const crash_event& c : faults_.crashes) {
    HYB_REQUIRE(c.node < n, "crash event node out of range");
    HYB_REQUIRE(c.down_round < c.up_round, "crash interval must be nonempty");
  }
  fault_on_ = faults_.global_faulty();
  has_crashes_ = !faults_.crashes.empty();
  if (fault_on_) {
    // No run seed on the clique simulator: the drop stream derives from
    // fault_seed alone (documented in clique_net.hpp).
    fault_base_ = fault_plane_base(0, faults_.fault_seed, kFaultPlaneClique);
    drop_filter_ = [this](u32 src, u32 idx, const clique_msg& m) {
      return drop(src, idx, m);
    };
  }
  if (has_crashes_) {
    down_cur_.assign(n, 0);
    down_next_.assign(n, 0);
    fill_down(down_cur_, 0);
  }
}

void clique_net::fill_down(std::vector<u8>& down, u64 round) const {
  std::fill(down.begin(), down.end(), 0);
  for (const crash_event& c : faults_.crashes)
    if (round >= c.down_round && round < c.up_round) down[c.node] = 1;
}

bool clique_net::drop(u32 src, u32 idx, const clique_msg& m) const {
  // Runs inside mail_.deliver() while advance_round closes round rounds_-1:
  // down_cur_ is the send round, down_next_ the delivery round.
  if (has_crashes_ && (down_cur_[src] || down_next_[m.dst])) return true;
  if (faults_.drop_global <= 0.0) return false;
  if (faults_.mode == fault_mode::kAdversarialPrefix)
    return idx < adversarial_prefix_count(faults_.drop_global,
                                          mail_.sends(src));
  return fault_roll(fault_draw(fault_base_, src, rounds_ - 1, idx),
                    faults_.drop_global);
}

void clique_net::send(const clique_msg& m) {
  HYB_REQUIRE(m.src < n_ && m.dst < n_, "endpoint out of range");
  HYB_INVARIANT(mail_.sends(m.src) < n_,
                "node exceeded the n-messages-per-round clique cap");
  mail_.push(m);
}

void clique_net::advance_round() {
  ++rounds_;
  if (has_crashes_) fill_down(down_next_, rounds_);
  mail_.deliver(exec_, fault_on_ ? &drop_filter_ : nullptr);
  if (has_crashes_) down_cur_.swap(down_next_);
  total_msgs_ += mail_.delivered_last_round();
  total_sent_ += mail_.sent_last_round();
  total_dropped_ += mail_.dropped_last_round();
  max_recv_ = std::max(max_recv_, mail_.max_inbox_last_round());
}

}  // namespace hybrid
