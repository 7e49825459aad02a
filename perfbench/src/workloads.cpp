#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/apsp.hpp"
#include "core/oracle_store.hpp"
#include "core/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "replay.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hybrid;

namespace {

/// Set-ups per end-to-end run: at least kMinSetupReps, and more until they
/// add up to kMinSetupSeconds, so that a sub-millisecond set-up still gives
/// a steady median. setup_s reports the median.
constexpr u32 kMinSetupReps = 7;
constexpr double kMinSetupSeconds = 0.5;
/// Seed of the library's own randomness (skeleton sampling, hashing, fault
/// draws). Fixed: the library receives only the inputs generated from the
/// workload seed, so every workload seed runs the same skeleton size.
constexpr u64 kPipelineSeed = 7;
/// The measured part of an end-to-end run is a sequence of rounds, each one
/// pipeline call followed by a serve slice of this length, repeated until
/// --seconds have passed; every metric is the median over rounds. Pipeline
/// and serving thus sample the same stretches of host load, and a burst of
/// load from elsewhere on the host moves one round, not the median.
constexpr double kSliceSeconds = 1.0;
/// The traced run serves for this share of --seconds at least.
constexpr double kMinServeShare = 0.25;

// ---------------------------------------------------------------------------
// Serving: a seeded closed loop of requests per client thread.

enum class op : u8 { query, next_hop, route };
constexpr std::size_t kOps = 3;

struct request {
  op kind;
  u32 u;
  u32 v;
  u64 expect;
};

/// What a request is answered from: the mmap-loaded label oracle, or (for
/// SSSP, which has no label store) the result row d(source, ·) over its
/// graph.
struct serve_target {
  const label_view* view = nullptr;
  const std::vector<u64>* row = nullptr;
  const graph* g = nullptr;
};

/// Route = greedy forwarding along next hops; the answer is the walked
/// weight. The remaining distance strictly decreases at every hop, so the
/// walk ends; an unreachable target answers kInfDist.
u64 walk_route(const label_view& v, u32 from, u32 to, u64& hops) {
  u64 weight = 0;
  for (u32 at = from; at != to;) {
    const u32 nh = v.next_hop(at, to);
    if (nh == ~u32{0}) return kInfDist;
    for (const edge& e : v.topo->neighbors(at))
      if (e.to == nh) {
        weight += e.weight;
        break;
      }
    at = nh;
    ++hops;
  }
  return weight;
}

/// SSSP route: from `from` back to the source along the shortest-path tree
/// the distance row implies (the smallest-ID neighbor that realizes the
/// row entry); the answer is the walked weight. Weights are ≥ 1, so the
/// row strictly decreases along the walk and it ends.
u64 walk_row(const std::vector<u64>& row, const graph& g, u32 from,
             u64& hops) {
  u64 weight = 0;
  for (u32 at = from; row[at] != 0;) {
    u32 nh = ~u32{0};
    u64 w = 0;
    for (const edge& e : g.neighbors(at))
      if (row[e.to] + e.weight == row[at] && e.to < nh) {
        nh = e.to;
        w = e.weight;
      }
    if (nh == ~u32{0}) return kInfDist;
    weight += w;
    at = nh;
    ++hops;
  }
  return weight;
}

u64 answer(const serve_target& t, const request& q, u64& hops) {
  if (t.row != nullptr) return walk_row(*t.row, *t.g, q.v, hops);
  switch (q.kind) {
    case op::query:
      return t.view->query(q.u, q.v);
    case op::next_hop:
      return t.view->next_hop(q.u, q.v);
    case op::route:
      return walk_route(*t.view, q.u, q.v, hops);
  }
  return 0;
}

struct serve_stats {
  u64 requests = 0;
  u64 failed = 0;
  double wall_s = 0;
  latency_hist all;
  std::array<latency_hist, kOps> by_op;
  u64 route_hops = 0;
  u64 routes = 0;

  void merge(const serve_stats& o) {
    requests += o.requests;
    failed += o.failed;
    all.merge(o.all);
    for (std::size_t i = 0; i < kOps; ++i) by_op[i].merge(o.by_op[i]);
    route_hops += o.route_hops;
    routes += o.routes;
  }
};

/// One client per ring, each sending its next request only when the last
/// one returned, until `budget_s` has passed. Every answer is compared
/// with the precomputed expectation outside the timed window.
serve_stats serve_leg(const serve_target& t,
                      const std::vector<std::vector<request>>& rings,
                      double budget_s) {
  std::vector<serve_stats> per(rings.size());
  std::vector<std::exception_ptr> errors(rings.size());
  const clock::time_point t0 = clock::now();
  const clock::time_point deadline =
      t0 + std::chrono::duration_cast<clock::duration>(
               std::chrono::duration<double>(budget_s));
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < rings.size(); ++c)
      clients.emplace_back([&, c] {
        try {
          serve_stats& st = per[c];
          const std::vector<request>& ring = rings[c];
          for (std::size_t i = 0;; i = i + 1 == ring.size() ? 0 : i + 1) {
            const request& q = ring[i];
            u64 hops = 0;
            const clock::time_point a = clock::now();
            const u64 got = answer(t, q, hops);
            const clock::time_point b = clock::now();
            const u64 ns = static_cast<u64>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                    .count());
            st.all.add(ns);
            st.by_op[static_cast<std::size_t>(q.kind)].add(ns);
            ++st.requests;
            if (got != q.expect) ++st.failed;
            if (q.kind == op::route) {
              st.route_hops += hops;
              ++st.routes;
            }
            if (b >= deadline) break;
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
  }
  serve_stats out;
  out.wall_s = seconds_since(t0);
  for (std::size_t c = 0; c < rings.size(); ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
    out.merge(per[c]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

/// Sampled Dijkstra rows: the reference for oracles too large to check
/// against all n² pairs.
struct sampled_rows {
  std::vector<u32> sources;
  std::vector<std::vector<u64>> rows;
};

sampled_rows sample_reference(const graph& g, u32 rows, u64 seed) {
  sampled_rows out;
  rng r(seed);
  for (u32 i = 0; i < rows; ++i) {
    const u32 s = static_cast<u32>(r.next_below(g.num_nodes()));
    out.sources.push_back(s);
    out.rows.push_back(dijkstra(g, s));
  }
  return out;
}

/// A label oracle at bench-scale h is exact inside every ball and an upper
/// bound beyond it: a pair fails when the oracle answers below the true
/// distance, or differs from it inside the source's ball. Returns the
/// number of pairs answered finitely.
u64 check_sampled(const dist_labels& lab, const sampled_rows& ref,
                  checker& chk) {
  u64 finite = 0;
  std::vector<u64> row;
  std::vector<u8> in_ball(lab.n);
  for (std::size_t i = 0; i < ref.sources.size(); ++i) {
    const u32 s = ref.sources[i];
    lab.row_into(s, row);
    std::fill(in_ball.begin(), in_ball.end(), u8{0});
    for (const exploration_entry& e : lab.view().ball_of(s))
      in_ball[e.source] = 1;
    for (u32 v = 0; v < lab.n; ++v) {
      const u64 want = ref.rows[i][v];
      chk.check(row[v] >= want && (!in_ball[v] || row[v] == want));
      if (row[v] < kInfDist) ++finite;
    }
  }
  return finite;
}

/// Serve mix in percent: query / next_hop / route.
struct mix {
  u32 query;
  u32 next_hop;
};

class workload {
 public:
  workload(u64 seed, bool pipeline_in_setup)
      : seed_(seed), pipeline_in_setup_(pipeline_in_setup) {
    opts_.threads = kExecThreads;
  }
  virtual ~workload() = default;

  /// Fresh inputs and reference answers from the seed; returns the seconds
  /// the reference took.
  virtual double setup() = 0;
  /// One untraced pipeline call; checks its output into `chk` and returns
  /// its host seconds.
  virtual double pipeline(checker& chk) = 0;
  /// The same call as a traced stage replay.
  virtual replay_result replay(tracer& tr) = 0;
  /// Metrics of the last pipeline call.
  virtual const run_metrics& metrics() const = 0;
  /// Share of the last call's checked answers that were finite.
  double finite_share() const {
    return checked_ ? static_cast<double>(finite_) / checked_ : 0.0;
  }
  /// Labels to save and serve; null when the result is a plain row.
  virtual const dist_labels* labels() const { return nullptr; }
  virtual const std::vector<u64>* row() const { return nullptr; }
  /// The answer a request must get.
  virtual u64 expected(op kind, u32 u, u32 v) const = 0;
  virtual mix serve_mix() const { return {100, 0}; }
  virtual u32 ring_size() const = 0;

  bool pipeline_in_setup() const { return pipeline_in_setup_; }
  const graph& g() const { return g_; }
  const model_config& cfg() const { return cfg_; }
  const sim_options& opts() const { return opts_; }
  u64 seed() const { return seed_; }

 protected:
  u64 seed_;
  bool pipeline_in_setup_;
  graph g_;
  model_config cfg_;
  sim_options opts_;
  u64 finite_ = 0;
  u64 checked_ = 0;
};

/// Skeleton hop budget pinned to `target_h`: skeleton_xi back-solved from
/// h = ⌈ξ·(1/p)·ln n⌉ (the bench_apsp label-oracle parameterization).
double xi_for_h(u32 n, u32 target_h, double p) {
  const double p_eff = p > 0.0 ? p : 1.0 / std::sqrt(static_cast<double>(n));
  return (static_cast<double>(target_h) - 0.25) * p_eff /
         std::log(static_cast<double>(n));
}

/// Theorem 1.1 fully simulated on a weighted Erdős–Rényi graph; the dense
/// result is checked against all-pairs Dijkstra.
class apsp_exact_wl final : public workload {
 public:
  static constexpr u32 kN = 1024;
  explicit apsp_exact_wl(u64 seed) : workload(seed, false) {}

  double setup() override {
    g_ = gen::erdos_renyi_connected(kN, 6.0, 16, derive_seed(seed_, 1));
    return timed_s([&] { ref_ = apsp_reference(g_); });
  }
  double pipeline(checker& chk) override {
    res_ = {};  // the previous result must not count towards this peak
    const double s = timed_s([&] {
      res_ = hybrid_apsp_exact(g_, cfg_, kPipelineSeed, false, opts_);
    });
    finite_ = checked_ = 0;
    for (u32 u = 0; u < kN; ++u)
      for (u32 v = 0; v < kN; ++v) {
        chk.expect(res_.dist[u][v], ref_[u][v]);
        finite_ += res_.dist[u][v] < kInfDist;
        ++checked_;
      }
    return s;
  }
  replay_result replay(tracer& tr) override {
    return replay_apsp(g_, cfg_, kPipelineSeed, false, opts_, tr);
  }
  const run_metrics& metrics() const override { return res_.metrics; }
  const dist_labels* labels() const override { return &res_.labels; }
  u64 expected(op, u32 u, u32 v) const override { return ref_[u][v]; }
  u32 ring_size() const override { return 1u << 14; }

 private:
  std::vector<std::vector<u64>> ref_;
  apsp_result res_;
};

/// Two-level label oracle at n = 30000 with charged token routing, so token
/// routing is bypassed; the super-skeleton (its membership gossip), LOCAL
/// exploration and memory do the work. Build, save, load, query leg.
class oracle_build_wl final : public workload {
 public:
  static constexpr u32 kN = 30000;
  explicit oracle_build_wl(u64 seed) : workload(seed, false) {
    cfg_.skeleton_p_override = 0.08;
    cfg_.skeleton_xi = xi_for_h(kN, 5, 0.08);
    cfg_.super_p_override = 0.05;
    cfg_.super_h_override = 3;
    cfg_.charged_token_routing = true;
    opts_.storage = result_storage::kLabels;
    opts_.hierarchy = oracle_hierarchy::kTwoLevel;
  }

  double setup() override {
    g_ = gen::bounded_degree(kN, 3, 1, derive_seed(seed_, 1));
    return timed_s(
        [&] { ref_ = sample_reference(g_, 8, derive_seed(seed_, 4)); });
  }
  double pipeline(checker& chk) override {
    res_ = {};  // the previous result must not count towards this peak
    const double s = timed_s([&] {
      res_ = hybrid_apsp_exact(g_, cfg_, kPipelineSeed, false, opts_);
    });
    finite_ = check_sampled(res_.labels, ref_, chk);
    checked_ = u64{kN} * ref_.sources.size();
    return s;
  }
  replay_result replay(tracer& tr) override {
    return replay_apsp(g_, cfg_, kPipelineSeed, false, opts_, tr);
  }
  const run_metrics& metrics() const override { return res_.metrics; }
  const dist_labels* labels() const override { return &res_.labels; }
  u64 expected(op, u32 u, u32 v) const override {
    return res_.labels.query(u, v);
  }
  u32 ring_size() const override { return 1u << 13; }

 private:
  sampled_rows ref_;
  apsp_result res_;
};

/// Single-level oracle with routes on a bounded-degree graph, built during
/// set-up; the measured part is the serve mix alone. Paper-default
/// parameters (h = Õ(√n)) keep every label exact, so greedy routes must
/// weigh exactly what query() answers; at the bench_apsp h = 8 setting most
/// answers are upper bounds and about half of all routes dead-end
/// (README.md, "Findings").
class query_serve_wl final : public workload {
 public:
  static constexpr u32 kN = 2048;
  explicit query_serve_wl(u64 seed) : workload(seed, true) {
    cfg_.charged_token_routing = true;
    opts_.storage = result_storage::kLabels;
  }

  double setup() override {
    g_ = gen::bounded_degree(kN, 3, 1, derive_seed(seed_, 1));
    return timed_s(
        [&] { ref_ = sample_reference(g_, 16, derive_seed(seed_, 4)); });
  }
  double pipeline(checker& chk) override {
    res_ = {};
    const double s = timed_s([&] {
      res_ = hybrid_apsp_exact(g_, cfg_, kPipelineSeed, true, opts_);
    });
    finite_ = check_sampled(res_.labels, ref_, chk);
    checked_ = u64{kN} * ref_.sources.size();
    return s;
  }
  replay_result replay(tracer& tr) override {
    return replay_apsp(g_, cfg_, kPipelineSeed, true, opts_, tr);
  }
  const run_metrics& metrics() const override { return res_.metrics; }
  const dist_labels* labels() const override { return &res_.labels; }
  u64 expected(op kind, u32 u, u32 v) const override {
    // A route must weigh exactly what query() answers.
    return kind == op::next_hop ? res_.labels.next_hop(u, v)
                                : res_.labels.query(u, v);
  }
  mix serve_mix() const override { return {60, 30}; }
  u32 ring_size() const override { return 1u << 16; }

 private:
  sampled_rows ref_;
  apsp_result res_;
};

/// Theorem 1.3 SSSP on a weighted grid with 10 % message loss on both
/// planes: the healed paths of the same proto layer. The seed draws the
/// weights; the source is the grid's center, because a corner source
/// doubles every route the serve leg walks and would make the serve
/// metrics depend on where the seed happened to put it.
class lossy_sssp_wl final : public workload {
 public:
  static constexpr u32 kSide = 24;
  static constexpr u32 kSource = (kSide / 2) * kSide + kSide / 2;
  explicit lossy_sssp_wl(u64 seed) : workload(seed, false) {
    opts_.faults.drop_global = 0.1;
    opts_.faults.drop_local = 0.1;
    opts_.faults.fault_seed = 17;
  }

  double setup() override {
    g_ = gen::grid(kSide, kSide, 16, derive_seed(seed_, 1));
    return timed_s([&] { ref_ = dijkstra(g_, kSource); });
  }
  double pipeline(checker& chk) override {
    res_ = {};
    finite_ = checked_ = 0;
    const clock::time_point t0 = clock::now();
    try {
      res_ = hybrid_sssp_exact(g_, cfg_, kPipelineSeed, kSource, opts_);
    } catch (const fault_failure&) {
      chk.check(false);
      res_ = {};
      return seconds_since(t0);
    }
    const double s = seconds_since(t0);
    for (u32 v = 0; v < g_.num_nodes(); ++v) {
      chk.expect(res_.dist[v], ref_[v]);
      finite_ += res_.dist[v] < kInfDist;
      ++checked_;
    }
    return s;
  }
  replay_result replay(tracer& tr) override {
    return replay_sssp(g_, cfg_, kPipelineSeed, kSource, opts_, tr);
  }
  const run_metrics& metrics() const override { return res_.metrics; }
  const std::vector<u64>* row() const override { return &res_.dist; }
  u64 expected(op, u32, u32 v) const override { return ref_[v]; }
  /// Every request asks for the path from v back to the source (u unused).
  mix serve_mix() const override { return {0, 0}; }
  u32 ring_size() const override { return 1u << 14; }

 private:
  std::vector<u64> ref_;
  sssp_result res_;
};

std::unique_ptr<workload> make_workload(const std::string& name, u64 seed) {
  if (name == "apsp_exact") return std::make_unique<apsp_exact_wl>(seed);
  if (name == "oracle_build") return std::make_unique<oracle_build_wl>(seed);
  if (name == "query_serve") return std::make_unique<query_serve_wl>(seed);
  if (name == "lossy_sssp") return std::make_unique<lossy_sssp_wl>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serve preparation: save → mmap-load the labels, generate the rings.

struct serving {
  mapped_oracle oracle;
  std::vector<std::vector<request>> rings;
  double save_s = 0;
  double load_s = 0;
  u64 file_bytes = 0;
};

/// `tr`, when given, gets serve.save / serve.load spans.
void prepare_serving(const workload& w, const settings& s, serving& sv,
                     tracer* tr) {
  if (const dist_labels* lab = w.labels()) {
    const std::string path = s.work_dir + "/" + s.workload + "-" +
                             std::to_string(s.seed) + ".oracle";
    const int save_span = tr ? tr->open("serve.save") : -1;
    sv.save_s = timed_s([&] { save_oracle(*lab, path); });
    if (tr) tr->close(save_span);
    const int load_span = tr ? tr->open("serve.load") : -1;
    sv.load_s = timed_s([&] {
      sv.oracle = mapped_oracle::load(path);
      if (lab->routes) sv.oracle.attach_topology(w.g());
    });
    if (tr) tr->close(load_span);
    sv.file_bytes = sv.oracle.header().file_bytes;
    // The mapping outlives the name (POSIX); no file is left behind.
    std::remove(path.c_str());
  }
  const u32 n = w.g().num_nodes();
  const mix m = w.serve_mix();
  sv.rings.assign(kClientThreads, {});
  for (u32 c = 0; c < kClientThreads; ++c) {
    rng r(derive_seed(w.seed(), 100 + c));
    std::vector<request>& ring = sv.rings[c];
    ring.resize(w.ring_size());
    for (request& q : ring) {
      const u64 pick = r.next_below(100);
      q.kind = pick < m.query                ? op::query
               : pick < m.query + m.next_hop ? op::next_hop
                                             : op::route;
      q.u = static_cast<u32>(r.next_below(n));
      q.v = static_cast<u32>(r.next_below(n));
      q.expect = w.expected(q.kind, q.u, q.v);
    }
  }
}

/// No requests are served when there is nothing to answer from (an SSSP
/// call that failed).
serve_stats run_serving(const workload& w, const serving& sv,
                        double budget_s) {
  serve_target t;
  if (sv.oracle.loaded())
    t.view = &sv.oracle.view();
  else if (w.row() != nullptr && !w.row()->empty()) {
    t.row = w.row();
    t.g = &w.g();
  } else
    return {};
  return serve_leg(t, sv.rings, budget_s);
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << ']';
  return os.str();
}

/// Sample count, median and range: cheap set-ups repeat thousands of times.
std::string json_summary(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"n\": " << v.size() << ", \"median\": " << median(v)
     << ", \"min\": " << *std::min_element(v.begin(), v.end())
     << ", \"max\": " << *std::max_element(v.begin(), v.end()) << '}';
  return os.str();
}

std::string serve_detail(const serve_stats& st) {
  std::ostringstream os;
  os << "\"serve_samples\": " << st.all.count() << ", \"serve_by_op\": {"
     << "\"query\": " << st.by_op[0].count()
     << ", \"next_hop\": " << st.by_op[1].count()
     << ", \"route\": " << st.by_op[2].count() << "}, \"serve_failed\": "
     << st.failed;
  return os.str();
}

// ---------------------------------------------------------------------------
// End-to-end run.

void run_end_to_end(workload& w, const settings& s, run_report& rep) {
  std::vector<double> setup_s, pipeline_s;
  serving sv;
  const clock::time_point t_setup = clock::now();
  while (setup_s.size() < kMinSetupReps ||
         seconds_since(t_setup) < kMinSetupSeconds) {
    const clock::time_point t0 = clock::now();
    w.setup();
    if (w.pipeline_in_setup()) {
      pipeline_s.push_back(w.pipeline(rep.chk));
      sv = serving{};
      prepare_serving(w, s, sv, nullptr);
    }
    setup_s.push_back(seconds_since(t0));
  }

  const clock::time_point t_measure = clock::now();
  std::vector<double> rps, p50_us, p99_us;
  serve_stats served;
  bool prepared = w.pipeline_in_setup();
  do {
    if (!w.pipeline_in_setup()) {
      pipeline_s.push_back(w.pipeline(rep.chk));
      if (!prepared) prepare_serving(w, s, sv, nullptr);
      prepared = true;
    }
    const serve_stats st = run_serving(w, sv, kSliceSeconds);
    if (st.requests == 0) continue;
    rps.push_back(static_cast<double>(st.requests) / st.wall_s);
    p50_us.push_back(st.all.percentile_ns(0.50) * 1e-3);
    p99_us.push_back(st.all.percentile_ns(0.99) * 1e-3);
    served.merge(st);
  } while (seconds_since(t_measure) < s.seconds);
  rep.chk.merge(served.requests, served.failed);

  const run_metrics& m = w.metrics();
  metric_sink& out = rep.metrics;
  out.set("setup_s", median(setup_s), "s");
  out.set("pipeline_s", median(pipeline_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("rounds", static_cast<double>(m.rounds), "count");
  out.set("global_messages", static_cast<double>(m.global_messages), "count");
  out.set("serve_rps", median(rps), "1/s");
  out.set("serve_p50_us", median(p50_us), "us");
  out.set("serve_p99_us", median(p99_us), "us");
  out.set("finite_share", w.finite_share(), "share");
  const u64 attempted = rep.chk.attempted();
  out.set("correct_share",
          attempted ? 1.0 - static_cast<double>(rep.chk.failed()) / attempted
                    : 0.0,
          "share");

  std::ostringstream os;
  os << "{\"setup_s\": " << json_summary(setup_s)
     << ", \"pipeline_s\": " << json_list(pipeline_s)
     << ", \"serve_rps\": " << json_list(rps) << ", " << serve_detail(served)
     << ", \"attempted\": " << attempted
     << ", \"failed\": " << rep.chk.failed() << '}';
  rep.detail = os.str();
}

// ---------------------------------------------------------------------------
// Traced run.

struct round_loop_probe {
  double empty_round_us = 0;
  double deliver_ns_per_msg = 0;
};

/// The round loop alone, on the workload's graph, model, seed and thread
/// count: rounds with no work, then rounds in which every node sends its
/// full γ global messages to random nodes.
round_loop_probe probe_round_loop(const workload& w, tracer& tr) {
  constexpr u32 kEmptyRounds = 200;
  constexpr u32 kSaturatedRounds = 3;
  round_loop_probe out;
  hybrid_net net(w.g(), w.cfg(), kPipelineSeed, w.opts());
  const u32 n = net.n();
  const int span_empty = tr.open("sim.empty_rounds");
  for (u32 r = 0; r < kEmptyRounds; ++r) {
    net.executor().for_nodes(n, [](u32) {});
    net.advance_round();
  }
  out.empty_round_us = tr.close(span_empty) * 1e6 / kEmptyRounds;

  const int span_full = tr.open("sim.saturated_rounds");
  for (u32 r = 0; r < kSaturatedRounds; ++r) {
    net.executor().for_nodes(n, [&](u32 v) {
      rng rr = net.round_rng(v);
      for (u32 i = 0, cap = net.global_cap(); i < cap; ++i)
        net.try_send_global(global_msg::make(
            v, static_cast<u32>(rr.next_below(n)), 0, {u64{v}}));
    });
    net.advance_round();
  }
  const double sent =
      static_cast<double>(kSaturatedRounds) * n * net.global_cap();
  out.deliver_ns_per_msg = tr.close(span_full) * 1e9 / sent;
  return out;
}

void run_traced(workload& w, const settings& s, run_report& rep) {
  const clock::time_point t_start = clock::now();
  tracer tr(s.seed);
  const int setup_span = tr.open("graph.setup");
  const double reference_s = w.setup();
  tr.close(setup_span);

  // The untraced call runs on both sides of the replay, so a cold first
  // call weighs on neither side of the overhead.
  const double before_s = w.pipeline(rep.chk);
  const replay_result rp = w.replay(tr);
  const double after_s = w.pipeline(rep.chk);
  const double pipeline_s = 0.5 * (before_s + after_s);
  const run_metrics& pipeline_metrics = w.metrics();
  const std::string mismatch = check_replay(pipeline_metrics, rp.metrics);
  rep.chk.check(mismatch.empty());

  const round_loop_probe loop = probe_round_loop(w, tr);

  serving sv;
  prepare_serving(w, s, sv, &tr);
  const double budget = std::max(kMinServeShare * s.seconds,
                                 s.seconds - seconds_since(t_start));
  const int serve_span = tr.open("serve.loop");
  const serve_stats st = run_serving(w, sv, budget);
  tr.close(serve_span);
  rep.chk.merge(st.requests, st.failed);

  metric_sink& out = rep.metrics;
  out.set("sim.empty_round_us", loop.empty_round_us, "us");
  out.set("sim.deliver_ns_per_msg", loop.deliver_ns_per_msg, "ns");
  // Round-loop cost of the pipeline: every simulated round at the empty-
  // round price plus every message that entered delivery at the saturated
  // price. Charged stand-ins' rounds and messages never enter the loop.
  const double simulated_rounds =
      static_cast<double>(pipeline_metrics.rounds - rp.charged_rounds);
  out.set("sim.loop_share",
          (simulated_rounds * loop.empty_round_us * 1e-6 +
           static_cast<double>(pipeline_metrics.global_sent) *
               loop.deliver_ns_per_msg * 1e-9) /
              pipeline_s,
          "share");
  double proto_s = 0;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const stage_stats& st_i = rp.stages[i];
    const std::string p = std::string("proto.") +
                          stage_name(static_cast<stage>(i)) + ".";
    proto_s += st_i.s;
    out.set(p + "s", st_i.s, "s");
    out.set(p + "rounds", static_cast<double>(st_i.rounds), "count");
    out.set(p + "msgs", static_cast<double>(st_i.msgs), "count");
    out.set(p + "local_items", static_cast<double>(st_i.local_items), "count");
    out.set(p + "allocs", static_cast<double>(st_i.allocs), "count");
    out.set(p + "peak_mb", st_i.peak_mb, "MB");
    out.set(p + "retransmitted", static_cast<double>(st_i.retransmitted),
            "count");
    out.set(p + "extra_rounds", static_cast<double>(st_i.extra_rounds),
            "count");
    // Useful over attempted local items; a stage that moved none wasted
    // none.
    out.set(p + "delivered_ratio",
            st_i.local_items ? static_cast<double>(st_i.local_delivered) /
                                   static_cast<double>(st_i.local_items)
                             : 1.0,
            "share");
  }
  // The replay's root span minus its proto children: the core layer's own
  // work, measured inside one call rather than across two.
  out.set("core.self.s", rp.total_s - proto_s, "s");
  out.set("trace.overhead_s", rp.total_s - pipeline_s, "s");
  out.set("serve.save.s", sv.save_s, "s");
  out.set("serve.load.s", sv.load_s, "s");
  out.set("serve.file_bytes", static_cast<double>(sv.file_bytes), "bytes");
  out.set("serve.query.p50_ns", st.by_op[0].percentile_ns(0.50), "ns");
  out.set("serve.query.p99_ns", st.by_op[0].percentile_ns(0.99), "ns");
  out.set("serve.next_hop.p50_ns", st.by_op[1].percentile_ns(0.50), "ns");
  out.set("serve.route.p50_us", st.by_op[2].percentile_ns(0.50) * 1e-3, "us");
  out.set("serve.route.hops",
          st.routes ? static_cast<double>(st.route_hops) / st.routes : 0.0,
          "count");
  out.set("graph.reference.s", reference_s, "s");

  const bool wrote = tr.write_chrome_json(s.trace_file, s.workload);
  std::ostringstream os;
  os << "{\"pipeline_s\": [" << before_s << ", " << after_s
     << "], \"replay_total_s\": " << rp.total_s
     << ", \"simulated_rounds\": " << simulated_rounds
     << ", \"global_sent\": " << pipeline_metrics.global_sent
     << ", \"replay_check\": \""
     << (mismatch.empty() ? "match" : mismatch) << "\", "
     << serve_detail(st) << ", \"trace_file\": \""
     << (wrote ? s.trace_file : std::string()) << "\", \"attempted\": "
     << rep.chk.attempted() << ", \"failed\": " << rep.chk.failed() << '}';
  rep.detail = os.str();
}

}  // namespace

bool known_workload(const std::string& name) {
  return make_workload(name, 1) != nullptr;
}

run_report run_workload(const settings& s) {
  std::unique_ptr<workload> w = make_workload(s.workload, s.seed);
  run_report rep;
  rep.chk = checker(s.corrupt);
  if (s.trace)
    run_traced(*w, s, rep);
  else
    run_end_to_end(*w, s, rep);
  return rep;
}

}  // namespace perfbench
