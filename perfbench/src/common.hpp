// Shared pieces of the benchmark program: run settings, the metric sink,
// wall-clock helpers, the latency histogram and the span recorder behind
// the traced run.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "util/bits.hpp"

namespace perfbench {

using hybrid::u32;
using hybrid::u64;
using hybrid::u8;

/// Executor threads of every pipeline and client threads of every serve
/// leg. Two, not four: on a 4-core host the pipelines' run-to-run spread at
/// 4 threads is several times wider than at 2 (see README.md).
inline constexpr u32 kExecThreads = 2;
inline constexpr u32 kClientThreads = 2;

struct settings {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: perturb the first checked result so the checks must
  /// report a failure.
  bool corrupt = false;
  std::string trace_file;  ///< Chrome trace-event JSON (traced run only)
  std::string work_dir;    ///< where oracle files are written (and removed)
};

using clock = std::chrono::steady_clock;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

template <class F>
double timed_s(F&& body) {
  const clock::time_point t0 = clock::now();
  body();
  return seconds_since(t0);
}

double median(std::vector<double> v);

/// Heap allocations so far: counted in the traced binary (which links
/// bench/alloc_counter.hpp), always 0 in the end-to-end binary.
unsigned long long heap_allocations();

/// Peak resident memory in MB (VmHWM), and a reset of that water mark
/// that reports whether it took.
double peak_rss_mb();
bool reset_peak_rss();

/// Named metrics in print order (each name set once); the final JSON line
/// lists them all.
class metric_sink {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<entry> entries_;
};

/// Pass/fail ledger of every checked result. In smoke mode the first
/// comparison is forced to disagree.
class checker {
 public:
  explicit checker(bool corrupt) : corrupt_(corrupt) {}
  /// One attempted operation; counts a failure unless `ok`.
  bool check(bool ok) {
    ++attempted_;
    if (corrupt_) {
      corrupt_ = false;
      ok = !ok;
    }
    if (!ok) ++failed_;
    return ok;
  }
  bool expect(u64 got, u64 want) { return check(got == want); }
  /// Fold in a ledger kept elsewhere (e.g. by a serving client).
  void merge(u64 attempted, u64 failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 private:
  bool corrupt_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// Latency histogram in nanoseconds: exact 1-ns buckets below 256 ns, then
/// 128 sub-buckets per power of two (< 0.8 % bucket width). Percentiles
/// interpolate linearly inside the bucket that holds the rank, so a
/// distribution concentrated on a few integer nanoseconds still yields a
/// continuous estimate.
class latency_hist {
 public:
  latency_hist();
  void add(u64 ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  void merge(const latency_hist& other);
  u64 count() const { return total_; }
  /// q in (0, 1); 0 when empty.
  double percentile_ns(double q) const;

 private:
  static constexpr u32 kSubBits = 8;
  static u32 index(u64 v);
  static void bounds(u32 idx, double& lo, double& width);
  std::vector<u64> counts_;
  u64 total_ = 0;
};

/// In-memory span recorder. Spans nest by call order (a span opened while
/// another is open is its child); everything is written once, at exit, as
/// Chrome trace-event JSON (chrome://tracing, Perfetto).
class tracer {
 public:
  struct span {
    std::string name;
    double start_us;
    double end_us;
    int parent;  ///< index into spans(), -1 for a root
  };

  explicit tracer(u64 run_id) : run_id_(run_id), t0_(clock::now()) {}
  int open(const std::string& name);
  /// Closes span `id`; returns its duration in seconds.
  double close(int id);
  const std::vector<span>& spans() const { return spans_; }
  /// Span duration minus the part its children cover, in seconds.
  double self_s(int id) const;
  bool write_chrome_json(const std::string& path,
                         const std::string& workload) const;

 private:
  double now_us() const;
  u64 run_id_;
  clock::time_point t0_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
