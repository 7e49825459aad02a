#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "peak_rss.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() { return benchrss::peak_rss_mb(); }
bool reset_peak_rss() { return benchrss::reset_peak_rss(); }

void metric_sink::set(const std::string& name, double value,
                      const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string metric_sink::json() const {
  std::ostringstream os;
  os.precision(17);
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const entry& e = entries_[i];
    // NaN/inf are not JSON; a metric that cannot be measured reads 0.
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << '}';
  return os.str();
}

latency_hist::latency_hist() : counts_(64u << kSubBits, 0) {}

u32 latency_hist::index(u64 v) {
  constexpr u64 kLinear = u64{1} << kSubBits;
  if (v < kLinear) return static_cast<u32>(v);
  // shift ≥ 1; v >> shift lands in [2^(kSubBits-1), 2^kSubBits).
  const u32 shift = static_cast<u32>(std::bit_width(v)) - kSubBits;
  return (shift << (kSubBits - 1)) + static_cast<u32>(v >> shift);
}

void latency_hist::bounds(u32 idx, double& lo, double& width) {
  constexpr u32 kLinear = 1u << kSubBits;
  if (idx < kLinear) {
    lo = idx;
    width = 1.0;
    return;
  }
  constexpr u32 kHalf = kLinear / 2;
  const u32 shift = (idx - kHalf) / kHalf;
  const u32 mantissa = idx - (shift << (kSubBits - 1));
  width = std::ldexp(1.0, static_cast<int>(shift));
  lo = static_cast<double>(mantissa) * width;
}

void latency_hist::merge(const latency_hist& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double latency_hist::percentile_ns(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = q * static_cast<double>(total_);
  double below = 0;
  for (u32 i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (below + c >= rank) {
      double lo = 0, width = 0;
      bounds(i, lo, width);
      return lo + width * (rank - below) / c;
    }
    below += c;
  }
  return 0.0;
}

double tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(clock::now() - t0_).count();
}

int tracer::open(const std::string& name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_us(), -1.0, parent});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

double tracer::close(int id) {
  span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = now_us();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  return (s.end_us - s.start_us) * 1e-6;
}

double tracer::self_s(int id) const {
  const span& s = spans_[static_cast<std::size_t>(id)];
  double covered = 0;
  for (const span& c : spans_)
    if (c.parent == id) covered += c.end_us - c.start_us;
  return (s.end_us - s.start_us - covered) * 1e-6;
}

bool tracer::write_chrome_json(const std::string& path,
                               const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << layer << "\", \"ph\": \"X\", \"ts\": " << s.start_us
        << ", \"dur\": " << (s.end_us - s.start_us)
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"run\": " << run_id_
        << ", \"workload\": \"" << workload
        << "\", \"self_us\": " << self_s(static_cast<int>(i)) * 1e6 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
