// The four benchmark workloads and the two ways to run them: the
// end-to-end run (tracing off) and the traced run (stage replay, spans,
// per-layer metrics). README.md explains why each workload exists.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

struct run_report {
  checker chk{false};
  metric_sink metrics;
  std::string detail;  ///< one JSON object: sample counts and per-call times
};

bool known_workload(const std::string& name);

/// Runs `s.workload`; throws std::exception on anything but a checked
/// result (a wrong answer is counted in the report, not thrown).
run_report run_workload(const settings& s);

}  // namespace perfbench
