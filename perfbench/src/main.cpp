// The benchmark program. One run of one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace-file <path>]
//             [--work-dir <dir>] [--corrupt] [--git-sha <sha>]
//             [--source-digest <hex>]
//
// The end-to-end binary (perfbench) prints the end-to-end metrics; the
// traced binary (perfbench_traced, built with PERFBENCH_TRACED and the
// allocation counter) replays the pipeline stage by stage and prints the
// per-layer metrics. stdout ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "stamp" line (host and build) and a "detail" line (sample
// counts and per-call times). Exit 0 iff that line was printed.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifdef PERFBENCH_TRACED
#include "alloc_counter.hpp"
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

unsigned long long heap_allocations() {
#ifdef PERFBENCH_TRACED
  return benchalloc::allocations();
#else
  return 0;
#endif
}

}  // namespace perfbench

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// JSON string body: the only characters these fields can carry that JSON
/// forbids raw are quotes, backslashes and control bytes.
std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " [--trace-file <path>] [--work-dir <dir>] [--corrupt]"
               " [--git-sha <sha>] [--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::settings s;
#ifdef PERFBENCH_TRACED
  s.trace = true;
#endif
  s.work_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--corrupt") {
        s.corrupt = true;
      } else if (!has_value) {
        return usage(("missing value for " + a).c_str());
      } else if (a == "--workload") {
        s.workload = argv[++i];
      } else if (a == "--seed") {
        s.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds") {
        s.seconds = std::stod(argv[++i]);
      } else if (a == "--trace-file") {
        s.trace_file = argv[++i];
      } else if (a == "--work-dir") {
        s.work_dir = argv[++i];
      } else if (a == "--git-sha") {
        git_sha = argv[++i];
      } else if (a == "--source-digest") {
        source_digest = argv[++i];
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!perfbench::known_workload(s.workload))
    return usage(("unknown workload '" + s.workload + "'").c_str());
  if (!(s.seconds > 0)) return usage("--seconds must be positive");
  if (s.trace && s.trace_file.empty())
    s.trace_file = s.workload + "-" + std::to_string(s.seed) + ".trace.json";

  std::cout << "{\"stamp\": {\"workload\": \"" << s.workload
            << "\", \"seed\": " << s.seed << ", \"seconds\": " << s.seconds
            << ", \"trace\": " << (s.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << escaped(cpu_model())
            << "\", \"compiler\": \"" << escaped(PERFBENCH_COMPILER)
            << "\", \"build_type\": \"" << escaped(PERFBENCH_BUILD_TYPE)
            << "\", \"git_sha\": \"" << escaped(git_sha)
            << "\", \"source_digest\": \"" << escaped(source_digest)
            << "\", \"executor_threads\": " << perfbench::kExecThreads
            << ", \"client_threads\": " << perfbench::kClientThreads << "}}"
            << std::endl;
  try {
    const perfbench::run_report rep = perfbench::run_workload(s);
    std::cout << "{\"detail\": " << rep.detail << "}\n";
    std::cout << "{\"correct\": "
              << (rep.chk.attempted() > 0 && rep.chk.failed() == 0 ? "true"
                                                                    : "false")
              << ", \"attempted\": " << rep.chk.attempted()
              << ", \"failed\": " << rep.chk.failed()
              << ", \"metrics\": " << rep.metrics.json() << '}' << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << s.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  return 0;
}
