// perfbench — the repository benchmark.
//
//   perfbench gen <data-dir>        generate the workload graphs (cached)
//   perfbench host                  print the host block as one JSON line
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data-dir D      measure one workload
//
// `run` prints a stream line (op-stream hash), a check line, a summary and,
// as its last line, {"correct", "attempted", "failed", "metrics"}. It exits
// 1 when an answer check failed and 2 when the run could not complete.
// perfbench/run.py builds this binary and drives it; see README.md there.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// STREAM triad a = b + s * c, single thread, best of several passes.
// Returns bytes per second counting the two reads and one write.
double TriadBytesPerSecond(std::size_t elements) {
  std::vector<double> a(elements, 0.0);
  std::vector<double> b(elements, 1.0);
  std::vector<double> c(elements, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < elements; ++i) a[i] = b[i] + 3.0 * c[i];
    const double seconds = perfbench::SecondsBetween(start, Clock::now());
    if (pass > 0) best = std::max(best, 24.0 * elements / seconds);
  }
  if (a[elements / 2] != 7.0) std::abort();  // keeps the loop observable
  return best;
}

int Host() {
  constexpr std::size_t kTriadElements = std::size_t{4} << 20;  // 3 x 32 MB
  const double triad = TriadBytesPerSecond(kTriadElements);
  std::printf("{\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"flags\": \"%s\", \"build_type\": \"%s\", "
              "\"triad_gb_per_s\": %.2f, \"triad_mb\": %zu}\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE,
              triad / 1e9, 3 * kTriadElements * sizeof(double) >> 20);
  return 0;
}

int Run(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (args.data_dir.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: need --data-dir and --seconds > 0\n");
    return 2;
  }

  perfbench::RunResult result;
  const bool ran = args.workload == "serve-zipf"
                       ? perfbench::RunServeZipf(args, PERFBENCH_SERVE_BIN,
                                                 result)
                       : perfbench::RunInProcess(args, result);
  if (!ran) {
    std::fprintf(stderr, "perfbench: workload '%s' did not complete\n",
                 args.workload.c_str());
    return 2;
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("summary:%s error_rate=%.6g (%llu of %llu)\n",
              result.report.SummaryLine().c_str(),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("%s\n", result.report
                          .ResultJson(correct, result.attempted, result.failed)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-run must surface as a failed read, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen" && argc == 3) {
    return perfbench::MakeGraphs(argv[2]) ? 0 : 2;
  }
  if (command == "host") return Host();
  if (command == "run") return Run(argc, argv);
  std::fprintf(stderr, "usage: perfbench gen <dir> | host | run --workload W "
                       "--seed N --seconds S --trace 0|1 --data-dir D\n");
  return 2;
}
