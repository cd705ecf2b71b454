// Shared plumbing of the perfbench program: run arguments, exact sample
// statistics, the in-memory span recorder, the metric report, and the
// seeded generators every workload's op stream is drawn from.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where generated graphs and trace files live (inside the checkout).
  std::string data_dir;
};

// Exact order statistic with linear interpolation between closest ranks
// (the numpy / R type-7 definition). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
// " <name> n=<count> p50=<ms>ms p95=<ms>ms p99=<ms>ms" for a log line.
std::string LatencySummary(const char* name, const std::vector<double>& ms);

// The OK query answers of one measured phase with their completion times.
// The end-to-end figures are medians over parts of the phase, so one
// disturbed stretch of a run (a noisy neighbour, a page-cache flush) moves
// them less than it would move a whole-run figure:
//  * qps: answers per second in each of kRateWindows equal time windows;
//  * full-vector latency quantiles: each consecutive group of at least
//    kLatencyGroup full answers (in completion order) gives its quantile,
//    so a group's p95 always has >= 10 samples beyond it.
class Timeline {
 public:
  static constexpr int kRateWindows = 5;
  static constexpr std::size_t kLatencyGroup = 200;

  Timeline(Clock::time_point start, double seconds)
      : start_(start), seconds_(seconds) {}

  void Add(Clock::time_point done, double ms, bool full);

  double Qps() const;
  double FullQuantile(double q) const;
  const std::vector<double>& full_ms() const { return full_ms_; }

 private:
  Clock::time_point start_;
  double seconds_;
  std::vector<double> done_s_;   // completion offsets of all answers
  std::vector<double> full_ms_;  // full-vector latencies, completion order
};

// The metrics one run prints. Values are printed with every digit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Final line of a run: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;
  // One human-readable `name=value unit` line (for the log above the JSON).
  std::string SummaryLine() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Spans recorded by the benchmark around its calls into the program's
// layers: name, request id, parent span, start and end. Kept in memory and
// written out when the run ends; disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span now; returns its id (0 when disabled). End closes it.
  std::uint64_t Begin(const char* name, std::uint64_t request,
                      std::uint64_t parent);
  void End(std::uint64_t id);
  // Records a span whose ends were timed by the caller; returns its id.
  std::uint64_t Record(const char* name, std::uint64_t request,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end);

  // Summed duration (seconds) of the spans named `name`.
  double TotalSeconds(const std::string& name) const;

  // Chrome trace-event JSON, timestamps relative to the tracer's birth.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t request;
    std::uint64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// SplitMix64-seeded xorshift generator with benchmark-owned integer and
// real mappings, so op streams depend only on the seed — never on the
// standard library's distribution implementations or the program's RNG.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed);
  std::uint64_t Next();
  // Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound);
  // Uniform in [0, 1).
  double Unit();

 private:
  std::uint64_t s_[2];
};

// Zipf(theta) over ranks 0..n-1 mapped to node ids through a seeded
// permutation, so the hot set is spread over the graph.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double theta, std::uint64_t seed);
  // The node at quantile u in [0, 1) of the distribution.
  std::uint32_t At(double u) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> node_of_rank_;
};

// Seeded Fisher-Yates shuffle, and the shuffled permutation of 0..n-1.
template <typename T>
void Shuffle(std::vector<T>& items, StreamRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}
std::vector<std::uint32_t> Permutation(std::uint32_t n, std::uint64_t seed);

// FNV-1a over 64-bit words; printed per op stream so two runs can be shown
// to have asked the same thing.
class StreamHash {
 public:
  void Mix(std::uint64_t word);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// A Prometheus text exposition (the program's `metrics` scrape, or a
// registry's RenderPrometheus) as series -> value, e.g.
// `resacc_serve_queue_wait_seconds{quantile="0.5"}` or `..._sum`.
using Scrape = std::map<std::string, double>;
void ParseExposition(const std::string& text, Scrape& out);
// One series' value; 0 when absent.
double SeriesValue(const Scrape& scrape, const std::string& series);
// Sum over every label set of the family `name`.
double FamilyTotal(const Scrape& scrape, const std::string& name);

// Peak resident set of this process, in MB.
double SelfPeakRssMb();
// Peak resident set (VmHWM) of another live process, in MB; 0 if unknown.
double ProcessPeakRssMb(long pid);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
