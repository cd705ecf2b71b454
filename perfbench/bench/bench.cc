#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string LatencySummary(const char* name, const std::vector<double>& ms) {
  char out[160];
  std::snprintf(out, sizeof(out), " %s n=%zu p50=%.3fms p95=%.3fms p99=%.3fms",
                name, ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.95),
                Quantile(ms, 0.99));
  return out;
}

void Timeline::Add(Clock::time_point done, double ms, bool full) {
  const double at = SecondsBetween(start_, done);
  if (at < 0.0 || at > seconds_) return;
  done_s_.push_back(at);
  if (full) full_ms_.push_back(ms);
}

double Timeline::Qps() const {
  // Per window: (answers - 1) / (last - first completion), a continuous
  // rate that does not round to the window's answer count.
  const double width = seconds_ / kRateWindows;
  std::vector<std::vector<double>> windows(kRateWindows);
  for (double at : done_s_) {
    windows[std::min(kRateWindows - 1, static_cast<int>(at / width))]
        .push_back(at);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    const auto [first, last] = std::minmax_element(w.begin(), w.end());
    per_window.push_back(w.size() > 1 && *last > *first
                             ? static_cast<double>(w.size() - 1) /
                                   (*last - *first)
                             : 0.0);
  }
  return Quantile(per_window, 0.5);
}

double Timeline::FullQuantile(double q) const {
  const std::size_t groups =
      std::max<std::size_t>(1, full_ms_.size() / kLatencyGroup);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto begin = full_ms_.begin() + g * full_ms_.size() / groups;
    const auto end = full_ms_.begin() + (g + 1) * full_ms_.size() / groups;
    per_group.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Quantile(per_group, 0.5);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::ResultJson(bool correct, std::uint64_t attempted,
                               std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << entries_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Report::SummaryLine() const {
  std::ostringstream out;
  char value[64];
  for (const Entry& e : entries_) {
    std::snprintf(value, sizeof(value), "%.6g", e.value);
    out << " " << e.name << "=" << value << e.unit;
  }
  return out.str();
}

std::uint64_t Tracer::Begin(const char* name, std::uint64_t request,
                            std::uint64_t parent) {
  const Clock::time_point now = Clock::now();
  return Record(name, request, parent, now, now);
}

void Tracer::End(std::uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = now;
}

std::uint64_t Tracer::Record(const char* name, std::uint64_t request,
                             std::uint64_t parent, Clock::time_point start,
                             Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, request, parent, start, end});
  return id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += SecondsBetween(s.start, s.end);
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<unsigned long long>(s.request),
                  SecondsBetween(origin_, s.start) * 1e6,
                  SecondsBetween(s.start, s.end) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

StreamRng::StreamRng(std::uint64_t seed) {
  s_[0] = SplitMix64(seed);
  s_[1] = SplitMix64(seed);
}

std::uint64_t StreamRng::Next() {
  // xorshift128+
  std::uint64_t a = s_[0];
  const std::uint64_t b = s_[1];
  s_[0] = b;
  a ^= a << 23;
  s_[1] = a ^ b ^ (a >> 17) ^ (b >> 26);
  return s_[1] + b;
}

std::uint64_t StreamRng::Below(std::uint64_t bound) {
  // Lemire's multiply-shift; the tiny bias is irrelevant here and the
  // mapping is fixed by this code, not by the standard library.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double StreamRng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint32_t> Permutation(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  StreamRng rng(seed);
  Shuffle(perm, rng);
  return perm;
}

ZipfSampler::ZipfSampler(std::uint32_t n, double theta, std::uint64_t seed)
    : cdf_(n), node_of_rank_(Permutation(n, seed)) {
  double sum = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint32_t ZipfSampler::At(double u) const {
  const std::size_t rank =
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return node_of_rank_[std::min(rank, cdf_.size() - 1)];
}

void StreamHash::Mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void ParseExposition(const std::string& text, Scrape& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
}

double SeriesValue(const Scrape& scrape, const std::string& series) {
  const auto it = scrape.find(series);
  return it == scrape.end() ? 0.0 : it->second;
}

double FamilyTotal(const Scrape& scrape, const std::string& name) {
  double total = 0.0;
  for (auto it = scrape.lower_bound(name);
       it != scrape.end() && it->first.compare(0, name.size(), name) == 0;
       ++it) {
    if (it->first.size() == name.size() || it->first[name.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessPeakRssMb(long pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return 0.0;
}

}  // namespace perfbench
