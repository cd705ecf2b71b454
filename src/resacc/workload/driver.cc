#include "resacc/workload/driver.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <utility>

#include "resacc/util/check.h"
#include "resacc/util/json.h"
#include "resacc/util/timer.h"

namespace resacc {
namespace {

using Clock = std::chrono::steady_clock;

void WriteStats(const OpStats& s, JsonWriter& out) {
  out.BeginObject()
      .Field("sent", s.sent)
      .Field("ok", s.ok)
      .Field("rejected", s.rejected)
      .Field("deadline_exceeded", s.deadline_exceeded)
      .Field("errors", s.errors)
      .Field("degraded", s.degraded)
      .Field("stale", s.stale)
      .Field("cache_hits", s.cache_hits)
      .Field("certified", s.certified)
      .Field("mean_ms", s.latency.mean * 1e3)
      .Field("p50_ms", s.latency.p50 * 1e3)
      .Field("p99_ms", s.latency.p99 * 1e3)
      .Field("p999_ms", s.latency.p999 * 1e3)
      .Field("max_ms", s.latency.max * 1e3)
      .EndObject();
}

void WriteClasses(const std::array<OpStats, kNumOpClasses>& classes,
                  JsonWriter& out) {
  out.Key("classes").BeginObject();
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    out.Key(OpClassName(static_cast<OpClass>(c)));
    WriteStats(classes[c], out);
  }
  out.EndObject();
}

}  // namespace

OpStats& OpStats::operator+=(const OpStats& other) {
  sent += other.sent;
  ok += other.ok;
  rejected += other.rejected;
  deadline_exceeded += other.deadline_exceeded;
  errors += other.errors;
  degraded += other.degraded;
  stale += other.stale;
  cache_hits += other.cache_hits;
  certified += other.certified;
  return *this;
}

std::uint64_t WorkloadReport::TotalSent() const {
  std::uint64_t n = 0;
  for (const OpStats& s : classes) n += s.sent;
  return n;
}

std::uint64_t WorkloadReport::TotalOk() const {
  std::uint64_t n = 0;
  for (const OpStats& s : classes) n += s.ok;
  return n;
}

std::uint64_t WorkloadReport::TotalErrors() const {
  std::uint64_t n = 0;
  for (const OpStats& s : classes) n += s.errors;
  return n;
}

std::string WorkloadReport::ToJson() const {
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(TotalOk()) / wall_seconds : 0.0;
  JsonWriter out;
  out.BeginObject()
      .Field("spec", spec_origin)
      .Field("wall_seconds", wall_seconds)
      .Field("seed", seed);
  out.Key("totals")
      .BeginObject()
      .Field("sent", TotalSent())
      .Field("ok", TotalOk())
      .Field("errors", TotalErrors())
      .Field("qps", qps)
      .EndObject();
  WriteClasses(classes, out);
  out.Key("tenants").BeginObject();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    out.Key(tenant_names[t]).BeginObject().Field("computed_ok", computed_ok[t]);
    WriteClasses(tenants[t], out);
    out.EndObject();
  }
  out.EndObject().EndObject();
  return out.str();
}

Status CheckBounds(const WorkloadReport& report, const std::string& text,
                   const std::string& origin) {
  std::vector<std::string> violations;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;

  auto class_stats = [&report](const std::string& name,
                               const OpStats** out) -> bool {
    OpClass cls;
    if (!ParseOpClass(name, &cls)) return false;
    *out = &report.classes[static_cast<std::size_t>(cls)];
    return true;
  };

  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tok_in(line);
    std::vector<std::string> tok;
    std::string word;
    while (tok_in >> word) {
      if (word[0] == '#') break;
      tok.push_back(word);
    }
    if (tok.empty()) continue;
    char msg[256];

    auto bad_line = [&](const char* what) {
      std::snprintf(msg, sizeof(msg), "line %d: %s (%s)", lineno, what,
                    origin.c_str());
      return Status::InvalidArgument(msg);
    };

    if (tok[0] == "max_error_rate" && tok.size() == 2) {
      const double bound = std::atof(tok[1].c_str());
      const double sent = static_cast<double>(report.TotalSent());
      const double rate =
          sent > 0.0 ? static_cast<double>(report.TotalErrors()) / sent : 0.0;
      if (rate > bound) {
        std::snprintf(msg, sizeof(msg), "error rate %.4f > %.4f", rate, bound);
        violations.push_back(msg);
      }
    } else if (tok[0] == "min_ok_total" && tok.size() == 2) {
      const std::uint64_t bound =
          static_cast<std::uint64_t>(std::atoll(tok[1].c_str()));
      if (report.TotalOk() < bound) {
        std::snprintf(msg, sizeof(msg), "ok total %llu < %llu",
                      static_cast<unsigned long long>(report.TotalOk()),
                      static_cast<unsigned long long>(bound));
        violations.push_back(msg);
      }
    } else if (tok[0] == "min_ok_per_tenant" && tok.size() == 2) {
      const std::uint64_t bound =
          static_cast<std::uint64_t>(std::atoll(tok[1].c_str()));
      for (std::size_t t = 0; t < report.tenants.size(); ++t) {
        std::uint64_t ok = 0;
        for (const OpStats& s : report.tenants[t]) ok += s.ok;
        if (ok < bound) {
          std::snprintf(msg, sizeof(msg), "tenant %s ok %llu < %llu",
                        report.tenant_names[t].c_str(),
                        static_cast<unsigned long long>(ok),
                        static_cast<unsigned long long>(bound));
          violations.push_back(msg);
        }
      }
    } else if (tok[0] == "min_qps" && tok.size() == 2) {
      const double bound = std::atof(tok[1].c_str());
      const double qps = report.wall_seconds > 0.0
                             ? static_cast<double>(report.TotalOk()) /
                                   report.wall_seconds
                             : 0.0;
      if (qps < bound) {
        std::snprintf(msg, sizeof(msg), "qps %.1f < %.1f", qps, bound);
        violations.push_back(msg);
      }
    } else if ((tok[0] == "max_p99_ms" || tok[0] == "max_p999_ms") &&
               tok.size() == 3) {
      const OpStats* stats = nullptr;
      if (!class_stats(tok[1], &stats)) return bad_line("unknown class");
      const double bound = std::atof(tok[2].c_str());
      const bool p999 = tok[0] == "max_p999_ms";
      const double value =
          (p999 ? stats->latency.p999 : stats->latency.p99) * 1e3;
      if (stats->ok > 0 && value > bound) {
        std::snprintf(msg, sizeof(msg), "%s %s %.3fms > %.3fms",
                      tok[1].c_str(), p999 ? "p999" : "p99", value, bound);
        violations.push_back(msg);
      }
    } else if (tok[0] == "min_certified_rate" && tok.size() == 2) {
      const double bound = std::atof(tok[1].c_str());
      const OpStats& tk =
          report.classes[static_cast<std::size_t>(OpClass::kTopK)];
      if (tk.ok == 0) {
        if (bound > 0.0) violations.push_back("no top-k completions");
      } else {
        const double rate = static_cast<double>(tk.certified) /
                            static_cast<double>(tk.ok);
        if (rate < bound) {
          std::snprintf(msg, sizeof(msg), "certified rate %.4f < %.4f", rate,
                        bound);
          violations.push_back(msg);
        }
      }
    } else if (tok[0] == "min_fairness_ratio" && tok.size() == 4) {
      std::size_t heavy = report.tenants.size();
      std::size_t light = report.tenants.size();
      for (std::size_t t = 0; t < report.tenant_names.size(); ++t) {
        if (report.tenant_names[t] == tok[1]) heavy = t;
        if (report.tenant_names[t] == tok[2]) light = t;
      }
      if (heavy >= report.tenants.size() || light >= report.tenants.size()) {
        return bad_line("unknown tenant in min_fairness_ratio");
      }
      const double bound = std::atof(tok[3].c_str());
      const double h = static_cast<double>(report.computed_ok[heavy]);
      const double l = static_cast<double>(report.computed_ok[light]);
      const double ratio = l > 0.0 ? h / l : (h > 0.0 ? 1e9 : 0.0);
      if (ratio < bound) {
        std::snprintf(msg, sizeof(msg),
                      "fairness %s/%s = %.0f/%.0f = %.2f < %.2f",
                      tok[1].c_str(), tok[2].c_str(), h, l, ratio, bound);
        violations.push_back(msg);
      }
    } else {
      return bad_line("unknown or malformed bound");
    }
  }

  if (violations.empty()) return Status::Ok();
  std::string all = "bounds check failed (" + origin + "):";
  for (const std::string& v : violations) all += "\n  " + v;
  return Status::FailedPrecondition(all);
}

Status CheckBoundsFile(const WorkloadReport& report, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open bounds file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CheckBounds(report, buffer.str(), path);
}

WorkloadTally::WorkloadTally(const WorkloadSpec& spec)
    : seed_(spec.seed),
      cells_(std::make_unique<std::array<Cell, kNumOpClasses>[]>(
          spec.tenants.size())),
      computed_ok_(spec.tenants.size(), 0) {
  for (const TenantSpec& tenant : spec.tenants) {
    tenant_names_.push_back(tenant.name);
  }
}

void WorkloadTally::Sent(const WorkloadOp& op) {
  ++cells_[op.tenant][static_cast<std::size_t>(op.cls)].counts.sent;
}

void WorkloadTally::Record(const WorkloadOp& op, const QueryResponse& answer) {
  const std::size_t c = static_cast<std::size_t>(op.cls);
  Cell& cell = cells_[op.tenant][c];
  OpStats& counts = cell.counts;
  switch (answer.status.code()) {
    case StatusCode::kOk:
      break;
    case StatusCode::kResourceExhausted:
      ++counts.rejected;
      return;
    case StatusCode::kDeadlineExceeded:
      ++counts.deadline_exceeded;
      return;
    default:
      ++counts.errors;
      return;
  }
  ++counts.ok;
  if (answer.degraded) ++counts.degraded;
  if (answer.stale) ++counts.stale;
  if (answer.cache_hit) ++counts.cache_hits;
  if (op.cls == OpClass::kTopK && answer.top.size() >= op.top_k) {
    ++counts.certified;
  }
  cell.latency.Record(answer.latency_seconds);
  class_latency_[c].Record(answer.latency_seconds);
  if (op.cls != OpClass::kMutation && !answer.cache_hit && !answer.coalesced) {
    ++computed_ok_[op.tenant];
  }
}

WorkloadReport WorkloadTally::Report(double wall_seconds) const {
  WorkloadReport report;
  report.wall_seconds = wall_seconds;
  report.seed = seed_;
  report.tenant_names = tenant_names_;
  report.tenants.resize(tenant_names_.size());
  report.computed_ok = computed_ok_;
  for (std::size_t t = 0; t < tenant_names_.size(); ++t) {
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      OpStats& s = report.tenants[t][c];
      s = cells_[t][c].counts;
      s.latency = cells_[t][c].latency.TakeSnapshot();
      report.classes[c] += s;
    }
  }
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    report.classes[c].latency = class_latency_[c].TakeSnapshot();
  }
  return report;
}

ServiceTransport::ServiceTransport(QueryService* service,
                                   MutableGraphView* view)
    : service_(service), view_(view) {
  RESACC_CHECK(service_ != nullptr);
}

std::future<QueryResponse> ServiceTransport::Submit(const WorkloadOp& op,
                                                    const std::string& tenant) {
  if (op.cls != OpClass::kMutation) {
    QueryRequest request;
    request.source = op.source;
    request.top_k = op.top_k;
    request.deadline_seconds = op.deadline_seconds;
    request.allow_degraded = op.allow_degraded;
    request.tenant = tenant;
    return service_->Submit(request);
  }
  Timer timer;
  QueryResponse answer;
  if (view_ == nullptr) {
    answer.status = Status::FailedPrecondition("mutation without a graph view");
  } else {
    GraphDelta delta;
    const Status status =
        op.remove ? view_->RemoveEdge(op.source, op.target, &delta)
                  : view_->AddEdge(op.source, op.target, &delta);
    if (status.ok()) service_->UpdateGraph(view_->Snapshot(), delta);
    if (status.code() != StatusCode::kAlreadyExists &&
        status.code() != StatusCode::kNotFound) {
      answer.status = status;
    }
  }
  answer.latency_seconds = timer.ElapsedSeconds();
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(answer));
  return promise.get_future();
}

WorkloadDriver::WorkloadDriver(const WorkloadSpec& spec,
                               WorkloadTransport* transport, NodeId num_nodes)
    : spec_(spec), transport_(transport), num_nodes_(num_nodes), tally_(spec) {
  RESACC_CHECK(transport_ != nullptr);
  RESACC_CHECK(!spec_.tenants.empty());
}

void WorkloadDriver::TenantLoop(std::size_t tenant_index) {
  const TenantSpec& tenant = spec_.tenants[tenant_index];
  TenantOpStream stream(spec_, tenant_index, num_nodes_);

  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec_.duration_seconds));

  struct Pending {
    WorkloadOp op;
    std::future<QueryResponse> future;
  };
  std::deque<Pending> pending;

  auto settle_front = [&] {
    tally_.Record(pending.front().op, pending.front().future.get());
    pending.pop_front();
  };

  auto issue = [&](const WorkloadOp& op) {
    tally_.Sent(op);
    pending.push_back(Pending{op, transport_->Submit(op, tenant.name)});
  };

  if (tenant.rate > 0.0) {
    // Open loop: arrivals on the wall clock at `rate` ops/s regardless of
    // completions; futures park in `pending` and drain opportunistically.
    for (std::uint64_t n = 0; transport_->status().ok(); ++n) {
      const auto target =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(n) / tenant.rate));
      if (target >= stop_at) break;
      std::this_thread::sleep_until(target);
      issue(stream.Next());
      while (!pending.empty() &&
             pending.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        settle_front();
      }
    }
  } else {
    // Closed loop: `concurrency` virtual clients, each issuing its next op
    // as soon as one completes.
    while (Clock::now() < stop_at && transport_->status().ok()) {
      issue(stream.Next());
      while (pending.size() >= tenant.concurrency) settle_front();
    }
  }
  while (!pending.empty()) settle_front();
}

WorkloadReport WorkloadDriver::Run() {
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(spec_.tenants.size());
  for (std::size_t i = 0; i < spec_.tenants.size(); ++i) {
    threads.emplace_back([this, i] { TenantLoop(i); });
  }
  for (std::thread& t : threads) t.join();
  return tally_.Report(wall.ElapsedSeconds());
}

}  // namespace resacc
