#include "resacc/workload/protocol_client.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "resacc/serve/protocol.h"
#include "resacc/util/timer.h"

namespace resacc {

ProtocolClient::~ProtocolClient() { Shutdown(); }

Status ProtocolClient::Spawn(const std::string& command) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    return Status::Internal("pipe() failed");
  }
  pid_ = fork();
  if (pid_ < 0) return Status::Internal("fork() failed");
  if (pid_ == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl("/bin/sh", "sh", "-c", command.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  to_server_ = fdopen(to_child[1], "w");
  from_server_ = fdopen(from_child[0], "r");
  if (to_server_ == nullptr || from_server_ == nullptr) {
    return Status::Internal("fdopen() failed");
  }
  return Status::Ok();
}

StatusOr<NodeId> ProtocolClient::Handshake() {
  SendLine(protocol::FormatRequest(protocol::Verb::kInfo));
  Flush();
  std::string line;
  double nodes = 0.0;
  if (ReadLine(line)) {
    const StatusOr<protocol::Response> info = protocol::ParseResponse(line);
    if (info.ok() && info.value().tag == "info") {
      nodes = info.value().Field("nodes").value_or(0.0);
    }
  }
  if (!(nodes >= 1.0)) {
    return Status::Internal("bad handshake: '" + line + "'");
  }
  return static_cast<NodeId>(nodes);
}

std::string ProtocolClient::FormatOp(const WorkloadOp& op,
                                     const std::string& tenant) {
  protocol::Request request;
  request.source = op.source;
  switch (op.cls) {
    case OpClass::kMutation:
      request.verb =
          op.remove ? protocol::Verb::kRmEdge : protocol::Verb::kAddEdge;
      request.target = op.target;
      return protocol::FormatRequest(request);
    case OpClass::kTopK:
      request.verb = protocol::Verb::kTopK;
      request.count = static_cast<std::uint32_t>(op.top_k > 0 ? op.top_k : 10);
      break;
    case OpClass::kFull:
      request.verb = protocol::Verb::kQuery;
      break;
    case OpClass::kDeadline:
    case OpClass::kDegraded:
      request.verb = protocol::Verb::kQuery;
      request.deadline_ms = std::round(op.deadline_seconds * 1e6) / 1e3;
      request.degraded = op.cls == OpClass::kDegraded;
      break;
  }
  request.tenant = tenant;
  return protocol::FormatRequest(request);
}

void ProtocolClient::SendLine(const std::string& line) {
  std::fprintf(to_server_, "%s\n", line.c_str());
}

void ProtocolClient::Flush() { std::fflush(to_server_); }

bool ProtocolClient::ReadLine(std::string& out) {
  return protocol::ReadLine(from_server_, &out);
}

int ProtocolClient::Shutdown() {
  if (pid_ < 0) return 0;
  if (to_server_ != nullptr) {
    SendLine(protocol::FormatRequest(protocol::Verb::kQuit));
    Flush();
    fclose(to_server_);
    to_server_ = nullptr;
  }
  if (from_server_ != nullptr) {
    // Drain whatever the server still writes (at least `bye`) so it never
    // blocks on a full pipe while exiting.
    std::string ignored;
    while (protocol::ReadLine(from_server_, &ignored, /*keep=*/0)) {
    }
    fclose(from_server_);
    from_server_ = nullptr;
  }
  int wstatus = 0;
  waitpid(pid_, &wstatus, 0);
  pid_ = -1;
  return wstatus;
}

namespace {

// The outcome an answer line reports, latency aside. A line that is
// neither `ok ...` nor `err ...` counts as an error.
OpOutcome OutcomeOf(const std::string& line) {
  StatusOr<protocol::Response> parsed = protocol::ParseResponse(line);
  protocol::Response answer;
  if (parsed.ok()) answer = std::move(parsed.value());
  OpOutcome outcome;
  outcome.code = answer.tag == "ok"    ? StatusCode::kOk
                 : answer.tag == "err" ? answer.status.code()
                                       : StatusCode::kInternal;
  outcome.cache_hit = answer.Field("hit") == 1.0;
  outcome.coalesced = answer.Field("coalesced") == 1.0;
  outcome.degraded = answer.Field("degraded") == 1.0;
  outcome.stale = answer.Field("stale") == 1.0;
  outcome.entries = answer.top.size();
  return outcome;
}

}  // namespace

Status RunProtocolWorkload(const WorkloadSpec& spec, ProtocolClient& client,
                           NodeId num_nodes, std::size_t window,
                           WorkloadReport* report) {
  WorkloadTally tally(spec);
  if (window == 0) window = 1;

  // Open-loop tenants send op i no earlier than start + i / rate, as
  // WorkloadDriver does; the closed-loop tenants share one merged stream
  // that keeps `window` ops in flight.
  struct Paced {
    TenantOpStream stream;
    double rate;
    std::uint64_t sent = 0;
    double Due() const { return static_cast<double>(sent) / rate; }
  };
  std::vector<Paced> paced;
  bool any_closed = false;
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    const double rate = spec.tenants[t].rate;
    if (rate > 0.0) {
      paced.push_back(Paced{TenantOpStream(spec, t, num_nodes), rate});
    } else {
      any_closed = true;
    }
  }
  MergedOpStream closed(spec, num_nodes);

  struct InFlight {
    WorkloadOp op;
    Timer timer;
  };
  std::mutex mu;
  std::condition_variable settled;
  std::deque<InFlight> in_flight;    // guarded by mu
  std::size_t closed_in_flight = 0;  // guarded by mu
  bool sending = true;               // guarded by mu
  bool server_closed = false;        // guarded by mu

  // The reader settles answers in order while the sender waits for the
  // next due op: it reads a line whenever an op is in flight, and stops
  // once sending is over and nothing is left, or the server closes.
  std::jthread reader([&] {
    std::string line;
    for (;;) {
      {
        std::unique_lock lock(mu);
        settled.wait(lock, [&] { return !in_flight.empty() || !sending; });
        if (in_flight.empty()) return;
      }
      if (!client.ReadLine(line)) {
        std::lock_guard lock(mu);
        server_closed = true;
        settled.notify_all();
        return;
      }
      OpOutcome outcome = OutcomeOf(line);
      std::lock_guard lock(mu);
      const InFlight& sent = in_flight.front();
      // Client-observed wall latency; the us= field would miss pipe time.
      outcome.latency_seconds = sent.timer.ElapsedSeconds();
      tally.Record(sent.op, outcome);
      if (spec.tenants[sent.op.tenant].rate <= 0.0) --closed_in_flight;
      in_flight.pop_front();
      settled.notify_all();
    }
  });

  // Registers the op before its line goes out, so the reader finds it;
  // the pipe is written without the lock, which the reader needs to
  // drain the server's answers.
  const auto send = [&](const WorkloadOp& op) {
    {
      std::lock_guard lock(mu);
      in_flight.push_back(InFlight{op, Timer()});
      if (spec.tenants[op.tenant].rate <= 0.0) ++closed_in_flight;
      tally.Sent(op);
    }
    client.SendLine(
        ProtocolClient::FormatOp(op, spec.tenants[op.tenant].name));
  };
  const auto window_open = [&] {
    std::lock_guard lock(mu);
    return any_closed && closed_in_flight < window;
  };

  Timer wall;
  for (double now = 0.0; now < spec.duration_seconds;
       now = wall.ElapsedSeconds()) {
    for (Paced& tenant : paced) {
      for (; tenant.Due() <= now; ++tenant.sent) send(tenant.stream.Next());
    }
    while (window_open()) send(closed.Next());
    client.Flush();

    // Sleep until the next open-loop op is due, a closed-loop slot frees
    // up, or the run ends.
    double wake = spec.duration_seconds;
    for (const Paced& tenant : paced) wake = std::min(wake, tenant.Due());
    std::unique_lock lock(mu);
    settled.wait_for(
        lock, std::chrono::duration<double>(wake - wall.ElapsedSeconds()),
        [&] {
          return server_closed || (any_closed && closed_in_flight < window);
        });
    if (server_closed) return Status::Internal("server closed mid-run");
  }
  {
    std::lock_guard lock(mu);
    sending = false;
  }
  settled.notify_all();
  reader.join();
  if (server_closed) return Status::Internal("server closed during drain");
  const std::string origin = report->spec_origin;
  *report = tally.Report(wall.ElapsedSeconds());
  report->spec_origin = origin;
  return Status::Ok();
}

}  // namespace resacc
