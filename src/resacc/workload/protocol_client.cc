#include "resacc/workload/protocol_client.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <utility>

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

Status RunProtocolWorkload(const WorkloadSpec& spec, ProtocolClient& client,
                           NodeId num_nodes, std::size_t window,
                           WorkloadReport* report) {
  MergedOpStream stream(spec, num_nodes);
  WorkloadTally tally(spec);
  if (window == 0) window = 1;

  struct InFlight {
    WorkloadOp op;
    Timer timer;
  };
  std::deque<InFlight> in_flight;
  std::string line;

  // Reads the front op's answer; false when the server closed the pipe. A
  // line that is neither `ok ...` nor `err ...` counts as an error.
  auto settle_front = [&]() -> bool {
    if (!client.ReadLine(line)) return false;
    StatusOr<protocol::Response> parsed = protocol::ParseResponse(line);
    protocol::Response answer;
    if (parsed.ok()) answer = std::move(parsed.value());
    const InFlight& sent = in_flight.front();
    OpOutcome outcome;
    outcome.code = answer.tag == "ok"    ? StatusCode::kOk
                   : answer.tag == "err" ? answer.status.code()
                                         : StatusCode::kInternal;
    outcome.cache_hit = answer.Field("hit") == 1.0;
    outcome.coalesced = answer.Field("coalesced") == 1.0;
    outcome.degraded = answer.Field("degraded") == 1.0;
    outcome.stale = answer.Field("stale") == 1.0;
    outcome.entries = answer.top.size();
    // Client-observed wall latency; the us= field would miss pipe time.
    outcome.latency_seconds = sent.timer.ElapsedSeconds();
    tally.Record(sent.op, outcome);
    in_flight.pop_front();
    return true;
  };

  Timer wall;
  while (wall.ElapsedSeconds() < spec.duration_seconds) {
    while (in_flight.size() < window) {
      WorkloadOp op = stream.Next();
      client.SendLine(
          ProtocolClient::FormatOp(op, spec.tenants[op.tenant].name));
      tally.Sent(op);
      in_flight.push_back(InFlight{op, Timer()});
    }
    client.Flush();
    if (!settle_front()) {
      return Status::Internal("server closed mid-run");
    }
  }
  client.Flush();
  while (!in_flight.empty()) {
    if (!settle_front()) {
      return Status::Internal("server closed during drain");
    }
  }
  const std::string origin = report->spec_origin;
  *report = tally.Report(wall.ElapsedSeconds());
  report->spec_origin = origin;
  return Status::Ok();
}

}  // namespace resacc
