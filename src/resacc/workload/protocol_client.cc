#include "resacc/workload/protocol_client.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <utility>

#include "resacc/serve/protocol.h"

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

// The answer a line reports, latency aside.
QueryResponse AnswerOf(const std::string& line) {
  StatusOr<protocol::Response> parsed = protocol::ParseResponse(line);
  protocol::Response fields;
  if (parsed.ok()) fields = std::move(parsed.value());
  QueryResponse answer;
  if (fields.tag == "err") {
    answer.status = fields.status;
  } else if (fields.tag != "ok") {
    answer.status = Status::Internal("unexpected answer '" + line + "'");
  }
  answer.cache_hit = fields.Field("hit") == 1.0;
  answer.coalesced = fields.Field("coalesced") == 1.0;
  answer.degraded = fields.Field("degraded") == 1.0;
  answer.stale = fields.Field("stale") == 1.0;
  for (const TopKEntry& entry : fields.top) {
    answer.top.emplace_back(entry.node, entry.estimate);
  }
  return answer;
}

QueryResponse Failure(const Status& status) {
  QueryResponse answer;
  answer.status = status;
  return answer;
}

}  // namespace

PipeTransport::PipeTransport(ProtocolClient* client)
    : client_(client), reader_([this] { ReadAnswers(); }) {}

PipeTransport::~PipeTransport() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  queued_.notify_one();
  reader_.join();
}

std::future<QueryResponse> PipeTransport::Submit(const WorkloadOp& op,
                                                 const std::string& tenant) {
  const std::string line = ProtocolClient::FormatOp(op, tenant);
  std::lock_guard send_lock(send_mu_);
  std::future<QueryResponse> answer;
  {
    std::lock_guard lock(mu_);
    if (!status_.ok()) {
      std::promise<QueryResponse> closed;
      closed.set_value(Failure(status_));
      return closed.get_future();
    }
    in_flight_.emplace_back();
    answer = in_flight_.back().answer.get_future();
  }
  queued_.notify_one();
  client_->SendLine(line);
  client_->Flush();
  return answer;
}

Status PipeTransport::status() const {
  std::lock_guard lock(mu_);
  return status_;
}

void PipeTransport::ReadAnswers() {
  std::string line;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      queued_.wait(lock, [&] { return !in_flight_.empty() || stopping_; });
      if (in_flight_.empty()) return;
    }
    const bool read = client_->ReadLine(line);
    std::unique_lock lock(mu_);
    if (!read) {
      status_ = Status::Internal("server closed mid-run");
      for (InFlight& op : in_flight_) op.answer.set_value(Failure(status_));
      in_flight_.clear();
      return;
    }
    InFlight op = std::move(in_flight_.front());
    in_flight_.pop_front();
    lock.unlock();
    const double latency = op.timer.ElapsedSeconds();
    QueryResponse answer = AnswerOf(line);
    answer.latency_seconds = latency;
    op.answer.set_value(std::move(answer));
  }
}

}  // namespace resacc
