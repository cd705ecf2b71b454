#ifndef RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
#define RESACC_WORKLOAD_PROTOCOL_CLIENT_H_

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include <sys/types.h>

#include "resacc/serve/query_service.h"
#include "resacc/util/status.h"
#include "resacc/util/timer.h"
#include "resacc/util/types.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/op_stream.h"

namespace resacc {

// Client side of the resacc_serve stdin/stdout line protocol: spawns the
// server under /bin/sh (POSIX fork/exec, like the rest of the tooling),
// performs the `info` handshake, and moves lines through the pipe. Lines
// are formatted and parsed by serve/protocol.h, the module the server uses
// too. Used by loadgen (through PipeTransport, below) and perfbench. Not
// thread-safe per direction: one thread may send while another reads.
class ProtocolClient {
 public:
  ProtocolClient() = default;
  ~ProtocolClient();

  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  // Spawns `command` with our pipe as its stdin/stdout. kInternal on
  // fork/pipe failure.
  Status Spawn(const std::string& command);

  // Sends `info` and returns the server's node count. Also the liveness
  // check right after Spawn — a command that failed to exec surfaces here.
  StatusOr<NodeId> Handshake();

  // One protocol line for `op` (docs/WORKLOADS.md maps classes to verbs):
  //   kFull      query <src> 10 [tenant=T]
  //   kTopK      topk <src> <k> [tenant=T]
  //   kDeadline  query <src> 10 deadline_ms=<D> [tenant=T]
  //   kDegraded  query <src> 10 deadline_ms=<D> degraded=1 [tenant=T]
  //   kMutation  addedge <u> <v> | rmedge <u> <v>
  // `tenant` may be empty (no tenant token). D is in milliseconds, to the
  // microsecond.
  static std::string FormatOp(const WorkloadOp& op,
                              const std::string& tenant);

  // Raw line IO. SendLine appends the newline; Flush after a batch.
  // ReadLine reads a whole line of any length, without its newline.
  void SendLine(const std::string& line);
  void Flush();
  bool ReadLine(std::string& out);

  // Sends `quit`, closes the pipes, reaps the child. Returns the child's
  // wait status (0 when it exited cleanly). Idempotent.
  int Shutdown();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  FILE* to_server_ = nullptr;
  FILE* from_server_ = nullptr;
};

// Carries workload ops over an already-handshaken client, which nothing
// else may use while the transport lives. Submit writes each op's line as
// it comes, in call order, and one reader thread settles the answers in
// request order. Latency is the client-observed wall time from Submit to
// the answer line; the queue-wait/compute split is unavailable through
// the pipe, and a line that is neither `ok` nor `err` is kInternal. Once
// the server closes, every outstanding and later op resolves kInternal
// and status() reports the close. POSIX: give the process SIG_IGN for
// SIGPIPE, or a write to a closed server kills it.
class PipeTransport : public WorkloadTransport {
 public:
  explicit PipeTransport(ProtocolClient* client);
  // Waits for the outstanding answers, then stops the reader.
  ~PipeTransport() override;

  std::future<QueryResponse> Submit(const WorkloadOp& op,
                                    const std::string& tenant) override;
  Status status() const override;

 private:
  struct InFlight {
    std::promise<QueryResponse> answer;
    Timer timer;
  };

  void ReadAnswers();

  ProtocolClient* const client_;
  // Held from queueing an op until its line is written, so lines enter
  // the pipe in queue order. The reader never takes it: a write blocked on
  // a full pipe must not stop the answers that drain it.
  std::mutex send_mu_;
  mutable std::mutex mu_;  // guards the fields below; no pipe I/O under it
  std::condition_variable queued_;
  std::deque<InFlight> in_flight_;
  Status status_;
  bool stopping_ = false;
  std::thread reader_;  // last: starts once the fields above exist
};

}  // namespace resacc

#endif  // RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
