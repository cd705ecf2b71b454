#ifndef RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
#define RESACC_WORKLOAD_PROTOCOL_CLIENT_H_

#include <cstdio>
#include <string>

#include <sys/types.h>

#include "resacc/util/status.h"
#include "resacc/util/types.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/op_stream.h"

namespace resacc {

// Client side of the resacc_serve stdin/stdout line protocol: spawns the
// server under /bin/sh (POSIX fork/exec, like the rest of the tooling),
// performs the `info` handshake, and moves lines through the pipe. Lines
// are formatted and parsed by serve/protocol.h, the module the server uses
// too. Shared by loadgen and bench_workload --serve-cmd. Not thread-safe
// per direction: one thread may send while another reads.
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

// Replays the spec over an already-handshaken client for
// spec.duration_seconds of wall time, and fills `report` (all but its
// spec_origin) through the same WorkloadTally as the in-process driver.
// Open-loop tenants are paced as WorkloadDriver paces them: op i of a
// tenant with `rate` goes out no earlier than start + i / rate. The
// closed-loop tenants form one deterministic merged stream
// (MergedOpStream) with `window` ops pipelined. A reader thread settles
// answers while the sender waits. Latencies are client-observed wall
// times; the queue-wait/compute split is unavailable through the pipe; a
// line that is neither `ok` nor `err` counts as an error. kInternal when
// the server closes mid-run. Used by bench_workload --serve-cmd and
// loadgen.
Status RunProtocolWorkload(const WorkloadSpec& spec, ProtocolClient& client,
                           NodeId num_nodes, std::size_t window,
                           WorkloadReport* report);

}  // namespace resacc

#endif  // RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
