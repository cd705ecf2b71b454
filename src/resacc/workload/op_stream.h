#ifndef RESACC_WORKLOAD_OP_STREAM_H_
#define RESACC_WORKLOAD_OP_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "resacc/serve/workload.h"
#include "resacc/util/rng.h"
#include "resacc/util/types.h"
#include "resacc/workload/workload_spec.h"

namespace resacc {

// One generated operation. The driver translates this into a QueryRequest
// (or a MutableGraphView edit) — the stream itself never talks to the
// server, which is what keeps generation deterministic: the op sequence is
// a pure function of (spec, seed, tenant), independent of server outcomes,
// thread scheduling, or wall clock.
struct WorkloadOp {
  OpClass cls = OpClass::kFull;
  std::size_t tenant = 0;  // index into WorkloadSpec::tenants
  NodeId source = 0;
  // Mutation fields (cls == kMutation).
  NodeId target = 0;
  bool remove = false;  // rmedge vs addedge
  // Query fields.
  std::size_t top_k = 0;           // kTopK
  double deadline_seconds = 0.0;   // kDeadline / kDegraded
  bool allow_degraded = false;     // kDegraded
};

// Draws query sources according to the spec's picker. Zipfian delegates to
// the serving layer's ZipfianSources; uniform and hotset are direct draws.
// Stateless between calls — all randomness comes from the caller's Rng.
class SourcePicker {
 public:
  SourcePicker(const WorkloadSpec& spec, NodeId num_nodes);

  NodeId Next(Rng& rng) const;
  NodeId num_nodes() const { return num_nodes_; }

 private:
  SourcePickerKind kind_;
  NodeId num_nodes_;
  NodeId hot_count_ = 0;          // kHotset
  std::uint64_t hot_salt_ = 0;    // kHotset: seeded id scramble
  ZipfianSources zipf_;           // kZipfian (always built; cheap for others)
};

// The deterministic op generator for one tenant. Its Rng is forked from
// (spec.seed, tenant index), so two streams for the same tenant produce
// byte-identical op sequences regardless of what any other tenant — or the
// server — is doing. Mutation churn keeps a stream-local ledger of edges
// it has added so rmedge ops target plausible edges without ever consulting
// the server.
class TenantOpStream {
 public:
  TenantOpStream(const WorkloadSpec& spec, std::size_t tenant_index,
                 NodeId num_nodes);

  // Generates the next op. Never fails; infinite stream.
  WorkloadOp Next();

  const std::string& tenant_name() const { return name_; }

 private:
  std::string name_;
  std::size_t tenant_index_;
  std::array<double, kNumOpClasses> cumulative_mix_{};
  std::size_t top_k_;
  double deadline_seconds_;
  SourcePicker picker_;
  Rng rng_;
  // Edges this stream "believes" it has added and not yet removed. Bounded
  // so a mutation-heavy tenant doesn't grow without limit.
  std::vector<std::pair<NodeId, NodeId>> pending_edges_;
};

// Interleaves the closed-loop tenants' streams into one deterministic
// total order, weighted by each tenant's concurrency. Open-loop tenants
// (rate > 0) are left out: every front-end paces them on the wall clock
// with their own TenantOpStream. RunProtocolWorkload pipelines this
// stream; WorkloadDriver instead runs one TenantOpStream per tenant
// thread. Next() needs at least one closed-loop tenant.
class MergedOpStream {
 public:
  MergedOpStream(const WorkloadSpec& spec, NodeId num_nodes);

  WorkloadOp Next();

 private:
  std::vector<TenantOpStream> streams_;
  std::vector<double> share_;         // ops per virtual second
  std::vector<double> virtual_time_;  // next-op time per tenant
};

}  // namespace resacc

#endif  // RESACC_WORKLOAD_OP_STREAM_H_
