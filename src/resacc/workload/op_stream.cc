#include "resacc/workload/op_stream.h"

#include <algorithm>

#include "resacc/util/check.h"

namespace resacc {
namespace {

// Caps the mutation ledger; beyond this, new adds overwrite a random slot
// so removal targets stay a bounded, uniformly aged sample.
constexpr std::size_t kMaxPendingEdges = 4096;

}  // namespace

SourcePicker::SourcePicker(const WorkloadSpec& spec, NodeId num_nodes)
    : kind_(spec.picker),
      num_nodes_(num_nodes),
      zipf_(num_nodes, spec.picker == SourcePickerKind::kZipfian
                           ? spec.zipf_theta
                           : 0.0,
            spec.seed ^ 0x50C4711ULL) {
  RESACC_CHECK(num_nodes > 0);
  if (kind_ == SourcePickerKind::kHotset) {
    const double count = spec.hotset_fraction * static_cast<double>(num_nodes);
    hot_count_ = static_cast<NodeId>(count < 1.0 ? 1.0 : count);
    if (hot_count_ > num_nodes) hot_count_ = num_nodes;
    std::uint64_t sm = spec.seed ^ 0x407e5eedULL;
    hot_salt_ = SplitMix64(sm);
  }
}

NodeId SourcePicker::Next(Rng& rng) const {
  switch (kind_) {
    case SourcePickerKind::kZipfian:
      return zipf_.Next(rng);
    case SourcePickerKind::kUniform:
      return static_cast<NodeId>(rng.NextBounded(num_nodes_));
    case SourcePickerKind::kHotset: {
      // Pick a hot rank, then scramble it over the id space with a seeded
      // affine-ish hash so the hot set is not the low ids.
      const std::uint64_t rank = rng.NextBounded(hot_count_);
      std::uint64_t mixed = rank + hot_salt_;
      mixed = SplitMix64(mixed);
      return static_cast<NodeId>(mixed % num_nodes_);
    }
  }
  return 0;  // unreachable
}

TenantOpStream::TenantOpStream(const WorkloadSpec& spec,
                               std::size_t tenant_index, NodeId num_nodes)
    : name_(spec.tenants.at(tenant_index).name),
      tenant_index_(tenant_index),
      top_k_(spec.top_k),
      deadline_seconds_(spec.deadline_ms / 1e3),
      picker_(spec, num_nodes),
      rng_(Rng(spec.seed).Fork(0x7e4a47ULL + tenant_index)) {
  const TenantSpec& tenant = spec.tenants[tenant_index];
  double running = 0.0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    running += tenant.mix[i];
    cumulative_mix_[i] = running;
  }
  // Guard against normalization round-off: the last entry must cover 1.0.
  cumulative_mix_[kNumOpClasses - 1] = 1.0;
}

WorkloadOp TenantOpStream::Next() {
  WorkloadOp op;
  op.tenant = tenant_index_;
  const double draw = rng_.NextDouble();
  std::size_t idx = 0;
  while (idx + 1 < kNumOpClasses && draw >= cumulative_mix_[idx]) ++idx;
  op.cls = static_cast<OpClass>(idx);

  switch (op.cls) {
    case OpClass::kFull:
      op.source = picker_.Next(rng_);
      break;
    case OpClass::kTopK:
      op.source = picker_.Next(rng_);
      op.top_k = top_k_;
      break;
    case OpClass::kDeadline:
      op.source = picker_.Next(rng_);
      op.deadline_seconds = deadline_seconds_;
      break;
    case OpClass::kDegraded:
      op.source = picker_.Next(rng_);
      op.deadline_seconds = deadline_seconds_;
      op.allow_degraded = true;
      break;
    case OpClass::kMutation: {
      // Alternate between adding fresh edges and removing ones we added,
      // biased toward adds when the ledger is empty. The coin flip comes
      // first so the draw sequence is fixed regardless of ledger state...
      const bool want_remove = rng_.Bernoulli(0.5);
      if (want_remove && !pending_edges_.empty()) {
        const std::size_t slot = rng_.NextBounded(pending_edges_.size());
        op.remove = true;
        op.source = pending_edges_[slot].first;
        op.target = pending_edges_[slot].second;
        pending_edges_[slot] = pending_edges_.back();
        pending_edges_.pop_back();
      } else {
        // ...and the add path always burns exactly two picker draws plus
        // one bounded draw, keeping replay byte-stable.
        op.source = picker_.Next(rng_);
        op.target = picker_.Next(rng_);
        if (op.target == op.source) {
          op.target = (op.target + 1) % picker_.num_nodes();
        }
        if (pending_edges_.size() < kMaxPendingEdges) {
          pending_edges_.emplace_back(op.source, op.target);
        } else {
          pending_edges_[rng_.NextBounded(kMaxPendingEdges)] = {op.source,
                                                                op.target};
        }
      }
      break;
    }
  }
  return op;
}

MergedOpStream::MergedOpStream(const WorkloadSpec& spec, NodeId num_nodes) {
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& tenant = spec.tenants[i];
    if (tenant.rate > 0.0) continue;
    streams_.emplace_back(spec, i, num_nodes);
    share_.push_back(static_cast<double>(tenant.concurrency));
    virtual_time_.push_back(0.0);
  }
}

WorkloadOp MergedOpStream::Next() {
  RESACC_CHECK(!streams_.empty());
  // Earliest virtual deadline first; ties go to the lowest tenant index, so
  // the interleave is a deterministic function of the spec alone.
  std::size_t best = 0;
  for (std::size_t i = 1; i < streams_.size(); ++i) {
    if (virtual_time_[i] < virtual_time_[best]) best = i;
  }
  virtual_time_[best] += 1.0 / share_[best];
  return streams_[best].Next();
}

}  // namespace resacc
