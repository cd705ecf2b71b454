#ifndef RESACC_ALGO_FORA_PLUS_H_
#define RESACC_ALGO_FORA_PLUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

struct ForaPlusOptions {
  // Forward-push threshold; <= 0 selects FORA's balanced default.
  Score r_max = 0.0;
  // Abort BuildIndex with kResourceExhausted if the index would exceed
  // this many bytes (0 = unlimited). Lets the benches reproduce the
  // paper's o.o.m. entries under a scaled memory budget.
  std::size_t memory_budget_bytes = 0;
};

// FORA+ (Wang et al. [28]): FORA plus an offline index of precomputed
// random-walk endpoints. After a forward push the residue of node v is at
// most r_max * d_out(v), so ceil(c * r_max * d_out(v)) stored endpoints
// per node always cover the remedy demand; the query phase replaces walk
// simulation with pool lookups.
//
// Precomputed walks cannot depend on the query source, so on graphs with
// sinks the index requires DanglingPolicy::kAbsorb (BuildIndex fails with
// kFailedPrecondition otherwise); see DESIGN.md.
class ForaPlus : public IndexedSsrwrAlgorithm {
 public:
  ForaPlus(const Graph& graph, const RwrConfig& config,
           const ForaPlusOptions& options = {});
  ForaPlus(Graph&&, const RwrConfig&, const ForaPlusOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  Status BuildIndex() override;
  bool IndexReady() const override { return index_ready_; }
  std::size_t IndexBytes() const override;

  // Index persistence: the offline phase is FORA+'s whole cost, so a real
  // deployment builds once and reloads. The file records the graph shape
  // and r_max; loading against a mismatched graph fails.
  Status SaveIndex(const std::string& path) const;
  Status LoadIndex(const std::string& path);

  std::vector<Score> Query(NodeId source) override;

  Score effective_r_max() const { return r_max_; }
  std::uint64_t index_walks() const { return pool_endpoints_.size(); }

 private:
  const Graph& graph_;
  RwrConfig config_;
  ForaPlusOptions options_;
  Score r_max_;
  std::string name_;
  PushState state_;
  Rng rng_;
  bool index_ready_ = false;

  // CSR pool of precomputed endpoints: walks from v occupy
  // pool_endpoints_[pool_offsets_[v] .. pool_offsets_[v+1]).
  std::vector<std::uint64_t> pool_offsets_;
  std::vector<NodeId> pool_endpoints_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_FORA_PLUS_H_
