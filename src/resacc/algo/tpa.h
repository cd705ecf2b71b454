#ifndef RESACC_ALGO_TPA_H_
#define RESACC_ALGO_TPA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"

namespace resacc {

struct TpaOptions {
  // Hops of exact cumulative power iteration in the query phase (the
  // "family + neighbor" near field); beyond it the walk-mass tail is
  // approximated by the PageRank index. More hops = slower + more accurate.
  std::uint32_t near_hops = 15;
  // Convergence threshold of the offline PageRank computation.
  double pagerank_tolerance = 1e-12;
  std::size_t memory_budget_bytes = 0;  // 0 = unlimited
};

// TPA (Yoon et al. [31], simplified — see DESIGN.md "Baseline fidelity"):
// an index-oriented iterative method. Offline it computes the global
// PageRank vector; online it runs `near_hops` rounds of cumulative power
// iteration from the source (exact near-field mass) and assigns the
// remaining (1-alpha)^near_hops tail mass proportionally to PageRank —
// the paper's "estimate RWR of far nodes by their PageRank scores". The
// additive tail error is what degrades TPA's NDCG on large graphs
// (Fig. 5).
class Tpa : public IndexedSsrwrAlgorithm {
 public:
  Tpa(const Graph& graph, const RwrConfig& config,
      const TpaOptions& options = {});
  Tpa(Graph&&, const RwrConfig&, const TpaOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  Status BuildIndex() override;
  bool IndexReady() const override { return index_ready_; }
  std::size_t IndexBytes() const override;

  std::vector<Score> Query(NodeId source) override;

  const std::vector<Score>& pagerank() const { return pagerank_; }

 private:
  const Graph& graph_;
  RwrConfig config_;
  TpaOptions options_;
  std::string name_;
  bool index_ready_ = false;
  std::vector<Score> pagerank_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_TPA_H_
