#ifndef RESACC_ALGO_INVERSE_H_
#define RESACC_ALGO_INVERSE_H_

#include <memory>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/la/dense_matrix.h"

namespace resacc {

// Exact RWR via dense matrix inversion (Tong et al. [23]):
//   pi_s = alpha * (I - (1 - alpha) * Ptilde^T)^(-1) e_s,
// where Ptilde applies the dangling policy exactly: under kAbsorb a sink
// gets a self loop (the stuck walk terminates there); under kBackToSource
// a sink's row is e_s, which depends on the query source, so the LU factor
// is recomputed per source in that case (kAbsorb factors once).
//
// O(n^3) factorization / O(n^2) memory: the library's oracle for tests and
// tiny graphs only. Construction CHECKs n <= kMaxNodes.
class ExactInverse : public SsrwrAlgorithm {
 public:
  static constexpr NodeId kMaxNodes = 4096;

  ExactInverse(const Graph& graph, const RwrConfig& config);
  ExactInverse(Graph&&, const RwrConfig&) = delete;

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

 private:
  std::unique_ptr<LuDecomposition> Factor(NodeId source) const;

  const Graph& graph_;
  RwrConfig config_;
  std::string name_;
  bool has_dangling_ = false;
  std::unique_ptr<LuDecomposition> cached_factor_;  // kAbsorb or no sinks
};

}  // namespace resacc

#endif  // RESACC_ALGO_INVERSE_H_
