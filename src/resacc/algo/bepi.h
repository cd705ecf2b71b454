#ifndef RESACC_ALGO_BEPI_H_
#define RESACC_ALGO_BEPI_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/graph/graph.h"
#include "resacc/la/dense_matrix.h"

namespace resacc {

struct BePiOptions {
  // SlashBurn hubs removed per iteration; 0 = auto (max(4, n/200)).
  NodeId hubs_per_iteration = 0;
  // Upper bound on spoke-block size (each block is dense-factored).
  NodeId max_block_size = 512;
  // BuildIndex fails with kResourceExhausted if the projected factor
  // storage (dense Schur complement + block LUs) exceeds this (0 = off).
  // This is the knob that reproduces the paper's o.o.m. rows in Table IV.
  std::size_t memory_budget_bytes = 0;
};

// BePI (Jung et al. [14], simplified — see DESIGN.md "Baseline fidelity"):
// a matrix-based index-oriented method. Offline, SlashBurn reorders the
// RWR system matrix A = I - (1-alpha) Ptilde^T into
//
//   [ H11  H12 ]   non-hub (spoke) part: block diagonal, small blocks
//   [ H21  H22 ]   hub part
//
// factors every H11 block densely, forms the hub Schur complement
// S = H22 - H21 H11^{-1} H12 *densely*, and LU-factors it — the dense hub
// block is exactly what makes BePI memory-hungry on large graphs. Online,
// a query is two block triangular solves plus one dense solve.
//
// Precomputed factors cannot depend on the query source, so on graphs with
// sinks the index requires DanglingPolicy::kAbsorb (like FORA+).
class BePi : public IndexedSsrwrAlgorithm {
 public:
  BePi(const Graph& graph, const RwrConfig& config,
       const BePiOptions& options = {});
  BePi(Graph&&, const RwrConfig&, const BePiOptions& = {}) = delete;

  const std::string& name() const override { return name_; }

  Status BuildIndex() override;
  bool IndexReady() const override { return index_ready_; }
  std::size_t IndexBytes() const override;

  std::vector<Score> Query(NodeId source) override;

  std::size_t num_hubs() const { return hub_count_; }
  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  // One spoke block: its nodes (new-order positions are contiguous) and
  // the dense LU factor of its diagonal sub-matrix.
  struct SpokeBlock {
    std::size_t offset = 0;  // first new-order index of the block
    std::vector<NodeId> nodes;
    std::unique_ptr<LuDecomposition> factor;
  };

  // Solves H11 x = b in place (b indexed by new order, size n1).
  void SolveSpoke(std::vector<double>& b) const;

  const Graph& graph_;
  RwrConfig config_;
  BePiOptions options_;
  std::string name_;
  bool index_ready_ = false;

  std::size_t hub_count_ = 0;
  std::size_t spoke_count_ = 0;           // n1
  std::vector<NodeId> new_order_;         // new index -> node
  std::vector<NodeId> position_;          // node -> new index
  std::vector<std::uint32_t> block_of_;   // new index (< n1) -> block id
  std::vector<SpokeBlock> blocks_;

  // Off-diagonal couplings in new-order coordinates. H12 is stored
  // column-wise (h12_cols_[j] lists (spoke row i, w) for hub column j) —
  // both the Schur assembly and the query consume it per column. H21 is
  // stored row-wise. Values hold +w; the matrix entries are -w.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> h12_cols_;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> h21_;

  std::unique_ptr<LuDecomposition> schur_factor_;
};

}  // namespace resacc

#endif  // RESACC_ALGO_BEPI_H_
