#ifndef RESACC_TESTS_TEST_GRAPHS_H_
#define RESACC_TESTS_TEST_GRAPHS_H_

#include <utility>
#include <vector>

#include "resacc/core/forward_push.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/graph/graph_builder.h"

namespace resacc::testing {

// The running-example graph of the paper's Figure 1:
//   v1 -> v2, v1 -> v3, v2 -> v4, v3 -> v2; v4 is a sink.
// Node ids: v1=0, v2=1, v3=2, v4=3.
inline Graph Figure1Graph() {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 1);
  return std::move(builder).Build();
}

// The looping-phenomenon graph of Figure 3: the directed triangle
// s -> v1 -> v2 -> s. Node ids: s=0, v1=1, v2=2.
inline Graph Figure3Graph() {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  return std::move(builder).Build();
}

// Directed cycle of n nodes.
inline Graph CycleGraph(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) builder.AddEdge(v, (v + 1) % n);
  return std::move(builder).Build();
}

// Star: hub 0 <-> each leaf (symmetrized).
inline Graph StarGraph(NodeId leaves) {
  GraphBuilder builder(leaves + 1, /*symmetrize=*/true);
  for (NodeId leaf = 1; leaf <= leaves; ++leaf) builder.AddEdge(0, leaf);
  return std::move(builder).Build();
}

// Explicit edge list helper.
inline Graph FromEdges(NodeId n,
                       const std::vector<std::pair<NodeId, NodeId>>& edges,
                       bool symmetrize = false) {
  GraphBuilder builder(n, symmetrize);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

// perfbench's push-batch workload: its graph (Chung-Lu, n = 5000,
// m = 734,516) and its config, under which n_r = r_sum * c * walk_scale
// with c * walk_scale = 70.9.
inline Graph PushBatchGraph() { return ChungLuPowerLaw(5000, 1000000, 2.1, 7); }

inline RwrConfig PushBatchConfig() {
  RwrConfig config;
  config.alpha = 0.15;
  config.epsilon = 0.5;
  config.delta = 0.01;
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  return config;
}
inline constexpr double kPushBatchWalkScale = 0.01;

// The residues push-batch's remedy sees: `source` and its out-neighbours
// pushed once each, as OMFWD's unconditional seed round does after a
// 1-hop h-HopFWD, which leaves residue on nearly every node of the
// source's 2-hop neighbourhood (about 5,000 here, against n_r of about 51).
inline PushState SeedRoundState(const Graph& graph, const RwrConfig& config,
                                NodeId source) {
  PushState state(graph.num_nodes());
  state.SetResidue(source, 1.0);
  std::vector<NodeId> seeds{source};
  for (NodeId v : graph.OutNeighbors(source)) seeds.push_back(v);
  RunForwardSearch(graph, config, source, /*r_max=*/1.0, seeds,
                   /*push_seeds_unconditionally=*/true, state);
  return state;
}

}  // namespace resacc::testing

#endif  // RESACC_TESTS_TEST_GRAPHS_H_
