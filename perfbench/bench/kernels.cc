#include "kernels.h"

#include <algorithm>
#include <vector>

#include "resacc/core/batch_solver.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/omfwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/core/remedy.h"
#include "resacc/core/topk_solve.h"
#include "resacc/core/walk_engine.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/util/rng.h"

namespace perfbench {

using namespace resacc;

bool SameTopK(const TopKResult& a, const TopKResult& b) {
  if (a.k != b.k || a.certified != b.certified ||
      a.entries.size() != b.entries.size() ||
      a.outsider_upper != b.outsider_upper || a.bound_gap != b.bound_gap) {
    return false;
  }
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const TopKEntry& x = a.entries[i];
    const TopKEntry& y = b.entries[i];
    if (x.node != y.node || x.estimate != y.estimate || x.lower != y.lower ||
        x.upper != y.upper) {
      return false;
    }
  }
  return true;
}

bool CertificateHolds(const TopKResult& topk,
                      const std::vector<Score>& truth) {
  constexpr double kSlack = 1e-9;  // power-iteration tolerance + rounding
  std::vector<bool> listed(truth.size(), false);
  for (const TopKEntry& e : topk.entries) {
    listed[e.node] = true;
    if (truth[e.node] < e.lower - kSlack || truth[e.node] > e.upper + kSlack) {
      return false;
    }
  }
  for (std::size_t v = 0; v < truth.size(); ++v) {
    if (!listed[v] && truth[v] > topk.outsider_upper + kSlack) return false;
  }
  return true;
}

namespace {

// Times `fn` as one span of `name` under `parent` for request `request`.
template <typename Fn>
void Timed(Tracer& tracer, const char* name, std::uint64_t request,
          std::uint64_t parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  tracer.Record(name, request, parent, start, Clock::now());
}

}  // namespace

void ReplayKernels(const Graph& graph, const RwrConfig& config,
                   const ResAccOptions& options,
                   std::span<const ReplayQuery> queries, Tracer& tracer,
                   KernelCounters& counters) {
  ResAccSolver reference(graph, config, options);
  const Score r_max_f = reference.effective_r_max_f();
  const bool hybrid = options.hybrid.enable && options.use_hop_subgraph;
  PushState state(graph.num_nodes());
  WalkEngine engine(options.walk_threads);
  const Rng master(config.seed);

  std::uint64_t request = 0;
  for (const ReplayQuery& q : queries) {
    ++request;
    ++counters.queries;
    state.Reset();
    SolverPath path = SolverPath::kLocal;
    const std::uint64_t root = tracer.Begin("core.query", request, 0);

    HHopFwdOptions hhop;
    hhop.r_max_hop = options.r_max_hop;
    hhop.num_hops = options.num_hops;
    hhop.use_loop_accumulation = options.use_loop_accumulation;
    hhop.use_hop_subgraph = options.use_hop_subgraph;
    hhop.max_hop_set_fraction = options.max_hop_set_fraction;
    if (hybrid) {
      hhop.dense_probe = [&](const HHopFwdStats& s) {
        path = ChooseFromHopStats(graph, config, options.hybrid,
                                  hhop.r_max_hop, s.shrink_floored,
                                  static_cast<double>(s.hop_set_edges));
        return path != SolverPath::kLocal;
      };
    }
    HopLayers layers;
    HHopFwdStats hop_stats;
    Timed(tracer, "core.hhop", request, root, [&] {
      hop_stats = RunHHopFwd(graph, config, q.source, hhop, state, &layers);
    });
    counters.hhop_edges += hop_stats.push.edge_traversals;

    if (path == SolverPath::kLocal && !layers.layers.empty()) {
      PushRoundHook round_hook = [&](std::size_t) {
        if (!DenseBeatsRemedy(graph, config, options.hybrid,
                              state.ResidueSum(), options.walk_scale)) {
          return false;
        }
        path = SolverPath::kDenseResidueMass;
        return true;
      };
      PushStats push;
      Timed(tracer, "core.omfwd", request, root, [&] {
        push = RunOmfwd(graph, config, q.source, r_max_f, layers.layers.back(),
                        state, nullptr, hybrid ? &round_hook : nullptr);
      });
      counters.omfwd_edges += push.edge_traversals;
    }

    // Exactly one of the two payloads is filled, as in the solver.
    std::vector<Score> scores;
    TopKResult topk;
    if (path != SolverPath::kLocal) {
      DenseFinish dense;
      Timed(tracer, "core.dense", request, root, [&] {
        dense = RunDenseFinish(graph, config, q.source, state, options.hybrid,
                               nullptr);
      });
      if (q.top_k > 0) {
        topk = MakeApproximateTopK(dense.scores, q.top_k,
                                   dense.achieved_epsilon, dense.degraded,
                                   dense.uncorrected_mass);
      } else {
        scores = std::move(dense.scores);
      }
    } else if (q.top_k > 0) {
      ++counters.topk_queries;
      Rng rng = master.Fork(q.source);
      Timed(tracer, "core.topk", request, root, [&] {
        topk = SolveTopKFromState(graph, config, q.source, q.top_k, r_max_f,
                                  options.walk_scale, options.topk, state, rng,
                                  &engine, nullptr, Status::Ok());
      });
      if (topk.certified) ++counters.topk_certified;
      counters.topk_refine_edges += topk.refine_edges;
    } else {
      ++counters.remedy_queries;
      scores.assign(graph.num_nodes(), 0.0);
      for (NodeId v : state.touched()) scores[v] = state.reserve(v);
      Rng rng = master.Fork(q.source);
      RemedyStats remedy;
      Timed(tracer, "core.remedy", request, root, [&] {
        remedy = RunRemedy(graph, config, q.source, state, rng, scores,
                           options.walk_scale, 0.0, &engine, nullptr);
      });
      counters.remedy_walks += remedy.walks;
      counters.remedy_steps += remedy.steps;
    }
    tracer.End(root);

    // The reference solve runs outside every span.
    const bool same =
        q.top_k > 0
            ? SameTopK(topk, reference.QueryTopK(q.source, q.top_k))
            : scores ==
                  reference.QueryControlled(q.source, QueryControl{}).scores;
    if (!same) ++counters.mismatches;
  }
}

void ReplayBatches(const Graph& graph, const RwrConfig& config,
                   const ResAccOptions& options,
                   std::span<const ReplayQuery> queries, std::size_t batch,
                   Tracer& tracer, KernelCounters& counters) {
  ResAccSolver reference(graph, config, options);
  BatchSolver solver(graph, config, options);
  std::uint64_t request = 0;
  for (std::size_t begin = 0; begin < queries.size(); begin += batch) {
    const std::size_t end = std::min(queries.size(), begin + batch);
    std::vector<BatchLane> lanes;
    for (std::size_t i = begin; i < end; ++i) {
      lanes.push_back(BatchLane{queries[i].source, nullptr, 0});
    }
    std::vector<ControlledQueryResult> results;
    Timed(tracer, "core.batch", ++request, 0,
         [&] { results = solver.QueryBatch(lanes); });
    ++counters.batches;
    counters.batch_lane_pushes += solver.last_stats().push_operations;
    counters.batch_shared_pops += solver.last_stats().shared_node_pops;
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      if (results[b].scores !=
          reference.QueryControlled(lanes[b].source, QueryControl{}).scores) {
        ++counters.mismatches;
      }
    }
  }
}

void AddKernelMetrics(const Tracer& tracer, const KernelCounters& c,
                      Report& report) {
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hhop_s = tracer.TotalSeconds("core.hhop");
  const double omfwd_s = tracer.TotalSeconds("core.omfwd");
  const double remedy_s = tracer.TotalSeconds("core.remedy");
  const double topk_s = tracer.TotalSeconds("core.topk");
  const double dense_s = tracer.TotalSeconds("core.dense");
  const double solver_s = hhop_s + omfwd_s + remedy_s + topk_s + dense_s;
  const double queries = static_cast<double>(c.queries);

  report.Add("core.hhop.ms_per_query", per(hhop_s * 1e3, queries), "ms");
  report.Add("core.hhop.edges_per_s", per(c.hhop_edges, hhop_s), "1/s");
  report.Add("core.hhop.time_share", per(hhop_s, solver_s), "ratio");
  report.Add("core.omfwd.ms_per_query", per(omfwd_s * 1e3, queries), "ms");
  report.Add("core.omfwd.edges_per_s", per(c.omfwd_edges, omfwd_s), "1/s");
  report.Add("core.omfwd.edges_per_query", per(c.omfwd_edges, queries),
             "count");
  report.Add("core.omfwd.time_share", per(omfwd_s, solver_s), "ratio");
  const double remedy_q = static_cast<double>(c.remedy_queries);
  report.Add("core.remedy.ms_per_query", per(remedy_s * 1e3, remedy_q), "ms");
  report.Add("core.remedy.steps_per_s", per(c.remedy_steps, remedy_s), "1/s");
  report.Add("core.remedy.walks_per_query", per(c.remedy_walks, remedy_q),
             "count");
  report.Add("core.remedy.time_share", per(remedy_s, solver_s), "ratio");
  const double topk_q = static_cast<double>(c.topk_queries);
  report.Add("core.topk.ms_per_query", per(topk_s * 1e3, topk_q), "ms");
  report.Add("core.topk.certified_ratio", per(c.topk_certified, topk_q),
             "ratio");
  report.Add("core.topk.refine_edges_per_query",
             per(c.topk_refine_edges, topk_q), "count");
  report.Add("core.topk.time_share", per(topk_s, solver_s), "ratio");
  const double batches = static_cast<double>(c.batches);
  report.Add("core.batch.ms_per_batch",
             per(tracer.TotalSeconds("core.batch") * 1e3, batches), "ms");
  report.Add("core.batch.lanes_per_pop",
             per(c.batch_lane_pushes, c.batch_shared_pops), "ratio");
}

}  // namespace perfbench
