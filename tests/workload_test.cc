// End-to-end workload harness tests against an in-process QueryService:
// a four-tenant mixed-class spec on a churning graph must only ever
// produce the outcomes documented in docs/QUERY_MODES.md, and the
// weighted fair queue must turn ServeOptions::tenant_weights into a
// proportional throughput split under saturation. Runs under TSAN in CI
// (driver threads + workers + mutation thread race by design).

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/core/rwr_config.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/op_stream.h"
#include "resacc/workload/workload_spec.h"

namespace resacc {
namespace {

// A four-tenant spec with every op class. Durations here are irrelevant —
// the tests replay a fixed number of ops from the stream, they do not run
// wall-clock loops (except the fairness test, which uses the driver).
const char kMixedSpec[] = R"(
seed 1234
source zipfian 0.99
top_k 5
deadline_ms 15

tenant gold
  weight 4
  concurrency 4
  class full 0.5
  class topk 0.5
end

tenant bronze
  weight 1
  concurrency 4
  class full 0.5
  class topk 0.5
end

tenant paced
  weight 2
  rate 10
  class full 0.4
  class topk 0.2
  class deadline 0.2
  class degraded 0.2
end

tenant churn
  weight 1
  concurrency 2
  class full 0.3
  class topk 0.2
  class deadline 0.1
  class degraded 0.1
  class mutation 0.3
end
)";

bool IsDocumentedQueryOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

// Replays the closed-loop tenants' merged op stream, with the open-loop
// tenant's own stream supplying every other op, against a real service
// while mutations churn the graph through MutableGraphView + UpdateGraph,
// and checks every single response against the documented outcome
// contract.
TEST(WorkloadTest, MixedClassStreamYieldsOnlyDocumentedOutcomes) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(kMixedSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkloadSpec& spec = parsed.value();

  const Graph graph = ChungLuPowerLaw(/*num_nodes=*/2000, /*num_edges=*/10000,
                                      /*exponent=*/2.1, /*seed=*/7);
  const RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;  // small enough to see kResourceExhausted
  for (const TenantSpec& tenant : spec.tenants) {
    options.tenant_weights.emplace_back(tenant.name, tenant.weight);
  }

  MutableGraphView view(graph.ShallowView());
  QueryService service(view.Snapshot(), config, options);

  MergedOpStream closed(spec, graph.num_nodes());
  TenantOpStream paced(spec, spec.TenantIndex("paced"), graph.num_nodes());
  struct Pending {
    WorkloadOp op;
    std::future<QueryResponse> future;
  };
  std::vector<Pending> window;
  std::size_t checked = 0;
  std::size_t mutations = 0;
  std::array<std::size_t, kNumOpClasses> seen{};

  auto settle = [&](Pending pending) {
    const QueryResponse response = pending.future.get();
    ++checked;
    ASSERT_TRUE(IsDocumentedQueryOutcome(response.status))
        << "undocumented outcome: " << response.status.ToString();
    if (!response.status.ok()) return;
    if (pending.op.cls == OpClass::kTopK) {
      // Top-k responses must carry the k entries asked for, or be an
      // explicitly degraded/certified-shorter prefix (topk->k tells how
      // far the certificate reaches).
      ASSERT_NE(response.topk, nullptr);
      EXPECT_FALSE(response.top.empty());
      if (!response.degraded) {
        EXPECT_TRUE(response.top.size() >= pending.op.top_k ||
                    response.topk->k >= pending.op.top_k)
            << "top-k response carries " << response.top.size()
            << " entries, certified k=" << response.topk->k
            << ", asked for " << pending.op.top_k;
      }
    } else if (pending.op.cls != OpClass::kMutation) {
      if (response.degraded) {
        EXPECT_TRUE(pending.op.allow_degraded);
        EXPECT_GT(response.achieved_epsilon, 0.0);
      } else {
        ASSERT_NE(response.scores, nullptr);
        EXPECT_EQ(response.scores->size(), graph.num_nodes());
      }
    }
  };

  for (int i = 0; i < 600; ++i) {
    const WorkloadOp op = i % 2 == 0 ? closed.Next() : paced.Next();
    seen[static_cast<std::size_t>(op.cls)]++;
    if (op.cls == OpClass::kMutation) {
      GraphDelta delta;
      const Status status =
          op.remove ? view.RemoveEdge(op.source, op.target, &delta)
                    : view.AddEdge(op.source, op.target, &delta);
      if (status.ok()) {
        service.UpdateGraph(view.Snapshot(), delta);
        ++mutations;
      } else {
        // The ledger guarantees adds/removes are consistent with the ops
        // the stream itself issued, but edges may collide with the base
        // graph: those surface as the documented no-op statuses.
        ASSERT_TRUE(status.code() == StatusCode::kAlreadyExists ||
                    status.code() == StatusCode::kNotFound)
            << status.ToString();
      }
      continue;
    }
    QueryRequest request;
    request.source = op.source;
    request.top_k = op.cls == OpClass::kTopK ? op.top_k : 0;
    request.deadline_seconds = op.deadline_seconds;
    request.allow_degraded = op.allow_degraded;
    request.tenant = spec.tenants[op.tenant].name;
    window.push_back(Pending{op, service.Submit(request)});
    if (window.size() >= 8) {
      settle(std::move(window.front()));
      window.erase(window.begin());
    }
  }
  for (Pending& pending : window) settle(std::move(pending));

  EXPECT_GE(checked, 400u);
  EXPECT_GT(mutations, 0u) << "the churn tenant never mutated the graph";
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    EXPECT_GT(seen[c], 0u) << "class " << OpClassName(static_cast<OpClass>(c))
                           << " never generated";
  }
}

// Under saturation (1 worker, no cache, no coalescing, two closed-loop
// tenants), the weight-4 tenant must complete at least 2x the computed
// queries of the weight-1 tenant. The scheduler's exact share is 4x; the
// 2x floor leaves room for edge effects at the run boundaries.
TEST(WorkloadTest, WeightFourTenantGetsTwiceWeightOneThroughput) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
duration_seconds 2.5
seed 77
source uniform

tenant gold
  weight 4
  concurrency 6
  class full 1
end

tenant bronze
  weight 1
  concurrency 6
  class full 1
end
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkloadSpec& spec = parsed.value();

  const Graph graph = ChungLuPowerLaw(/*num_nodes=*/5000, /*num_edges=*/25000,
                                      /*exponent=*/2.1, /*seed=*/7);
  const RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  ServeOptions options;
  options.num_workers = 1;   // a single contended resource
  options.cache_bytes = 0;   // every OK response is a real computation
  options.coalesce = false;  // no piggybacking across tenants
  options.queue_capacity = 64;
  for (const TenantSpec& tenant : spec.tenants) {
    options.tenant_weights.emplace_back(tenant.name, tenant.weight);
  }
  QueryService service(graph, config, options);

  WorkloadDriver driver(spec, &service, /*view=*/nullptr);
  const WorkloadReport report = driver.Run();

  ASSERT_EQ(report.tenant_names.size(), 2u);
  const std::uint64_t gold = report.computed_ok[0];
  const std::uint64_t bronze = report.computed_ok[1];
  ASSERT_GT(bronze, 0u) << "weight-1 tenant starved outright";
  EXPECT_GE(static_cast<double>(gold), 2.0 * static_cast<double>(bronze))
      << "gold=" << gold << " bronze=" << bronze
      << " — weighted fair queueing is not delivering proportional service";
  EXPECT_EQ(report.TotalErrors(), 0u);
}

// The driver's report carries latency percentiles for every class that
// sent traffic, and CheckBounds enforces documented bound files against
// it — including catching violations.
TEST(WorkloadTest, ReportFeedsBoundsChecker) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
duration_seconds 1
seed 5
source uniform

tenant solo
  weight 1
  concurrency 2
  class full 0.5
  class topk 0.5
end
)");
  ASSERT_TRUE(parsed.ok());

  const Graph graph = ChungLuPowerLaw(1000, 5000, 2.1, 7);
  const RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  ServeOptions options;
  options.num_workers = 1;
  QueryService service(graph, config, options);
  WorkloadDriver driver(parsed.value(), &service, nullptr);
  const WorkloadReport report = driver.Run();
  ASSERT_GT(report.TotalOk(), 0u);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"classes\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"solo\""), std::string::npos);

  EXPECT_TRUE(CheckBounds(report, "max_error_rate 0.5\nmin_ok_total 1\n")
                  .ok());
  const Status violated =
      CheckBounds(report, "min_ok_total 1000000000\n", "strict.bounds");
  ASSERT_FALSE(violated.ok());
  EXPECT_EQ(violated.code(), StatusCode::kFailedPrecondition);
  // Malformed bound files are InvalidArgument with a line number, and
  // unknown directives never pass silently.
  const Status malformed = CheckBounds(report, "max_p99_ms warp 1\n");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.code(), StatusCode::kInvalidArgument);
}

// Both drivers count through WorkloadTally: one rule per outcome code, and
// one top-k coverage rule (the entries an answer carried, whichever
// transport delivered it).
TEST(WorkloadTest, TallyCountsEachOutcomeByOneRule) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
tenant a
  class full 1
end
tenant b
  class topk 1
end
)");
  ASSERT_TRUE(parsed.ok());
  WorkloadTally tally(parsed.value());
  WorkloadOp topk;
  topk.cls = OpClass::kTopK;
  topk.tenant = 1;
  topk.top_k = 5;
  WorkloadOp full;
  WorkloadOp mutation;
  mutation.cls = OpClass::kMutation;
  for (int i = 0; i < 4; ++i) tally.Sent(topk);

  OpOutcome covered;
  covered.entries = 5;
  tally.Record(topk, covered);
  OpOutcome short_hit;
  short_hit.entries = 4;
  short_hit.cache_hit = true;
  tally.Record(topk, short_hit);
  OpOutcome rejected;
  rejected.code = StatusCode::kResourceExhausted;
  tally.Record(topk, rejected);
  OpOutcome expired;
  expired.code = StatusCode::kDeadlineExceeded;
  tally.Record(topk, expired);
  OpOutcome failed;
  failed.code = StatusCode::kInternal;
  tally.Record(full, failed);
  tally.Record(mutation, OpOutcome{});

  const WorkloadReport report = tally.Report(/*wall_seconds=*/2.0);
  const OpStats& t = report.classes[static_cast<std::size_t>(OpClass::kTopK)];
  EXPECT_EQ(t.sent, 4u);
  EXPECT_EQ(t.ok, 2u);
  EXPECT_EQ(t.certified, 1u);
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_EQ(t.rejected, 1u);
  EXPECT_EQ(t.deadline_exceeded, 1u);
  EXPECT_EQ(t.latency.count, 2u);
  EXPECT_EQ(report.tenants[1][static_cast<std::size_t>(OpClass::kTopK)].ok,
            2u);
  EXPECT_EQ(report.classes[static_cast<std::size_t>(OpClass::kFull)].errors,
            1u);
  EXPECT_EQ(report.TotalErrors(), 1u);
  // Only the top-k answer that was neither a hit nor coalesced consumed a
  // worker; the mutation never counts.
  EXPECT_EQ(report.computed_ok, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(report.tenant_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(report.wall_seconds, 2.0);
}

}  // namespace
}  // namespace resacc
