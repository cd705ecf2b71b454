// Workload harness tests. Against an in-process QueryService, a
// four-tenant mixed-class spec on a churning graph must only ever produce
// the outcomes documented in docs/QUERY_MODES.md, and the weighted fair
// queue must turn ServeOptions::tenant_weights into a proportional
// throughput split under saturation. Against a fake transport, the driver
// must keep each closed-loop tenant's concurrency and pace each open-loop
// tenant's rate; over the pipe, against a stub server, answers must
// settle as they arrive and a server that closes must fail the run. Runs
// under TSAN in CI (driver threads + workers + mutation thread race by
// design).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/core/rwr_config.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/op_stream.h"
#include "resacc/workload/protocol_client.h"
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

// Replays every tenant's op stream, interleaved round-robin, through a
// ServiceTransport against a real service while the churn tenant's
// mutations edit the graph, and checks every single answer against the
// documented outcome contract.
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
  ServiceTransport transport(&service, &view);

  std::vector<TenantOpStream> streams;
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    streams.emplace_back(spec, t, graph.num_nodes());
  }
  struct Pending {
    WorkloadOp op;
    std::future<QueryResponse> future;
  };
  std::vector<Pending> window;
  std::size_t checked = 0;
  std::array<std::size_t, kNumOpClasses> seen{};

  auto settle = [&](Pending pending) {
    const QueryResponse response = pending.future.get();
    ++checked;
    if (pending.op.cls == OpClass::kMutation) {
      // The ledger keeps adds and removes consistent with the ops the
      // stream itself issued; an edge that collides with the base graph
      // is a validated no-op, which answers OK too.
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      return;
    }
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
    } else if (response.degraded) {
      EXPECT_TRUE(pending.op.allow_degraded);
      EXPECT_GT(response.achieved_epsilon, 0.0);
    } else {
      ASSERT_NE(response.scores, nullptr);
      EXPECT_EQ(response.scores->size(), graph.num_nodes());
    }
  };

  for (std::size_t i = 0; i < 600; ++i) {
    const WorkloadOp op = streams[i % streams.size()].Next();
    seen[static_cast<std::size_t>(op.cls)]++;
    window.push_back(
        Pending{op, transport.Submit(op, spec.tenants[op.tenant].name)});
    if (window.size() >= 8) {
      settle(std::move(window.front()));
      window.erase(window.begin());
    }
  }
  for (Pending& pending : window) settle(std::move(pending));

  EXPECT_EQ(checked, 600u);
  EXPECT_GT(service.graph_epoch(), 0u)
      << "the churn tenant never mutated the graph";
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

  ServiceTransport transport(&service, /*view=*/nullptr);
  const WorkloadReport report =
      WorkloadDriver(spec, &transport, graph.num_nodes()).Run();

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
  ServiceTransport transport(&service, /*view=*/nullptr);
  const WorkloadReport report =
      WorkloadDriver(parsed.value(), &transport, graph.num_nodes()).Run();
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

// Every front-end counts through WorkloadTally: one rule per status code,
// and one top-k coverage rule (the entries an answer carried, whichever
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

  QueryResponse covered;
  covered.top.resize(5);
  tally.Record(topk, covered);
  QueryResponse short_hit;
  short_hit.top.resize(4);
  short_hit.cache_hit = true;
  tally.Record(topk, short_hit);
  QueryResponse rejected;
  rejected.status = Status::ResourceExhausted("queue full");
  tally.Record(topk, rejected);
  QueryResponse expired;
  expired.status = Status::DeadlineExceeded("expired");
  tally.Record(topk, expired);
  QueryResponse failed;
  failed.status = Status::Internal("broken");
  tally.Record(full, failed);
  tally.Record(mutation, QueryResponse{});

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

// Answers every op OK about a millisecond after it arrives, in arrival
// order, and counts per tenant the ops it received and the most it held
// unanswered at once.
class FakeTransport : public WorkloadTransport {
 public:
  explicit FakeTransport(std::size_t tenants)
      : received_(tenants, 0), outstanding_(tenants, 0), peak_(tenants, 0) {}

  ~FakeTransport() override {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    arrived_.notify_one();
    answerer_.join();
  }

  std::future<QueryResponse> Submit(const WorkloadOp& op,
                                    const std::string& /*tenant*/) override {
    std::lock_guard lock(mu_);
    ++received_[op.tenant];
    peak_[op.tenant] = std::max(peak_[op.tenant], ++outstanding_[op.tenant]);
    held_.push_back(Held{op.tenant, Clock::now() + kDelay, {}});
    arrived_.notify_one();
    return held_.back().answer.get_future();
  }

  std::vector<std::size_t> received() const {
    std::lock_guard lock(mu_);
    return received_;
  }
  std::vector<std::size_t> peak() const {
    std::lock_guard lock(mu_);
    return peak_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::milliseconds kDelay{1};

  struct Held {
    std::size_t tenant;
    Clock::time_point due;
    std::promise<QueryResponse> answer;
  };

  void Answer() {
    std::unique_lock lock(mu_);
    for (;;) {
      arrived_.wait(lock, [&] { return !held_.empty() || stopping_; });
      if (held_.empty()) return;
      if (Clock::now() < held_.front().due) {
        arrived_.wait_until(lock, held_.front().due);
        continue;
      }
      Held held = std::move(held_.front());
      held_.pop_front();
      // Counted down before the answer lands, so the driver's next op
      // never meets a stale count.
      --outstanding_[held.tenant];
      held.answer.set_value(QueryResponse{});
    }
  }

  mutable std::mutex mu_;
  std::condition_variable arrived_;
  std::deque<Held> held_;
  std::vector<std::size_t> received_;
  std::vector<std::size_t> outstanding_;
  std::vector<std::size_t> peak_;
  bool stopping_ = false;
  std::thread answerer_{[this] { Answer(); }};
};

// The driver's rule, whatever the transport: a closed-loop tenant keeps
// exactly `concurrency` ops outstanding, mutations included; an open-loop
// tenant at 40/s sends 20 ops in 0.5 s; and the tally counts as sent what
// the transport received.
TEST(WorkloadTest, DriverKeepsConcurrencyAndPacesRate) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
duration_seconds 0.5
seed 3
source uniform

tenant wide
  concurrency 6
  class full 1
end

tenant churn
  concurrency 2
  class full 0.5
  class mutation 0.5
end

tenant paced
  rate 40
  class topk 1
end
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  FakeTransport transport(3);
  const WorkloadReport report =
      WorkloadDriver(parsed.value(), &transport, /*num_nodes=*/100).Run();

  const std::vector<std::size_t> peak = transport.peak();
  EXPECT_EQ(peak[0], 6u);
  EXPECT_EQ(peak[1], 2u);
  const std::vector<std::size_t> received = transport.received();
  EXPECT_NEAR(static_cast<double>(received[2]), 20.0, 1.0);
  for (std::size_t t = 0; t < received.size(); ++t) {
    std::uint64_t sent = 0;
    for (const OpStats& s : report.tenants[t]) sent += s.sent;
    EXPECT_EQ(sent, received[t]) << report.tenant_names[t];
  }
  EXPECT_GT(report.classes[static_cast<std::size_t>(OpClass::kMutation)].ok,
            0u);
  EXPECT_EQ(report.TotalOk(), report.TotalSent());
}

// A stand-in for resacc_serve: answers `info` with a node count, `quit`
// with `bye`, and any other line at once with a bare `ok`.
constexpr char kEchoServer[] =
    "while read -r verb rest; do case $verb in "
    "info) echo 'info nodes=1000';; quit) echo bye; exit 0;; *) echo ok;; "
    "esac; done";

// Over the pipe, each answer settles as soon as it arrives: with closed-
// loop traffic keeping the pipe busy, every op against a server that
// answers at once comes back OK within the paced tenant's 1 / rate.
TEST(WorkloadTest, PipeSettlesAnswersAsTheyArrive) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
duration_seconds 1
seed 5
source uniform

tenant busy
  concurrency 4
  class full 0.5
  class topk 0.5
end

tenant paced
  rate 10
  class full 1
end
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ProtocolClient client;
  ASSERT_TRUE(client.Spawn(kEchoServer).ok());
  const StatusOr<NodeId> nodes = client.Handshake();
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  ASSERT_EQ(nodes.value(), 1000u);

  WorkloadReport report;
  {
    PipeTransport transport(&client);
    report = WorkloadDriver(parsed.value(), &transport, nodes.value()).Run();
    EXPECT_TRUE(transport.status().ok()) << transport.status().ToString();
  }
  EXPECT_EQ(report.TotalOk(), report.TotalSent());
  std::uint64_t paced = 0;
  for (const OpStats& s : report.tenants[1]) paced += s.sent;
  EXPECT_NEAR(static_cast<double>(paced), 10.0, 1.0);
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    EXPECT_LT(report.classes[c].latency.max, 1.0 / 10)
        << OpClassName(static_cast<OpClass>(c));
  }
  EXPECT_EQ(client.Shutdown(), 0);
}

// A server that closes mid-run fails every answer still outstanding, and
// the run stops there instead of at its 30 s: the stub answers the
// handshake and three lines, then exits.
TEST(WorkloadTest, PipeFailsOutstandingOpsWhenTheServerCloses) {
  std::signal(SIGPIPE, SIG_IGN);  // writes to the closed server must fail
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(R"(
duration_seconds 30
seed 5
source uniform

tenant busy
  concurrency 4
  class full 1
end
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ProtocolClient client;
  ASSERT_TRUE(client
                  .Spawn("read -r line; echo 'info nodes=50'; "
                         "for i in 1 2 3; do read -r line; echo ok; done")
                  .ok());
  const StatusOr<NodeId> nodes = client.Handshake();
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();

  WorkloadReport report;
  Status closed;
  {
    PipeTransport transport(&client);
    report = WorkloadDriver(parsed.value(), &transport, nodes.value()).Run();
    closed = transport.status();
  }
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.ToString().find("server closed"), std::string::npos)
      << closed.ToString();
  EXPECT_EQ(report.TotalOk(), 3u);
  EXPECT_GE(report.TotalErrors(), 1u);
  EXPECT_EQ(report.TotalOk() + report.TotalErrors(), report.TotalSent());
  EXPECT_LT(report.wall_seconds, 10.0);
}

}  // namespace
}  // namespace resacc
