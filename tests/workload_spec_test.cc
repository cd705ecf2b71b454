// WorkloadSpec parsing (all-or-nothing, line-numbered errors) and the
// determinism contract of the op streams: the generated sequence of
// (class, source, mutation) ops is a pure function of (spec, seed) —
// identical across runs and across however many threads generate
// per-tenant streams concurrently.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/workload/op_stream.h"
#include "resacc/workload/workload_spec.h"

namespace resacc {
namespace {

const char kGoodSpec[] = R"(# comment line
duration_seconds 12.5
seed 99
source zipfian 0.8
top_k 7
deadline_ms 25

tenant gold
  weight 4
  rate 100
  class full 3
  class topk 1
end

tenant bronze   # trailing comment
  weight 1
  concurrency 3
  class full 0.2
  class deadline 0.2
  class degraded 0.2
  class mutation 0.4
end
)";

TEST(WorkloadSpecTest, ParsesFullSpec) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(kGoodSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkloadSpec& spec = parsed.value();
  EXPECT_DOUBLE_EQ(spec.duration_seconds, 12.5);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.picker, SourcePickerKind::kZipfian);
  EXPECT_DOUBLE_EQ(spec.zipf_theta, 0.8);
  EXPECT_EQ(spec.top_k, 7u);
  EXPECT_DOUBLE_EQ(spec.deadline_ms, 25.0);
  ASSERT_EQ(spec.tenants.size(), 2u);

  const TenantSpec& gold = spec.tenants[0];
  EXPECT_EQ(gold.name, "gold");
  EXPECT_DOUBLE_EQ(gold.weight, 4.0);
  EXPECT_DOUBLE_EQ(gold.rate, 100.0);
  // Mix normalizes: 3:1 -> 0.75 / 0.25.
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<std::size_t>(OpClass::kFull)], 0.75);
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<std::size_t>(OpClass::kTopK)], 0.25);

  const TenantSpec& bronze = spec.tenants[1];
  EXPECT_EQ(bronze.concurrency, 3u);
  EXPECT_DOUBLE_EQ(
      bronze.mix[static_cast<std::size_t>(OpClass::kMutation)], 0.4);
  EXPECT_EQ(spec.TenantIndex("bronze"), 1u);
  EXPECT_EQ(spec.TenantIndex("nobody"), 2u);
}

TEST(WorkloadSpecTest, SourcePickerVariants) {
  const auto uniform =
      WorkloadSpec::Parse("source uniform\ntenant t\nclass full 1\nend\n");
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform.value().picker, SourcePickerKind::kUniform);
  const auto hotset =
      WorkloadSpec::Parse("source hotset 0.2\ntenant t\nclass full 1\nend\n");
  ASSERT_TRUE(hotset.ok());
  EXPECT_EQ(hotset.value().picker, SourcePickerKind::kHotset);
  EXPECT_DOUBLE_EQ(hotset.value().hotset_fraction, 0.2);
}

// Every invalid spec must fail with a line-numbered message and yield NO
// spec at all — never a partially-applied one.
struct BadSpecCase {
  const char* text;
  int line;  // expected "line N:" prefix
};

class WorkloadSpecErrorTest : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(WorkloadSpecErrorTest, RejectsWithLineNumber) {
  const BadSpecCase& c = GetParam();
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(c.text);
  ASSERT_FALSE(parsed.ok()) << "spec should not parse:\n" << c.text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "line %d:", c.line);
  EXPECT_EQ(parsed.status().message().rfind(prefix, 0), 0u)
      << "message '" << parsed.status().message()
      << "' should start with '" << prefix << "'";
}

INSTANTIATE_TEST_SUITE_P(
    BadSpecs, WorkloadSpecErrorTest,
    ::testing::Values(
        // Unknown class name.
        BadSpecCase{"tenant a\nclass bogus 1\nend\n", 2},
        // Negative rate.
        BadSpecCase{"tenant a\nrate -5\nclass full 1\nend\n", 2},
        // Zero weight.
        BadSpecCase{"tenant a\nweight 0\nclass full 1\nend\n", 2},
        // Negative weight.
        BadSpecCase{"tenant a\nweight -2\nclass full 1\nend\n", 2},
        // Duplicate tenant.
        BadSpecCase{"tenant a\nclass full 1\nend\ntenant a\nclass full "
                    "1\nend\n",
                    4},
        // Duplicate class inside a tenant.
        BadSpecCase{"tenant a\nclass full 1\nclass full 2\nend\n", 3},
        // Zero concurrency.
        BadSpecCase{"tenant a\nconcurrency 0\nclass full 1\nend\n", 2},
        // Non-positive duration.
        BadSpecCase{"duration_seconds 0\ntenant a\nclass full 1\nend\n", 1},
        // Unknown top-level directive.
        BadSpecCase{"wibble 3\n", 1},
        // Unknown tenant directive.
        BadSpecCase{"tenant a\nshards 3\nend\n", 2},
        // 'end' with no tenant open.
        BadSpecCase{"end\n", 1},
        // Tenant never closed.
        BadSpecCase{"tenant a\nclass full 1\n", 2},
        // Tenant with no class mix.
        BadSpecCase{"tenant a\nweight 2\nend\n", 3},
        // Reserved tenant name.
        BadSpecCase{"tenant default\nclass full 1\nend\n", 1},
        // A name that would break its Prometheus label and JSON key.
        BadSpecCase{"tenant a\"b\\c\nclass full 1\nend\n", 1},
        // No tenants at all.
        BadSpecCase{"seed 1\n", 1},
        // Bad picker.
        BadSpecCase{"source pareto\ntenant a\nclass full 1\nend\n", 1},
        // Hotset fraction out of range.
        BadSpecCase{"source hotset 1.5\ntenant a\nclass full 1\nend\n", 1},
        // Zero top_k.
        BadSpecCase{"top_k 0\ntenant a\nclass full 1\nend\n", 1},
        // Class share must be positive.
        BadSpecCase{"tenant a\nclass full -1\nend\n", 2}));

// Deterministic fuzz: random mutations of a valid spec either parse or
// fail with a "line N:" message — never crash, never yield a spec with
// un-normalized mixes or invalid tenants.
TEST(WorkloadSpecTest, FuzzedSpecsParseOrFailCleanly) {
  Rng rng(0xf022);
  const std::string base = kGoodSpec;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.NextBounded(text.size());
      switch (rng.NextBounded(3)) {
        case 0:
          text[pos] = static_cast<char>(' ' + rng.NextBounded(95));
          break;
        case 1:
          text.erase(pos, 1 + rng.NextBounded(5));
          break;
        default:
          text.insert(pos, 1, static_cast<char>(' ' + rng.NextBounded(95)));
          break;
      }
    }
    const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(text);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(parsed.status().message().rfind("line ", 0), 0u)
          << parsed.status().message();
      continue;
    }
    const WorkloadSpec& spec = parsed.value();
    ASSERT_FALSE(spec.tenants.empty());
    for (const TenantSpec& tenant : spec.tenants) {
      EXPECT_FALSE(tenant.name.empty());
      EXPECT_GT(tenant.weight, 0.0);
      EXPECT_GE(tenant.concurrency, 1u);
      double total = 0.0;
      for (double m : tenant.mix) {
        EXPECT_GE(m, 0.0);
        total += m;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
    EXPECT_GT(spec.duration_seconds, 0.0);
  }
}

std::vector<WorkloadOp> GenerateOps(const WorkloadSpec& spec,
                                    std::size_t tenant, std::size_t count) {
  TenantOpStream stream(spec, tenant, /*num_nodes=*/1000);
  std::vector<WorkloadOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ops.push_back(stream.Next());
  return ops;
}

void ExpectSameOps(const std::vector<WorkloadOp>& a,
                   const std::vector<WorkloadOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls) << "op " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "op " << i;
    EXPECT_EQ(a[i].source, b[i].source) << "op " << i;
    EXPECT_EQ(a[i].target, b[i].target) << "op " << i;
    EXPECT_EQ(a[i].remove, b[i].remove) << "op " << i;
    EXPECT_EQ(a[i].top_k, b[i].top_k) << "op " << i;
    EXPECT_DOUBLE_EQ(a[i].deadline_seconds, b[i].deadline_seconds)
        << "op " << i;
    EXPECT_EQ(a[i].allow_degraded, b[i].allow_degraded) << "op " << i;
  }
}

TEST(OpStreamTest, ReplayIsDeterministicAcrossRunsAndThreads) {
  const StatusOr<WorkloadSpec> parsed = WorkloadSpec::Parse(kGoodSpec);
  ASSERT_TRUE(parsed.ok());
  const WorkloadSpec& spec = parsed.value();
  constexpr std::size_t kOps = 2000;

  // Reference sequences, generated serially.
  std::vector<std::vector<WorkloadOp>> reference;
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    reference.push_back(GenerateOps(spec, t, kOps));
  }

  // Re-generated serially: byte-identical.
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    ExpectSameOps(reference[t], GenerateOps(spec, t, kOps));
  }

  // Re-generated with every tenant stream on its own thread, twice, with
  // the threads racing: still identical — streams share no state.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<WorkloadOp>> threaded(spec.tenants.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
      workers.emplace_back([&spec, &threaded, t] {
        threaded[t] = GenerateOps(spec, t, kOps);
      });
    }
    for (std::thread& w : workers) w.join();
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
      ExpectSameOps(reference[t], threaded[t]);
    }
  }
}

TEST(OpStreamTest, MutationChurnRemovesOnlyTrackedEdges) {
  // Build a mutation-only tenant and check rmedge ops always name an edge
  // previously added (and not yet removed) by the same stream.
  const auto parsed = WorkloadSpec::Parse(
      "seed 7\ntenant churn\nclass mutation 1\nend\n");
  ASSERT_TRUE(parsed.ok());
  TenantOpStream stream(parsed.value(), 0, 500);
  std::vector<std::pair<NodeId, NodeId>> live;
  std::size_t removes = 0;
  for (int i = 0; i < 5000; ++i) {
    const WorkloadOp op = stream.Next();
    ASSERT_EQ(op.cls, OpClass::kMutation);
    EXPECT_NE(op.source, op.target) << "self loops are invalid";
    if (op.remove) {
      ++removes;
      const auto it = std::find(live.begin(), live.end(),
                                std::make_pair(op.source, op.target));
      ASSERT_NE(it, live.end()) << "rmedge of an edge never added";
      live.erase(it);
    } else {
      live.emplace_back(op.source, op.target);
    }
  }
  EXPECT_GT(removes, 1000u);  // the coin is fair once the ledger fills
}

}  // namespace
}  // namespace resacc
