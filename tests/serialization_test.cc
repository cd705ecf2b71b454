#include <cstdio>
#include <unistd.h>
#include <string>

#include <gtest/gtest.h>

#include "resacc/algo/fora_plus.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_io.h"
#include "resacc/util/args.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryGraphTest, RoundTripsExactly) {
  const Graph g = ChungLuPowerLaw(2000, 20000, 2.2, 5);
  const std::string path = TempPath("graph_roundtrip.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  const StatusOr<Graph> loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded.value().num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.OutNeighbors(v);
    const auto b = loaded.value().OutNeighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
  std::remove(path.c_str());
}

TEST(BinaryGraphTest, RejectsGarbage) {
  const std::string path = TempPath("graph_garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a graph", f);
  std::fclose(f);
  const StatusOr<Graph> loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryGraphTest, RejectsTruncation) {
  const Graph g = testing::Figure1Graph();
  const std::string path = TempPath("graph_truncated.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  // Truncate the adjacency body.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 4), 0);
  const StatusOr<Graph> loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(ForaPlusIndexTest, SaveLoadRoundTrip) {
  const Graph g = ChungLuPowerLaw(800, 6400, 2.2, 6);
  RwrConfig config = RwrConfig::ForGraphSize(g.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 11;

  ForaPlus original(g, config);
  ASSERT_TRUE(original.BuildIndex().ok());
  const std::string path = TempPath("foraplus.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  ForaPlus reloaded(g, config);
  ASSERT_TRUE(reloaded.LoadIndex(path).ok());
  ASSERT_TRUE(reloaded.IndexReady());
  EXPECT_EQ(reloaded.IndexBytes(), original.IndexBytes());

  // Same pools + same query RNG fork => identical answers.
  const std::vector<Score> a = original.Query(3);
  const std::vector<Score> b = reloaded.Query(3);
  for (std::size_t v = 0; v < a.size(); ++v) {
    ASSERT_DOUBLE_EQ(a[v], b[v]) << "node " << v;
  }
  std::remove(path.c_str());
}

TEST(ForaPlusIndexTest, RejectsMismatchedGraph) {
  const Graph g1 = ChungLuPowerLaw(800, 6400, 2.2, 6);
  const Graph g2 = ChungLuPowerLaw(900, 6400, 2.2, 6);
  RwrConfig config = RwrConfig::ForGraphSize(g1.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;

  ForaPlus original(g1, config);
  ASSERT_TRUE(original.BuildIndex().ok());
  const std::string path = TempPath("foraplus_mismatch.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  ForaPlus other(g2, config);
  const Status status = other.LoadIndex(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ForaPlusIndexTest, SaveWithoutBuildFails) {
  const Graph g = testing::CycleGraph(10);
  const RwrConfig config = RwrConfig::ForGraphSize(10);
  ForaPlus fora_plus(g, config);
  EXPECT_EQ(fora_plus.SaveIndex(TempPath("nope.idx")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ArgParserTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "query",      "graph.txt",
                        "--source=5",  "--topk",     "10",
                        "--undirected", "--sources=1,2,3"};
  ArgParser args(8, const_cast<char**>(argv));
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "query");
  EXPECT_EQ(args.GetInt("source", 0), 5);
  EXPECT_EQ(args.GetInt("topk", 0), 10);
  EXPECT_TRUE(args.HasFlag("undirected"));
  EXPECT_FALSE(args.HasFlag("missing"));
  EXPECT_EQ(args.GetString("missing", "dft"), "dft");
  EXPECT_EQ(args.GetIntList("sources"),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_TRUE(args.UnusedOptions().empty());
}

TEST(ArgParserTest, TracksUnusedOptions) {
  const char* argv[] = {"prog", "--typo=1"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.UnusedOptions(), (std::vector<std::string>{"typo"}));
}

// A declared flag never takes the next argument as its value; undeclared
// options still do.
TEST(ArgParserTest, DeclaredFlagsNeverTakeAValue) {
  const char* argv[] = {"prog", "stats", "--histogram", "g.bin", "--k", "3"};
  ArgParser args(6, const_cast<char**>(argv), {"histogram"});
  EXPECT_EQ(args.positionals(), (std::vector<std::string>{"stats", "g.bin"}));
  EXPECT_TRUE(args.HasFlag("histogram"));
  EXPECT_EQ(args.GetInt("k", 0), 3);
  EXPECT_TRUE(args.Errors().empty());
}

// A value that does not parse whole, a missing value and a flag given a
// value are refused like an unknown option, each named with its value.
TEST(ArgParserTest, ErrorsNameBadValuesAndUnknownOptions) {
  const char* argv[] = {"prog",         "--source=abc", "--alpha=0.2x",
                        "--sources=1,x", "--hybrid=0",  "--typo=1",
                        "--big=99999999999999999999",   "--out"};
  ArgParser args(8, const_cast<char**>(argv), {"hybrid"});
  EXPECT_EQ(args.GetInt("source", 7), 7);
  EXPECT_EQ(args.GetDouble("alpha", 0.5), 0.5);
  EXPECT_TRUE(args.GetIntList("sources").empty());
  EXPECT_TRUE(args.HasFlag("hybrid"));
  EXPECT_EQ(args.GetInt("big", 1), 1);
  EXPECT_EQ(args.GetString("out", "dft"), "dft");
  EXPECT_EQ(args.Errors(),
            (std::vector<std::string>{
                "--source=abc: not an integer", "--alpha=0.2x: not a number",
                "--sources=1,x: not a list of integers",
                "--hybrid=0: takes no value", "unknown option --typo",
                "--big=99999999999999999999: not an integer",
                "--out needs a value"}));
}

}  // namespace
}  // namespace resacc
