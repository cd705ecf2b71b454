// resacc_serve's line protocol (serve/protocol.h): line reading, request
// parsing with its exact err messages, request formatting (including
// ProtocolClient::FormatOp's wire bytes), answer formatting, and the
// token-based answer parser that reads every answer shape back.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/serve/protocol.h"
#include "resacc/util/rng.h"
#include "resacc/workload/protocol_client.h"

namespace resacc {
namespace {

using protocol::ParseRequest;
using protocol::ParseResponse;
using protocol::Request;
using protocol::Response;
using protocol::Verb;

// A read stream over `text`, as the server's stdin would deliver it.
std::unique_ptr<std::FILE, int (*)(std::FILE*)> StreamOf(
    const std::string& text) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  std::fwrite(text.data(), 1, text.size(), file);
  std::rewind(file);
  return {file, &std::fclose};
}

Response MustParse(const std::string& line) {
  const StatusOr<Response> parsed = ParseResponse(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : Response{};
}

// Every line of CI's "Protocol input smoke", with the err message the
// server has always answered it with.
std::vector<std::pair<std::string, std::string>> SmokeLines() {
  std::vector<std::pair<std::string, std::string>> lines = {
      {"query 4294967338", "malformed query line"},
      {"query -1", "malformed query line"},
      {"query 42 -3", "malformed query line"},
      {"query 42 4294967306", "malformed query line"},
      {"query 42 degraded=10", "malformed query line"},
      {"query 42 deadline_ms=soon", "malformed query line"},
      {"topk 4294967338 5", "malformed topk line"},
      {"topk -42", "malformed topk line"},
      {"topk 42 -1", "malformed topk line"},
      {"topk 42 4294967306", "malformed topk line"},
      {"topk 42 degraded=2", "malformed topk line"},
      {"addedge 4294967338 1", "malformed mutation line"},
      {"rmedge 1 -2", "malformed mutation line"},
  };
  lines.emplace_back("query 42 " + std::string(292, 'x'),
                     "malformed query line");
  lines.emplace_back("query 42 " + std::string(5000, 'x'),
                     "line longer than 4096 bytes");
  return lines;
}

TEST(ProtocolTest, SmokeLinesEachGetOneErrorWithTheirMessage) {
  const auto lines = SmokeLines();
  ASSERT_EQ(lines[13].first.size(), 301u);
  ASSERT_EQ(lines[14].first.size(), 5009u);
  std::string text;
  for (const auto& [line, message] : lines) text += line + "\n";
  text += "quit\n";
  const auto in = StreamOf(text);

  // The server's loop: read with the cap, parse, one answer per line.
  std::vector<std::string> errors;
  std::string line;
  bool quit = false;
  while (protocol::ReadLine(in.get(), &line, protocol::kMaxRequestBytes + 1)) {
    const StatusOr<Request> parsed = ParseRequest(line);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      errors.push_back(parsed.status().message());
      continue;
    }
    quit = parsed.value().verb == Verb::kQuit;
  }
  EXPECT_TRUE(quit);
  ASSERT_EQ(errors.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(errors[i], lines[i].second) << lines[i].first.substr(0, 40);
    EXPECT_EQ(protocol::FormatError(errors[i]), "err " + lines[i].second);
  }
}

TEST(ProtocolTest, OtherBadLinesKeepTheirMessages) {
  const std::pair<const char*, const char*> cases[] = {
      {"bogus", "unknown command 'bogus'"},
      {"QUERY 1", "unknown command 'QUERY'"},
      {"query", "malformed query line"},
      {"topk 42 0", "malformed topk line"},
      {"topk", "malformed topk line"},
      {"addedge 1", "malformed mutation line"},
      {"rmedge", "malformed mutation line"},
      {"query 42 deadline_ms=-1", "malformed query line"},
      {"query 42 deadline_ms=inf", "malformed query line"},
      {"query 42 deadline_ms=", "malformed query line"},
  };
  for (const auto& [line, message] : cases) {
    const StatusOr<Request> parsed = ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().message(), message) << line;
  }
  // A line of exactly the cap is accepted; a blank one asks nothing.
  const std::string longest = "query 53 " + std::string(4087, '0');
  ASSERT_EQ(longest.size(), protocol::kMaxRequestBytes);
  ASSERT_TRUE(ParseRequest(longest).ok());
  EXPECT_EQ(ParseRequest(longest).value().count, 0u);
  ASSERT_TRUE(ParseRequest(" \t\r").ok());
  EXPECT_EQ(ParseRequest(" \t\r").value().verb, Verb::kNone);
}

TEST(ProtocolTest, IdsAreWholeTokensBelowTwoToThe32) {
  const StatusOr<Request> widest = ParseRequest("addedge 4294967295 0");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().source, 4294967295u);
  for (const char* line : {"addedge 4294967296 0", "addedge +1 0",
                           "addedge 1x 0", "addedge 0x1 0"}) {
    EXPECT_FALSE(ParseRequest(line).ok()) << line;
  }
}

TEST(ProtocolTest, TrailingTokensParseInAnyOrder) {
  const std::vector<std::string> tokens = {"tenant=gold", "deadline_ms=12.5",
                                           "degraded=1"};
  Request expected;
  expected.verb = Verb::kQuery;
  expected.source = 42;
  expected.count = 5;
  expected.tenant = "gold";
  expected.deadline_ms = 12.5;
  expected.degraded = true;
  const int orders[][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& order : orders) {
    std::string line = "query 42 5";
    for (int i : order) line += " " + tokens[i];
    const StatusOr<Request> parsed = ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed.value(), expected) << line;
  }
  // Without a count the first key=value token is not taken for one, and
  // words the grammar does not know are ignored.
  const StatusOr<Request> no_count =
      ParseRequest("topk 42 degraded=1 future=word tenant=gold extra");
  ASSERT_TRUE(no_count.ok());
  EXPECT_EQ(no_count.value().count, 10u);
  EXPECT_TRUE(no_count.value().degraded);
  EXPECT_EQ(no_count.value().tenant, "gold");

  const QueryRequest query = expected.ToQueryRequest(false);
  EXPECT_EQ(query.source, 42u);
  EXPECT_EQ(query.top_k, 0u);
  EXPECT_DOUBLE_EQ(query.deadline_seconds, 0.0125);
  EXPECT_TRUE(query.allow_degraded);
  EXPECT_EQ(query.tenant, "gold");
}

WorkloadOp Op(OpClass cls, NodeId source) {
  WorkloadOp op;
  op.cls = cls;
  op.source = source;
  return op;
}

TEST(ProtocolTest, FormatOpBytesAreUnchangedAndParseBack) {
  WorkloadOp topk = Op(OpClass::kTopK, 7);
  topk.top_k = 5;
  WorkloadOp deadline = Op(OpClass::kDeadline, 8);
  deadline.deadline_seconds = 0.04;
  WorkloadOp degraded = Op(OpClass::kDegraded, 9);
  degraded.deadline_seconds = 0.0125;
  degraded.allow_degraded = true;
  WorkloadOp add = Op(OpClass::kMutation, 3);
  add.target = 4;
  WorkloadOp remove = add;
  remove.remove = true;
  const std::pair<WorkloadOp, std::string> cases[] = {
      {Op(OpClass::kFull, 7), "query 7 10"},
      {Op(OpClass::kTopK, 7), "topk 7 10"},
      {topk, "topk 7 5"},
      {deadline, "query 8 10 deadline_ms=40.000"},
      {degraded, "query 9 10 deadline_ms=12.500 degraded=1"},
      {add, "addedge 3 4"},
      {remove, "rmedge 3 4"},
  };
  for (const auto& [op, line] : cases) {
    EXPECT_EQ(ProtocolClient::FormatOp(op, ""), line);
    const bool query = op.cls != OpClass::kMutation;
    const std::string with_tenant = ProtocolClient::FormatOp(op, "gold");
    EXPECT_EQ(with_tenant, query ? line + " tenant=gold" : line);

    const StatusOr<Request> parsed = ParseRequest(with_tenant);
    ASSERT_TRUE(parsed.ok()) << with_tenant;
    const Request& request = parsed.value();
    EXPECT_EQ(protocol::FormatRequest(request), with_tenant);
    EXPECT_EQ(request.source, op.source);
    if (!query) {
      EXPECT_EQ(request.verb, op.remove ? Verb::kRmEdge : Verb::kAddEdge);
      EXPECT_EQ(request.target, op.target);
      continue;
    }
    EXPECT_EQ(request.verb,
              op.cls == OpClass::kTopK ? Verb::kTopK : Verb::kQuery);
    EXPECT_EQ(request.tenant, "gold");
    EXPECT_EQ(request.degraded, op.cls == OpClass::kDegraded);
    EXPECT_EQ(request.deadline_ms.has_value(), op.deadline_seconds > 0.0);
    if (request.deadline_ms.has_value()) {
      EXPECT_DOUBLE_EQ(*request.deadline_ms / 1e3, op.deadline_seconds);
    }
  }
  // Deadlines print to the microsecond, as "%.3f" always printed them.
  for (const double ms : {0.001, 0.1, 1.0, 2.5, 15.0, 33.333, 50.0, 123.456,
                          1000.0, 86400000.0}) {
    WorkloadOp op = Op(OpClass::kDeadline, 1);
    op.deadline_seconds = ms / 1e3;
    char expected[64];
    std::snprintf(expected, sizeof(expected), "query 1 10 deadline_ms=%.3f",
                  op.deadline_seconds * 1e3);
    EXPECT_EQ(ProtocolClient::FormatOp(op, ""), expected);
  }
}

TEST(ProtocolTest, DeadlinesWithMoreDigitsReadBackExactly) {
  for (const char* line :
       {"query 1 10 deadline_ms=0.0004", "query 1 10 deadline_ms=1e-300",
        "query 1 10 deadline_ms=0x1.8p3", "query 1 10 deadline_ms=-0"}) {
    const StatusOr<Request> parsed = ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const StatusOr<Request> again =
        ParseRequest(protocol::FormatRequest(parsed.value()));
    ASSERT_TRUE(again.ok()) << protocol::FormatRequest(parsed.value());
    EXPECT_EQ(again.value(), parsed.value()) << line;
  }
}

TEST(ProtocolTest, QueryAnswerParsesBackToItsFields) {
  QueryResponse response;
  response.scores = std::make_shared<const std::vector<Score>>(
      std::vector<Score>{0.125, 0.5, 0.0, 0.25});
  response.cache_hit = true;
  response.stale = true;
  response.achieved_epsilon = 0.5;
  response.latency_seconds = 1234e-6;
  const std::string line = protocol::FormatQueryAnswer(42, 3, response);
  EXPECT_EQ(line,
            "ok 42 hit=1 coalesced=0 degraded=0 stale=1 eps=0.5 us=1234 top "
            "1:5.000000e-01 3:2.500000e-01 0:1.250000e-01");
  const Response answer = MustParse(line);
  EXPECT_EQ(answer.tag, "ok");
  EXPECT_TRUE(answer.status.ok());
  EXPECT_EQ(answer.words, std::vector<std::string>{"42"});
  EXPECT_EQ(answer.Field("hit"), 1.0);
  EXPECT_EQ(answer.Field("coalesced"), 0.0);
  EXPECT_EQ(answer.Field("degraded"), 0.0);
  EXPECT_EQ(answer.Field("stale"), 1.0);
  EXPECT_EQ(answer.Field("eps"), 0.5);
  EXPECT_EQ(answer.Field("us"), 1234.0);
  EXPECT_FALSE(answer.Field("certified").has_value());
  ASSERT_EQ(answer.top.size(), 3u);
  EXPECT_EQ(answer.top[0].node, 1u);
  EXPECT_EQ(answer.top[0].estimate, 0.5);
  EXPECT_EQ(answer.top[2].node, 0u);
  EXPECT_EQ(answer.top[2].estimate, 0.125);
}

TEST(ProtocolTest, TopKAnswerParsesBackToItsFields) {
  auto topk = std::make_shared<TopKResult>();
  topk->k = 2;
  topk->certified = true;
  topk->bound_gap = 0.125;
  topk->entries = {{7, 0.5, 0.25, 0.75}, {3, 0.25, 0.125, 0.375}};
  QueryResponse response;
  response.topk = topk;
  response.coalesced = true;
  response.achieved_epsilon = 0.25;
  response.latency_seconds = 2e-3;
  const Response answer =
      MustParse(protocol::FormatTopKAnswer(11, response));
  EXPECT_EQ(answer.words, std::vector<std::string>{"11"});
  EXPECT_EQ(answer.Field("hit"), 0.0);
  EXPECT_EQ(answer.Field("coalesced"), 1.0);
  EXPECT_EQ(answer.Field("certified"), 1.0);
  EXPECT_EQ(answer.Field("k"), 2.0);
  EXPECT_EQ(answer.Field("eps"), 0.25);
  EXPECT_EQ(answer.Field("gap"), 0.125);
  EXPECT_EQ(answer.Field("us"), 2000.0);
  ASSERT_EQ(answer.top.size(), 2u);
  EXPECT_EQ(answer.top[1].node, 3u);
  EXPECT_EQ(answer.top[1].estimate, 0.25);
  EXPECT_EQ(answer.top[1].lower, 0.125);
  EXPECT_EQ(answer.top[1].upper, 0.375);

  response.topk = nullptr;
  const Response missing = MustParse(protocol::FormatTopKAnswer(11, response));
  EXPECT_EQ(missing.tag, "err");
  EXPECT_EQ(missing.status.message(), "top-k response missing payload");
}

TEST(ProtocolTest, ErrorAnswersCarryTheirStatus) {
  QueryResponse failed;
  failed.status = Status::DeadlineExceeded("deadline passed while queued");
  const std::string line = protocol::FormatQueryAnswer(5, 10, failed);
  EXPECT_EQ(line, "err DEADLINE_EXCEEDED: deadline passed while queued");
  const Response answer = MustParse(line);
  EXPECT_EQ(answer.tag, "err");
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(answer.status.message(), "deadline passed while queued");

  failed.status = Status::ResourceExhausted("queue full");
  EXPECT_EQ(MustParse(protocol::FormatTopKAnswer(5, failed)).status.code(),
            StatusCode::kResourceExhausted);
  // The server's own refusals carry no code.
  const Response refused = MustParse("err malformed query line");
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status.message(), "malformed query line");
}

TEST(ProtocolTest, MutationInfoAndStatsAnswersParseBack) {
  const Response edge =
      MustParse(protocol::FormatEdgeAnswer(true, 3, 4, true, 9));
  EXPECT_EQ(edge.words, (std::vector<std::string>{"rmedge", "3", "4"}));
  EXPECT_EQ(edge.Field("applied"), 1.0);
  EXPECT_EQ(edge.Field("epoch"), 9.0);
  EXPECT_EQ(protocol::FormatEdgeAnswer(false, 1, 2, false, 1),
            "ok addedge 1 2 applied=0 epoch=1");

  const Response node = MustParse(protocol::FormatAddNodeAnswer(1000, 4));
  EXPECT_EQ(node.words, (std::vector<std::string>{"addnode", "1000"}));
  EXPECT_EQ(node.Field("epoch"), 4.0);

  const Response compact =
      MustParse(protocol::FormatCompactAnswer(2, 6, 0.0125));
  EXPECT_EQ(compact.words, std::vector<std::string>{"compact"});
  EXPECT_EQ(compact.Field("gen"), 2.0);
  EXPECT_EQ(compact.Field("folded"), 6.0);
  EXPECT_EQ(compact.Field("ms"), 12.5);

  const std::string info_line = protocol::FormatInfo(1001, 8355, 2, 4, 1, 6);
  EXPECT_EQ(info_line,
            "info nodes=1001 edges=8355 workers=2 epoch=4 gen=1 overlay=6");
  const Response info = MustParse(info_line);
  EXPECT_EQ(info.tag, "info");
  EXPECT_EQ(info.Field("nodes"), 1001.0);
  EXPECT_EQ(info.Field("edges"), 8355.0);
  EXPECT_EQ(info.Field("workers"), 2.0);
  EXPECT_EQ(info.Field("epoch"), 4.0);
  EXPECT_EQ(info.Field("gen"), 1.0);
  EXPECT_EQ(info.Field("overlay"), 6.0);

  ServerStats server;
  server.submitted = 12;
  server.computed = 9;
  server.queue_wait.p95 = 0.0015;
  const Response stats = MustParse(protocol::FormatStats(server));
  EXPECT_EQ(stats.tag, "stats");
  EXPECT_EQ(stats.Field("submitted"), 12.0);
  EXPECT_EQ(stats.Field("computed"), 9.0);
  EXPECT_EQ(stats.Field("queue_wait_p95_ms"), 1.5);

  EXPECT_EQ(MustParse(std::string(protocol::kBye)).tag, "bye");
}

TEST(ProtocolTest, MalformedAnswersAreErrors) {
  for (const char* line : {"", "ok 1 hit=x top", "ok 1 top 3", "ok 1 top 3:a",
                           "ok 1 top 3:1:2", "ok 1 top 3:1:2:3:4",
                           "ok 1 top -3:1"}) {
    EXPECT_FALSE(ParseResponse(line).ok()) << line;
  }
}

TEST(ProtocolTest, ReadsTenKilobyteLineFromPipeWhole) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string wide = "ok 1 top" + std::string(10240 - 8, 'x');
  const std::string text = wide + "\nbye\n";
  // Pipe capacity (>= 64 KB on Linux) holds the whole text, so the write
  // completes before anything is read.
  ASSERT_EQ(write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  ASSERT_NE(in, nullptr);
  std::string line;
  ASSERT_TRUE(protocol::ReadLine(in, &line));
  EXPECT_EQ(line.size(), 10240u);
  EXPECT_EQ(line, wide);
  ASSERT_TRUE(protocol::ReadLine(in, &line));
  EXPECT_EQ(line, "bye");
  EXPECT_FALSE(protocol::ReadLine(in, &line));
  std::fclose(in);
}

TEST(ProtocolTest, CappedReadKeepsThePrefixAndStaysAligned) {
  const auto in = StreamOf(std::string(5000, 'a') + "\ninfo\n");
  std::string line;
  ASSERT_TRUE(protocol::ReadLine(in.get(), &line, 10));
  EXPECT_EQ(line, std::string(10, 'a'));
  ASSERT_TRUE(protocol::ReadLine(in.get(), &line, 10));
  EXPECT_EQ(line, "info");
}

// Deterministic fuzz in the idiom of workload_spec_test: random edits of
// valid request lines either fail with one of the documented messages or
// parse to a request whose formatted line parses back to it.
TEST(ProtocolTest, FuzzedRequestLinesFailCleanlyOrRoundTrip) {
  const std::vector<std::string> bases = {
      "query 42 5 tenant=gold deadline_ms=12.500 degraded=1",
      "topk 7 100 degraded=0 tenant=a",
      "query 4294967295",
      "addedge 3 4",
      "rmedge 10 20 trailing",
      "info",
      "addnode",
      "compact",
      "stats",
      "metrics",
      "quit",
  };
  Rng rng(0x9f07);
  int parsed_ok = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = bases[rng.NextBounded(bases.size())];
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.NextBounded(text.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:
          if (pos < text.size()) {
            text[pos] = static_cast<char>(' ' + rng.NextBounded(95));
          }
          break;
        case 1:
          if (pos < text.size()) text.erase(pos, 1 + rng.NextBounded(5));
          break;
        default:
          text.insert(pos, 1, static_cast<char>(' ' + rng.NextBounded(95)));
          break;
      }
    }
    const StatusOr<Request> parsed = ParseRequest(text);
    if (!parsed.ok()) {
      const std::string& message = parsed.status().message();
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(message == "malformed query line" ||
                  message == "malformed topk line" ||
                  message == "malformed mutation line" ||
                  message.starts_with("unknown command '"))
          << text << " -> " << message;
      continue;
    }
    ++parsed_ok;
    const std::string line = protocol::FormatRequest(parsed.value());
    const StatusOr<Request> again = ParseRequest(line);
    ASSERT_TRUE(again.ok()) << text << " -> " << line;
    EXPECT_EQ(again.value(), parsed.value()) << text << " -> " << line;
  }
  // Both outcomes are exercised.
  EXPECT_GT(parsed_ok, 50);
  EXPECT_LT(parsed_ok, 450);
}

}  // namespace
}  // namespace resacc
