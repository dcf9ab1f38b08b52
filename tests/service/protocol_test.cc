// Wire-protocol unit tests: request/response framing round trips, body byte
// counts, and the transport-independent RequestHandler driven directly
// against a SessionManager (null pool — everything runs inline).

#include "service/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "core/schema_diff.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/session_manager.h"
#include "util/status.h"

namespace pghive::service {
namespace {

TEST(ProtocolTest, ParseRequestLineSplitsCommandAndArgs) {
  auto request = ParseRequestLine("ingest-batch s1 42");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->command, "ingest-batch");
  ASSERT_EQ(request->args.size(), 2u);
  EXPECT_EQ(request->args[0], "s1");
  EXPECT_EQ(request->args[1], "42");
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("   ").ok());
}

TEST(ProtocolTest, RequestBodyBytesOnlyForBodyCommands) {
  auto ping = ParseRequestLine("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(*RequestBodyBytes(*ping), 0u);

  auto ingest = ParseRequestLine("ingest-batch s1 17");
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(*RequestBodyBytes(*ingest), 17u);

  auto validate = ParseRequestLine("validate s1 strict 5");
  ASSERT_TRUE(validate.ok());
  EXPECT_EQ(*RequestBodyBytes(*validate), 5u);

  auto missing = ParseRequestLine("ingest-batch");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(RequestBodyBytes(*missing).ok());

  auto garbage = ParseRequestLine("ingest-batch s1 banana");
  ASSERT_TRUE(garbage.ok());
  EXPECT_FALSE(RequestBodyBytes(*garbage).ok());
}

TEST(ProtocolTest, ResponseRoundTripPlain) {
  Response response;
  response.info = "session s1";
  std::string wire = FormatResponse(response);
  EXPECT_EQ(wire, "OK session s1\n");

  Response parsed;
  size_t body_bytes = 99;
  ASSERT_TRUE(
      ParseResponseLine("OK session s1", &parsed, &body_bytes).ok());
  EXPECT_TRUE(parsed.status.ok());
  EXPECT_EQ(parsed.info, "session s1");
  EXPECT_FALSE(parsed.has_body);
  EXPECT_EQ(body_bytes, 0u);
}

TEST(ProtocolTest, ResponseRoundTripWithBody) {
  Response response;
  response.info = "schema final version 3 batches 2";
  response.has_body = true;
  response.body = "CREATE GRAPH TYPE ...";
  std::string wire = FormatResponse(response);
  EXPECT_EQ(wire, "OK schema final version 3 batches 2 body 21\n" +
                      response.body + "\n");

  Response parsed;
  size_t body_bytes = 0;
  std::string line = wire.substr(0, wire.find('\n'));
  ASSERT_TRUE(ParseResponseLine(line, &parsed, &body_bytes).ok());
  EXPECT_TRUE(parsed.has_body);
  EXPECT_EQ(body_bytes, 21u);
  EXPECT_EQ(parsed.info, "schema final version 3 batches 2");
}

TEST(ProtocolTest, ErrorResponsesEscapeAndCarryTheCode) {
  Response response;
  response.status = util::Status::NotFound("no session; try create-session");
  std::string wire = FormatResponse(response);
  // The semicolon is escaped so the message stays one line-safe token run.
  EXPECT_EQ(wire.find('\n'), wire.size() - 1);

  Response parsed;
  size_t body_bytes = 0;
  std::string line = wire.substr(0, wire.size() - 1);
  ASSERT_TRUE(ParseResponseLine(line, &parsed, &body_bytes).ok());
  EXPECT_EQ(parsed.status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(parsed.status.message(), "no session; try create-session");
}

// Every error code crosses the wire as itself, so a client can tell a
// retryable status from a fatal one; a code name it does not know reads as
// INTERNAL.
TEST(ProtocolTest, EveryErrorCodeRoundTrips) {
  for (auto code : {util::StatusCode::kInvalidArgument,
                    util::StatusCode::kNotFound, util::StatusCode::kOutOfRange,
                    util::StatusCode::kFailedPrecondition,
                    util::StatusCode::kParseError, util::StatusCode::kIoError,
                    util::StatusCode::kInternal}) {
    Response response;
    response.status = util::Status(code, "what went wrong");
    std::string wire = FormatResponse(response);
    Response parsed;
    size_t body_bytes = 0;
    ASSERT_TRUE(
        ParseResponseLine(wire.substr(0, wire.size() - 1), &parsed, &body_bytes)
            .ok());
    EXPECT_EQ(parsed.status.code(), code) << wire;
    EXPECT_EQ(parsed.status.message(), "what went wrong");
  }
  Response parsed;
  size_t body_bytes = 0;
  ASSERT_TRUE(ParseResponseLine("ERR NO_SUCH_CODE boom", &parsed, &body_bytes)
                  .ok());
  EXPECT_EQ(parsed.status.code(), util::StatusCode::kInternal);
  EXPECT_EQ(parsed.status.message(), "boom");
  ASSERT_TRUE(ParseResponseLine("ERR OK boom", &parsed, &body_bytes).ok());
  EXPECT_EQ(parsed.status.code(), util::StatusCode::kInternal);
}

TEST(ProtocolTest, ParseResponseLineRejectsUnknownTag) {
  Response parsed;
  size_t body_bytes = 0;
  EXPECT_FALSE(ParseResponseLine("HELLO world", &parsed, &body_bytes).ok());
  EXPECT_FALSE(ParseResponseLine("", &parsed, &body_bytes).ok());
}

// --- RequestHandler against a real SessionManager (inline jobs). ---

class HandlerTest : public ::testing::Test {
 protected:
  HandlerTest() : manager_(nullptr), handler_(&manager_) {}

  Response Run(const std::string& line, const std::string& body = "") {
    auto request = ParseRequestLine(line);
    EXPECT_TRUE(request.ok()) << line;
    request->body = body;
    return handler_.Handle(*request);
  }

  /// The id token of a "session <id> ..." response.
  static std::string SessionIdOf(const Response& response) {
    std::string rest = response.info.substr(std::string("session ").size());
    return rest.substr(0, rest.find(' '));
  }

  SessionManager manager_;
  RequestHandler handler_;
};

TEST_F(HandlerTest, PingPong) {
  Response response = Run("ping");
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.info, "pong");
}

TEST_F(HandlerTest, UnknownCommandErrors) {
  Response response = Run("frobnicate");
  EXPECT_FALSE(response.status.ok());
}

TEST_F(HandlerTest, CreateSessionParsesKnobsAndRejectsBadOnes) {
  Response ok = Run("create-session threads=2 method=minhash");
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.info,
            "session s1 proto " + std::to_string(kProtocolVersion));

  EXPECT_FALSE(Run("create-session threads=banana").status.ok());
  EXPECT_FALSE(Run("create-session notaknob=1").status.ok());
  EXPECT_FALSE(Run("create-session justatoken").status.ok());
  // A removed knob is rejected like any other unknown one.
  Response shards = Run("create-session shards=2");
  EXPECT_EQ(shards.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(shards.status.message().find("shards"), std::string::npos);
  Response plane = Run("create-session data-plane=row");
  EXPECT_EQ(plane.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(plane.status.message().find("data-plane"), std::string::npos);
  Response depth = Run("create-session pipeline-depth=2");
  EXPECT_EQ(depth.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(depth.status.message().find("pipeline-depth"), std::string::npos);
}

TEST_F(HandlerTest, CreateSessionProtocolHandshake) {
  // Clients at or below the server's protocol version are accepted; the
  // proto flag itself never reaches the options parser.
  EXPECT_TRUE(Run("create-session proto=1").status.ok());
  EXPECT_TRUE(Run("create-session proto=" +
                  std::to_string(kProtocolVersion) + " threads=2")
                  .status.ok());

  // A newer client gets a clear FailedPrecondition, not a misparse later.
  Response newer = Run("create-session proto=" +
                       std::to_string(kProtocolVersion + 1));
  ASSERT_FALSE(newer.status.ok());
  EXPECT_EQ(newer.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(newer.status.message().find("protocol"), std::string::npos);

  EXPECT_FALSE(Run("create-session proto=0").status.ok());
  EXPECT_FALSE(Run("create-session proto=banana").status.ok());
}

TEST_F(HandlerTest, FullSessionLifecycleOverTheHandler) {
  pg::PropertyGraph g;
  auto a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", pg::Value("Ann"));
  auto b = g.AddNode({"Person"});
  g.SetNodeProperty(b, "name", pg::Value("Bo"));
  g.AddEdge(a, b, {"KNOWS"});
  auto payloads = BuildIngestPayloads(g, /*num_batches=*/1);

  Response created = Run("create-session");
  ASSERT_TRUE(created.status.ok());
  const std::string id = SessionIdOf(created);

  Response ingested = Run("ingest-batch " + id + " " +
                              std::to_string(payloads[0].size()),
                          payloads[0]);
  ASSERT_TRUE(ingested.status.ok()) << ingested.status.ToString();
  EXPECT_EQ(ingested.info, "batch 1");

  Response schema = Run("get-schema " + id + " pgs");
  ASSERT_TRUE(schema.status.ok()) << schema.status.ToString();
  EXPECT_TRUE(schema.has_body);
  EXPECT_NE(schema.body.find("CREATE GRAPH TYPE"), std::string::npos);
  EXPECT_NE(schema.info.find("schema final"), std::string::npos);

  // The discovered schema validates against its own graph.
  Response valid = Run(
      "validate " + id + " strict " + std::to_string(schema.body.size()),
      schema.body);
  ASSERT_TRUE(valid.status.ok()) << valid.status.ToString();
  EXPECT_EQ(valid.info, "valid");

  Response closed = Run("close " + id);
  EXPECT_TRUE(closed.status.ok());
  EXPECT_FALSE(Run("get-schema " + id + " pgs").status.ok());
}

TEST_F(HandlerTest, SnapshotFormReturnsLatestWithoutFinishing) {
  pg::PropertyGraph g;
  auto a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", pg::Value("Ann"));
  auto b = g.AddNode({"Person"});
  g.SetNodeProperty(b, "name", pg::Value("Bo"));
  auto payloads = BuildIngestPayloads(g, /*num_batches=*/2);
  ASSERT_EQ(payloads.size(), 2u);

  Response created = Run("create-session");
  ASSERT_TRUE(created.status.ok());
  const std::string id = SessionIdOf(created);

  // Before any batch: no snapshot.
  EXPECT_FALSE(Run("get-schema " + id + " pgs snapshot").status.ok());

  Response first = Run("ingest-batch " + id + " " +
                           std::to_string(payloads[0].size()),
                       payloads[0]);
  ASSERT_TRUE(first.status.ok());

  Response snapshot = Run("get-schema " + id + " pgs snapshot");
  ASSERT_TRUE(snapshot.status.ok()) << snapshot.status.ToString();
  EXPECT_NE(snapshot.info.find("schema snapshot"), std::string::npos);
  EXPECT_NE(snapshot.info.find("batches 1"), std::string::npos);

  // The snapshot read did not finish the stream: batch 2 still ingests.
  Response second = Run("ingest-batch " + id + " " +
                            std::to_string(payloads[1].size()),
                        payloads[1]);
  EXPECT_TRUE(second.status.ok()) << second.status.ToString();
}

TEST_F(HandlerTest, ProtocolFourDropsClientDrivenStateFiles) {
  // Protocol 4 removed save-state and load-state: the daemon's
  // --checkpoint-dir owns durability, and no client names a server-side
  // path any more. An old client gets the plain unknown-command error.
  Response created = Run("create-session proto=4");
  ASSERT_TRUE(created.status.ok()) << created.status.ToString();
  EXPECT_EQ(created.info, "session s1 proto 4");
  const std::string path = ::testing::TempDir() + "/handler_state.bin";
  for (const std::string& line :
       {"save-state s1 " + path, "load-state " + path}) {
    Response response = Run(line);
    ASSERT_FALSE(response.status.ok()) << line;
    EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(response.status.message().find("unknown command"),
              std::string::npos);
  }

  Response newer = Run("create-session proto=5");
  ASSERT_FALSE(newer.status.ok());
  EXPECT_EQ(newer.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(newer.status.message().find("supports up to 4"),
            std::string::npos);
}

TEST_F(HandlerTest, SessionInfoReportsBatchesForResume) {
  pg::PropertyGraph g;
  auto a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", pg::Value("Ann"));
  auto b = g.AddNode({"Person"});
  g.SetNodeProperty(b, "name", pg::Value("Bo"));
  g.AddEdge(a, b, {"KNOWS"});
  auto payloads = BuildIngestPayloads(g, /*num_batches=*/2);

  Response created = Run("create-session");
  ASSERT_TRUE(created.status.ok());
  const std::string id = SessionIdOf(created);

  // The batch count tells a resuming client how many payloads to skip.
  Response empty = Run("session-info " + id);
  ASSERT_TRUE(empty.status.ok()) << empty.status.ToString();
  EXPECT_EQ(empty.info, "session " + id + " batches 0");

  ASSERT_TRUE(Run("ingest-batch " + id + " " +
                      std::to_string(payloads[0].size()),
                  payloads[0])
                  .status.ok());
  Response one = Run("session-info " + id);
  ASSERT_TRUE(one.status.ok());
  EXPECT_EQ(one.info, "session " + id + " batches 1");

  Response missing = Run("session-info nosuch");
  ASSERT_FALSE(missing.status.ok());
  EXPECT_EQ(missing.status.code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(Run("session-info").status.ok());
  EXPECT_FALSE(Run("session-info " + id + " extra").status.ok());
}

TEST_F(HandlerTest, SubscribeChangefeedReturnsParseableRecords) {
  pg::PropertyGraph g;
  auto a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", pg::Value("Ann"));
  auto b = g.AddNode({"Person"});
  g.SetNodeProperty(b, "name", pg::Value("Bo"));
  g.AddEdge(a, b, {"KNOWS"});
  auto payloads = BuildIngestPayloads(g, /*num_batches=*/1);

  Response created = Run("create-session");
  ASSERT_TRUE(created.status.ok());
  const std::string id = SessionIdOf(created);
  ASSERT_TRUE(Run("ingest-batch " + id + " " +
                      std::to_string(payloads[0].size()),
                  payloads[0])
                  .status.ok());

  Response feed = Run("subscribe-changefeed " + id + " 0 0");
  ASSERT_TRUE(feed.status.ok()) << feed.status.ToString();
  EXPECT_TRUE(feed.has_body);
  auto records = core::ParseSchemaDiffStream(feed.body);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].version_to, 1u);

  // Caught up: empty body, still OK.
  Response empty = Run("subscribe-changefeed " + id + " 1 0");
  ASSERT_TRUE(empty.status.ok());
  EXPECT_TRUE(empty.body.empty());

  EXPECT_FALSE(Run("subscribe-changefeed " + id + " banana 0").status.ok());
  EXPECT_FALSE(Run("subscribe-changefeed " + id).status.ok());
  EXPECT_FALSE(Run("subscribe-changefeed nosuch 0 0").status.ok());
}

TEST_F(HandlerTest, UnknownSessionAndBadFormsError) {
  EXPECT_FALSE(Run("get-schema nosuch pgs").status.ok());
  EXPECT_FALSE(Run("ingest-batch nosuch 0").status.ok());
  EXPECT_FALSE(Run("close nosuch").status.ok());

  Response created = Run("create-session");
  ASSERT_TRUE(created.status.ok());
  EXPECT_FALSE(Run("get-schema s1 hieroglyphs").status.ok());
  EXPECT_FALSE(Run("validate s1 sorta 0").status.ok());
}

}  // namespace
}  // namespace pghive::service
