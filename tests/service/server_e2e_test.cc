// End-to-end pghived tests over a real loopback socket: a PghivedServer on
// an ephemeral port, driven by PghivedClient — the exact pair the daemon
// binary and `pghive client` wrap. Pins the headline guarantee: a schema
// streamed over TCP in batches is byte-identical to the one-shot run.

#include "service/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/pghive.h"
#include "core/serialize.h"
#include "pg/batch.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "service/client.h"
#include "service/net.h"
#include "service/protocol.h"
#include "util/status.h"

namespace pghive::service {
namespace {

struct OneShot {
  std::string pgs;
  std::string xsd;
};

OneShot OneShotDiscovery(double scale, size_t batches) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), scale, /*seed=*/7);
  core::PgHiveOptions options;
  core::PgHive pipeline(&dataset.graph, options);
  if (batches <= 1) {
    EXPECT_TRUE(pipeline.Run().ok());
  } else {
    // Same split the client streams: SplitIntoBatches with the CLI seed.
    for (const auto& batch :
         pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/1)) {
      EXPECT_TRUE(pipeline.ProcessBatch(batch).ok());
    }
    EXPECT_TRUE(pipeline.Finish().ok());
  }
  OneShot out;
  out.pgs = core::SerializePgSchema(pipeline.schema(), dataset.graph.vocab(),
                                    core::SchemaMode::kStrict);
  out.xsd = core::SerializeXsd(pipeline.schema(), dataset.graph.vocab());
  return out;
}

// Lines in /proc/self/maps; 0 where procfs is unavailable.
size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

TEST(ServerE2eTest, PingAndUnknownSession) {
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = PghivedClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_FALSE(client->GetSchema("nosuch").ok());
  server.Stop();
}

TEST(ServerE2eTest, ReconnectingClientDoesNotAccumulateThreads) {
  // Each connection is served by its own thread. A finished thread left
  // unjoined keeps its stack mapped (~2 maps entries: stack + guard page),
  // so a client that keeps reconnecting would grow the daemon per cycle.
  if (CountMappings() == 0) GTEST_SKIP() << "no /proc/self/maps";
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto cycle = [&] {
    auto client = PghivedClient::Connect(server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE(client->Ping().ok());
  };
  for (int i = 0; i < 20; ++i) cycle();  // Warm allocator and stack caches.
  const size_t before = CountMappings();
  for (int i = 0; i < 200; ++i) cycle();
  const size_t after = CountMappings();
  EXPECT_LT(after, before + 40)
      << "maps grew from " << before << " to " << after << " entries";
  server.Stop();
}

// A request line longer than kMaxRequestLineBytes gets ERR OUT_OF_RANGE and
// then EOF, however long the peer goes on without a newline, and other
// connections are served as before. The receive timeout makes a server that
// keeps waiting for the newline fail the test instead of hanging it.
TEST(ServerE2eTest, OverlongRequestLineIsRefusedAndClosed) {
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto fd = ConnectTcp(server.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  SocketStream stream(*fd);
  ASSERT_TRUE(stream.WriteAll(std::string(2 * kMaxRequestLineBytes, 'x')).ok());
  auto reply = stream.ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("ERR OUT_OF_RANGE ", 0), 0u) << *reply;
  auto eof = stream.ReadLine();
  EXPECT_EQ(eof.status().code(), util::StatusCode::kNotFound)
      << eof.status().ToString();

  auto client = PghivedClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST(ServerE2eTest, StreamedSchemaIsByteIdenticalToOneShot) {
  const double kScale = 0.1;
  OneShot expected = OneShotDiscovery(kScale, /*batches=*/4);
  ASSERT_FALSE(expected.pgs.empty());

  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto client = PghivedClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  auto session = client->CreateSession({});
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), kScale, /*seed=*/7);
  auto payloads = BuildIngestPayloads(dataset.graph, /*num_batches=*/4);
  ASSERT_EQ(payloads.size(), 4u);
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto seq = client->IngestBatch(*session, payloads[i]);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, i + 1);
  }

  auto pgs = client->GetSchema(*session, "pgs");
  ASSERT_TRUE(pgs.ok()) << pgs.status().ToString();
  EXPECT_EQ(*pgs, expected.pgs);

  auto xsd = client->GetSchema(*session, "xsd");
  ASSERT_TRUE(xsd.ok());
  EXPECT_EQ(*xsd, expected.xsd);

  // The binary form parses back into a structurally sane schema.
  auto binary = client->GetSchema(*session, "binary");
  ASSERT_TRUE(binary.ok());
  auto parsed = core::ParseSchemaBinary(*binary);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed->num_node_types(), 0u);

  // The streamed schema validates against the streamed graph.
  auto verdict = client->Validate(*session, /*strict=*/true, *pgs);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->conforms) << verdict->report;

  EXPECT_TRUE(client->CloseSession(*session).ok());
  server.Stop();
}

// Self-conformance over the wire: the final schema of a MinHash session
// streamed in 4 batches validates STRICT, through the session's validate
// verb, against the graph the session assembled, on every zoo dataset.
TEST(ServerE2eTest, MinHashSessionConformsToItsOwnSchema) {
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto client = PghivedClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    auto session = client->CreateSession({{"method", "minhash"}});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    datasets::Dataset dataset = datasets::Generate(spec, 0.25, /*seed=*/42);
    for (const std::string& payload :
         BuildIngestPayloads(dataset.graph, /*num_batches=*/4)) {
      ASSERT_TRUE(client->IngestBatch(*session, payload).ok());
    }
    auto pgs = client->GetSchema(*session, "pgs");
    ASSERT_TRUE(pgs.ok()) << pgs.status().ToString();
    auto verdict = client->Validate(*session, /*strict=*/true, *pgs);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict->conforms) << verdict->report;
    EXPECT_TRUE(client->CloseSession(*session).ok());
  }
  server.Stop();
}

TEST(ServerE2eTest, ConcurrentClientsGetIndependentSessions) {
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());

  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), 0.05, /*seed=*/7);
  auto payloads = BuildIngestPayloads(dataset.graph, /*num_batches=*/2);

  constexpr int kClients = 4;
  std::vector<std::string> schemas(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = PghivedClient::Connect(server.port());
      ASSERT_TRUE(client.ok());
      auto session = client->CreateSession({});
      ASSERT_TRUE(session.ok());
      for (const std::string& payload : payloads) {
        ASSERT_TRUE(client->IngestBatch(*session, payload).ok());
      }
      auto pgs = client->GetSchema(*session, "pgs");
      ASSERT_TRUE(pgs.ok()) << pgs.status().ToString();
      schemas[c] = *pgs;
      EXPECT_TRUE(client->CloseSession(*session).ok());
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(schemas[c], schemas[0]) << "client " << c;
  }
  EXPECT_FALSE(schemas[0].empty());
  server.Stop();
}

TEST(ServerE2eTest, StopDrainsAndIsIdempotent) {
  PghivedServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto client = PghivedClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto session = client->CreateSession({});
  ASSERT_TRUE(session.ok());

  pg::PropertyGraph graph;
  auto a = graph.AddNode({"A"});
  auto b = graph.AddNode({"B"});
  graph.AddEdge(a, b, {"REL"});
  auto payloads = BuildIngestPayloads(graph, 1);
  ASSERT_TRUE(client->IngestBatch(*session, payloads[0]).ok());

  server.Stop();
  server.Stop();  // Idempotent.
  // The connection is gone after shutdown.
  EXPECT_FALSE(client->Ping().ok());
}

}  // namespace
}  // namespace pghive::service
