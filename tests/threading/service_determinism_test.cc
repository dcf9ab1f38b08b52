// The pghived multi-tenant determinism guarantee: N sessions streaming
// interleaved batches through one SessionManager on one shared ThreadPool
// each produce a final schema byte-identical to a one-shot run on the same
// dataset. Lives in the threading suite so the TSan CI job races the lane
// scheduler, snapshot publication, and cross-session pool sharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pghive.h"
#include "core/serialize.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/thread_pool.h"

namespace pghive {
namespace {

struct Tenant {
  datasets::DatasetSpec spec;
  double scale;
  size_t batches;
};

std::string OneShotPgs(const Tenant& tenant) {
  datasets::Dataset dataset =
      datasets::Generate(tenant.spec, tenant.scale, /*seed=*/13);
  core::PgHiveOptions options;
  core::PgHive pipeline(&dataset.graph, options);
  if (tenant.batches <= 1) {
    EXPECT_TRUE(pipeline.Run().ok());
  } else {
    for (const auto& batch :
         pg::SplitIntoBatches(dataset.graph, tenant.batches, /*seed=*/1)) {
      EXPECT_TRUE(pipeline.ProcessBatch(batch).ok());
    }
    EXPECT_TRUE(pipeline.Finish().ok());
  }
  return core::SerializePgSchema(pipeline.schema(), dataset.graph.vocab(),
                                 core::SchemaMode::kStrict);
}

TEST(ServiceDeterminismTest, ConcurrentTenantsMatchOneShotByteForByte) {
  // A slice of the paper's zoo (Table 2) with different shapes: flat types,
  // multi-label structure, and heterogeneous patterns.
  const std::vector<Tenant> tenants = {
      {datasets::PoleSpec(), 0.08, 3},
      {datasets::Mb6Spec(), 0.08, 2},
      {datasets::LdbcSpec(), 0.05, 4},
      {datasets::IcijSpec(), 0.04, 2},
  };

  std::vector<std::string> expected(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    expected[i] = OneShotPgs(tenants[i]);
    ASSERT_FALSE(expected[i].empty()) << tenants[i].spec.name;
  }

  util::ThreadPool pool(4);
  service::SessionManager manager(&pool);

  // Every tenant streams from its own thread; batches from different
  // sessions interleave arbitrarily on the shared pool, batches within a
  // session stay in submission order via its job lane.
  std::vector<std::string> streamed(tenants.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      auto session = manager.CreateSession({});
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      datasets::Dataset dataset =
          datasets::Generate(tenants[i].spec, tenants[i].scale, /*seed=*/13);
      for (const std::string& payload : service::BuildIngestPayloads(
               dataset.graph, tenants[i].batches)) {
        auto seq = (*session)->SubmitIngest(payload);
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      }
      auto final_snapshot = (*session)->FinalSnapshot();
      ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
      streamed[i] = *service::SnapshotForm(**final_snapshot, "pgs");
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i])
        << tenants[i].spec.name << " (tenant " << i << ")";
  }
}

TEST(ServiceDeterminismTest, SnapshotReadersRaceIngestSafely) {
  // Readers hammer Snapshot() while the writer streams, and render all five
  // forms of each version they see on their own threads while the lane
  // keeps ingesting, which interns into the live vocabulary. Versions only
  // grow, and each rendering equals that of a quiescent in-process run at
  // the same version.
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), 0.08, /*seed=*/13);
  const size_t batches = 6;
  const std::vector<std::string> forms = {"pgs", "pgs-loose", "xsd",
                                          "describe", "binary"};
  // expected[v]: the forms of version v; version batches + 1 is the final.
  std::vector<std::vector<std::string>> expected(batches + 2);
  {
    core::PgHive hive(&dataset.graph, core::PgHiveOptions());
    const pg::Vocabulary& vocab = dataset.graph.vocab();
    auto render = [&](size_t version) {
      const core::SchemaGraph& schema = hive.schema();
      expected[version] = {
          core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict),
          core::SerializePgSchema(schema, vocab, core::SchemaMode::kLoose),
          core::SerializeXsd(schema, vocab),
          core::DescribeSchema(schema, vocab),
          core::SerializeSchemaBinary(schema)};
    };
    size_t version = 0;
    for (const auto& batch :
         pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/1)) {
      ASSERT_TRUE(hive.ProcessBatch(batch).ok());
      render(++version);
    }
    ASSERT_TRUE(hive.Finish().ok());
    render(++version);
  }

  util::ThreadPool pool(4);
  service::SessionManager manager(&pool);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  std::atomic<bool> done{false};
  std::vector<std::set<uint64_t>> rendered(3);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < rendered.size(); ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      // One last look after `done`, so every reader sees the final version.
      for (bool last = false; !last;) {
        last = done.load();
        auto snapshot = (*session)->Snapshot();
        if (snapshot == nullptr) continue;
        EXPECT_GE(snapshot->version, last_version);
        last_version = snapshot->version;
        if (rendered[r].count(snapshot->version)) continue;
        ASSERT_LT(snapshot->version, expected.size());
        EXPECT_EQ(snapshot->batches,
                  std::min<uint64_t>(snapshot->version, batches));
        EXPECT_EQ(snapshot->is_final, snapshot->version == batches + 1);
        for (size_t f = 0; f < forms.size(); ++f) {
          auto body = service::SnapshotForm(*snapshot, forms[f]);
          ASSERT_TRUE(body.ok()) << body.status().ToString();
          EXPECT_EQ(*body, expected[snapshot->version][f])
              << forms[f] << " of version " << snapshot->version;
        }
        rendered[r].insert(snapshot->version);
      }
    });
  }
  for (const std::string& payload :
       service::BuildIngestPayloads(dataset.graph, batches)) {
    ASSERT_TRUE((*session)->SubmitIngest(payload).ok());
  }
  auto final_snapshot = (*session)->FinalSnapshot();
  done = true;
  for (auto& t : readers) t.join();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_TRUE((*final_snapshot)->is_final);
  EXPECT_EQ((*final_snapshot)->batches, batches);
  for (const std::set<uint64_t>& versions : rendered) {
    EXPECT_EQ(versions.count(batches + 1), 1u);
  }
}

}  // namespace
}  // namespace pghive
