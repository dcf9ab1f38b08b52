// core/schema_diff: the structural diff behind the schema changefeed. The
// diff must be deterministic, resolved to strings (consumers have no
// vocabulary), and its binary record format must survive round trips while
// rejecting truncation, bit flips, and hostile length prefixes.

#include "core/schema_diff.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/schema.h"
#include "pg/vocabulary.h"
#include "util/file_io.h"

namespace pghive::core {
namespace {

NodeType MakeNodeType(std::vector<pg::LabelId> labels, size_t instances,
                      std::vector<std::pair<pg::PropKeyId, PropertyInfo>>
                          properties = {}) {
  NodeType type;
  type.labels = std::move(labels);
  type.instance_count = instances;
  for (auto& [key, info] : properties) type.properties[key] = info;
  return type;
}

EdgeType MakeEdgeType(std::vector<pg::LabelId> labels, size_t instances,
                      CardinalityKind kind) {
  EdgeType type;
  type.labels = std::move(labels);
  type.instance_count = instances;
  type.cardinality.kind = kind;
  return type;
}

PropertyInfo Prop(pg::DataType type, Requiredness req, size_t count = 1) {
  PropertyInfo info;
  info.count = count;
  info.data_type = type;
  info.requiredness = req;
  return info;
}

class SchemaDiffTest : public ::testing::Test {
 protected:
  SchemaDiffTest() {
    person_ = vocab_.InternLabel("Person");
    company_ = vocab_.InternLabel("Company");
    knows_ = vocab_.InternLabel("KNOWS");
    name_ = vocab_.InternKey("name");
    age_ = vocab_.InternKey("age");
  }

  pg::Vocabulary vocab_;
  pg::LabelId person_, company_, knows_;
  pg::PropKeyId name_, age_;
};

TEST_F(SchemaDiffTest, IdenticalSchemasDiffEmpty) {
  SchemaGraph schema;
  schema.node_types().push_back(
      MakeNodeType({person_}, 10, {{name_, Prop(pg::DataType::kString,
                                                Requiredness::kMandatory)}}));
  SchemaDiff diff = DiffSchemas(schema, schema, vocab_);
  EXPECT_TRUE(diff.empty());
  EXPECT_TRUE(diff.node_deltas.empty());
  EXPECT_TRUE(diff.edge_deltas.empty());
}

TEST_F(SchemaDiffTest, AddedAndRemovedTypes) {
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType({person_}, 5));
  next.node_types().push_back(MakeNodeType({company_}, 3));
  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  ASSERT_EQ(diff.node_deltas.size(), 2u);
  // next-order first (additions), then prev-order removals.
  EXPECT_EQ(diff.node_deltas[0].kind, TypeDelta::Kind::kAdded);
  EXPECT_EQ(diff.node_deltas[0].name, "Company");
  EXPECT_EQ(diff.node_deltas[0].instance_delta, 3);
  EXPECT_EQ(diff.node_deltas[1].kind, TypeDelta::Kind::kRemoved);
  EXPECT_EQ(diff.node_deltas[1].name, "Person");
  EXPECT_EQ(diff.node_deltas[1].instance_delta, -5);
}

TEST_F(SchemaDiffTest, PropertyDeltasOnMatchedType) {
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType(
      {person_}, 10,
      {{name_, Prop(pg::DataType::kString, Requiredness::kMandatory)},
       {age_, Prop(pg::DataType::kInteger, Requiredness::kMandatory)}}));
  next.node_types().push_back(MakeNodeType(
      {person_}, 12,
      {{name_, Prop(pg::DataType::kString, Requiredness::kOptional)},
       {age_, Prop(pg::DataType::kFloat, Requiredness::kMandatory)}}));

  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  ASSERT_EQ(diff.node_deltas.size(), 1u);
  const TypeDelta& delta = diff.node_deltas[0];
  EXPECT_EQ(delta.kind, TypeDelta::Kind::kChanged);
  EXPECT_EQ(delta.instance_delta, 2);
  ASSERT_EQ(delta.properties.size(), 2u);

  bool saw_retyped = false, saw_requiredness = false;
  for (const PropertyDelta& p : delta.properties) {
    if (p.kind == PropertyDelta::Kind::kRetyped) {
      saw_retyped = true;
      EXPECT_EQ(p.key, "age");
      EXPECT_EQ(p.old_type, pg::DataType::kInteger);
      EXPECT_EQ(p.new_type, pg::DataType::kFloat);
    } else if (p.kind == PropertyDelta::Kind::kRequirednessChanged) {
      saw_requiredness = true;
      EXPECT_EQ(p.key, "name");
      EXPECT_EQ(p.old_requiredness, Requiredness::kMandatory);
      EXPECT_EQ(p.new_requiredness, Requiredness::kOptional);
    }
  }
  EXPECT_TRUE(saw_retyped);
  EXPECT_TRUE(saw_requiredness);
}

TEST_F(SchemaDiffTest, EdgeCardinalityChange) {
  SchemaGraph prev, next;
  prev.edge_types().push_back(
      MakeEdgeType({knows_}, 4, CardinalityKind::kUnknown));
  next.edge_types().push_back(
      MakeEdgeType({knows_}, 9, CardinalityKind::kManyToOne));
  next.edge_types().back().endpoints.insert({1, 2});

  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  ASSERT_EQ(diff.edge_deltas.size(), 1u);
  const TypeDelta& delta = diff.edge_deltas[0];
  EXPECT_EQ(delta.kind, TypeDelta::Kind::kChanged);
  EXPECT_TRUE(delta.is_edge);
  EXPECT_EQ(delta.old_cardinality, CardinalityKind::kUnknown);
  EXPECT_EQ(delta.new_cardinality, CardinalityKind::kManyToOne);
  EXPECT_EQ(delta.endpoints_added, 1u);
  EXPECT_EQ(delta.endpoints_removed, 0u);
}

TEST_F(SchemaDiffTest, AbstractTypesPairPositionally) {
  // Abstract types all share the empty label set; the diff pairs them by
  // position so a stable stream of abstract types diffs quietly.
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType({}, 5));
  prev.node_types().push_back(MakeNodeType({}, 7));
  next.node_types().push_back(MakeNodeType({}, 5));
  next.node_types().push_back(MakeNodeType({}, 7));
  next.node_types().push_back(MakeNodeType({}, 2));

  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  ASSERT_EQ(diff.node_deltas.size(), 1u);  // Only the third one is new.
  EXPECT_EQ(diff.node_deltas[0].kind, TypeDelta::Kind::kAdded);
  EXPECT_EQ(diff.node_deltas[0].instance_delta, 2);
}

SchemaDiff SampleDiff(const pg::Vocabulary& vocab, pg::LabelId person,
                      pg::LabelId knows, pg::PropKeyId age) {
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType({person}, 10));
  next.node_types().push_back(MakeNodeType(
      {person}, 15,
      {{age, Prop(pg::DataType::kInteger, Requiredness::kOptional)}}));
  next.edge_types().push_back(
      MakeEdgeType({knows}, 3, CardinalityKind::kManyToMany));
  SchemaDiff diff = DiffSchemas(prev, next, vocab);
  diff.version_from = 3;
  diff.version_to = 4;
  diff.batch = 4;
  return diff;
}

TEST_F(SchemaDiffTest, BinaryRoundTrip) {
  SchemaDiff diff = SampleDiff(vocab_, person_, knows_, age_);
  std::string feed = SerializeSchemaDiffBinary(diff);
  // Feed files concatenate records back to back.
  feed += SerializeSchemaDiffBinary(diff);

  auto parsed = ParseSchemaDiffStream(feed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  for (const SchemaDiff& back : *parsed) {
    EXPECT_EQ(back.version_from, 3u);
    EXPECT_EQ(back.version_to, 4u);
    EXPECT_EQ(back.batch, 4u);
    ASSERT_EQ(back.node_deltas.size(), 1u);
    EXPECT_EQ(back.node_deltas[0].kind, TypeDelta::Kind::kChanged);
    EXPECT_EQ(back.node_deltas[0].name, "Person");
    EXPECT_EQ(back.node_deltas[0].instance_delta, 5);
    ASSERT_EQ(back.node_deltas[0].properties.size(), 1u);
    EXPECT_EQ(back.node_deltas[0].properties[0].key, "age");
    ASSERT_EQ(back.edge_deltas.size(), 1u);
    EXPECT_EQ(back.edge_deltas[0].kind, TypeDelta::Kind::kAdded);
    EXPECT_TRUE(back.edge_deltas[0].is_edge);
    EXPECT_EQ(back.edge_deltas[0].new_cardinality,
              CardinalityKind::kManyToMany);
  }
  EXPECT_TRUE(ParseSchemaDiffStream("")->empty());
}

TEST_F(SchemaDiffTest, ParserRejectsEveryTruncation) {
  std::string record =
      SerializeSchemaDiffBinary(SampleDiff(vocab_, person_, knows_, age_));
  for (size_t len = 1; len < record.size(); ++len) {
    auto parsed = ParseSchemaDiffStream(record.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "len " << len;
  }
}

TEST_F(SchemaDiffTest, ParserRejectsBitFlips) {
  std::string record =
      SerializeSchemaDiffBinary(SampleDiff(vocab_, person_, knows_, age_));
  // Seeded sweep over the record: every flipped bit must fail (the payload
  // is CRC-framed; header flips break the magic/version check instead).
  for (size_t byte = 0; byte < record.size(); ++byte) {
    std::string corrupt = record;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << (byte % 8)));
    auto parsed = ParseSchemaDiffStream(corrupt);
    EXPECT_FALSE(parsed.ok()) << "byte " << byte;
  }
}

TEST_F(SchemaDiffTest, ParserRejectsBadMagicAndVersion) {
  std::string record =
      SerializeSchemaDiffBinary(SampleDiff(vocab_, person_, knows_, age_));
  std::string bad_magic = record;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseSchemaDiffStream(bad_magic).ok());

  std::string bad_version = record;
  bad_version[4] = 99;  // Format version byte.
  auto parsed = ParseSchemaDiffStream(bad_version);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(SchemaDiffTest, DescribeRendersHeaderAndDeltaLines) {
  SchemaDiff diff = SampleDiff(vocab_, person_, knows_, age_);
  std::string text = DescribeSchemaDiff(diff);
  EXPECT_NE(text.find("v3 -> v4"), std::string::npos);
  EXPECT_NE(text.find("Person"), std::string::npos);
  EXPECT_NE(text.find("KNOWS"), std::string::npos);
}

// --- ScanSchemaDiffStream: the recovery-oriented reader behind feed-segment
// reconciliation and `pghive drift --feed`. ---

TEST_F(SchemaDiffTest, ScanRecoversCleanPrefixOfTornStream) {
  std::string record =
      SerializeSchemaDiffBinary(SampleDiff(vocab_, person_, knows_, age_));
  std::string stream = record + record + record.substr(0, record.size() / 2);

  size_t valid_prefix = 0;
  auto records = ScanSchemaDiffStream(stream, &valid_prefix);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(valid_prefix, 2 * record.size());
  EXPECT_EQ(records[0].offset, 0u);
  EXPECT_EQ(records[0].length, record.size());
  EXPECT_EQ(records[1].offset, record.size());
  EXPECT_EQ(records[1].length, record.size());
  for (const SchemaDiffRecord& back : records) {
    EXPECT_EQ(back.diff.version_to, 4u);
    ASSERT_EQ(back.diff.node_deltas.size(), 1u);
    EXPECT_EQ(back.diff.node_deltas[0].name, "Person");
  }

  // A clean stream scans whole; an empty one scans to nothing, not an error.
  auto whole = ScanSchemaDiffStream(record + record, &valid_prefix);
  EXPECT_EQ(whole.size(), 2u);
  EXPECT_EQ(valid_prefix, 2 * record.size());
  EXPECT_TRUE(ScanSchemaDiffStream("", &valid_prefix).empty());
  EXPECT_EQ(valid_prefix, 0u);
}

TEST_F(SchemaDiffTest, ScanStopsAtCorruptRecordNotBefore) {
  std::string record =
      SerializeSchemaDiffBinary(SampleDiff(vocab_, person_, knows_, age_));
  std::string corrupt = record;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x20);
  std::string stream = record + corrupt + record;

  // A flipped bit inside record 2 must not poison record 1, and scanning
  // never resynchronizes past garbage: everything after the tear is dropped.
  size_t valid_prefix = 0;
  auto records = ScanSchemaDiffStream(stream, &valid_prefix);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(valid_prefix, record.size());
}

TEST_F(SchemaDiffTest, ChangefeedRecordNumbersTheDiffOfTwoVersions) {
  SchemaGraph prev;
  prev.node_types().push_back(MakeNodeType({person_}, 2));
  SchemaGraph next = prev;
  next.node_types().push_back(MakeNodeType({company_}, 1));
  auto parsed = ParseSchemaDiffStream(
      BuildChangefeedRecord(prev, next, vocab_, /*version=*/5, /*batch=*/4));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const SchemaDiff& diff = parsed->front();
  EXPECT_EQ(diff.version_from, 4u);
  EXPECT_EQ(diff.version_to, 5u);
  EXPECT_EQ(diff.batch, 4u);
  ASSERT_EQ(diff.node_deltas.size(), 1u);
  EXPECT_EQ(diff.node_deltas[0].kind, TypeDelta::Kind::kAdded);
  EXPECT_EQ(diff.node_deltas[0].name, "Company");
}

// --- TruncateFeedFile: how a resumed producer reconciles its feed file with
// its snapshot before appending. ---

TEST_F(SchemaDiffTest, TruncateFeedFileKeepsTheCleanPrefixUpToTheSnapshot) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "schema_diff_truncate";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/feed";
  const SchemaGraph empty;
  std::vector<std::string> records;
  for (uint64_t version = 1; version <= 4; ++version) {
    records.push_back(
        BuildChangefeedRecord(empty, empty, vocab_, version, version));
  }
  auto write = [&](const std::string& bytes) {
    ASSERT_TRUE(util::AtomicWriteFile(path, bytes).ok());
  };
  auto read = [&] { return *util::ReadWholeFile(path); };

  // Versions past the snapshot go, and so does a torn tail.
  write(records[0] + records[1] + records[2] +
        records[3].substr(0, records[3].size() - 10));
  EXPECT_TRUE(TruncateFeedFile(path, 2).ok());
  EXPECT_EQ(read(), records[0] + records[1]);
  // A feed holding fewer versions than the snapshot is refused, naming the
  // file and both counts, and left as it is.
  auto refused = [&](const std::string& feed, uint64_t versions,
                     uint64_t held) {
    util::Status status = TruncateFeedFile(feed, versions);
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find(
                  "changefeed " + feed + " holds " + std::to_string(held) +
                  " versions but the snapshot needs " +
                  std::to_string(versions)),
              std::string::npos)
        << status.ToString();
  };
  refused(path, 3, 2);
  EXPECT_EQ(read(), records[0] + records[1]);
  // The kept records are numbered 1, 2, ... with no gap.
  write(records[0] + records[2]);
  refused(path, 2, 1);
  EXPECT_EQ(read(), records[0] + records[2]);
  EXPECT_TRUE(TruncateFeedFile(path, 1).ok());
  EXPECT_EQ(read(), records[0]);
  EXPECT_TRUE(TruncateFeedFile(path, 0).ok());
  EXPECT_EQ(fs::file_size(path), 0u);

  // A missing file is an empty feed and stays missing; a device is left
  // alone, never read, and counts as holding every version.
  EXPECT_TRUE(TruncateFeedFile(dir + "/no_such_feed", 0).ok());
  refused(dir + "/no_such_feed", 2, 0);
  EXPECT_FALSE(fs::exists(dir + "/no_such_feed"));
  EXPECT_TRUE(TruncateFeedFile("/dev/null", 3).ok());
  EXPECT_TRUE(fs::is_character_file("/dev/null"));
}

// --- Drift alerts over a changefeed record. ---

TEST_F(SchemaDiffTest, CardinalityWideningLattice) {
  using CK = CardinalityKind;
  // Reflexive, and everything widens from kUnknown or to kManyToMany.
  for (CK kind : {CK::kUnknown, CK::kOneToOne, CK::kOneToMany, CK::kManyToOne,
                  CK::kManyToMany}) {
    EXPECT_TRUE(IsCardinalityWidening(kind, kind));
    EXPECT_TRUE(IsCardinalityWidening(CK::kUnknown, kind));
    EXPECT_TRUE(IsCardinalityWidening(kind, CK::kManyToMany));
  }
  EXPECT_TRUE(IsCardinalityWidening(CK::kOneToOne, CK::kManyToOne));
  EXPECT_TRUE(IsCardinalityWidening(CK::kOneToOne, CK::kOneToMany));

  // Narrowing or sideways moves — which insertion alone never makes — are
  // the flips the drift monitor exists to flag.
  EXPECT_FALSE(IsCardinalityWidening(CK::kManyToMany, CK::kOneToMany));
  EXPECT_FALSE(IsCardinalityWidening(CK::kManyToOne, CK::kOneToMany));
  EXPECT_FALSE(IsCardinalityWidening(CK::kOneToMany, CK::kOneToOne));
  EXPECT_FALSE(IsCardinalityWidening(CK::kManyToOne, CK::kUnknown));
}

TEST_F(SchemaDiffTest, ScanForDriftFlagsRetypes) {
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType(
      {person_}, 10,
      {{age_, Prop(pg::DataType::kInteger, Requiredness::kMandatory)}}));
  next.node_types().push_back(MakeNodeType(
      {person_}, 12,
      {{age_, Prop(pg::DataType::kString, Requiredness::kMandatory)}}));
  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  diff.version_to = 7;

  auto alerts = ScanForDrift(diff);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, DriftAlert::Kind::kPropertyRetype);
  EXPECT_FALSE(alerts[0].is_edge);
  EXPECT_EQ(alerts[0].version_to, 7u);
  EXPECT_EQ(alerts[0].type_name, "Person");
  EXPECT_EQ(alerts[0].key, "age");
  EXPECT_EQ(alerts[0].old_type, pg::DataType::kInteger);
  EXPECT_EQ(alerts[0].new_type, pg::DataType::kString);

  std::string text = DescribeDriftAlert(alerts[0]);
  EXPECT_NE(text.find("Person"), std::string::npos);
  EXPECT_NE(text.find("age"), std::string::npos);
  EXPECT_NE(text.find("retyped"), std::string::npos);
}

TEST_F(SchemaDiffTest, FirstConcreteTypeIsRefinementNotDrift) {
  // The pipeline resolves datatype statistics at Finish, so the final feed
  // record retypes every property NULL -> concrete. That is the property
  // acquiring its first type — the datatype twin of the kUnknown
  // cardinality rule — and must not read as drift.
  SchemaGraph prev, next;
  prev.node_types().push_back(MakeNodeType(
      {person_}, 10,
      {{age_, Prop(pg::DataType::kNull, Requiredness::kMandatory)}}));
  next.node_types().push_back(MakeNodeType(
      {person_}, 12,
      {{age_, Prop(pg::DataType::kInteger, Requiredness::kMandatory)}}));
  SchemaDiff diff = DiffSchemas(prev, next, vocab_);
  EXPECT_TRUE(ScanForDrift(diff).empty());
}

TEST_F(SchemaDiffTest, ScanForDriftFlagsOnlyNonWideningCardinalityMoves) {
  auto DiffWithCardinality = [&](CardinalityKind from, CardinalityKind to) {
    SchemaGraph prev, next;
    prev.edge_types().push_back(MakeEdgeType({knows_}, 4, from));
    next.edge_types().push_back(MakeEdgeType({knows_}, 6, to));
    return DiffSchemas(prev, next, vocab_);
  };

  // The normal accumulation direction never alerts: observations can only
  // widen a cardinality, so widening is signal-free.
  EXPECT_TRUE(ScanForDrift(DiffWithCardinality(CardinalityKind::kUnknown,
                                               CardinalityKind::kManyToOne))
                  .empty());
  EXPECT_TRUE(ScanForDrift(DiffWithCardinality(CardinalityKind::kOneToOne,
                                               CardinalityKind::kManyToMany))
                  .empty());

  // A narrowing move means instances were removed: that is drift.
  auto alerts = ScanForDrift(DiffWithCardinality(CardinalityKind::kManyToMany,
                                                 CardinalityKind::kOneToMany));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, DriftAlert::Kind::kCardinalityFlip);
  EXPECT_TRUE(alerts[0].is_edge);
  EXPECT_EQ(alerts[0].type_name, "KNOWS");
  EXPECT_EQ(alerts[0].old_cardinality, CardinalityKind::kManyToMany);
  EXPECT_EQ(alerts[0].new_cardinality, CardinalityKind::kOneToMany);
  std::string text = DescribeDriftAlert(alerts[0]);
  EXPECT_NE(text.find("KNOWS"), std::string::npos);
  EXPECT_NE(text.find("cardinality"), std::string::npos);
}

}  // namespace
}  // namespace pghive::core
