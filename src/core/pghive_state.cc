// PgHive::SaveState / RestoreState — the full-state snapshot behind
// `pghive discover --resume-from/--checkpoint-to` and pghived's session
// checkpoints.
//
// Layout: "PGHS" magic + u32 format version, then CRC-framed util/binio
// sections (id + length + payload + CRC-32). Section ids are stable;
// unknown ids are skipped so the format can grow within a version.
//
// Compatibility: a newer writer may append optional sections, and the
// options, vocabulary, embedder and cursor layouts stay as they are. The
// schema section (4) is a "PGHB" record (SerializeSchemaBinary) with its own
// version: this build writes version 2 (varint instance ids) and reads 1 and
// 2, and a reader refuses a version it does not know, naming it. So older
// snapshots restore here, and a build that reads only version 1 refuses this
// build's snapshots with "schema binary: unsupported version 2".
//
// The snapshot captures exactly the state PreprocessBatch advances across
// batches (vocabulary interners, Word2Vec weights) plus the running schema,
// the options fingerprint, and the batch cursor — everything else in the
// pipeline is derived per batch from these. No wall-clock value is written,
// so two runs with the same options and batches write the same bytes.

#include <map>
#include <utility>

#include "core/pghive.h"
#include "core/serialize.h"
#include "embed/word2vec.h"
#include "util/binio.h"

namespace pghive::core {

namespace {

constexpr char kStateMagic[4] = {'P', 'G', 'H', 'S'};
constexpr uint32_t kStateVersion = 1;

// Section ids. Never renumber or reuse; add new ids at the end. Id 5 held
// the wall-clock PipelineStats and is retired: older files carry it, and
// restore skips it like any unknown id.
constexpr uint32_t kOptionsSection = 1;
constexpr uint32_t kVocabSection = 2;
constexpr uint32_t kEmbedderSection = 3;
constexpr uint32_t kSchemaSection = 4;
constexpr uint32_t kCursorSection = 6;

// The static members of PgHiveOptions and DataTypeOptions are fixed in this
// build; their slots keep the layout and the values older writers wrote, and
// ParseOptionsPayload refuses a snapshot that holds another value there.
std::string SerializeOptionsPayload(const PgHiveOptions& o) {
  std::string out;
  util::PutU8(&out, static_cast<uint8_t>(o.method));
  util::PutU8(&out, static_cast<uint8_t>(o.embedder));
  util::PutU64(&out, o.embedding_dim);
  util::PutU8(&out, o.adaptive ? 1 : 0);
  util::PutF64(&out, o.bucket_length);
  util::PutU64(&out, o.num_tables);
  util::PutU64(&out, o.minhash_rows_per_band);
  util::PutU8(&out, static_cast<uint8_t>(o.amplification));
  util::PutF64(&out, o.jaccard_threshold);
  util::PutU8(&out, o.post_process_each_batch ? 1 : 0);
  util::PutU8(&out, o.datatype_options.sample ? 1 : 0);
  util::PutF64(&out, o.datatype_options.sample_fraction);
  util::PutU64(&out, o.datatype_options.min_sample);
  util::PutU64(&out, o.datatype_options.seed);
  // Retired slot: the data-plane flag of older writers (1 = columnar, the
  // one plane). Read back and ignored.
  util::PutU8(&out, 1);
  util::PutF64(&out, o.alpha_scale);
  util::PutU64(&out, o.num_threads);
  // Retired slots: the pipeline depth and the in-process shard count of
  // older writers. Always 1, because older readers reject 0; read back and
  // ignored.
  util::PutU64(&out, 1);
  util::PutU64(&out, 1);
  util::PutU64(&out, o.seed);
  return out;
}

util::StatusOr<PgHiveOptions> ParseOptionsPayload(std::string_view payload) {
  util::ByteReader in(payload);
  PgHiveOptions o;
  uint8_t method = in.ReadU8();
  uint8_t embedder = in.ReadU8();
  const uint64_t embedding_dim = in.ReadU64();
  o.adaptive = in.ReadU8() != 0;
  o.bucket_length = in.ReadF64();
  o.num_tables = in.ReadU64();
  const uint64_t rows_per_band = in.ReadU64();
  uint8_t amplification = in.ReadU8();
  o.jaccard_threshold = in.ReadF64();
  const uint8_t post_each_batch = in.ReadU8();
  o.datatype_options.sample = in.ReadU8() != 0;
  const double sample_fraction = in.ReadF64();
  const uint64_t min_sample = in.ReadU64();
  const uint64_t datatype_seed = in.ReadU64();
  in.ReadU8();  // Retired data-plane slot (see SerializeOptionsPayload).
  const double alpha_scale = in.ReadF64();
  o.num_threads = in.ReadU64();
  in.ReadU64();  // Retired pipeline-depth slot (see SerializeOptionsPayload).
  in.ReadU64();  // Retired shard-count slot (see SerializeOptionsPayload).
  o.seed = in.ReadU64();
  if (!in.ok() || !in.AtEnd()) {
    return util::Status::ParseError("state snapshot: corrupt options section");
  }
  if (method > static_cast<uint8_t>(ClusterMethod::kMinHash) ||
      embedder > static_cast<uint8_t>(EmbedderKind::kHash) ||
      amplification > static_cast<uint8_t>(lsh::Amplification::kOr)) {
    return util::Status::ParseError("state snapshot: bad options enum value");
  }
  // The slots of the options this build fixes must hold its values: a run
  // with any other value would not resume to its own bytes here.
  const std::pair<const char*, bool> fixed[] = {
      {"embedding-dim", embedding_dim == PgHiveOptions::embedding_dim},
      {"minhash-rows-per-band",
       rows_per_band == PgHiveOptions::minhash_rows_per_band},
      {"post-process-each-batch",
       post_each_batch == uint8_t{PgHiveOptions::post_process_each_batch}},
      {"sample-fraction", sample_fraction == DataTypeOptions::sample_fraction},
      {"datatype-min-sample", min_sample == DataTypeOptions::min_sample},
      {"datatype-seed", datatype_seed == DataTypeOptions::seed},
      {"alpha-scale", alpha_scale == PgHiveOptions::alpha_scale},
  };
  for (const auto& [knob, same] : fixed) {
    if (same) continue;
    return util::Status::FailedPrecondition(
        std::string("state snapshot: option '") + knob +
        "' differs from this build's fixed value; resume with the build "
        "that wrote the snapshot");
  }
  o.method = static_cast<ClusterMethod>(method);
  o.embedder = static_cast<EmbedderKind>(embedder);
  o.amplification = static_cast<lsh::Amplification>(amplification);
  util::Status valid = o.Validate();
  if (!valid.ok()) {
    return util::Status::ParseError("state snapshot: invalid options: " +
                                    valid.message());
  }
  return o;
}

/// Knobs that change what schema discovery computes — a resume with any of
/// these differing would not reproduce the uninterrupted run. The thread
/// count is deliberately excluded: its byte-identity contract is pinned by
/// the determinism suites, so a snapshot taken at --threads 8 restores fine
/// at --threads 1.
util::Status CheckDiscoveryOptionsMatch(const PgHiveOptions& have,
                                        const PgHiveOptions& snap) {
  auto mismatch = [](const std::string& knob) {
    return util::Status::FailedPrecondition(
        "state snapshot: option '" + knob +
        "' differs from the snapshotted run; resume with the original "
        "discovery options");
  };
  if (have.method != snap.method) return mismatch("method");
  if (have.embedder != snap.embedder) return mismatch("embedder");
  if (have.adaptive != snap.adaptive) return mismatch("adaptive");
  if (have.bucket_length != snap.bucket_length) {
    return mismatch("bucket-length");
  }
  if (have.num_tables != snap.num_tables) return mismatch("num-tables");
  if (have.amplification != snap.amplification) {
    return mismatch("amplification");
  }
  if (have.jaccard_threshold != snap.jaccard_threshold) {
    return mismatch("jaccard-threshold");
  }
  if (have.datatype_options.sample != snap.datatype_options.sample) {
    return mismatch("sample-datatypes");
  }
  if (have.seed != snap.seed) return mismatch("seed");
  return util::Status::Ok();
}

/// Splits a full snapshot byte string into header + unique sections.
util::StatusOr<std::map<uint32_t, std::string_view>> ReadSections(
    const std::string& bytes) {
  util::ByteReader in(bytes);
  if (!in.Has(sizeof(kStateMagic)) ||
      bytes.compare(0, sizeof(kStateMagic), kStateMagic,
                    sizeof(kStateMagic)) != 0) {
    return util::Status::ParseError("state snapshot: bad magic");
  }
  in.ReadBytes(sizeof(kStateMagic));
  uint32_t version = in.ReadU32();
  if (!in.ok()) {
    return util::Status::ParseError("state snapshot: truncated header");
  }
  // Newer writers may append optional sections (the schema section versions
  // itself; see the compatibility note above), so a reader accepts any
  // version >= 1 and skips section ids it does not know. Versions below ours
  // are malformed, not futuristic.
  if (version < kStateVersion) {
    return util::Status::ParseError("state snapshot: unsupported version " +
                                    std::to_string(version));
  }
  std::map<uint32_t, std::string_view> sections;
  while (!in.AtEnd()) {
    uint32_t id = 0;
    std::string_view payload;
    if (!util::ReadSection(&in, &id, &payload)) {
      return util::Status::ParseError(
          "state snapshot: truncated or corrupt section" +
          (id ? " " + std::to_string(id) : std::string()));
    }
    if (!sections.emplace(id, payload).second) {
      return util::Status::ParseError("state snapshot: duplicate section " +
                                      std::to_string(id));
    }
  }
  return sections;
}

}  // namespace

util::StatusOr<std::string> PgHive::SaveState() const {
  if (phase_ == Phase::kFailed) {
    return util::Status::FailedPrecondition(
        "cannot snapshot a failed hive");
  }
  std::string bytes;
  bytes.append(kStateMagic, sizeof(kStateMagic));
  util::PutU32(&bytes, kStateVersion);
  util::AppendSection(&bytes, kOptionsSection,
                      SerializeOptionsPayload(options_));
  std::string vocab;
  graph_->vocab().AppendStateTo(&vocab);
  util::AppendSection(&bytes, kVocabSection, vocab);
  if (word2vec_ != nullptr) {
    std::string weights;
    word2vec_->AppendStateTo(&weights);
    util::AppendSection(&bytes, kEmbedderSection, weights);
  }
  util::AppendSection(&bytes, kSchemaSection, SerializeSchemaBinary(schema_));
  std::string cursor;
  util::PutU64(&cursor, batches_processed_);
  util::PutU8(&cursor, phase_ == Phase::kFinished ? 1 : 0);
  util::AppendSection(&bytes, kCursorSection, cursor);
  return bytes;
}

util::StatusOr<uint64_t> PgHive::RestoreState(const std::string& bytes) {
  if (phase_ != Phase::kIngesting || batches_processed_ != 0) {
    return util::Status::FailedPrecondition(
        "RestoreState needs a fresh hive: no batches processed yet");
  }
  auto sections = ReadSections(bytes);
  if (!sections.ok()) return sections.status();
  for (uint32_t required : {kOptionsSection, kVocabSection, kSchemaSection,
                            kCursorSection}) {
    if (!sections->count(required)) {
      return util::Status::ParseError("state snapshot: missing section " +
                                      std::to_string(required));
    }
  }

  auto snap_options = ParseOptionsPayload(sections->at(kOptionsSection));
  if (!snap_options.ok()) return snap_options.status();
  util::Status match = CheckDiscoveryOptionsMatch(options_, *snap_options);
  if (!match.ok()) return match;

  const bool want_weights = options_.embedder == EmbedderKind::kWord2Vec;
  if (want_weights != (sections->count(kEmbedderSection) != 0)) {
    return util::Status::ParseError(
        "state snapshot: embedder section " +
        std::string(want_weights ? "missing for" : "present without") +
        " a word2vec hive");
  }

  std::string_view cursor_payload = sections->at(kCursorSection);
  util::ByteReader cursor(cursor_payload);
  uint64_t batches = cursor.ReadU64();
  uint8_t finished = cursor.ReadU8();
  if (!cursor.ok() || !cursor.AtEnd() || finished > 1) {
    return util::Status::ParseError("state snapshot: corrupt cursor section");
  }

  auto schema = ParseSchemaBinary(sections->at(kSchemaSection));
  if (!schema.ok()) return schema.status();

  // Everything parsed and validated; start mutating. The vocabulary and
  // Word2Vec restores still validate internally (position consistency, dim,
  // matrix shape) and leave their component untouched on failure, but a
  // failure here leaves the hive half-restored — callers must discard it.
  util::Status vocab_status =
      graph_->vocab().RestoreState(sections->at(kVocabSection));
  if (!vocab_status.ok()) return vocab_status;
  if (word2vec_ != nullptr) {
    util::Status weights_status =
        word2vec_->RestoreState(sections->at(kEmbedderSection));
    if (!weights_status.ok()) return weights_status;
    if (word2vec_->num_rows() > graph_->vocab().num_tokens()) {
      return util::Status::ParseError(
          "state snapshot: more embedding rows than vocabulary tokens");
    }
  }
  schema_ = *std::move(schema);
  batches_processed_ = static_cast<size_t>(batches);
  phase_ = finished != 0 ? Phase::kFinished : Phase::kIngesting;
  return batches;
}

util::Status PgHive::CheckRestoredInstances() const {
  auto check = [&](const auto& types, size_t size, const std::string& kind) {
    for (size_t i = 0; i < types.size(); ++i) {
      for (uint64_t id : types[i].instances) {
        if (id < size) continue;
        return util::Status::FailedPrecondition(
            "state snapshot: " + kind + " type " +
            types[i].Name(graph_->vocab(), i) + " holds " + kind + " id " +
            std::to_string(id) + " but the graph has " + std::to_string(size) +
            " " + kind + "s; resume against the graph the snapshot's run "
            "read");
      }
    }
    return util::Status::Ok();
  };
  util::Status nodes = check(schema_.node_types(), graph_->num_nodes(), "node");
  if (!nodes.ok()) return nodes;
  return check(schema_.edge_types(), graph_->num_edges(), "edge");
}

util::StatusOr<PgHiveOptions> ReadSnapshotOptions(const std::string& bytes) {
  auto sections = ReadSections(bytes);
  if (!sections.ok()) return sections.status();
  auto it = sections->find(kOptionsSection);
  if (it == sections->end()) {
    return util::Status::ParseError("state snapshot: missing options section");
  }
  return ParseOptionsPayload(it->second);
}

}  // namespace pghive::core
