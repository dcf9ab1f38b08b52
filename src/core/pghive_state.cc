// PgHive::SaveState / RestoreState — the full-state snapshot behind
// `pghive discover --resume-from/--checkpoint-to` and pghived's session
// checkpoints.
//
// Layout: "PGHS" magic + u32 format version, then CRC-framed util/binio
// sections (id + length + payload + CRC-32). Section ids are stable;
// unknown ids are skipped so the format can grow within a version. The
// snapshot captures exactly the state PreprocessBatch advances across
// batches (vocabulary interners, Word2Vec weights) plus the running schema,
// the cumulative stats, the options fingerprint, and the batch cursor —
// everything else in the pipeline is derived per batch from these.

#include <istream>
#include <map>
#include <ostream>
#include <utility>

#include "core/pghive.h"
#include "core/serialize.h"
#include "embed/word2vec.h"
#include "util/binio.h"

namespace pghive::core {

namespace {

constexpr char kStateMagic[4] = {'P', 'G', 'H', 'S'};
constexpr uint32_t kStateVersion = 1;

// Section ids. Never renumber; add new ids at the end.
constexpr uint32_t kOptionsSection = 1;
constexpr uint32_t kVocabSection = 2;
constexpr uint32_t kEmbedderSection = 3;
constexpr uint32_t kSchemaSection = 4;
constexpr uint32_t kStatsSection = 5;
constexpr uint32_t kCursorSection = 6;

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
  o.embedding_dim = in.ReadU64();
  o.adaptive = in.ReadU8() != 0;
  o.bucket_length = in.ReadF64();
  o.num_tables = in.ReadU64();
  o.minhash_rows_per_band = in.ReadU64();
  uint8_t amplification = in.ReadU8();
  o.jaccard_threshold = in.ReadF64();
  o.post_process_each_batch = in.ReadU8() != 0;
  o.datatype_options.sample = in.ReadU8() != 0;
  o.datatype_options.sample_fraction = in.ReadF64();
  o.datatype_options.min_sample = in.ReadU64();
  o.datatype_options.seed = in.ReadU64();
  in.ReadU8();  // Retired data-plane slot (see SerializeOptionsPayload).
  o.alpha_scale = in.ReadF64();
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

void PutAdaptiveChoice(std::string* out, const AdaptiveChoice& c) {
  util::PutF64(out, c.mu);
  util::PutF64(out, c.alpha);
  util::PutF64(out, c.bucket_length);
  util::PutU64(out, c.num_tables);
}

void ReadAdaptiveChoice(util::ByteReader* in, AdaptiveChoice* c) {
  c->mu = in->ReadF64();
  c->alpha = in->ReadF64();
  c->bucket_length = in->ReadF64();
  c->num_tables = in->ReadU64();
}

void PutStats(std::string* out, const PipelineStats& s) {
  util::PutF64(out, s.preprocess_ms);
  util::PutF64(out, s.cluster_ms);
  util::PutF64(out, s.extract_ms);
  util::PutF64(out, s.post_process_ms);
  util::PutU64(out, s.node_clusters);
  util::PutU64(out, s.edge_clusters);
  PutAdaptiveChoice(out, s.node_params);
  PutAdaptiveChoice(out, s.edge_params);
}

void ReadStats(util::ByteReader* in, PipelineStats* s) {
  s->preprocess_ms = in->ReadF64();
  s->cluster_ms = in->ReadF64();
  s->extract_ms = in->ReadF64();
  s->post_process_ms = in->ReadF64();
  s->node_clusters = in->ReadU64();
  s->edge_clusters = in->ReadU64();
  ReadAdaptiveChoice(in, &s->node_params);
  ReadAdaptiveChoice(in, &s->edge_params);
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
  if (have.embedding_dim != snap.embedding_dim) {
    return mismatch("embedding-dim");
  }
  if (have.adaptive != snap.adaptive) return mismatch("adaptive");
  if (have.bucket_length != snap.bucket_length) {
    return mismatch("bucket-length");
  }
  if (have.num_tables != snap.num_tables) return mismatch("num-tables");
  if (have.minhash_rows_per_band != snap.minhash_rows_per_band) {
    return mismatch("minhash-rows-per-band");
  }
  if (have.amplification != snap.amplification) {
    return mismatch("amplification");
  }
  if (have.jaccard_threshold != snap.jaccard_threshold) {
    return mismatch("jaccard-threshold");
  }
  if (have.post_process_each_batch != snap.post_process_each_batch) {
    return mismatch("post-process-each-batch");
  }
  if (have.datatype_options.sample != snap.datatype_options.sample) {
    return mismatch("sample-datatypes");
  }
  if (have.datatype_options.sample_fraction !=
      snap.datatype_options.sample_fraction) {
    return mismatch("sample-fraction");
  }
  if (have.datatype_options.min_sample != snap.datatype_options.min_sample) {
    return mismatch("datatype-min-sample");
  }
  if (have.datatype_options.seed != snap.datatype_options.seed) {
    return mismatch("datatype-seed");
  }
  if (have.alpha_scale != snap.alpha_scale) return mismatch("alpha-scale");
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
  // Forward compatible: newer writers may only *append* optional sections
  // (the required-section layouts are frozen within the "PGHS" magic), so a
  // v1 reader accepts any version >= 1 and skips section ids it does not
  // know. Unknown versions below ours are malformed, not futuristic.
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

util::Status PgHive::SaveState(std::ostream& out) const {
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
  std::string stats;
  PutStats(&stats, last_stats_);
  PutStats(&stats, total_stats_);
  util::AppendSection(&bytes, kStatsSection, stats);
  std::string cursor;
  util::PutU64(&cursor, batches_processed_);
  util::PutU8(&cursor, phase_ == Phase::kFinished ? 1 : 0);
  util::AppendSection(&bytes, kCursorSection, cursor);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return util::Status::IoError("failed to write state snapshot");
  return util::Status::Ok();
}

util::StatusOr<uint64_t> PgHive::RestoreState(std::istream& in) {
  if (phase_ != Phase::kIngesting || batches_processed_ != 0) {
    return util::Status::FailedPrecondition(
        "RestoreState needs a fresh hive: no batches processed yet");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return util::Status::IoError("failed to read state snapshot");
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

  auto schema = ParseSchemaBinary(std::string(sections->at(kSchemaSection)));
  if (!schema.ok()) return schema.status();

  std::string_view stats_payload;
  PipelineStats last_stats;
  PipelineStats total_stats;
  if (sections->count(kStatsSection)) {
    stats_payload = sections->at(kStatsSection);
    util::ByteReader stats(stats_payload);
    ReadStats(&stats, &last_stats);
    ReadStats(&stats, &total_stats);
    if (!stats.ok() || !stats.AtEnd()) {
      return util::Status::ParseError(
          "state snapshot: corrupt stats section");
    }
  }

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
  last_stats_ = last_stats;
  total_stats_ = total_stats;
  batches_processed_ = static_cast<size_t>(batches);
  phase_ = finished != 0 ? Phase::kFinished : Phase::kIngesting;
  return batches;
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
