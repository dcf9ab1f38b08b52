#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <future>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/options.h"
#include "core/pgschema_parser.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "util/binio.h"

namespace pghive::service {

namespace {

constexpr char kSessionMagic[4] = {'P', 'G', 'H', 'D'};
/// Version 2 holds no graph: the ingest log does. Version 1 snapshots
/// embedded the graph text and are refused (see CreateFromState).
constexpr uint32_t kSessionVersion = 2;

// Session snapshot section ids ("PGHD" container). Never renumber or reuse:
// 1 (graph text) and 2 (assembler fill bitmaps) were version 1's, retired.
constexpr uint32_t kHiveStateSection = 3;
constexpr uint32_t kCountersSection = 4;

/// Ceiling on one WaitForDiffs long-poll, so a subscriber can never wedge
/// server shutdown for longer than this.
constexpr uint64_t kMaxFeedWaitMs = 30000;

/// Writes `bytes` to `path` atomically: a sibling tmp file, then rename, so
/// a crash mid-write never leaves a torn file under the real name.
util::Status AtomicWriteFile(const std::string& path,
                             const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return util::Status::IoError("cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return util::Status::Ok();
}

/// Reads all of `path`: NotFound when it cannot be opened (normally, it
/// does not exist yet), IoError when reading fails midway.
util::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return util::Status::IoError("cannot read " + path);
  return bytes;
}

/// Cuts `path`, whose contents are `bytes`, back to its first `keep` bytes
/// (atomically; no-op when nothing lies past `keep`). The restore policy of
/// both append-only files, the ingest log and the feed segment: keep the
/// records the snapshot covers, drop a torn tail from a crash and every
/// record the restored session will write again while the client re-sends
/// the batches the snapshot had not yet seen.
util::Status CutToPrefix(const std::string& path, const std::string& bytes,
                         size_t keep) {
  if (keep == bytes.size()) return util::Status::Ok();
  return AtomicWriteFile(path, bytes.substr(0, keep));
}

/// Reconciles a feed segment file with a restored session's version counter:
/// keeps the longest clean prefix of records numbered contiguously
/// 1..max_version and cuts everything past it.
util::Status TruncateFeedFile(const std::string& path, uint64_t max_version) {
  auto bytes = ReadWholeFile(path);
  if (bytes.status().code() == util::StatusCode::kNotFound) {
    return util::Status::Ok();  // No segment yet: nothing to reconcile.
  }
  if (!bytes.ok()) return bytes.status();
  size_t keep = 0;
  uint64_t expect = 1;
  for (const core::SchemaDiffRecord& record :
       core::ScanSchemaDiffStream(*bytes, nullptr)) {
    if (expect > max_version || record.diff.version_to != expect) break;
    keep = record.offset + record.length;
    ++expect;
  }
  return CutToPrefix(path, *bytes, keep);
}

/// Replays ingest-log records 1..batches through `assembler`, rebuilding the
/// graph and the fill bitmaps as of the snapshot, and returns the byte
/// length of that prefix of the log. Every record must be CRC-clean, carry
/// its batch number, and be accepted by the assembler; otherwise the error
/// names the log.
util::StatusOr<size_t> ReplayIngestLog(const std::string& path,
                                       std::string_view bytes,
                                       uint64_t batches,
                                       GraphAssembler* assembler) {
  util::ByteReader in(bytes);
  for (uint64_t batch = 1; batch <= batches; ++batch) {
    const std::string where = "ingest log " + path + ": record " +
                              std::to_string(batch) + " of the snapshot's " +
                              std::to_string(batches);
    uint32_t id = 0;
    std::string_view payload;
    if (!util::ReadSection(&in, &id, &payload)) {
      return util::Status::ParseError(where + " is missing, torn or corrupt");
    }
    if (id != batch) {
      return util::Status::ParseError(where + " is out of sequence (found " +
                                      std::to_string(id) + ")");
    }
    pg::GraphBatch members;
    util::Status applied = assembler->ApplyPayload(payload, &members);
    if (!applied.ok()) {
      return util::Status(applied.code(),
                          where + " is rejected: " + applied.message());
    }
  }
  return in.pos();
}

}  // namespace

Session::Session(std::string id, core::PgHiveOptions options,
                 util::ThreadPool* pool, JobQueue* queue,
                 SessionDurability durability)
    : id_(std::move(id)),
      options_(options),
      durability_(std::move(durability)),
      queue_(queue) {
  graph_ = std::make_unique<pg::PropertyGraph>();
  // The hive shares the cross-session pool; per-session ordering comes from
  // the job lane, not from a dedicated pool.
  hive_ = std::make_unique<core::PgHive>(graph_.get(), options_, pool);
  assembler_ = std::make_unique<GraphAssembler>(graph_.get());
}

util::StatusOr<std::shared_ptr<Session>> Session::Create(
    std::string id, const std::map<std::string, std::string>& option_flags,
    util::ThreadPool* pool, JobQueue* queue, SessionDurability durability) {
  auto options = core::ParsePgHiveOptions(option_flags);
  if (!options.ok()) return options.status();
  // A fresh session owns its durability paths outright: stale files there
  // (say, from a session that published a feed but died before its first
  // checkpoint) must not leak into this one's history.
  for (const std::string* path : {&durability.state_path,
                                  &durability.log_path,
                                  &durability.feed_path}) {
    if (!path->empty()) std::remove(path->c_str());
  }
  return std::shared_ptr<Session>(new Session(std::move(id), *options, pool,
                                              queue, std::move(durability)));
}

Session::~Session() { Drain(); }

void Session::Drain() { queue_->DrainLane(id_); }

util::StatusOr<uint64_t> Session::SubmitIngest(std::string payload) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finish_submitted_) {
      return util::Status::FailedPrecondition(
          "session " + id_ + " is finished; create a new session to ingest");
    }
    if (!status_.ok()) return status_;
    seq = ++batches_submitted_;
  }
  auto shared_payload = std::make_shared<std::string>(std::move(payload));
  if (!queue_->Submit(id_, [this, shared_payload] {
        IngestJob(*shared_payload);
      })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return seq;
}

void Session::IngestJob(const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return;  // Poisoned: drop follow-on batches.
  }
  pg::GraphBatch batch;
  util::Status status = assembler_->ApplyPayload(payload, &batch);
  if (status.ok()) {
    status = hive_->ProcessBatch(batch);
  }
  // Log before publishing: a checkpoint that counts this batch can only be
  // written after this job, so a snapshot of k batches always finds log
  // records 1..k on disk.
  if (status.ok()) {
    status = AppendLogRecord(hive_->batches_processed(), payload);
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
    return;
  }
  Publish(/*is_final=*/false);
  if (!durability_.state_path.empty() && durability_.checkpoint_every > 0 &&
      hive_->batches_processed() % durability_.checkpoint_every == 0) {
    util::Status checkpointed = CheckpointInLane();
    if (!checkpointed.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_.ok()) status_ = checkpointed;
    }
  }
}

util::Status Session::AppendLogRecord(uint64_t batch,
                                      const std::string& payload) {
  if (durability_.log_path.empty()) return util::Status::Ok();
  if (!log_out_.is_open()) {
    log_out_.open(durability_.log_path, std::ios::binary | std::ios::app);
  }
  std::string record;
  util::AppendSection(&record, static_cast<uint32_t>(batch), payload);
  log_out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  log_out_.flush();
  if (!log_out_) {
    return util::Status::IoError("cannot append ingest log " +
                                 durability_.log_path);
  }
  return util::Status::Ok();
}

void Session::FinishJob() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return;
  }
  util::Status status = assembler_->CheckComplete();
  if (status.ok()) {
    status = hive_->Finish();
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
    return;
  }
  Publish(/*is_final=*/true);
  // The final schema always checkpoints (regardless of checkpoint_every), so
  // a restart after Finish still serves the post-processed snapshot.
  if (!durability_.state_path.empty()) {
    util::Status checkpointed = CheckpointInLane();
    if (!checkpointed.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_.ok()) status_ = checkpointed;
    }
  }
}

std::shared_ptr<SchemaSnapshot> Session::RenderSnapshot(bool is_final) const {
  auto snapshot = std::make_shared<SchemaSnapshot>();
  snapshot->batches = hive_->batches_processed();
  snapshot->is_final = is_final;
  const core::SchemaGraph& schema = hive_->schema();
  const pg::Vocabulary& vocab = graph_->vocab();
  snapshot->pgs_strict =
      core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict);
  snapshot->pgs_loose =
      core::SerializePgSchema(schema, vocab, core::SchemaMode::kLoose);
  snapshot->xsd = core::SerializeXsd(schema, vocab);
  snapshot->describe = core::DescribeSchema(schema, vocab);
  snapshot->binary = core::SerializeSchemaBinary(schema);
  return snapshot;
}

void Session::Publish(bool is_final) {
  auto snapshot = RenderSnapshot(is_final);
  // The changefeed record for this publish. Diffed in-lane (the renderer
  // reads the vocabulary, which only lane jobs may touch) against the
  // schema as of the previous publish.
  core::SchemaDiff diff =
      core::DiffSchemas(prev_schema_, hive_->schema(), graph_->vocab());
  prev_schema_ = hive_->schema();
  diff.batch = snapshot->batches;
  // versions_published_ is only ever advanced from lane jobs, which the
  // queue serializes, so reading it here without the mutex is ordered; the
  // mutex below still guards the cross-thread readers.
  const uint64_t version = versions_published_ + 1;
  diff.version_from = version - 1;
  diff.version_to = version;
  std::string record = core::SerializeSchemaDiffBinary(diff);
  // Spill to the segment file *before* the version becomes visible: once a
  // subscriber can name this version, the file must already cover it — that
  // invariant is what lets WaitForDiffs serve pruned versions from disk.
  AppendFeedRecord(record);
  std::lock_guard<std::mutex> lock(mutex_);
  versions_published_ = version;
  snapshot->version = version;
  feed_records_.push_back(std::move(record));
  while (feed_records_.size() > durability_.feed_backlog) {
    feed_records_.pop_front();
    ++first_feed_version_;
  }
  snapshot_ = std::move(snapshot);
  feed_cv_.notify_all();
}

void Session::AppendFeedRecord(const std::string& record) {
  if (durability_.feed_path.empty()) return;
  if (!feed_out_.is_open()) {
    feed_out_.open(durability_.feed_path, std::ios::binary | std::ios::app);
  }
  feed_out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  feed_out_.flush();
  if (!feed_out_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) {
      status_ = util::Status::IoError("cannot append changefeed segment " +
                                      durability_.feed_path);
    }
  }
}

std::shared_ptr<const SchemaSnapshot> Session::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

util::StatusOr<std::shared_ptr<const SchemaSnapshot>> Session::FinalSnapshot() {
  bool submit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!finish_submitted_) {
      finish_submitted_ = true;
      submit = true;
    }
  }
  if (submit) {
    queue_->Submit(id_, [this] { FinishJob(); });
  }
  Drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return status_;
    if (snapshot_ == nullptr || !snapshot_->is_final) {
      return util::Status::Internal("finish produced no snapshot");
    }
    return snapshot_;
  }
}

util::StatusOr<ValidationResult> Session::Validate(
    const std::string& pgs_text, bool strict) {
  auto task = std::make_shared<std::packaged_task<
      util::StatusOr<ValidationResult>()>>([this, pgs_text, strict] {
    // A vocabulary copy keeps schema parsing from interning labels or keys
    // the stream never mentioned — interning into the live vocabulary would
    // shift token order for batches still to come.
    pg::Vocabulary vocab = graph_->vocab();
    auto schema = core::ParsePgSchema(pgs_text, &vocab);
    if (!schema.ok()) return util::StatusOr<ValidationResult>(schema.status());
    core::ValidatorOptions options;
    options.mode = strict ? core::SchemaMode::kStrict : core::SchemaMode::kLoose;
    core::SchemaValidator validator(&schema.value(), options);
    core::ValidationReport report = validator.Validate(*graph_);
    ValidationResult result;
    result.conforms = report.conforms();
    result.report = report.Summary();
    return util::StatusOr<ValidationResult>(std::move(result));
  });
  std::future<util::StatusOr<ValidationResult>> future = task->get_future();
  if (!queue_->Submit(id_, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
}

util::Status Session::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

util::StatusOr<std::string> Session::BuildStateBytes() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return status_;
  }
  std::string bytes;
  bytes.append(kSessionMagic, sizeof(kSessionMagic));
  util::PutU32(&bytes, kSessionVersion);
  std::ostringstream hive;
  util::Status saved = hive_->SaveState(hive);
  if (!saved.ok()) return saved;
  util::AppendSection(&bytes, kHiveStateSection, hive.str());
  std::string counters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Submitted == processed here: this code runs as a lane job, so every
    // batch submitted before it has already committed, and any submitted
    // after it will replay against the restored session.
    util::PutU64(&counters, hive_->batches_processed());
    util::PutU64(&counters, versions_published_);
    util::PutU8(&counters, finish_submitted_ ? 1 : 0);
  }
  util::AppendSection(&bytes, kCountersSection, counters);
  return bytes;
}

util::Status Session::CheckpointInLane() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  auto bytes = BuildStateBytes();
  if (!bytes.ok()) return bytes.status();
  return AtomicWriteFile(durability_.state_path, *bytes);
}

util::StatusOr<std::string> Session::SaveState() {
  auto task = std::make_shared<
      std::packaged_task<util::StatusOr<std::string>()>>(
      [this] { return BuildStateBytes(); });
  std::future<util::StatusOr<std::string>> future = task->get_future();
  if (!queue_->Submit(id_, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
}

util::Status Session::WriteCheckpoint() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  auto task = std::make_shared<std::packaged_task<util::Status()>>(
      [this] { return CheckpointInLane(); });
  std::future<util::Status> future = task->get_future();
  if (!queue_->Submit(id_, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
}

util::StatusOr<std::shared_ptr<Session>> Session::CreateFromState(
    std::string id, const std::string& bytes, util::ThreadPool* pool,
    JobQueue* queue, SessionDurability durability) {
  util::ByteReader in(bytes);
  if (!in.Has(sizeof(kSessionMagic)) ||
      bytes.compare(0, sizeof(kSessionMagic), kSessionMagic,
                    sizeof(kSessionMagic)) != 0) {
    return util::Status::ParseError("session snapshot: bad magic");
  }
  in.ReadBytes(sizeof(kSessionMagic));
  uint32_t version = in.ReadU32();
  if (in.ok() && version == 1) {
    return util::Status::FailedPrecondition(
        "session snapshot: version 1 embeds the graph text and was written "
        "by an older build; finish or re-stream the session with that "
        "build");
  }
  // Forward compatible like the "PGHS" reader: newer writers may only append
  // optional sections, so any version >= ours restores; unknown section ids
  // below are skipped.
  if (!in.ok() || version < kSessionVersion) {
    return util::Status::ParseError(
        "session snapshot: bad header or unsupported version");
  }
  std::map<uint32_t, std::string_view> sections;
  while (!in.AtEnd()) {
    uint32_t section_id = 0;
    std::string_view payload;
    if (!util::ReadSection(&in, &section_id, &payload)) {
      return util::Status::ParseError(
          "session snapshot: truncated or corrupt section");
    }
    if (!sections.emplace(section_id, payload).second) {
      return util::Status::ParseError("session snapshot: duplicate section " +
                                      std::to_string(section_id));
    }
  }
  for (uint32_t required : {kHiveStateSection, kCountersSection}) {
    if (!sections.count(required)) {
      return util::Status::ParseError("session snapshot: missing section " +
                                      std::to_string(required));
    }
  }
  const std::string hive_bytes(sections.at(kHiveStateSection));
  auto options = core::ReadSnapshotOptions(hive_bytes);
  if (!options.ok()) return options.status();
  util::ByteReader counters(sections.at(kCountersSection));
  const uint64_t batches = counters.ReadU64();
  const uint64_t versions_published = counters.ReadU64();
  const uint8_t finish_submitted = counters.ReadU8();
  if (!counters.ok() || !counters.AtEnd() || finish_submitted > 1) {
    return util::Status::ParseError(
        "session snapshot: corrupt counters section");
  }
  if (batches > 0 && durability.log_path.empty()) {
    return util::Status::FailedPrecondition(
        "session snapshot holds " + std::to_string(batches) +
        " batches but the session has no ingest log to rebuild them from");
  }

  std::shared_ptr<Session> session(new Session(std::move(id), *options, pool,
                                               queue, std::move(durability)));
  // Order matters: the hive restore rebuilds the vocabulary first (trivially
  // position-consistent with the empty graph), so the log replay below
  // resolves every label and key to its snapshotted id — the id order the
  // stream preamble had fixed, which the feature layout depends on.
  std::istringstream hive_in(hive_bytes);
  auto restored = session->hive_->RestoreState(hive_in);
  if (!restored.ok()) return restored.status();
  if (*restored != batches) {
    return util::Status::ParseError(
        "session snapshot: corrupt counters section");
  }

  // Rebuild the graph from log records 1..batches, then cut the log and the
  // feed back to what the snapshot covers. Cutting last means a failed
  // restore leaves every file as it found it.
  const SessionDurability& paths = session->durability_;
  if (!paths.log_path.empty()) {
    auto log = ReadWholeFile(paths.log_path);
    if (log.ok()) {
      auto kept = ReplayIngestLog(paths.log_path, *log, batches,
                                  session->assembler_.get());
      if (!kept.ok()) return kept.status();
      util::Status cut = CutToPrefix(paths.log_path, *log, *kept);
      if (!cut.ok()) return cut;
    } else if (batches > 0 ||
               log.status().code() != util::StatusCode::kNotFound) {
      return util::Status(log.status().code(),
                          "ingest log: " + log.status().message() +
                              " (the snapshot holds " +
                              std::to_string(batches) + " batches)");
    }
  }
  if (!paths.feed_path.empty()) {
    util::Status truncated =
        TruncateFeedFile(paths.feed_path, versions_published);
    if (!truncated.ok()) return truncated;
  }

  session->batches_submitted_ = batches;
  session->versions_published_ = versions_published;
  session->finish_submitted_ = finish_submitted != 0;
  session->prev_schema_ = session->hive_->schema();
  session->first_feed_version_ = versions_published + 1;
  if (versions_published > 0) {
    auto snapshot = session->RenderSnapshot(
        session->hive_->phase() == core::PgHive::Phase::kFinished);
    snapshot->version = versions_published;
    session->snapshot_ = std::move(snapshot);
  }
  return session;
}

util::StatusOr<std::string> Session::WaitForDiffs(uint64_t after_version,
                                                  uint64_t timeout_ms) {
  timeout_ms = std::min<uint64_t>(timeout_ms, kMaxFeedWaitMs);
  std::unique_lock<std::mutex> lock(mutex_);
  feed_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return versions_published_ > after_version || !status_.ok();
  });
  if (!status_.ok()) return status_;
  std::string out;
  if (versions_published_ > after_version &&
      after_version + 1 < first_feed_version_) {
    // Older than the in-memory window: serve the gap from the feed segment
    // file. Safe under mutex_ — every version below first_feed_version_ was
    // flushed to the file before it became visible, and the file is only
    // ever appended to while the session lives.
    auto from_disk = ReadFeedFromDisk(after_version, first_feed_version_);
    if (!from_disk.ok()) return from_disk.status();
    out = std::move(*from_disk);
  }
  for (size_t i = 0; i < feed_records_.size(); ++i) {
    if (first_feed_version_ + i > after_version) out += feed_records_[i];
  }
  return out;
}

util::StatusOr<std::string> Session::ReadFeedFromDisk(
    uint64_t after_version, uint64_t until_version) const {
  const util::Status pruned = util::Status::OutOfRange(
      "changefeed backlog pruned before version " +
      std::to_string(after_version + 1) +
      "; refetch the schema and resubscribe from its version");
  if (durability_.feed_path.empty()) return pruned;
  auto bytes = ReadWholeFile(durability_.feed_path);
  if (bytes.status().code() == util::StatusCode::kNotFound) return pruned;
  if (!bytes.ok()) return bytes.status();
  auto records = core::ScanSchemaDiffStream(*bytes, nullptr);
  std::string out;
  uint64_t expect = after_version + 1;
  for (const core::SchemaDiffRecord& record : records) {
    if (record.diff.version_to <= after_version) continue;
    if (expect >= until_version) break;
    // The segment is contiguous from version 1 by construction (restore
    // truncates to a clean prefix, publish appends in order); any gap means
    // the requested range predates what survived.
    if (record.diff.version_to != expect) return pruned;
    out.append(*bytes, record.offset, record.length);
    ++expect;
  }
  if (expect < until_version) return pruned;
  return out;
}

}  // namespace pghive::service
