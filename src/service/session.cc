#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/options.h"
#include "core/pgschema_parser.h"
#include "core/schema_diff.h"
#include "core/validator.h"
#include "util/binio.h"
#include "util/file_io.h"

namespace pghive::service {

namespace {

/// Magic of the session container older builds wrapped the hive snapshot
/// in. Such files are refused (see CreateFromState); no reader is kept.
constexpr std::string_view kOldSessionMagic = "PGHD";

/// Ceiling on one WaitForDiffs long-poll, so a subscriber can never wedge
/// server shutdown for longer than this.
constexpr uint64_t kMaxFeedWaitMs = 30000;

/// Runs `job` as a job on `lane` of `queue` and waits for its result: how a
/// connection thread reads or checkpoints a session at a batch boundary.
/// FailedPrecondition when the service is shutting down.
template <typename Job>
std::invoke_result_t<Job> RunInLane(JobQueue* queue, const std::string& lane,
                                    Job job) {
  using Result = std::invoke_result_t<Job>;
  auto task = std::make_shared<std::packaged_task<Result()>>(std::move(job));
  std::future<Result> future = task->get_future();
  if (!queue->Submit(lane, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
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
      queue_(queue),
      log_(durability_.log_path),
      feed_(durability_.feed_path) {
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
  if (!status().ok()) return;  // Poisoned: drop follow-on batches.
  pg::GraphBatch batch;
  util::Status status = assembler_->ApplyPayload(payload, &batch);
  if (status.ok()) {
    status = hive_->ProcessBatch(batch);
  }
  // Log before publishing: a checkpoint that counts this batch can only be
  // written after this job, so a snapshot of k batches always finds log
  // records 1..k on disk.
  if (status.ok() && !durability_.log_path.empty()) {
    std::string record;
    util::AppendSection(&record,
                        static_cast<uint32_t>(hive_->batches_processed()),
                        payload);
    status = log_.Append(record);
  }
  if (!status.ok()) return Latch(status);
  Publish();
  if (durability_.checkpoint_every > 0 &&
      hive_->batches_processed() % durability_.checkpoint_every == 0) {
    Latch(CheckpointInLane());
  }
}

void Session::Latch(const util::Status& status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (status_.ok()) status_ = status;
}

void Session::FinishJob() {
  if (!status().ok()) return;
  util::Status status = assembler_->CheckComplete();
  if (status.ok()) {
    status = hive_->Finish();
  }
  if (!status.ok()) return Latch(status);
  Publish();
  // The final schema always checkpoints (regardless of checkpoint_every), so
  // a restart after Finish still serves the post-processed snapshot.
  Latch(CheckpointInLane());
}

std::shared_ptr<const SchemaSnapshot> Session::MakeSnapshot(
    uint64_t version) const {
  auto snapshot = std::make_shared<SchemaSnapshot>();
  snapshot->version = version;
  snapshot->batches = hive_->batches_processed();
  snapshot->is_final = hive_->phase() == core::PgHive::Phase::kFinished;
  snapshot->schema =
      std::make_shared<const core::SchemaGraph>(hive_->schema());
  snapshot->vocab = graph_->vocab();
  return snapshot;
}

void Session::Publish() {
  // versions_published_ is only ever advanced from lane jobs, which the
  // queue serializes, so reading it here without the mutex is ordered; the
  // mutex below still guards the cross-thread readers.
  const uint64_t version = versions_published_ + 1;
  std::shared_ptr<const SchemaSnapshot> snapshot = MakeSnapshot(version);
  // The changefeed record for this publish: the schema against the one the
  // previous snapshot holds (none before the first).
  const std::shared_ptr<const SchemaSnapshot> previous = Snapshot();
  const core::SchemaGraph none;  // An lvalue, so the ?: below copies nothing.
  std::string record = core::BuildChangefeedRecord(
      previous ? *previous->schema : none, *snapshot->schema, snapshot->vocab,
      version, snapshot->batches);
  // Spill to the segment file *before* the version becomes visible: once a
  // subscriber can name this version, the file must already cover it — that
  // invariant is what lets WaitForDiffs serve pruned versions from disk. A
  // failed append poisons the session: durability was promised.
  if (!durability_.feed_path.empty()) Latch(feed_.Append(record));
  std::lock_guard<std::mutex> lock(mutex_);
  versions_published_ = version;
  feed_records_.push_back(std::move(record));
  while (feed_records_.size() > durability_.feed_backlog) {
    feed_records_.pop_front();
    ++first_feed_version_;
  }
  snapshot_ = std::move(snapshot);
  feed_cv_.notify_all();
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
  return RunInLane(queue_, id_, [this, pgs_text, strict] {
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
}

util::Status Session::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

util::StatusOr<std::string> Session::BuildStateBytes() {
  if (util::Status latched = status(); !latched.ok()) return latched;
  return hive_->SaveState();
}

util::Status Session::CheckpointInLane() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  auto bytes = BuildStateBytes();
  if (!bytes.ok()) return bytes.status();
  return util::AtomicWriteFile(durability_.state_path, *bytes);
}

util::StatusOr<std::string> Session::SaveState() {
  return RunInLane(queue_, id_, [this] { return BuildStateBytes(); });
}

util::Status Session::WriteCheckpoint() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  return RunInLane(queue_, id_, [this] { return CheckpointInLane(); });
}

util::StatusOr<std::shared_ptr<Session>> Session::CreateFromState(
    std::string id, const std::string& bytes, util::ThreadPool* pool,
    JobQueue* queue, SessionDurability durability) {
  const std::string_view view(bytes);
  if (view.substr(0, kOldSessionMagic.size()) == kOldSessionMagic) {
    util::ByteReader header(view.substr(kOldSessionMagic.size()));
    const uint32_t version = header.ReadU32();
    return util::Status::FailedPrecondition(
        "session snapshot: a \"PGHD\" version " +
        (header.ok() ? std::to_string(version) : std::string("?")) +
        " session file, written by an older build; finish or re-stream the "
        "session with that build");
  }
  auto options = core::ReadSnapshotOptions(bytes);
  if (!options.ok()) return options.status();
  std::shared_ptr<Session> session(new Session(std::move(id), *options, pool,
                                               queue, std::move(durability)));
  // Order matters: the hive restore rebuilds the vocabulary first (trivially
  // position-consistent with the empty graph), so the log replay below
  // resolves every label and key to its snapshotted id — the id order the
  // stream preamble had fixed, which the feature layout depends on.
  auto restored = session->hive_->RestoreState(bytes);
  if (!restored.ok()) return restored.status();
  const uint64_t batches = *restored;
  const SessionDurability& paths = session->durability_;
  if (batches > 0 && paths.log_path.empty()) {
    return util::Status::FailedPrecondition(
        "session snapshot holds " + std::to_string(batches) +
        " batches but the session has no ingest log to rebuild them from");
  }
  // Every committed batch published one version and Finish one more, and a
  // poisoned session never checkpoints, so the hive's cursor is all the
  // session counters there are.
  const bool finished =
      session->hive_->phase() == core::PgHive::Phase::kFinished;
  const uint64_t versions_published = batches + (finished ? 1 : 0);

  // Rebuild the graph from log records 1..batches, then cut the log and the
  // feed back to what the snapshot covers. Cutting last means a failed
  // restore leaves every file as it found it.
  if (!paths.log_path.empty()) {
    auto log = util::ReadWholeFile(paths.log_path);
    if (log.ok()) {
      auto kept = ReplayIngestLog(paths.log_path, *log, batches,
                                  session->assembler_.get());
      if (!kept.ok()) return kept.status();
      if (*kept < log->size()) {
        util::Status cut = util::TruncateFile(paths.log_path, *kept);
        if (!cut.ok()) return cut;
      }
    } else if (batches > 0 ||
               log.status().code() != util::StatusCode::kNotFound) {
      return util::Status(log.status().code(),
                          "ingest log: " + log.status().message() +
                              " (the snapshot holds " +
                              std::to_string(batches) + " batches)");
    }
  }
  if (!paths.feed_path.empty()) {
    // A feed that holds fewer versions than the snapshot is served as it
    // is: subscribe-changefeed answers the missing range with OutOfRange.
    auto truncated =
        core::TruncateFeedFile(paths.feed_path, versions_published);
    if (!truncated.ok()) return truncated.status();
  }

  session->batches_submitted_ = batches;
  session->versions_published_ = versions_published;
  session->finish_submitted_ = finished;
  session->first_feed_version_ = versions_published + 1;
  if (versions_published > 0) {
    session->snapshot_ = session->MakeSnapshot(versions_published);
  }
  return session;
}

util::StatusOr<std::string> Session::WaitForDiffs(uint64_t after_version,
                                                  uint64_t timeout_ms) {
  timeout_ms = std::min<uint64_t>(timeout_ms, kMaxFeedWaitMs);
  std::string in_memory;
  uint64_t first_in_memory = 0;
  bool older_than_window = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    feed_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      return versions_published_ > after_version || !status_.ok();
    });
    if (!status_.ok()) return status_;
    first_in_memory = first_feed_version_;
    older_than_window = versions_published_ > after_version &&
                        after_version + 1 < first_in_memory;
    for (size_t i = 0; i < feed_records_.size(); ++i) {
      if (first_in_memory + i > after_version) in_memory += feed_records_[i];
    }
  }
  if (!older_than_window) return in_memory;
  // Older than the in-memory window: serve the gap from the feed segment
  // file, outside the lock so Publish and Snapshot never wait on disk I/O.
  // Every version below first_in_memory was flushed to the file before it
  // became visible, and the file is only ever appended to while the session
  // lives, so the bytes read are the ones a read under the lock would get.
  auto from_disk = ReadFeedFromDisk(after_version, first_in_memory);
  if (!from_disk.ok()) return from_disk.status();
  std::string out = std::move(*from_disk);
  out += in_memory;
  return out;
}

util::StatusOr<std::string> Session::ReadFeedFromDisk(
    uint64_t after_version, uint64_t until_version) const {
  const util::Status pruned = util::Status::OutOfRange(
      "changefeed backlog pruned before version " +
      std::to_string(after_version + 1) +
      "; refetch the schema and resubscribe from its version");
  if (durability_.feed_path.empty()) return pruned;
  auto bytes = util::ReadWholeFile(durability_.feed_path);
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
