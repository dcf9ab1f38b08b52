#ifndef PGHIVE_SERVICE_SESSION_H_
#define PGHIVE_SERVICE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/pghive.h"
#include "core/schema.h"
#include "service/assembler.h"
#include "service/job_queue.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {

/// An immutable, versioned view of a session's discovered schema, published
/// after each committed job. Every rendering is materialized eagerly inside
/// the session's serialized job lane — rendering lazily on the reader's
/// thread would race with the vocabulary, which later ingest batches still
/// mutate. Readers therefore never see a half-merged batch and never touch
/// live pipeline state.
struct SchemaSnapshot {
  uint64_t version = 0;   ///< Monotonic per session; bumps per committed job.
  size_t batches = 0;     ///< Batches folded in so far.
  bool is_final = false;  ///< True once Finish() ran (post-processing done).
  std::string pgs_strict;  ///< PG-Schema, STRICT mode.
  std::string pgs_loose;   ///< PG-Schema, LOOSE mode.
  std::string xsd;         ///< XML Schema rendering.
  std::string describe;    ///< Human-readable summary.
  std::string binary;      ///< core::SerializeSchemaBinary bytes.
};

/// Outcome of validating a PG-Schema text against a session's graph.
struct ValidationResult {
  bool conforms = false;
  std::string report;
};

/// Daemon-owned durability for one session: where to append its ingest log,
/// where to checkpoint its "PGHD" snapshot and how often, and where to spill
/// changefeed records evicted from the in-memory backlog. Default-constructed
/// == fully in-memory (the pre-durability behavior). Paths are owned by the
/// session: a fresh session deletes any stale files at them, a restored one
/// cuts the log and the feed segment back to what the snapshot covers.
struct SessionDurability {
  std::string state_path;  ///< "PGHD" snapshot target; empty = no scheduled
                           ///< checkpoints.
  std::string log_path;    ///< Ingest log: every committed payload, CRC-framed
                           ///< with its 1-based batch number — the durable
                           ///< copy of the graph. Empty = none, and then only
                           ///< a 0-batch snapshot can restore.
  std::string feed_path;   ///< Changefeed segment file (concatenated "PGHF"
                           ///< records); empty = in-memory backlog only.
  /// Checkpoint after every N committed batches (and always on Finish);
  /// 0 = only on WriteCheckpoint() / Finish.
  uint64_t checkpoint_every = 0;
  /// Diff records retained in memory; subscribers further behind read the
  /// segment file (or get OutOfRange when there is none).
  size_t feed_backlog = 256;
};

/// One tenant of pghived: a streamed graph, its PgHive pipeline, and the
/// snapshots published so far. All pipeline mutation happens in jobs on the
/// session's JobQueue lane (keyed by session id), which serializes them in
/// submission order — the same order a one-shot run would process the same
/// batches, so the final schema is byte-identical to `pghive discover` on
/// the assembled graph (pinned by tests/threading/service_determinism_test).
///
/// Thread safety: SubmitIngest / Snapshot / FinalSnapshot / Validate /
/// status may be called from any connection thread. Graph, hive, and
/// assembler are only touched inside lane jobs (or after draining the lane).
class Session {
 public:
  /// Parses `option_flags` with the shared core parser (the same knobs and
  /// validation as the CLI) and builds an empty session. Discovery compute
  /// runs on `pool` (shared across sessions; null means inline); jobs are
  /// serialized through `queue`. Both must outlive the session.
  static util::StatusOr<std::shared_ptr<Session>> Create(
      std::string id, const std::map<std::string, std::string>& option_flags,
      util::ThreadPool* pool, JobQueue* queue,
      SessionDurability durability = {});

  /// Rebuilds a session from SaveState bytes (a daemon restart): restores
  /// the hive snapshot into a fresh hive (vocabulary first, so the replayed
  /// payloads below resolve every label/key to its original id), then
  /// replays records 1..k of durability.log_path through the assembler, k
  /// being the snapshot's batch count. Any of those records missing, torn,
  /// CRC-bad, out of sequence or rejected fails the restore with an error
  /// naming the log. Log records past k, a torn log tail and feed versions
  /// past the snapshot are cut off: the client re-sends those batches.
  /// Streaming the remaining batches afterwards produces a schema
  /// byte-identical to the uninterrupted session's.
  static util::StatusOr<std::shared_ptr<Session>> CreateFromState(
      std::string id, const std::string& bytes, util::ThreadPool* pool,
      JobQueue* queue, SessionDurability durability = {});

  /// Drains this session's lane so no job outlives the object.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return id_; }
  const core::PgHiveOptions& options() const { return options_; }

  /// Batches accepted so far (submitted or restored); the count a resuming
  /// client uses to skip payloads the session already holds.
  uint64_t batches_ingested() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_submitted_;
  }

  /// Enqueues one ingest payload; returns its 1-based batch sequence number
  /// immediately (the batch is committed asynchronously; errors latch into
  /// status()). Fails once a final snapshot was requested.
  util::StatusOr<uint64_t> SubmitIngest(std::string payload);

  /// The latest published snapshot; null before the first batch commits.
  std::shared_ptr<const SchemaSnapshot> Snapshot() const;

  /// Enqueues Finish() (first call only), waits for this session's lane to
  /// drain, and returns the final snapshot. The stream must have
  /// materialized every declared element.
  util::StatusOr<std::shared_ptr<const SchemaSnapshot>> FinalSnapshot();

  /// Validates a PG-Schema text against the session's graph as a lane job
  /// (so it sees a settled graph and blocks neither readers nor other
  /// sessions). Parses against a *copy* of the vocabulary: validation must
  /// not intern new labels into a still-discovering session.
  util::StatusOr<ValidationResult> Validate(const std::string& pgs_text,
                                            bool strict);

  /// Serializes the session — the full PgHive state and the session
  /// counters, not the graph, which the ingest log holds — as a lane job, so
  /// the bytes always describe a batch boundary ("PGHD" magic + u32 version
  /// + CRC-framed util/binio sections). Restore with CreateFromState.
  util::StatusOr<std::string> SaveState();

  /// Checkpoints the session to its durability state_path now, as a lane job
  /// (so the bytes always describe a batch boundary), waiting for the write.
  /// The write is atomic (tmp + rename). No-op Ok without a state_path. The
  /// SIGTERM drain calls this for every live session.
  util::Status WriteCheckpoint();

  /// Long-polls the session's schema changefeed: returns every buffered
  /// diff record with version_to > after_version, concatenated in version
  /// order (parse with core::ParseSchemaDiffStream), waiting up to
  /// `timeout_ms` for the first new record. An empty string means the
  /// timeout elapsed with no new version. Records are buffered per session
  /// (bounded backlog); versions older than the in-memory window are served
  /// from the durability feed segment file when one is configured, and
  /// OutOfRange otherwise — refetch the full schema, then resubscribe.
  util::StatusOr<std::string> WaitForDiffs(uint64_t after_version,
                                           uint64_t timeout_ms);

  /// First error any job hit; Ok while healthy. A failed session rejects
  /// further ingest.
  util::Status status() const;

  /// Blocks until every enqueued job for this session finished.
  void Drain();

 private:
  Session(std::string id, core::PgHiveOptions options, util::ThreadPool* pool,
          JobQueue* queue, SessionDurability durability);

  void IngestJob(const std::string& payload);
  /// Appends `payload` to the ingest log as record `batch` and flushes; Ok
  /// without a log_path. Lane jobs only.
  util::Status AppendLogRecord(uint64_t batch, const std::string& payload);
  void FinishJob();
  /// Materializes every schema rendering from live state. Lane jobs only.
  std::shared_ptr<SchemaSnapshot> RenderSnapshot(bool is_final) const;
  /// Renders and swaps in a new snapshot, appending its changefeed record
  /// (spilled to the feed segment file *before* the version becomes visible,
  /// so the file always covers every published version). Lane jobs only.
  void Publish(bool is_final);
  /// Serializes the full session snapshot bytes. Lane jobs only.
  util::StatusOr<std::string> BuildStateBytes();
  /// Atomic (tmp + rename) checkpoint to durability_.state_path; Ok when no
  /// path is configured. Lane jobs only.
  util::Status CheckpointInLane();
  /// Appends one serialized diff record to the feed segment file and
  /// flushes; a write failure poisons the session (durability was promised).
  /// Lane jobs only.
  void AppendFeedRecord(const std::string& record);
  /// Reads versions in (after_version, until_version) from the feed segment
  /// file, verifying the range is covered contiguously; OutOfRange when it
  /// is not (or no file is configured). Called without mutex_ — safe because
  /// every version below until_version was flushed before it became visible,
  /// and later appends only add bytes past those versions.
  util::StatusOr<std::string> ReadFeedFromDisk(uint64_t after_version,
                                               uint64_t until_version) const;

  const std::string id_;
  const core::PgHiveOptions options_;
  const SessionDurability durability_;
  JobQueue* queue_;

  // Owned pipeline state; lane jobs only.
  std::unique_ptr<pg::PropertyGraph> graph_;
  std::unique_ptr<core::PgHive> hive_;
  std::unique_ptr<GraphAssembler> assembler_;
  /// The schema as of the last published version; lane jobs only. Publish
  /// diffs the fresh schema against this to produce the changefeed record.
  core::SchemaGraph prev_schema_;
  /// Appenders for durability_.log_path and feed_path (lazily opened); lane
  /// jobs only.
  std::ofstream log_out_;
  std::ofstream feed_out_;

  mutable std::mutex mutex_;
  std::condition_variable feed_cv_;
  /// Serialized core::SchemaDiff records of the most recent publishes, in
  /// version order (version_to == versions at push time). Bounded backlog;
  /// subscribers that fall behind get OutOfRange.
  std::deque<std::string> feed_records_;
  uint64_t first_feed_version_ = 1;  ///< version_to of feed_records_[0].
  std::shared_ptr<const SchemaSnapshot> snapshot_;
  util::Status status_;
  uint64_t batches_submitted_ = 0;
  uint64_t versions_published_ = 0;
  bool finish_submitted_ = false;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_SESSION_H_
