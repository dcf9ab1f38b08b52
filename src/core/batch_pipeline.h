#ifndef PGHIVE_CORE_BATCH_PIPELINE_H_
#define PGHIVE_CORE_BATCH_PIPELINE_H_

#include <vector>

#include "core/pghive.h"
#include "pg/batch.h"
#include "util/status.h"

namespace pghive::core {

/// Pipelined executor for incremental ingest (§4.6): streams a sequence of
/// batches through PgHive with a fixed one-batch lookahead. While batch i
/// runs its clustering and serial merge/extract on the calling thread,
/// batch i+1's preprocess (corpus build, embedding training, vectorization,
/// token interning) already runs on a dedicated preprocess thread — both
/// sides fanning their inner loops out on the hive's shared thread pool.
/// Without a pool (num_threads == 1), or with fewer than two batches, Run is
/// the sequential loop.
///
/// Determinism: the schema is byte-identical to the sequential
/// `for (batch : batches) hive->ProcessBatch(batch)` loop at every thread
/// count. Two rules make that hold:
///   1. Preprocess stages never overlap each other — they run as a serial
///      chain in batch order, because they advance shared state (label-set
///      token interning, the incremental Word2Vec model) whose results
///      depend on order. Batch i+1's preprocess starts only after batch i's
///      finished, so at most one prepared batch waits ahead of the merge.
///      True preprocess/preprocess overlap would require snapshotting the
///      vocabulary and embedder per batch, which costs more than it buys at
///      the paper's batch counts.
///   2. Extract/merge (and optional per-batch post-processing) run strictly
///      in batch order on the calling thread, and read nothing the
///      overlapping preprocess writes: the prepared batch carries its own
///      feature matrices and column stores (with the endpoint tokens).
///
/// Error handling: on a failed batch the pipeline stops once the lookahead
/// preprocess in flight has finished; that preprocess may already have
/// advanced vocabulary/embedder state for the batch past the failure
/// (harmless for the schema, which never saw it). A finished or failed hive
/// is refused before anything runs, and left unchanged.
class BatchPipeline {
 public:
  explicit BatchPipeline(PgHive* hive);

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Processes every batch in order. Does NOT call hive->Finish(); the
  /// caller decides when post-processing happens, exactly as with the
  /// sequential loop. `batches` must outlive the call.
  util::Status Run(const std::vector<pg::GraphBatch>& batches);

  /// Stats of each processed batch, in batch order (PgHive::last_stats()
  /// captured after the batch's merge). Stage times are per-stage wall
  /// times measured on the thread that ran the stage, so per-batch sums
  /// stay meaningful under overlap — but their total can exceed Run's
  /// wall clock, which is the whole point of pipelining.
  const std::vector<PipelineStats>& batch_stats() const {
    return batch_stats_;
  }

  /// Wall-clock milliseconds of the last Run (the Fig. 7 quantity).
  double wall_ms() const { return wall_ms_; }

 private:
  util::Status RunSequential(const std::vector<pg::GraphBatch>& batches);
  util::Status RunOverlapped(const std::vector<pg::GraphBatch>& batches);

  PgHive* hive_;
  std::vector<PipelineStats> batch_stats_;
  double wall_ms_ = 0;
};

}  // namespace pghive::core

#endif  // PGHIVE_CORE_BATCH_PIPELINE_H_
