#include "core/batch_pipeline.h"

#include <future>
#include <utility>

#include "util/timer.h"

namespace pghive::core {

BatchPipeline::BatchPipeline(PgHive* hive) : hive_(hive) {
  PGHIVE_CHECK(hive_ != nullptr);
}

util::Status BatchPipeline::Run(const std::vector<pg::GraphBatch>& batches) {
  batch_stats_.clear();
  batch_stats_.reserve(batches.size());
  util::Timer wall;
  // Overlap needs a pool (the preprocess thread alone would just time-slice
  // a single core's serial schedule) and at least two batches. A finished
  // or failed hive takes the sequential loop, whose ProcessBatch refuses it
  // before any preprocess could intern tokens or train the embedder.
  const bool overlap = hive_->pool() != nullptr && batches.size() > 1 &&
                       hive_->phase() == PgHive::Phase::kIngesting;
  util::Status status =
      overlap ? RunOverlapped(batches) : RunSequential(batches);
  wall_ms_ = wall.ElapsedMillis();
  return status;
}

util::Status BatchPipeline::RunSequential(
    const std::vector<pg::GraphBatch>& batches) {
  for (const pg::GraphBatch& batch : batches) {
    util::Status status = hive_->ProcessBatch(batch);
    if (!status.ok()) return status;
    batch_stats_.push_back(hive_->last_stats());
  }
  return util::Status::Ok();
}

util::Status BatchPipeline::RunOverlapped(
    const std::vector<pg::GraphBatch>& batches) {
  PgHive::PreparedBatch prepared = hive_->PreprocessBatch(batches[0]);
  for (size_t i = 0; i < batches.size(); ++i) {
    // Batch i+1's preprocess on a dedicated thread (std::launch::async),
    // NOT ThreadPool::Submit: pool tasks must never block on other pool
    // work, and a coordinator-side ParallelFor, which drains the queue
    // while it waits, could otherwise pop the whole preprocess and run it
    // inline, serializing exactly what the lookahead overlaps. The thread
    // still fans its inner loops out on the pool. The future's destructor
    // waits for the thread, so every exit below — an error status or an
    // exception out of ProcessPrepared — joins it first.
    std::future<PgHive::PreparedBatch> next;
    if (i + 1 < batches.size()) {
      next = std::async(std::launch::async, [this, &batches, i] {
        return hive_->PreprocessBatch(batches[i + 1]);
      });
    }
    util::Status status = hive_->ProcessPrepared(std::move(prepared));
    if (!status.ok()) return status;
    batch_stats_.push_back(hive_->last_stats());
    // get() rethrows a preprocess exception on the calling thread.
    if (next.valid()) prepared = next.get();
  }
  return util::Status::Ok();
}

}  // namespace pghive::core
