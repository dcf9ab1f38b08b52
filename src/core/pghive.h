#ifndef PGHIVE_CORE_PGHIVE_H_
#define PGHIVE_CORE_PGHIVE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/datatype_inference.h"
#include "core/schema.h"
#include "core/type_extraction.h"
#include "core/vectorizer.h"
#include "embed/word2vec.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::core {

/// Which LSH family clusters the representation vectors (§4.2).
enum class ClusterMethod { kElsh, kMinHash };

/// Which label embedder feeds the vectorizer (§4.1).
enum class EmbedderKind { kWord2Vec, kHash };

/// End-to-end pipeline options (Algorithm 1 inputs + engineering knobs).
struct PgHiveOptions {
  ClusterMethod method = ClusterMethod::kElsh;
  EmbedderKind embedder = EmbedderKind::kWord2Vec;
  size_t embedding_dim = 8;

  /// Adaptive parameterization (§4.2). When false, the manual values below
  /// are used ("users can always provide their own LSH parameters").
  bool adaptive = true;
  double bucket_length = 2.0;
  size_t num_tables = 20;
  size_t minhash_rows_per_band = 4;
  lsh::Amplification amplification = lsh::Amplification::kAnd;

  /// Jaccard threshold theta of Algorithm 2.
  double jaccard_threshold = 0.9;

  /// postProcessing flag of Algorithm 1: when true, constraints, data types
  /// and cardinalities are refreshed after *every* batch; otherwise only at
  /// Finish().
  bool post_process_each_batch = false;

  /// Data type inference sampling (§4.4).
  DataTypeOptions datatype_options;

  /// Scales the adaptive multiplier on alpha when sweeping Fig. 6's grid
  /// (1.0 = the paper's heuristic).
  double alpha_scale = 1.0;

  /// Worker threads for the parallel pipeline stages (Word2Vec training
  /// waves, the pattern feature fills, ELSH hashing, the AND group-by from
  /// 8,192 rows, per-type datatype inference).
  /// 0 = hardware concurrency, 1 = the serial path. The discovered schema
  /// is bit-identical for every value: parallel loops shard by index and
  /// all RNG seeds are pre-split per shard.
  /// With a pool (num_threads != 1), multi-batch ingest through
  /// BatchPipeline also overlaps batch i+1's preprocess with batch i's
  /// cluster/extract; that too leaves the schema bytes unchanged.
  size_t num_threads = 0;

  uint64_t seed = 42;

  /// The single source of truth for knob constraints: the thread range,
  /// embedding dimension, thresholds. Called by the CLI parsers, by
  /// PgHive::Create, and by the pghived session-create path, so every entry
  /// point rejects the same inputs with the same messages.
  util::Status Validate() const;
};

/// Wall-clock breakdown of one batch (drives Figs. 5 and 7).
struct PipelineStats {
  double preprocess_ms = 0;   ///< Corpus + embedding training + vectorize.
  double cluster_ms = 0;      ///< LSH hashing + grouping + candidate build.
  double extract_ms = 0;      ///< Algorithm 2 merge.
  double post_process_ms = 0; ///< Constraints + datatypes + cardinalities.
  size_t node_clusters = 0;   ///< Clusters before merging.
  size_t edge_clusters = 0;
  AdaptiveChoice node_params; ///< The (b, T) actually used for nodes.
  AdaptiveChoice edge_params;

  double total_ms() const {
    return preprocess_ms + cluster_ms + extract_ms + post_process_ms;
  }
  /// Time until type discovery (the paper's Fig. 5 measures up to and
  /// including type extraction, excluding post-processing).
  double discovery_ms() const {
    return preprocess_ms + cluster_ms + extract_ms;
  }
};

/// The PG-HIVE schema-discovery pipeline (Algorithm 1). Construct once per
/// graph, then either call Run() for static discovery or feed batches with
/// ProcessBatch() for incremental discovery, ending with Finish().
class PgHive {
 public:
  /// Lifecycle of one hive (the session state machine pghived builds on):
  /// batches may only be fed while kIngesting; Finish() moves to kFinished,
  /// after which every mutating call returns FailedPrecondition; a failed
  /// stage moves to kFailed, which is terminal the same way.
  enum class Phase { kIngesting, kFinished, kFailed };

  /// `shared_pool` (optional, non-owning, must outlive the hive) runs this
  /// hive's parallel stages on an external pool instead of a private one —
  /// how pghived multiplexes many sessions onto one worker pool. When null,
  /// the hive owns a pool sized by options.num_threads as before.
  PgHive(pg::PropertyGraph* graph, PgHiveOptions options,
         util::ThreadPool* shared_pool = nullptr);
  ~PgHive();

  PgHive(const PgHive&) = delete;
  PgHive& operator=(const PgHive&) = delete;

  /// Validating factory: rejects a null graph and options that fail
  /// PgHiveOptions::Validate() instead of aborting in the constructor.
  static util::StatusOr<std::unique_ptr<PgHive>> Create(
      pg::PropertyGraph* graph, PgHiveOptions options,
      util::ThreadPool* shared_pool = nullptr);

  /// Static mode: one full batch plus post-processing.
  util::Status Run();

  /// Incremental mode (§4.6): vectorize + cluster the batch, merge the
  /// extracted candidate types into the running schema. Equivalent to
  /// ProcessPrepared(PreprocessBatch(batch)). Taken by value because the
  /// prepared batch owns its id lists (a pipeline requirement); move in to
  /// skip the copy.
  util::Status ProcessBatch(pg::GraphBatch batch);

  /// The output of the preprocess stage, ready for cluster + extract. Owns
  /// everything the later stages need (the pattern feature matrices, and
  /// the vectorizer with its built column stores: the pattern indexes and
  /// the columns the MinHash sets and the candidate builder's endpoint
  /// tokens are read from), so ProcessPrepared never touches the vocabulary
  /// or the embedder — the two pieces of state the *next* batch's
  /// PreprocessBatch mutates. The matrices hold one row per pattern of the
  /// side (Vectorizer::NodePatternFeatures), never one per element.
  struct PreparedBatch {
    pg::GraphBatch batch;
    std::unique_ptr<Vectorizer> vectorizer;
    FeatureMatrix node_features;
    FeatureMatrix edge_features;
    double preprocess_ms = 0;  ///< Wall time of the preprocess stage.
  };

  /// One side's share of stage (c) on a prepared batch, as ProcessPrepared
  /// runs it.
  struct SideClusters {
    AdaptiveChoice choice;     ///< The (b, T) used, chosen over rows.
    lsh::ClusterSet clusters;  ///< Over the side's patterns.
    std::vector<CandidateType> candidates;
  };

  /// Clusters one side (nodes or edges) of a prepared batch per pattern:
  /// chooses (b, T) over the side's rows through its pattern index, hashes
  /// and groups the pattern rows, and builds the candidates. A row's cluster
  /// is its pattern's. Reads only the prepared batch and the graph;
  /// ProcessPrepared runs the node side, then the edge side, on the calling
  /// thread. The cross-path tests hold it against the per-row entry points.
  SideClusters ClusterSide(const PreparedBatch& prepared, bool nodes) const;

  /// Stage (b) of Algorithm 1 on its own: trains/refreshes the label
  /// embedding on the batch and builds its representation vectors.
  ///
  /// Sequencing contract: this is the only stage that mutates cross-batch
  /// state (label-set token interning and the incremental Word2Vec model),
  /// so calls must happen in batch order and never concurrently with each
  /// other. They MAY overlap a previous batch's ProcessPrepared — that pair
  /// shares only the read-only graph and the thread pool, which is exactly
  /// the overlap BatchPipeline exploits.
  ///
  /// By value for the same reason as ProcessBatch: the returned
  /// PreparedBatch owns the id lists so it can outlive the caller's loop
  /// iteration (the pipeline hands it to another thread).
  PreparedBatch PreprocessBatch(pg::GraphBatch batch);

  /// Stages (c)-(g): LSH clustering, candidate build, Algorithm 2 merge into
  /// the running schema, and optional per-batch post-processing. Must be
  /// called in batch order (the schema merge is order-defined); reads no
  /// vocabulary or embedder state.
  util::Status ProcessPrepared(PreparedBatch prepared);

  /// Runs the post-processing passes (constraints, data types,
  /// cardinalities) on the current schema and moves the hive to kFinished:
  /// afterwards ProcessBatch/ProcessPrepared/Run/Finish all return
  /// FailedPrecondition.
  util::Status Finish();

  /// Where the hive is in its lifecycle (see Phase).
  Phase phase() const { return phase_; }
  /// Batches merged into the schema so far.
  size_t batches_processed() const { return batches_processed_; }

  const SchemaGraph& schema() const { return schema_; }

  /// node id -> node type index (UINT32_MAX if unseen). For evaluation.
  std::vector<uint32_t> NodeAssignment() const;
  std::vector<uint32_t> EdgeAssignment() const;

  /// Stats of the most recent batch.
  const PipelineStats& last_stats() const { return last_stats_; }
  /// Cumulative stats over all batches.
  const PipelineStats& total_stats() const { return total_stats_; }

  const PgHiveOptions& options() const { return options_; }

  /// The execution pool (null when running serially with num_threads == 1).
  /// Either the shared pool passed at construction or the owned one.
  util::ThreadPool* pool() const { return pool_; }

  /// Writes a versioned snapshot of the full cross-batch discovery state:
  /// the vocabulary (all three interners), the incremental Word2Vec weights,
  /// the running schema, the options fingerprint, and the batch cursor.
  /// Format: "PGHS" magic + u32 version, then CRC-framed util/binio
  /// sections, so a flipped bit or truncated file is rejected on restore
  /// instead of silently corrupting discovery. The bytes depend only on the
  /// options and the batches merged (no timings), so equal runs write equal
  /// snapshots. This is the one checkpoint format: `pghive discover
  /// --checkpoint-to` writes it, and so does every pghived session.
  /// Snapshotting is only meaningful at a batch boundary (between
  /// ProcessBatch calls, or after a BatchPipeline::Run returned) —
  /// mid-pipeline the preprocess of a later batch may already have advanced
  /// the vocabulary. A failed hive cannot be snapshotted.
  util::Status SaveState(std::ostream& out) const;

  /// Restores a SaveState snapshot into a freshly created hive: same
  /// discovery-relevant options (method, embedder, dim, LSH parameters,
  /// thresholds, datatype sampling, seed — the thread count may differ, its
  /// byte-identity contract makes it free to change across a resume), zero
  /// batches processed, and a graph whose vocabulary is position-consistent
  /// with the snapshot (empty, or reloaded from the same graph file).
  /// Returns the number of batches the snapshotted run had already merged;
  /// continuing with the remaining batches reproduces the uninterrupted
  /// run's schema byte for byte. Statistics are not restored: last_stats()
  /// and total_stats() count only batches merged after the restore. On
  /// failure the hive may be partially mutated and must be discarded.
  util::StatusOr<uint64_t> RestoreState(std::istream& in);

 private:
  pg::PropertyGraph* graph_;
  PgHiveOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;  // owned_pool_.get() or the shared pool.
  SchemaGraph schema_;
  std::unique_ptr<embed::LabelEmbedder> embedder_;
  embed::Word2Vec* word2vec_ = nullptr;  // Non-null iff kWord2Vec.
  PipelineStats last_stats_;
  PipelineStats total_stats_;
  size_t batches_processed_ = 0;
  Phase phase_ = Phase::kIngesting;
};

/// One-call convenience wrapper: discover the schema of `graph` with the
/// given options (static mode).
util::StatusOr<SchemaGraph> DiscoverSchema(pg::PropertyGraph* graph,
                                         const PgHiveOptions& options = {});

/// Reads only the options section out of a PgHive::SaveState snapshot —
/// how a restarting pghived learns which options to construct the
/// restored session with before any heavy state is touched. Verifies the
/// header, the section framing/CRC, and the parsed options themselves
/// (PgHiveOptions::Validate).
util::StatusOr<PgHiveOptions> ReadSnapshotOptions(const std::string& bytes);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_PGHIVE_H_
