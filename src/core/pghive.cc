#include "core/pghive.h"

#include <algorithm>
#include <future>
#include <utility>

#include "core/cardinality.h"
#include "core/constraints.h"
#include "embed/corpus.h"
#include "embed/hash_embedder.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "util/timer.h"

namespace pghive::core {

PgHive::PgHive(pg::PropertyGraph* graph, PgHiveOptions options,
               util::ThreadPool* shared_pool)
    : graph_(graph), options_(options) {
  PGHIVE_CHECK(graph_ != nullptr);
  if (shared_pool != nullptr && shared_pool->num_threads() > 1) {
    pool_ = shared_pool;
  } else if (shared_pool == nullptr &&
             util::ThreadPool::ResolveThreads(options_.num_threads) > 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }
  if (options_.embedder == EmbedderKind::kWord2Vec) {
    embed::Word2VecOptions w2v;
    w2v.dim = options_.embedding_dim;
    w2v.seed = options_.seed;
    auto model = std::make_unique<embed::Word2Vec>(&graph_->vocab(), w2v);
    word2vec_ = model.get();
    embedder_ = std::move(model);
  } else {
    embedder_ = std::make_unique<embed::HashEmbedder>(
        &graph_->vocab(), options_.embedding_dim, options_.seed);
  }
}

PgHive::~PgHive() = default;

util::StatusOr<std::unique_ptr<PgHive>> PgHive::Create(
    pg::PropertyGraph* graph, PgHiveOptions options,
    util::ThreadPool* shared_pool) {
  if (graph == nullptr) {
    return util::Status::InvalidArgument("PgHive needs a non-null graph");
  }
  util::Status valid = options.Validate();
  if (!valid.ok()) return valid;
  return std::make_unique<PgHive>(graph, options, shared_pool);
}

namespace {

util::Status PhaseError(PgHive::Phase phase, const char* call) {
  return util::Status::FailedPrecondition(
      std::string(call) + " on a " +
      (phase == PgHive::Phase::kFinished ? "finished" : "failed") +
      " PgHive; construct a new hive to discover again");
}

}  // namespace

lsh::ClusterSet PgHive::Cluster(const pg::GraphBatch& batch,
                                const FeatureMatrix& features,
                                Vectorizer* vectorizer, bool nodes) {
  // (b, T): adaptive (§4.2) or the manual values. The seeds differ per
  // track (node/edge) and LSH family.
  const bool elsh = options_.method == ClusterMethod::kElsh;
  AdaptiveChoice choice;
  if (options_.adaptive) {
    AdaptiveOptions aopts;
    aopts.seed = options_.seed ^ (nodes ? (elsh ? 0x11 : 0x12)
                                        : (elsh ? 0x21 : 0x22));
    const size_t num_labels = graph_->vocab().num_labels();
    choice = nodes ? ChooseNodeParams(features, num_labels, aopts)
                   : ChooseEdgeParams(features, num_labels, aopts);
    if (elsh) choice.bucket_length *= options_.alpha_scale;
  } else {
    if (elsh) choice.bucket_length = options_.bucket_length;
    choice.num_tables = options_.num_tables;
  }
  // The two tracks run concurrently; each writes only its own field.
  (nodes ? last_stats_.node_params : last_stats_.edge_params) = choice;

  if (elsh) {
    lsh::EuclideanLshParams params;
    params.bucket_length = std::max(1e-6, choice.bucket_length);
    params.num_tables = std::max<size_t>(1, choice.num_tables);
    params.seed = options_.seed ^ (nodes ? 0xE15 : 0xE25);
    params.amplification = options_.amplification;
    lsh::EuclideanLsh hasher(features.dim, params);
    return hasher.Cluster(features.data, features.num, pool_);
  }
  // MinHash path clusters the element sets.
  lsh::MinHashParams params;
  params.num_hashes = std::max<size_t>(4, choice.num_tables);
  params.rows_per_band =
      std::min(options_.minhash_rows_per_band, params.num_hashes);
  params.seed = options_.seed ^ (nodes ? 0x517 : 0x527);
  params.amplification = options_.amplification;
  lsh::MinHashLsh hasher(params);
  if (options_.columnar) {
    ElementSetCsr csr = nodes ? vectorizer->NodeSetSpans(batch)
                              : vectorizer->EdgeSetSpans(batch);
    return hasher.Cluster(
        lsh::SetSpans{csr.elements.data(), csr.offsets.data(), csr.num()},
        pool_);
  }
  return hasher.Cluster(
      nodes ? vectorizer->NodeSets(batch) : vectorizer->EdgeSets(batch),
      pool_);
}

util::Status PgHive::ProcessBatch(pg::GraphBatch batch) {
  if (phase_ != Phase::kIngesting) return PhaseError(phase_, "ProcessBatch()");
  return ProcessPrepared(PreprocessBatch(std::move(batch)));
}

PgHive::PreparedBatch PgHive::PreprocessBatch(pg::GraphBatch batch) {
  util::Timer timer;
  PreparedBatch prepared;
  prepared.batch = std::move(batch);
  const pg::GraphBatch& b = prepared.batch;

  // (b) Preprocess: train/refresh the label embedding on this batch, then
  // build representation vectors. Everything that advances cross-batch state
  // happens here, in a fixed order: the corpus build and the vectorizer's
  // intern pre-passes (column builds, in columnar mode) assign label-set
  // token ids, and Train continues the incremental Word2Vec model — so as
  // long as batches preprocess in order, ids and weights are identical
  // whether or not later stages overlap.
  prepared.vectorizer = std::make_unique<Vectorizer>(
      graph_, embedder_.get(), pool_, options_.columnar);
  if (word2vec_ != nullptr) {
    embed::LabelCorpus corpus;
    if (options_.columnar) {
      // Edge columns before node columns: the edge build interns per edge in
      // the corpus sentence order (src, edge, dst), then the node build
      // interns the remaining (isolated-node) tokens in row order — the same
      // first-seen token-id sequence the row-path corpus walk produces.
      const pg::ColumnStore& edge_cols = prepared.vectorizer->EdgeColumns(b);
      const pg::ColumnStore& node_cols = prepared.vectorizer->NodeColumns(b);
      corpus = embed::BuildLabelCorpus(*graph_, edge_cols, node_cols);
    } else {
      corpus = embed::BuildLabelCorpus(*graph_, b);
    }
    word2vec_->Train(corpus, pool_);
  }
  prepared.node_features = prepared.vectorizer->NodeFeatures(b);
  prepared.edge_features = prepared.vectorizer->EdgeFeatures(b);
  // The feature matrices snapshot the embedder, and the vectorizer's
  // intern pre-passes (inside NodeFeatures/EdgeFeatures) snapshot the
  // vocabulary into its token caches: after this point nothing downstream
  // of this batch reads either, so the next batch is free to mutate both.
  prepared.preprocess_ms = timer.ElapsedMillis();
  return prepared;
}

util::Status PgHive::ProcessPrepared(PreparedBatch prepared) {
  if (phase_ != Phase::kIngesting) {
    return PhaseError(phase_, "ProcessPrepared()");
  }
  last_stats_ = PipelineStats{};
  last_stats_.preprocess_ms = prepared.preprocess_ms;
  const pg::GraphBatch& batch = prepared.batch;
  util::Timer timer;

  // (c) LSH clustering + candidate build. The node and edge tracks are
  // independent: they write disjoint stats fields and share the graph and
  // the prepared batch read-only — the vectorizer's pre-pass already cached
  // every label-set token of the batch (including edge endpoint tokens), so
  // the tracks run concurrently when a pool is available. Each track's inner
  // loops also fan out on the pool (nested sections flatten into its queue).
  lsh::ClusterSet node_clusters;
  lsh::ClusterSet edge_clusters;
  std::vector<CandidateType> node_candidates;
  std::vector<CandidateType> edge_candidates;
  auto node_track = [&] {
    if (batch.node_ids.empty()) return;
    node_clusters = Cluster(batch, prepared.node_features,
                            prepared.vectorizer.get(), /*nodes=*/true);
    last_stats_.node_clusters = node_clusters.num_clusters();
    node_candidates = BuildNodeCandidates(*graph_, batch, node_clusters);
  };
  auto edge_track = [&] {
    if (batch.edge_ids.empty()) return;
    edge_clusters = Cluster(batch, prepared.edge_features,
                            prepared.vectorizer.get(), /*nodes=*/false);
    last_stats_.edge_clusters = edge_clusters.num_clusters();
    // EdgeEndpointTokens is a pure read of the cache EdgeFeatures warmed in
    // PreprocessBatch — no vocabulary access on this side of the overlap.
    edge_candidates = BuildEdgeCandidates(
        *graph_, batch, edge_clusters,
        prepared.vectorizer->EdgeEndpointTokens(batch));
  };
  if (pool_ != nullptr) {
    std::future<void> edges_done = pool_->Submit(edge_track);
    try {
      node_track();
    } catch (...) {
      // edge_track references stack locals; it must finish before unwinding.
      pool_->HelpWhileWaiting(edges_done);
      throw;
    }
    // Drain-while-waiting: ProcessBatch may itself be running on a pool
    // worker (pghived schedules session jobs onto the shared pool), and a
    // plain get() would deadlock when no other worker is free to take the
    // edge track.
    pool_->HelpWhileWaiting(edges_done);
    edges_done.get();
  } else {
    node_track();
    edge_track();
  }
  last_stats_.cluster_ms = timer.ElapsedMillis();

  // (d) Type extraction (Algorithm 2), merged into the running schema in a
  // fixed order — nodes then edges — so the schema never depends on which
  // track finished first.
  timer.Reset();
  ExtractionOptions ext;
  ext.jaccard_threshold = options_.jaccard_threshold;
  if (!batch.node_ids.empty()) {
    ExtractNodeTypes(std::move(node_candidates), ext, &schema_);
  }
  if (!batch.edge_ids.empty()) {
    ExtractEdgeTypes(std::move(edge_candidates), ext, &schema_);
  }
  last_stats_.extract_ms = timer.ElapsedMillis();

  // (e)-(g) Optional per-batch post-processing.
  if (options_.post_process_each_batch) {
    timer.Reset();
    InferPropertyConstraints(&schema_);
    InferDataTypes(*graph_, &schema_, options_.datatype_options, pool_);
    ComputeCardinalities(*graph_, &schema_);
    last_stats_.post_process_ms = timer.ElapsedMillis();
  }

  ++batches_processed_;
  total_stats_.preprocess_ms += last_stats_.preprocess_ms;
  total_stats_.cluster_ms += last_stats_.cluster_ms;
  total_stats_.extract_ms += last_stats_.extract_ms;
  total_stats_.post_process_ms += last_stats_.post_process_ms;
  total_stats_.node_clusters += last_stats_.node_clusters;
  total_stats_.edge_clusters += last_stats_.edge_clusters;
  return util::Status::Ok();
}

util::Status PgHive::Finish() {
  if (phase_ != Phase::kIngesting) return PhaseError(phase_, "Finish()");
  util::Timer timer;
  InferPropertyConstraints(&schema_);
  InferDataTypes(*graph_, &schema_, options_.datatype_options, pool_);
  ComputeCardinalities(*graph_, &schema_);
  double ms = timer.ElapsedMillis();
  last_stats_.post_process_ms += ms;
  total_stats_.post_process_ms += ms;
  phase_ = Phase::kFinished;
  return util::Status::Ok();
}

util::Status PgHive::Run() {
  if (phase_ != Phase::kIngesting) return PhaseError(phase_, "Run()");
  util::Status status = ProcessBatch(pg::FullBatch(*graph_));
  if (!status.ok()) {
    phase_ = Phase::kFailed;
    return status;
  }
  return Finish();
}

std::vector<uint32_t> PgHive::NodeAssignment() const {
  return schema_.NodeAssignment(graph_->num_nodes());
}

std::vector<uint32_t> PgHive::EdgeAssignment() const {
  return schema_.EdgeAssignment(graph_->num_edges());
}

util::StatusOr<SchemaGraph> DiscoverSchema(pg::PropertyGraph* graph,
                                         const PgHiveOptions& options) {
  PgHive pipeline(graph, options);
  util::Status status = pipeline.Run();
  if (!status.ok()) return status;
  return pipeline.schema();
}

}  // namespace pghive::core
