#include "core/pghive.h"

#include <algorithm>
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

PgHive::SideClusters PgHive::ClusterSide(const PreparedBatch& prepared,
                                         bool nodes) const {
  const pg::GraphBatch& batch = prepared.batch;
  Vectorizer& vectorizer = *prepared.vectorizer;
  const pg::PatternIndex& patterns =
      (nodes ? vectorizer.NodeColumns(batch) : vectorizer.EdgeColumns(batch))
          .patterns();
  const FeatureMatrix& features =
      nodes ? prepared.node_features : prepared.edge_features;
  SideClusters side;

  // (b, T): adaptive (§4.2) or the manual values. The seeds differ per
  // track (node/edge) and LSH family.
  const bool elsh = options_.method == ClusterMethod::kElsh;
  AdaptiveChoice& choice = side.choice;
  if (options_.adaptive) {
    AdaptiveOptions aopts;
    aopts.seed = options_.seed ^ (nodes ? (elsh ? 0x11 : 0x12)
                                        : (elsh ? 0x21 : 0x22));
    const size_t num_labels = graph_->vocab().num_labels();
    choice = nodes ? ChooseNodeParams(features, patterns.row_patterns,
                                      num_labels, aopts)
                   : ChooseEdgeParams(features, patterns.row_patterns,
                                      num_labels, aopts);
    if (elsh) choice.bucket_length *= options_.alpha_scale;
  } else {
    if (elsh) choice.bucket_length = options_.bucket_length;
    choice.num_tables = options_.num_tables;
  }

  if (elsh) {
    lsh::EuclideanLshParams params;
    params.bucket_length = std::max(1e-6, choice.bucket_length);
    params.num_tables = std::max<size_t>(1, choice.num_tables);
    params.seed = options_.seed ^ (nodes ? 0xE15 : 0xE25);
    params.amplification = options_.amplification;
    lsh::EuclideanLsh hasher(features.dim, params);
    side.clusters = hasher.Cluster(features.data, features.num, pool_);
  } else {
    // MinHash path clusters the element sets.
    lsh::MinHashParams params;
    params.num_hashes = std::max<size_t>(4, choice.num_tables);
    params.rows_per_band =
        std::min(options_.minhash_rows_per_band, params.num_hashes);
    params.seed = options_.seed ^ (nodes ? 0x517 : 0x527);
    params.amplification = options_.amplification;
    lsh::MinHashLsh hasher(params);
    ElementSetCsr csr = nodes ? vectorizer.NodePatternSets(batch)
                              : vectorizer.EdgePatternSets(batch);
    side.clusters = hasher.Cluster(
        lsh::SetSpans{csr.elements.data(), csr.offsets.data(), csr.num()},
        pool_);
  }

  // EdgePatternEndpoints is a pure read of the edge store PreprocessBatch
  // built — no vocabulary access on this side of the overlap.
  side.candidates =
      nodes ? BuildNodeCandidates(*graph_, batch.node_ids, patterns,
                                  side.clusters)
            : BuildEdgeCandidates(*graph_, batch.edge_ids, patterns,
                                  side.clusters,
                                  vectorizer.EdgePatternEndpoints(batch));
  return side;
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
  // happens here, in a fixed order: the vectorizer's column builds assign
  // label-set token ids, and Train continues the incremental Word2Vec model
  // — so as long as batches preprocess in order, ids and weights are
  // identical whether or not later stages overlap.
  prepared.vectorizer =
      std::make_unique<Vectorizer>(graph_, embedder_.get(), pool_);
  if (word2vec_ != nullptr) {
    // Edge columns before node columns: the edge build interns per edge in
    // the corpus sentence order (src, edge, dst), then the node build
    // interns the remaining (isolated-node) tokens in row order.
    const pg::ColumnStore& edge_cols = prepared.vectorizer->EdgeColumns(b);
    const pg::ColumnStore& node_cols = prepared.vectorizer->NodeColumns(b);
    word2vec_->Train(embed::BuildLabelCorpus(*graph_, edge_cols, node_cols),
                     pool_);
  }
  prepared.node_features = prepared.vectorizer->NodePatternFeatures(b);
  prepared.edge_features = prepared.vectorizer->EdgePatternFeatures(b);
  // The feature matrices snapshot the embedder, and the vectorizer's
  // column stores (built by the feature calls at the latest) snapshot the
  // vocabulary: after this point nothing downstream of this batch reads
  // either, so the next batch is free to mutate both.
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

  // (c) LSH clustering + candidate build, per pattern: the node side, then
  // the edge side, on this thread. A side sees one row per distinct element
  // pattern, not one per element, so only its inner loops use the pool.
  std::vector<CandidateType> node_candidates;
  std::vector<CandidateType> edge_candidates;
  if (!batch.node_ids.empty()) {
    SideClusters side = ClusterSide(prepared, /*nodes=*/true);
    last_stats_.node_params = side.choice;
    last_stats_.node_clusters = side.clusters.num_clusters();
    node_candidates = std::move(side.candidates);
  }
  if (!batch.edge_ids.empty()) {
    SideClusters side = ClusterSide(prepared, /*nodes=*/false);
    last_stats_.edge_params = side.choice;
    last_stats_.edge_clusters = side.clusters.num_clusters();
    edge_candidates = std::move(side.candidates);
  }
  last_stats_.cluster_ms = timer.ElapsedMillis();

  // (d) Type extraction (Algorithm 2), merged into the running schema in a
  // fixed order: nodes then edges.
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
