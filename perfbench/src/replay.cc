#include "replay.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/cardinality.h"
#include "core/constraints.h"
#include "core/datatype_inference.h"
#include "core/serialize.h"
#include "core/type_extraction.h"
#include "core/vectorizer.h"
#include "embed/corpus.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"

namespace perfbench {

namespace core = pghive::core;
namespace embed = pghive::embed;
namespace lsh = pghive::lsh;
namespace pg = pghive::pg;

namespace {

embed::Word2VecOptions Word2VecFor(const core::PgHiveOptions& options) {
  embed::Word2VecOptions w2v;
  w2v.dim = options.embedding_dim;
  w2v.seed = options.seed;
  return w2v;
}

}  // namespace

ReplayHive::ReplayHive(pg::PropertyGraph* graph,
                       const core::PgHiveOptions& options,
                       pghive::util::ThreadPool* pool, Tracer* tracer)
    : graph_(graph),
      options_(options),
      pool_(pool),
      tracer_(tracer),
      word2vec_(&graph->vocab(), Word2VecFor(options)) {}

size_t ReplayHive::NonFiniteTokens() const {
  const size_t rows =
      std::min(graph_->vocab().num_tokens(), word2vec_.num_rows());
  std::vector<float> row(word2vec_.dim());
  size_t bad = 0;
  for (size_t t = 0; t < rows; ++t) {
    word2vec_.Embed(static_cast<pg::LabelSetToken>(t), row.data());
    bad += std::any_of(row.begin(), row.end(),
                       [](float v) { return !std::isfinite(v); });
  }
  return bad;
}

void ReplayHive::ProcessBatch(const pg::GraphBatch& batch) {
  core::Vectorizer vectorizer(graph_, &word2vec_, pool_);
  const pg::ColumnStore* edge_cols = nullptr;
  const pg::ColumnStore* node_cols = nullptr;
  {
    // Edge columns first: the order PgHive interns label-set tokens in.
    Tracer::Span span(tracer_, "pg.columns");
    edge_cols = &vectorizer.EdgeColumns(batch);
    node_cols = &vectorizer.NodeColumns(batch);
  }
  embed::LabelCorpus corpus;
  {
    Tracer::Span span(tracer_, "embed.corpus");
    corpus = embed::BuildLabelCorpus(*graph_, *edge_cols, *node_cols);
  }
  {
    Tracer::Span span(tracer_, "embed.train");
    word2vec_.Train(corpus, pool_);
  }
  if (tracer_->enabled()) {
    tracer_->Count("embed.nonfinite_tokens",
                   static_cast<double>(NonFiniteTokens()));
  }
  core::FeatureMatrix node_features;
  core::FeatureMatrix edge_features;
  {
    Tracer::Span span(tracer_, "core.vectorize");
    node_features = vectorizer.NodeFeatures(batch);
    edge_features = vectorizer.EdgeFeatures(batch);
  }

  std::vector<core::CandidateType> node_candidates;
  std::vector<core::CandidateType> edge_candidates;
  if (!batch.node_ids.empty()) {
    lsh::ClusterSet clusters =
        ClusterSide(/*nodes=*/true, batch, node_features, &vectorizer);
    Tracer::Span span(tracer_, "core.candidates");
    node_candidates = core::BuildNodeCandidates(*graph_, batch, clusters);
  }
  if (!batch.edge_ids.empty()) {
    lsh::ClusterSet clusters =
        ClusterSide(/*nodes=*/false, batch, edge_features, &vectorizer);
    Tracer::Span span(tracer_, "core.candidates");
    edge_candidates = core::BuildEdgeCandidates(
        *graph_, batch, clusters, vectorizer.EdgeEndpointTokens(batch));
  }
  {
    Tracer::Span span(tracer_, "core.extract");
    core::ExtractionOptions ext;
    ext.jaccard_threshold = options_.jaccard_threshold;
    if (!batch.node_ids.empty()) {
      core::ExtractNodeTypes(std::move(node_candidates), ext, &schema_);
    }
    if (!batch.edge_ids.empty()) {
      core::ExtractEdgeTypes(std::move(edge_candidates), ext, &schema_);
    }
  }
  if (options_.post_process_each_batch) Finish();
}

lsh::ClusterSet ReplayHive::ClusterSide(bool nodes, const pg::GraphBatch& batch,
                                        const core::FeatureMatrix& features,
                                        core::Vectorizer* vectorizer) {
  // PgHive's parameter derivation: the same per-side seeds and clamps.
  const bool elsh = options_.method == core::ClusterMethod::kElsh;
  core::AdaptiveChoice choice;
  {
    Tracer::Span span(tracer_, "core.adaptive");
    if (options_.adaptive) {
      core::AdaptiveOptions adaptive;
      adaptive.seed = options_.seed ^ (nodes ? (elsh ? 0x11 : 0x12)
                                             : (elsh ? 0x21 : 0x22));
      const size_t labels = graph_->vocab().num_labels();
      choice = nodes ? core::ChooseNodeParams(features, labels, adaptive)
                     : core::ChooseEdgeParams(features, labels, adaptive);
      if (elsh) choice.bucket_length *= options_.alpha_scale;
    } else {
      choice.bucket_length = options_.bucket_length;
      choice.num_tables = options_.num_tables;
    }
  }
  // EstimateDistanceScale substitutes exactly 1.0 when it cannot estimate.
  if (options_.adaptive && choice.mu == 1.0) {
    tracer_->Count("core.mu_fallbacks", 1);
  }

  lsh::ClusterSet clusters;
  if (elsh) {
    lsh::EuclideanLshParams params;
    params.bucket_length = std::max(1e-6, choice.bucket_length);
    params.num_tables = std::max<size_t>(1, choice.num_tables);
    params.seed = options_.seed ^ (nodes ? 0xE15 : 0xE25);
    params.amplification = options_.amplification;
    lsh::EuclideanLsh hasher(features.dim, params);
    std::vector<uint64_t> signatures;
    {
      Tracer::Span span(tracer_, "lsh.hash");
      signatures = hasher.HashAll(features.data, features.num, pool_);
    }
    Tracer::Span span(tracer_, "lsh.group");
    clusters = params.amplification == lsh::Amplification::kAnd
                   ? lsh::ClusterBySignature(signatures, features.num,
                                             params.num_tables, pool_)
                   : lsh::ClusterByAnyCollision(signatures, features.num,
                                                params.num_tables, pool_);
  } else {
    lsh::MinHashParams params;
    params.num_hashes = std::max<size_t>(4, choice.num_tables);
    params.rows_per_band =
        std::min(options_.minhash_rows_per_band, params.num_hashes);
    params.seed = options_.seed ^ (nodes ? 0x517 : 0x527);
    params.amplification = options_.amplification;
    lsh::MinHashLsh hasher(params);
    core::ElementSetCsr sets;
    {
      Tracer::Span span(tracer_, "core.vectorize");
      sets = nodes ? vectorizer->NodeSetSpans(batch)
                   : vectorizer->EdgeSetSpans(batch);
    }
    std::vector<uint64_t> signatures;
    {
      Tracer::Span span(tracer_, "lsh.hash");
      signatures = hasher.SignatureAll(
          lsh::SetSpans{sets.elements.data(), sets.offsets.data(), sets.num()},
          pool_);
    }
    Tracer::Span span(tracer_, "lsh.group");
    clusters = hasher.ClusterFromSignatures(signatures, sets.num(), pool_);
  }
  tracer_->Count("lsh.clusters", static_cast<double>(clusters.num_clusters()));
  if (clusters.num_clusters() == 1 && clusters.num_items() > 1) {
    tracer_->Count("lsh.single_cluster_sides", 1);
  }
  return clusters;
}

void ReplayHive::Finish() {
  {
    Tracer::Span span(tracer_, "core.constraints");
    core::InferPropertyConstraints(&schema_);
  }
  {
    Tracer::Span span(tracer_, "core.datatypes");
    core::InferDataTypes(*graph_, &schema_, options_.datatype_options, pool_);
  }
  Tracer::Span span(tracer_, "core.cardinality");
  core::ComputeCardinalities(*graph_, &schema_);
}

Rendering Render(const core::SchemaGraph& schema, const pg::Vocabulary& vocab) {
  return {core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict),
          core::SerializeXsd(schema, vocab)};
}

}  // namespace perfbench
