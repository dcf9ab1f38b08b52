#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

#include "core/pghive.h"
#include "core/schema.h"
#include "embed/word2vec.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

/// The traced replay of core::PgHive: the same public layer functions, called
/// in PgHive's order — columns, corpus, train, features, adaptive, hash,
/// group, candidates, extract, then the three post-process passes — each
/// inside a span, with the health counters recorded between calls. Covers
/// the default configuration (columnar data plane, Word2Vec embedder,
/// unsharded). The node and edge tracks run one after the other here, where
/// PgHive overlaps them on its pool; the schema is the same either way, and
/// every workload checks that the replay renders the bytes its untraced job
/// rendered.
class ReplayHive {
 public:
  ReplayHive(pghive::pg::PropertyGraph* graph,
             const pghive::core::PgHiveOptions& options,
             pghive::util::ThreadPool* pool, Tracer* tracer);

  void ProcessBatch(const pghive::pg::GraphBatch& batch);
  /// Constraints, data types and cardinalities (PgHive::Finish).
  void Finish();

  const pghive::core::SchemaGraph& schema() const { return schema_; }

 private:
  pghive::lsh::ClusterSet ClusterSide(bool nodes,
                                      const pghive::pg::GraphBatch& batch,
                                      const pghive::core::FeatureMatrix& features,
                                      pghive::core::Vectorizer* vectorizer);
  size_t NonFiniteTokens() const;

  pghive::pg::PropertyGraph* graph_;
  pghive::core::PgHiveOptions options_;
  pghive::util::ThreadPool* pool_;
  Tracer* tracer_;
  pghive::embed::Word2Vec word2vec_;
  pghive::core::SchemaGraph schema_;
};

/// The forms a job hands back: PG-Schema (strict) and XSD.
struct Rendering {
  std::string pgs;
  std::string xsd;
  bool operator==(const Rendering&) const = default;
};
Rendering Render(const pghive::core::SchemaGraph& schema,
                 const pghive::pg::Vocabulary& vocab);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
