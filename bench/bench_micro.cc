// The parallel speedup sweep that CI's bench-regression gate reads:
//
//   bench_micro --speedup_json=FILE
//
// runs embed (Word2Vec training) + vectorize + cluster + group (signature
// group-by in isolation) + ingest (multi-batch pipelined incremental
// discovery) on an LDBC-like graph (>= 100k elements) at 1/2/4/hw threads
// and writes per-stage speedup JSON, the input of tools/bench_diff.
//
// Every stage is deterministic in the thread count, so the sweep fails when
// a stage's result at some count differs from its first count's (a stage
// that got faster by computing something else), and when ingest fails.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "core/vectorizer.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/hash_embedder.h"
#include "embed/word2vec.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "util/binio.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace pghive;

namespace {

/// LDBC-like zoo graph scale of the embed/vectorize/cluster/group stages.
constexpr double kScale = 4.0;

struct StageTimes {
  const char* stage;
  std::vector<size_t> threads;
  std::vector<double> ms;
  uint32_t result = 0;  ///< CRC-32 of the stage's result at threads[0].
};

/// Appends one thread count's time. `result` (a CRC-32 of what the stage
/// computed) must equal the first count's; false, with a message, if not.
bool Record(StageTimes* stage, size_t threads, double ms, uint32_t result) {
  if (stage->threads.empty()) {
    stage->result = result;
  } else if (result != stage->result) {
    std::fprintf(stderr,
                 "speedup sweep: %s at %zu threads computed a different "
                 "result than at %zu\n",
                 stage->stage, threads, stage->threads[0]);
    return false;
  }
  stage->threads.push_back(threads);
  stage->ms.push_back(ms);
  return true;
}

template <typename T>
uint32_t Crc32Of(const std::vector<T>& v, uint32_t seed = 0) {
  return util::Crc32(v.data(), v.size() * sizeof(T), seed);
}

double MinMillisOf3(const std::function<void()>& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

/// Writes stages in the sweep JSON format bench_diff's ParseBenchJson reads
/// (entry names "<stage>/threads=<n>").
int WriteStagesJson(const std::string& json_path, const char* benchmark_name,
                    size_t nodes, size_t edges,
                    const StageTimes* const* stages, size_t num_stages) {
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"%s\",\n"
               "  \"scale\": %g,\n  \"nodes\": %zu,\n  \"edges\": %zu,\n"
               "  \"hardware_threads\": %zu,\n  \"stages\": [",
               benchmark_name, kScale, nodes, edges,
               util::ThreadPool::ResolveThreads(0));
  for (size_t s = 0; s < num_stages; ++s) {
    const StageTimes& st = *stages[s];
    std::fprintf(out, "%s\n    {\"stage\": \"%s\", \"results\": [",
                 s ? "," : "", st.stage);
    for (size_t i = 0; i < st.threads.size(); ++i) {
      std::fprintf(out,
                   "%s\n      {\"threads\": %zu, \"ms\": %.3f, "
                   "\"speedup\": %.3f}",
                   i ? "," : "", st.threads[i], st.ms[i],
                   st.ms[0] / std::max(1e-9, st.ms[i]));
    }
    std::fprintf(out, "\n    ]}");
  }
  std::fprintf(out, "\n  ]\n}\n");
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

int RunSpeedupSweep(const std::string& json_path) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::LdbcSpec(), kScale, 7);
  pg::GraphBatch batch = pg::FullBatch(dataset.graph);
  const size_t elements = batch.node_ids.size() + batch.edge_ids.size();
  std::fprintf(stderr, "speedup sweep: %zu nodes + %zu edges = %zu elements\n",
               batch.node_ids.size(), batch.edge_ids.size(), elements);

  embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 11);
  // The Word2Vec corpus is thread-count-invariant; build it once so the
  // embed stage times training only.
  embed::LabelCorpus corpus = embed::BuildLabelCorpus(dataset.graph);
  // Intern every token (and build vocab columns) once, outside the timings.
  // Features and signatures are thread-count-invariant, so this warmup pass
  // also provides the fixed input of the grouping stage.
  lsh::EuclideanLshParams lsh_params;
  lsh_params.num_tables = 20;
  core::Vectorizer warmup(&dataset.graph, &embedder, nullptr);
  core::FeatureMatrix warm_nodes = warmup.NodeFeatures(batch);
  core::FeatureMatrix warm_edges = warmup.EdgeFeatures(batch);
  lsh::EuclideanLsh warm_node_hasher(warm_nodes.dim, lsh_params);
  lsh::EuclideanLsh warm_edge_hasher(warm_edges.dim, lsh_params);
  std::vector<uint64_t> node_sigs =
      warm_node_hasher.HashAll(warm_nodes.data, warm_nodes.num);
  std::vector<uint64_t> edge_sigs =
      warm_edge_hasher.HashAll(warm_edges.data, warm_edges.num);

  std::vector<size_t> counts = {1, 2, 4,
                                util::ThreadPool::ResolveThreads(0)};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  // The ingest stage runs full multi-batch incremental discovery, which is
  // far heavier per rep than the isolated primitives above, so it uses its
  // own fixed-size graph (~30k elements).
  datasets::Dataset ingest_dataset =
      datasets::Generate(datasets::LdbcSpec(), 1.0, 7);
  std::vector<pg::GraphBatch> ingest_batches =
      pg::SplitIntoBatches(ingest_dataset.graph, 6, 17);

  StageTimes embed_stage{"embed", {}, {}};
  StageTimes vectorize{"vectorize", {}, {}};
  StageTimes cluster{"cluster", {}, {}};
  StageTimes group{"group", {}, {}};
  StageTimes ingest{"ingest", {}, {}};
  for (size_t threads : counts) {
    util::ThreadPool pool(threads);
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    uint32_t weights_crc = 0;
    double ms = MinMillisOf3([&] {
      // A fresh model per rep: Train is incremental, and the sweep should
      // time the same cold-start training at every thread count.
      embed::Word2Vec model(&dataset.graph.vocab(), {});
      model.Train(corpus, p);
      std::string weights;
      model.AppendStateTo(&weights);
      weights_crc = util::Crc32(weights);
    });
    if (!Record(&embed_stage, threads, ms, weights_crc)) return 1;

    core::Vectorizer vectorizer(&dataset.graph, &embedder, p);
    core::FeatureMatrix node_features, edge_features;
    ms = MinMillisOf3([&] {
      node_features = vectorizer.NodeFeatures(batch);
      edge_features = vectorizer.EdgeFeatures(batch);
    });
    if (!Record(&vectorize, threads, ms,
                Crc32Of(edge_features.data, Crc32Of(node_features.data)))) {
      return 1;
    }

    lsh::EuclideanLsh node_hasher(node_features.dim, lsh_params);
    lsh::EuclideanLsh edge_hasher(edge_features.dim, lsh_params);
    lsh::ClusterSet node_clusters, edge_clusters;
    ms = MinMillisOf3([&] {
      node_clusters =
          node_hasher.Cluster(node_features.data, node_features.num, p);
      edge_clusters =
          edge_hasher.Cluster(edge_features.data, edge_features.num, p);
    });
    if (!Record(&cluster, threads, ms,
                Crc32Of(edge_clusters.assignment(),
                        Crc32Of(node_clusters.assignment())))) {
      return 1;
    }

    // Grouping in isolation, on the precomputed signatures (the cluster
    // stage above times hashing + grouping together).
    ms = MinMillisOf3([&] {
      node_clusters = lsh::ClusterBySignature(node_sigs, warm_nodes.num,
                                              lsh_params.num_tables, p);
      edge_clusters = lsh::ClusterBySignature(edge_sigs, warm_edges.num,
                                              lsh_params.num_tables, p);
    });
    if (!Record(&group, threads, ms,
                Crc32Of(edge_clusters.assignment(),
                        Crc32Of(node_clusters.assignment())))) {
      return 1;
    }

    // End-to-end pipelined multi-batch ingest: the speedup over 1 thread
    // combines in-stage parallelism with cross-batch overlap (at 1 thread
    // BatchPipeline is the sequential loop — the baseline the paper's
    // Fig. 7 story starts from). A fresh graph copy per rep resets the
    // vocabulary and Word2Vec state so every thread count ingests the
    // identical stream.
    util::Status ingested;
    std::string schema;
    ms = MinMillisOf3([&] {
      pg::PropertyGraph ingest_graph = ingest_dataset.graph;
      core::PgHiveOptions ingest_options;
      ingest_options.num_threads = threads;
      core::PgHive hive(&ingest_graph, ingest_options);
      core::BatchPipeline ingest_pipeline(&hive);
      util::Status status = ingest_pipeline.Run(ingest_batches);
      if (status.ok()) status = hive.Finish();
      if (!status.ok()) ingested = status;
      schema = core::SerializePgSchema(hive.schema(), ingest_graph.vocab(),
                                       core::SchemaMode::kStrict);
    });
    if (!ingested.ok()) {
      std::fprintf(stderr, "speedup sweep: ingest at %zu threads: %s\n",
                   threads, ingested.ToString().c_str());
      return 1;
    }
    if (!Record(&ingest, threads, ms, util::Crc32(schema))) return 1;
  }

  const StageTimes* stages[] = {&embed_stage, &vectorize, &cluster, &group,
                                &ingest};
  const size_t num_stages = sizeof(stages) / sizeof(stages[0]);
  if (WriteStagesJson(json_path, "pghive_parallel_sweep",
                      batch.node_ids.size(), batch.edge_ids.size(), stages,
                      num_stages) != 0) {
    return 1;
  }
  for (size_t s = 0; s < num_stages; ++s) {
    const StageTimes& st = *stages[s];
    for (size_t i = 0; i < st.threads.size(); ++i) {
      std::fprintf(stderr, "  %-10s threads=%zu  %8.2f ms  (%.2fx)\n",
                   st.stage, st.threads[i], st.ms[i], st.ms[0] / st.ms[i]);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kFlag = "--speedup_json=";
  const size_t flag_len = std::strlen(kFlag);
  if (argc != 2 || std::strncmp(argv[1], kFlag, flag_len) != 0 ||
      argv[1][flag_len] == '\0') {
    std::fprintf(stderr, "usage: %s --speedup_json=FILE\n", argv[0]);
    return 1;
  }
  return RunSpeedupSweep(argv[1] + flag_len);
}
