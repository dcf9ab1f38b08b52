// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: ELSH hashing, MinHash signatures, the vectorizer, Word2Vec
// training, GMM EM steps, the type-extraction merge, and thread sweeps of
// the parallel vectorize/cluster stages.
//
// Besides the google-benchmark CLI, the binary has two perf-tracking modes:
//
//   bench_micro --speedup_json=FILE [--speedup_scale=S]
//
// runs embed (Word2Vec training) + vectorize + cluster + group (signature
// group-by in isolation) + ingest (multi-batch pipelined incremental
// discovery) on an LDBC-like graph (>= 100k elements at the default scale)
// at 1/2/4/hw threads and writes per-stage speedup JSON. Every entry also
// carries "eps" (absolute single-run throughput in elements/sec) so
// bench_diff --mode=eps can gate on throughput drops the ratio gate misses.
//
//   bench_micro --rowcol_json=PREFIX [--speedup_scale=S]
//
// times the four data-plane stages (vectorize, hash, group, embed) single-
// threaded on the row path and the columnar path of the same graph, writing
// PREFIX.row.json and PREFIX.col.json in the sweep format; bench_diff
// ROW.json COL.json --mode=eps then gates "columnar not slower than row" —
// a same-run, same-machine comparison, so the absolute gate is sound even
// on heterogeneous CI runners.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "baselines/gmm.h"
#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "core/type_extraction.h"
#include "core/vectorizer.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/hash_embedder.h"
#include "embed/word2vec.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace pghive;

namespace {

std::vector<float> RandomMatrix(size_t num, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data(num * dim);
  for (auto& x : data) x = static_cast<float>(rng.NextGaussian());
  return data;
}

void BM_ElshHash(benchmark::State& state) {
  const size_t num = 4096, dim = static_cast<size_t>(state.range(0));
  auto data = RandomMatrix(num, dim, 1);
  lsh::EuclideanLshParams params;
  params.num_tables = 20;
  lsh::EuclideanLsh hasher(dim, params);
  for (auto _ : state) {
    auto sigs = hasher.HashAll(data, num);
    benchmark::DoNotOptimize(sigs);
  }
  state.SetItemsProcessed(state.iterations() * num);
}
BENCHMARK(BM_ElshHash)->Arg(16)->Arg(64)->Arg(128);

void BM_ElshCluster(benchmark::State& state) {
  const size_t num = static_cast<size_t>(state.range(0)), dim = 64;
  auto data = RandomMatrix(num, dim, 2);
  lsh::EuclideanLshParams params;
  params.num_tables = 20;
  lsh::EuclideanLsh hasher(dim, params);
  for (auto _ : state) {
    auto clusters = hasher.Cluster(data, num);
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(state.iterations() * num);
}
BENCHMARK(BM_ElshCluster)->Arg(1024)->Arg(8192);

void BM_MinHashSignature(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<std::vector<uint64_t>> sets(2048);
  for (auto& set : sets) {
    size_t n = 4 + rng.NextBounded(12);
    for (size_t i = 0; i < n; ++i) set.push_back(rng.NextBounded(500));
  }
  lsh::MinHashParams params;
  params.num_hashes = static_cast<size_t>(state.range(0));
  lsh::MinHashLsh hasher(params);
  for (auto _ : state) {
    auto sigs = hasher.SignatureAll(sets);
    benchmark::DoNotOptimize(sigs);
  }
  state.SetItemsProcessed(state.iterations() * sets.size());
}
BENCHMARK(BM_MinHashSignature)->Arg(16)->Arg(32);

void BM_Word2VecTrain(benchmark::State& state) {
  auto dataset = datasets::Generate(datasets::LdbcSpec(), 0.25, 4);
  for (auto _ : state) {
    embed::LabelCorpus corpus = embed::BuildLabelCorpus(dataset.graph);
    embed::Word2VecOptions options;
    embed::Word2Vec model(&dataset.graph.vocab(), options);
    model.Train(corpus);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_Word2VecTrain);

void BM_GmmEm(benchmark::State& state) {
  const size_t num = 1024, dim = 32, k = 8;
  auto data = RandomMatrix(num, dim, 5);
  baselines::GmmOptions options;
  options.max_iterations = 10;
  baselines::GaussianMixture gmm(options);
  for (auto _ : state) {
    auto fit = gmm.Fit(data, num, dim, k);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_GmmEm);

void BM_FullPipeline(benchmark::State& state) {
  auto dataset = datasets::Generate(datasets::PoleSpec(), 0.5, 6);
  for (auto _ : state) {
    pg::PropertyGraph graph = dataset.graph;
    core::PgHiveOptions options;
    core::PgHive pipeline(&graph, options);
    benchmark::DoNotOptimize(pipeline.Run());
  }
}
BENCHMARK(BM_FullPipeline);

// ---- Thread sweeps (Arg = thread count; 0 = hardware concurrency) -------

size_t SweepThreads(benchmark::State& state) {
  return util::ThreadPool::ResolveThreads(
      static_cast<size_t>(state.range(0)));
}

void BM_VectorizeThreads(benchmark::State& state) {
  auto dataset = datasets::Generate(datasets::LdbcSpec(), 2.0, 7);
  embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 11);
  size_t threads = SweepThreads(state);
  util::ThreadPool pool(threads);
  core::Vectorizer vectorizer(&dataset.graph, &embedder,
                              threads > 1 ? &pool : nullptr);
  pg::GraphBatch batch = pg::FullBatch(dataset.graph);
  for (auto _ : state) {
    auto nodes = vectorizer.NodeFeatures(batch);
    auto edges = vectorizer.EdgeFeatures(batch);
    benchmark::DoNotOptimize(nodes);
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(
      state.iterations() *
      (batch.node_ids.size() + batch.edge_ids.size()));
}
BENCHMARK(BM_VectorizeThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_ElshClusterThreads(benchmark::State& state) {
  const size_t num = 32768, dim = 64;
  auto data = RandomMatrix(num, dim, 9);
  lsh::EuclideanLshParams params;
  params.num_tables = 20;
  lsh::EuclideanLsh hasher(dim, params);
  size_t threads = SweepThreads(state);
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    auto clusters =
        hasher.Cluster(data, num, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(state.iterations() * num);
}
BENCHMARK(BM_ElshClusterThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_Word2VecTrainByThreads(benchmark::State& state) {
  auto dataset = datasets::Generate(datasets::LdbcSpec(), 1.0, 4);
  embed::LabelCorpus corpus = embed::BuildLabelCorpus(dataset.graph);
  size_t threads = SweepThreads(state);
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    embed::Word2VecOptions options;
    embed::Word2Vec model(&dataset.graph.vocab(), options);
    model.Train(corpus, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_Word2VecTrainByThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_IngestPipelineByThreads(benchmark::State& state) {
  // Multi-batch incremental ingest through the pipelined executor:
  // Arg0 = thread count (0 = hardware), Arg1 = pipeline depth. Depth > 1
  // overlaps batch i+1's preprocess with batch i's cluster/extract.
  auto dataset = datasets::Generate(datasets::LdbcSpec(), 1.0, 4);
  auto batches = pg::SplitIntoBatches(dataset.graph, 8, 17);
  for (auto _ : state) {
    pg::PropertyGraph graph = dataset.graph;
    core::PgHiveOptions options;
    options.num_threads = static_cast<size_t>(state.range(0));
    options.pipeline_depth = static_cast<size_t>(state.range(1));
    core::PgHive hive(&graph, options);
    core::BatchPipeline pipeline(&hive);
    benchmark::DoNotOptimize(pipeline.Run(batches));
    benchmark::DoNotOptimize(hive.Finish());
  }
  state.SetItemsProcessed(state.iterations() *
                          (dataset.graph.num_nodes() +
                           dataset.graph.num_edges()));
}
BENCHMARK(BM_IngestPipelineByThreads)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 3})
    ->Args({0, 3});

void BM_SignatureGroupByThreads(benchmark::State& state) {
  // Heavily duplicated signatures (~64 items per distinct row) — the
  // realistic load for the grouping stage, which is map-bound, not
  // hash-bound.
  const size_t num = 262144, t = 20, distinct = 4096;
  util::Rng rng(13);
  std::vector<uint64_t> rows(distinct * t);
  for (auto& x : rows) x = rng.NextU64();
  std::vector<uint64_t> sigs(num * t);
  for (size_t i = 0; i < num; ++i) {
    const uint64_t* row = &rows[rng.NextBounded(distinct) * t];
    std::copy(row, row + t, &sigs[i * t]);
  }
  size_t threads = SweepThreads(state);
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    auto clusters = lsh::ClusterBySignature(sigs, num, t,
                                            threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(state.iterations() * num);
}
BENCHMARK(BM_SignatureGroupByThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

// ---- Speedup sweep mode (perf-tracking JSON artifact) -------------------

struct StageTimes {
  const char* stage;
  std::vector<size_t> threads;
  std::vector<double> ms;
  /// Elements one run of this stage processes; elements/sec = this / (ms/1e3).
  size_t elements = 0;
};

double MinMillis(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

double MinMillisOf3(const std::function<void()>& fn) {
  return MinMillis(3, fn);
}

double ElementsPerSec(size_t elements, double ms) {
  return static_cast<double>(elements) * 1000.0 / std::max(1e-9, ms);
}

/// Writes stages in the sweep JSON format bench_diff's ParseBenchJson reads
/// (entry names "<stage>/threads=<n>"). Shared by the thread sweep and the
/// row-vs-columnar artifacts so both gate through the same parser.
int WriteStagesJson(const std::string& json_path, const char* benchmark_name,
                    double scale, size_t nodes, size_t edges,
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
               benchmark_name, scale, nodes, edges,
               util::ThreadPool::ResolveThreads(0));
  for (size_t s = 0; s < num_stages; ++s) {
    const StageTimes& st = *stages[s];
    std::fprintf(out, "%s\n    {\"stage\": \"%s\", \"results\": [",
                 s ? "," : "", st.stage);
    for (size_t i = 0; i < st.threads.size(); ++i) {
      std::fprintf(out,
                   "%s\n      {\"threads\": %zu, \"ms\": %.3f, "
                   "\"speedup\": %.3f, \"eps\": %.1f}",
                   i ? "," : "", st.threads[i], st.ms[i],
                   st.ms[0] / std::max(1e-9, st.ms[i]),
                   ElementsPerSec(st.elements, st.ms[i]));
    }
    std::fprintf(out, "\n    ]}");
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

int RunSpeedupSweep(const std::string& json_path, double scale) {
  datasets::Dataset dataset = datasets::Generate(datasets::LdbcSpec(), scale, 7);
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
  // own fixed-size graph (~30k elements) regardless of --speedup_scale.
  datasets::Dataset ingest_dataset =
      datasets::Generate(datasets::LdbcSpec(), 1.0, 7);
  std::vector<pg::GraphBatch> ingest_batches =
      pg::SplitIntoBatches(ingest_dataset.graph, 6, 17);

  StageTimes embed_stage{"embed", {}, {}, corpus.sentences.size()};
  StageTimes vectorize{"vectorize", {}, {}, elements};
  StageTimes cluster{"cluster", {}, {}, elements};
  StageTimes group{"group", {}, {}, warm_nodes.num + warm_edges.num};
  StageTimes ingest{"ingest", {}, {},
                    ingest_dataset.graph.num_nodes() +
                        ingest_dataset.graph.num_edges()};
  for (size_t threads : counts) {
    util::ThreadPool pool(threads);
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    embed_stage.threads.push_back(threads);
    embed_stage.ms.push_back(MinMillisOf3([&] {
      // A fresh model per rep: Train is incremental, and the sweep should
      // time the same cold-start training at every thread count.
      embed::Word2Vec model(&dataset.graph.vocab(), {});
      model.Train(corpus, p);
      benchmark::DoNotOptimize(model);
    }));
    core::Vectorizer vectorizer(&dataset.graph, &embedder, p);
    core::FeatureMatrix node_features, edge_features;
    vectorize.threads.push_back(threads);
    vectorize.ms.push_back(MinMillisOf3([&] {
      node_features = vectorizer.NodeFeatures(batch);
      edge_features = vectorizer.EdgeFeatures(batch);
    }));
    lsh::EuclideanLsh node_hasher(node_features.dim, lsh_params);
    lsh::EuclideanLsh edge_hasher(edge_features.dim, lsh_params);
    cluster.threads.push_back(threads);
    cluster.ms.push_back(MinMillisOf3([&] {
      auto nc = node_hasher.Cluster(node_features.data, node_features.num, p);
      auto ec = edge_hasher.Cluster(edge_features.data, edge_features.num, p);
      benchmark::DoNotOptimize(nc);
      benchmark::DoNotOptimize(ec);
    }));
    // Grouping in isolation, on the precomputed signatures (the cluster
    // stage above times hashing + grouping together).
    group.threads.push_back(threads);
    group.ms.push_back(MinMillisOf3([&] {
      auto ng = lsh::ClusterBySignature(node_sigs, warm_nodes.num,
                                        lsh_params.num_tables, p);
      auto eg = lsh::ClusterBySignature(edge_sigs, warm_edges.num,
                                        lsh_params.num_tables, p);
      benchmark::DoNotOptimize(ng);
      benchmark::DoNotOptimize(eg);
    }));
    // End-to-end pipelined multi-batch ingest at depth 3: the speedup over
    // 1 thread combines in-stage parallelism with cross-batch overlap (at
    // 1 thread BatchPipeline degenerates to the sequential loop — the
    // baseline the paper's Fig. 7 story starts from). A fresh graph copy
    // per rep resets the vocabulary and Word2Vec state so every thread
    // count ingests the identical stream.
    ingest.threads.push_back(threads);
    ingest.ms.push_back(MinMillisOf3([&] {
      pg::PropertyGraph ingest_graph = ingest_dataset.graph;
      core::PgHiveOptions ingest_options;
      ingest_options.num_threads = threads;
      ingest_options.pipeline_depth = 3;
      core::PgHive hive(&ingest_graph, ingest_options);
      core::BatchPipeline ingest_pipeline(&hive);
      benchmark::DoNotOptimize(ingest_pipeline.Run(ingest_batches));
      benchmark::DoNotOptimize(hive.Finish());
    }));
  }

  const StageTimes* stages[] = {&embed_stage, &vectorize, &cluster, &group,
                                &ingest};
  const size_t num_stages = sizeof(stages) / sizeof(stages[0]);
  if (WriteStagesJson(json_path, "pghive_parallel_sweep", scale,
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

// ---- Row-vs-columnar data-plane bench (single-threaded throughput) ------

int RunRowColBench(const std::string& prefix, double scale) {
  // The row and columnar sides race each other within one run, so the
  // eps gate sees their raw delta directly; min-of-7 (vs the sweep's
  // min-of-3) squeezes timer noise on the sub-10ms stages.
  constexpr int kRowColReps = 7;
  datasets::Dataset dataset = datasets::Generate(datasets::LdbcSpec(), scale, 7);
  pg::GraphBatch batch = pg::FullBatch(dataset.graph);
  const size_t elements = batch.node_ids.size() + batch.edge_ids.size();
  std::fprintf(stderr, "rowcol bench: %zu nodes + %zu edges = %zu elements\n",
               batch.node_ids.size(), batch.edge_ids.size(), elements);

  embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 11);
  // Intern every token once so both planes measure steady-state throughput,
  // not first-touch vocabulary growth.
  {
    core::Vectorizer warmup(&dataset.graph, &embedder, nullptr);
    auto nf = warmup.NodeFeatures(batch);
    auto ef = warmup.EdgeFeatures(batch);
    benchmark::DoNotOptimize(nf);
    benchmark::DoNotOptimize(ef);
  }
  lsh::EuclideanLshParams lsh_params;
  lsh_params.num_tables = 20;
  lsh::MinHashParams minhash_params;

  for (int plane = 0; plane < 2; ++plane) {
    const bool columnar = plane == 1;
    StageTimes vectorize{"vectorize", {1}, {}, elements};
    StageTimes hash{"hash", {1}, {}, elements};
    StageTimes group{"group", {1}, {}, elements};
    StageTimes embed_stage{"embed", {1}, {}, 0};

    // Vectorize from a fresh instance per rep, so the columnar side is
    // charged for building its column stores, not just sweeping them.
    vectorize.ms.push_back(MinMillis(kRowColReps, [&] {
      core::Vectorizer v(&dataset.graph, &embedder, nullptr, columnar);
      auto nf = v.NodeFeatures(batch);
      auto ef = v.EdgeFeatures(batch);
      benchmark::DoNotOptimize(nf);
      benchmark::DoNotOptimize(ef);
    }));

    // The remaining stages run on fixed precomputed inputs of their plane.
    core::Vectorizer vectorizer(&dataset.graph, &embedder, nullptr, columnar);
    core::FeatureMatrix node_features = vectorizer.NodeFeatures(batch);
    core::FeatureMatrix edge_features = vectorizer.EdgeFeatures(batch);
    lsh::EuclideanLsh node_hasher(node_features.dim, lsh_params);
    lsh::EuclideanLsh edge_hasher(edge_features.dim, lsh_params);
    lsh::MinHashLsh minhasher(minhash_params);
    std::vector<std::vector<uint64_t>> node_sets, edge_sets;
    core::ElementSetCsr node_csr, edge_csr;
    if (columnar) {
      node_csr = vectorizer.NodeSetSpans(batch);
      edge_csr = vectorizer.EdgeSetSpans(batch);
    } else {
      node_sets = vectorizer.NodeSets(batch);
      edge_sets = vectorizer.EdgeSets(batch);
    }
    std::vector<uint64_t> node_sigs, edge_sigs;
    hash.ms.push_back(MinMillis(kRowColReps, [&] {
      node_sigs = node_hasher.HashAll(node_features.data, node_features.num);
      edge_sigs = edge_hasher.HashAll(edge_features.data, edge_features.num);
      std::vector<uint64_t> node_min, edge_min;
      if (columnar) {
        node_min = minhasher.SignatureAll(lsh::SetSpans{
            node_csr.elements.data(), node_csr.offsets.data(),
            node_csr.num()});
        edge_min = minhasher.SignatureAll(lsh::SetSpans{
            edge_csr.elements.data(), edge_csr.offsets.data(),
            edge_csr.num()});
      } else {
        node_min = minhasher.SignatureAll(node_sets);
        edge_min = minhasher.SignatureAll(edge_sets);
      }
      benchmark::DoNotOptimize(node_min);
      benchmark::DoNotOptimize(edge_min);
    }));
    group.ms.push_back(MinMillis(kRowColReps, [&] {
      auto ng = lsh::ClusterBySignature(node_sigs, node_features.num,
                                        lsh_params.num_tables, nullptr);
      auto eg = lsh::ClusterBySignature(edge_sigs, edge_features.num,
                                        lsh_params.num_tables, nullptr);
      benchmark::DoNotOptimize(ng);
      benchmark::DoNotOptimize(eg);
    }));
    // Corpus construction (the Word2Vec input build; training itself is
    // plane-independent). The columnar overload reads prebuilt token
    // columns; the row overload walks rows. The vocabulary is fully warm,
    // so the row side mutates nothing either.
    embed_stage.ms.push_back(MinMillis(kRowColReps, [&] {
      embed::LabelCorpus corpus =
          columnar ? embed::BuildLabelCorpus(dataset.graph,
                                             vectorizer.EdgeColumns(batch),
                                             vectorizer.NodeColumns(batch))
                   : embed::BuildLabelCorpus(dataset.graph, batch);
      embed_stage.elements = corpus.sentences.size();
      benchmark::DoNotOptimize(corpus);
    }));

    const StageTimes* stages[] = {&vectorize, &hash, &group, &embed_stage};
    const size_t num_stages = sizeof(stages) / sizeof(stages[0]);
    const std::string path =
        prefix + (columnar ? ".col.json" : ".row.json");
    if (WriteStagesJson(path, columnar ? "pghive_rowcol_columnar"
                                       : "pghive_rowcol_row",
                        scale, batch.node_ids.size(), batch.edge_ids.size(),
                        stages, num_stages) != 0) {
      return 1;
    }
    for (size_t s = 0; s < num_stages; ++s) {
      const StageTimes& st = *stages[s];
      std::fprintf(stderr, "  %-10s %-8s  %8.2f ms  %12.0f elements/sec\n",
                   st.stage, columnar ? "columnar" : "row", st.ms[0],
                   ElementsPerSec(st.elements, st.ms[0]));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, rowcol_prefix;
  double scale = 8.0;  // >= 100k elements on the LDBC-like zoo graph.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--speedup_json=", 15) == 0) {
      json_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--rowcol_json=", 14) == 0) {
      rowcol_prefix = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--speedup_scale=", 16) == 0) {
      scale = std::atof(argv[i] + 16);
    }
  }
  if (!json_path.empty()) return RunSpeedupSweep(json_path, scale);
  if (!rowcol_prefix.empty()) return RunRowColBench(rowcol_prefix, scale);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
