#include "embed/word2vec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/binio.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::embed {

namespace {

float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

/// One (center, context) skip-gram pair. Enumeration order is fixed by the
/// corpus, so a pair's global index is a stable identity the batching can
/// key on at every thread count.
struct TrainPair {
  uint32_t center;
  uint32_t context;
};

/// Walks the corpus in sentence order and collects every in-window pair,
/// stopping exactly at max_pairs_per_epoch. Every epoch trains on this same
/// list (only the negative-sample streams differ by epoch).
std::vector<TrainPair> EnumeratePairs(const LabelCorpus& corpus,
                                      const Word2VecOptions& options) {
  std::vector<TrainPair> pairs;
  for (size_t s = 0; s < corpus.num_sentences(); ++s) {
    const std::span<const pg::LabelSetToken> sentence = corpus.sentence(s);
    for (size_t i = 0; i < sentence.size(); ++i) {
      pg::LabelSetToken center = sentence[i];
      if (center == pg::kNoToken) continue;
      size_t lo = i >= options.window ? i - options.window : 0;
      size_t hi = std::min(sentence.size(), i + options.window + 1);
      for (size_t j = lo; j < hi; ++j) {
        if (j == i) continue;
        pg::LabelSetToken context = sentence[j];
        if (context == pg::kNoToken) continue;
        if (pairs.size() >= options.max_pairs_per_epoch) return pairs;
        pairs.push_back({center, context});
      }
    }
  }
  return pairs;
}

/// Sparse gradient of one minibatch, computed against the wave-start weight
/// snapshot. Scratch is owned per wave slot and reused across waves.
struct BatchGrad {
  /// Each pair's center row at compute time; the apply pass needs it after
  /// earlier batches may already have moved the live row.
  std::vector<float> center_snap;   // num_pairs x dim
  std::vector<float> center_delta;  // num_pairs x dim
  /// (output row, scaled error g) per positive/negative sample, appended in
  /// pair-then-sample order; counts[p] of them belong to pair p.
  std::vector<std::pair<uint32_t, float>> outputs;
  std::vector<uint32_t> counts;
  size_t num_pairs = 0;
};

/// Batches whose gradients are computed concurrently against one snapshot
/// before any update lands. Fixed (never derived from the pool size) so the
/// gradient staleness — and therefore the trained model — is identical at
/// every thread count.
constexpr size_t kBatchesPerWave = 16;

}  // namespace

Word2Vec::Word2Vec(const pg::Vocabulary* vocab, Word2VecOptions options)
    : vocab_(vocab), options_(options) {
  PGHIVE_CHECK(options_.dim > 0);
}

void Word2Vec::EnsureCapacity(size_t vocab_size) {
  size_t want = vocab_size * options_.dim;
  if (input_.size() >= want) return;
  size_t old_rows = input_.size() / options_.dim;
  input_.resize(want);
  output_.resize(want, 0.0f);
  // New rows: small random init derived from the token name so the starting
  // point is deterministic and stable across runs.
  for (size_t row = old_rows; row < vocab_size; ++row) {
    const std::string& name = vocab_->TokenName(static_cast<uint32_t>(row));
    uint64_t h = options_.seed;
    for (char c : name) {
      h = util::HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
    util::Rng rng(h);
    for (size_t d = 0; d < options_.dim; ++d) {
      input_[row * options_.dim + d] =
          static_cast<float>((rng.NextDouble() - 0.5) / options_.dim);
    }
  }
}

void Word2Vec::Train(const LabelCorpus& corpus, util::ThreadPool* pool) {
  EnsureCapacity(corpus.vocab_size);
  if (corpus.num_sentences() == 0 || corpus.vocab_size == 0) return;

  const size_t dim = options_.dim;
  // Negative sampling is uniform over tokens (a unigram table buys nothing
  // for label vocabularies, which are tiny compared to text vocabularies).
  const size_t vocab_size = corpus.vocab_size;
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);

  const std::vector<TrainPair> pairs = EnumeratePairs(corpus, options_);
  if (pairs.empty()) return;
  const size_t num_batches = (pairs.size() + batch_size - 1) / batch_size;

  std::vector<BatchGrad> wave(std::min(kBatchesPerWave, num_batches));
  for (BatchGrad& grad : wave) {
    grad.center_snap.resize(batch_size * dim);
    grad.center_delta.resize(batch_size * dim);
    grad.counts.resize(batch_size);
    grad.outputs.reserve(batch_size * (options_.negatives + 1));
  }

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    for (size_t wave_begin = 0; wave_begin < num_batches;
         wave_begin += kBatchesPerWave) {
      const size_t wave_end =
          std::min(num_batches, wave_begin + kBatchesPerWave);
      // Compute pass: nothing writes the weights until ParallelFor returns,
      // so every batch in the wave reads the same snapshot and its gradient
      // depends only on (epoch, batch index) — never on which worker ran it
      // or how the index range was chunked.
      util::ParallelFor(
          pool, wave_begin, wave_end, 1, [&](size_t b_lo, size_t b_hi) {
            for (size_t b = b_lo; b < b_hi; ++b) {
              BatchGrad& grad = wave[b - wave_begin];
              const size_t pair_begin = b * batch_size;
              const size_t pair_end =
                  std::min(pairs.size(), pair_begin + batch_size);
              grad.num_pairs = pair_end - pair_begin;
              grad.outputs.clear();
              std::fill_n(grad.center_delta.begin(), grad.num_pairs * dim,
                          0.0f);
              util::Rng rng(util::HashCombine(
                  util::HashCombine(options_.seed ^ 0x5bd1e995ULL, epoch),
                  b));
              for (size_t p = 0; p < grad.num_pairs; ++p) {
                const TrainPair& pair = pairs[pair_begin + p];
                const float* v_in = &input_[pair.center * dim];
                float* snap = &grad.center_snap[p * dim];
                std::copy(v_in, v_in + dim, snap);
                float* delta = &grad.center_delta[p * dim];
                uint32_t count = 0;
                // One positive plus `negatives` negative samples.
                for (size_t n = 0; n <= options_.negatives; ++n) {
                  uint32_t target;
                  float label;
                  if (n == 0) {
                    target = pair.context;
                    label = 1.0f;
                  } else {
                    target =
                        static_cast<uint32_t>(rng.NextBounded(vocab_size));
                    if (target == pair.context) continue;
                    label = 0.0f;
                  }
                  const float* v_out = &output_[target * dim];
                  float dot = 0.0f;
                  for (size_t d = 0; d < dim; ++d) dot += snap[d] * v_out[d];
                  float g = (label - Sigmoid(dot)) * options_.learning_rate;
                  for (size_t d = 0; d < dim; ++d) delta[d] += g * v_out[d];
                  grad.outputs.emplace_back(target, g);
                  ++count;
                }
                grad.counts[p] = count;
              }
            }
          });
      // Apply pass: the only weight writes, serialized on the calling
      // thread in batch-then-pair-then-sample order, so the float
      // accumulation order is the same at every pool size.
      for (size_t b = wave_begin; b < wave_end; ++b) {
        const BatchGrad& grad = wave[b - wave_begin];
        size_t off = 0;
        for (size_t p = 0; p < grad.num_pairs; ++p) {
          const float* snap = &grad.center_snap[p * dim];
          for (uint32_t k = 0; k < grad.counts[p]; ++k, ++off) {
            const auto& [target, g] = grad.outputs[off];
            float* v_out = &output_[target * dim];
            for (size_t d = 0; d < dim; ++d) v_out[d] += g * snap[d];
          }
          float* v_in = &input_[pairs[b * batch_size + p].center * dim];
          const float* delta = &grad.center_delta[p * dim];
          for (size_t d = 0; d < dim; ++d) v_in[d] += delta[d];
        }
      }
    }
  }
}

void Word2Vec::Embed(pg::LabelSetToken token, float* out) const {
  const size_t dim = options_.dim;
  if (token == pg::kNoToken ||
      static_cast<size_t>(token) * dim >= input_.size()) {
    for (size_t d = 0; d < dim; ++d) out[d] = 0.0f;
    return;
  }
  const float* row = &input_[token * dim];
  double norm2 = 0.0;
  for (size_t d = 0; d < dim; ++d) norm2 += static_cast<double>(row[d]) * row[d];
  double inv = norm2 > 1e-12 ? 1.0 / std::sqrt(norm2) : 0.0;
  for (size_t d = 0; d < dim; ++d) {
    out[d] = static_cast<float>(row[d] * inv);
  }
  if (options_.identity_weight > 0.0f) {
    // Deterministic unit vector derived from the token name.
    const std::string& name = vocab_->TokenName(token);
    uint64_t h = options_.seed ^ 0x1DE47171;
    for (char c : name) {
      h = util::HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
    util::Rng rng(h);
    std::vector<float> id(dim);
    double id_norm2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      id[d] = static_cast<float>(rng.NextGaussian());
      id_norm2 += static_cast<double>(id[d]) * id[d];
    }
    double id_inv = id_norm2 > 1e-12 ? 1.0 / std::sqrt(id_norm2) : 0.0;
    double out_norm2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      out[d] += static_cast<float>(options_.identity_weight * id[d] * id_inv);
      out_norm2 += static_cast<double>(out[d]) * out[d];
    }
    double out_inv = out_norm2 > 1e-12 ? 1.0 / std::sqrt(out_norm2) : 0.0;
    for (size_t d = 0; d < dim; ++d) {
      out[d] = static_cast<float>(out[d] * out_inv);
    }
  }
}

void Word2Vec::AppendStateTo(std::string* out) const {
  util::PutU64(out, options_.dim);
  util::PutF32Vector(out, input_);
  util::PutF32Vector(out, output_);
}

util::Status Word2Vec::RestoreState(std::string_view bytes) {
  util::ByteReader in(bytes);
  uint64_t dim = in.ReadU64();
  std::vector<float> input;
  std::vector<float> output;
  in.ReadF32Vector(&input);
  in.ReadF32Vector(&output);
  if (!in.ok() || !in.AtEnd()) {
    return util::Status::ParseError("word2vec snapshot: truncated or corrupt");
  }
  if (dim != options_.dim) {
    return util::Status::FailedPrecondition(
        "word2vec snapshot: dim " + std::to_string(dim) +
        " does not match the configured dim " +
        std::to_string(options_.dim));
  }
  if (input.size() != output.size() || input.size() % options_.dim != 0) {
    return util::Status::ParseError(
        "word2vec snapshot: weight matrices are inconsistent (" +
        std::to_string(input.size()) + " vs " +
        std::to_string(output.size()) + " floats)");
  }
  input_ = std::move(input);
  output_ = std::move(output);
  return util::Status::Ok();
}

float Word2Vec::Similarity(pg::LabelSetToken a, pg::LabelSetToken b) const {
  std::vector<float> va(options_.dim), vb(options_.dim);
  Embed(a, va.data());
  Embed(b, vb.data());
  return CosineSimilarity(va, vb);
}

}  // namespace pghive::embed
