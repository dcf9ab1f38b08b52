#include "embed/hash_embedder.h"

#include <cmath>

#include "util/rng.h"

namespace pghive::embed {

float CosineSimilarity(const std::vector<float>& a,
                       const std::vector<float>& b) {
  if (a.size() != b.size()) return 0.0f;
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0 || nb <= 0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

uint64_t LabelEmbedder::TokenSeed(std::string_view name, uint64_t seed) {
  uint64_t h = seed;
  for (char c : name) {
    h = util::HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  return h;
}

double LabelEmbedder::TokenGaussian(std::string_view name, uint64_t seed,
                                    size_t dim, float* out) {
  util::Rng rng(TokenSeed(name, seed));
  double norm2 = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    out[i] = static_cast<float>(rng.NextGaussian());
    norm2 += static_cast<double>(out[i]) * out[i];
  }
  return norm2;
}

HashEmbedder::HashEmbedder(const pg::Vocabulary* vocab, size_t dim,
                           uint64_t seed)
    : vocab_(vocab), dim_(dim), seed_(seed) {}

void HashEmbedder::Embed(pg::LabelSetToken token, float* out) const {
  if (token == pg::kNoToken) {
    for (size_t i = 0; i < dim_; ++i) out[i] = 0.0f;
    return;
  }
  const double norm2 =
      TokenGaussian(vocab_->TokenName(token), seed_, dim_, out);
  // Normalize to a unit vector so the embedding block has a consistent
  // scale relative to the binary property block.
  double inv = norm2 > 0 ? 1.0 / std::sqrt(norm2) : 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    out[i] = static_cast<float>(out[i] * inv);
  }
}

}  // namespace pghive::embed
