#ifndef PGHIVE_EMBED_EMBEDDER_H_
#define PGHIVE_EMBED_EMBEDDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "pg/vocabulary.h"

namespace pghive::embed {

/// Produces the d-dimensional label embeddings of §4.1. Tokens are the
/// label-set tokens of pg::Vocabulary (one token per distinct sorted label
/// combination). A missing label embeds as the zero vector.
class LabelEmbedder {
 public:
  virtual ~LabelEmbedder() = default;

  /// Embedding dimension d.
  virtual size_t dim() const = 0;

  /// Writes the embedding of `token` into out[0..dim). `token == kNoToken`
  /// (unlabeled element) writes zeros, per the paper.
  virtual void Embed(pg::LabelSetToken token, float* out) const = 0;

  /// Convenience: returns the embedding as a vector.
  std::vector<float> EmbedVec(pg::LabelSetToken token) const {
    std::vector<float> v(dim(), 0.0f);
    Embed(token, v.data());
    return v;
  }

 protected:
  /// An RNG seed derived from `seed` and every byte of a token's name.
  /// Hashing the name, not the id, keeps a token's draws stable across
  /// vocabularies that interned their tokens in different orders.
  static uint64_t TokenSeed(std::string_view name, uint64_t seed);

  /// Writes `dim` standard Gaussian draws seeded by TokenSeed(name, seed)
  /// to out[0..dim) and returns their squared L2 norm.
  static double TokenGaussian(std::string_view name, uint64_t seed,
                              size_t dim, float* out);
};

/// Cosine similarity between two equal-length vectors (0 if either is zero).
float CosineSimilarity(const std::vector<float>& a,
                       const std::vector<float>& b);

}  // namespace pghive::embed

#endif  // PGHIVE_EMBED_EMBEDDER_H_
