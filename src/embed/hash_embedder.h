#ifndef PGHIVE_EMBED_HASH_EMBEDDER_H_
#define PGHIVE_EMBED_HASH_EMBEDDER_H_

#include <string>

#include "embed/embedder.h"

namespace pghive::embed {

/// Deterministic, training-free embedder: each token name hashes to a seeded
/// pseudo-random unit vector. Identical label sets always get identical
/// vectors and distinct sets get (near-)orthogonal vectors — the minimal
/// property PG-HIVE needs from its label embedding ("prevents semantically
/// different nodes from being merged due to their same structure", §4.1).
///
/// PgHive uses it only when PgHiveOptions::embedder is EmbedderKind::kHash
/// (the default is Word2Vec); tests and benches also use it directly as a
/// fast embedder that needs no training.
class HashEmbedder : public LabelEmbedder {
 public:
  HashEmbedder(const pg::Vocabulary* vocab, size_t dim, uint64_t seed);

  size_t dim() const override { return dim_; }
  void Embed(pg::LabelSetToken token, float* out) const override;

 private:
  const pg::Vocabulary* vocab_;
  size_t dim_;
  uint64_t seed_;
};

}  // namespace pghive::embed

#endif  // PGHIVE_EMBED_HASH_EMBEDDER_H_
