#ifndef PGHIVE_PG_VOCABULARY_H_
#define PGHIVE_PG_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/string_interner.h"

namespace pghive::pg {

/// Interned label id.
using LabelId = uint32_t;

/// Interned property-key id (shared with PropertyMap).
using PropKeyId = uint32_t;

/// A token id for a *set* of labels (the sorted-concatenation token of §4.1).
using LabelSetToken = uint32_t;

constexpr uint32_t kNoToken = UINT32_MAX;

/// Interns the three string universes of a property graph:
///   - labels (L in Def. 3.1),
///   - property keys (K),
///   - label-set tokens: the paper sorts multi-label sets alphabetically and
///     concatenates them into one token so that {Student,Person} embeds as a
///     single word ("Person|Student").
///
/// The vocabulary is shared between the graph, the vectorizer, and the
/// embedder so that binary property vectors and label embeddings agree on
/// dimensions across batches (a requirement for incremental discovery).
class Vocabulary {
 public:
  Vocabulary() = default;

  LabelId InternLabel(std::string_view label) { return labels_.Intern(label); }
  PropKeyId InternKey(std::string_view key) { return keys_.Intern(key); }

  const std::string& LabelName(LabelId id) const { return labels_.Get(id); }
  const std::string& KeyName(PropKeyId id) const { return keys_.Get(id); }

  /// Returns StringInterner::kInvalidId when absent.
  LabelId FindLabel(std::string_view label) const {
    return labels_.Find(label);
  }
  PropKeyId FindKey(std::string_view key) const { return keys_.Find(key); }

  size_t num_labels() const { return labels_.size(); }
  size_t num_keys() const { return keys_.size(); }

  /// Canonical token for a label set: labels sorted by *name* and joined
  /// with '|'. An empty set returns kNoToken. The same set always maps to
  /// the same token regardless of input order.
  LabelSetToken TokenForLabelSet(const std::vector<LabelId>& labels);

  /// The token string ("Person|Student"). Valid token ids only.
  const std::string& TokenName(LabelSetToken token) const {
    return tokens_.Get(token);
  }

  size_t num_tokens() const { return tokens_.size(); }

  /// Appends all three interners (labels, keys, tokens) in id order — the
  /// vocabulary section of a PgHive state snapshot (util/binio framing).
  void AppendStateTo(std::string* out) const;

  /// Restores the interners from AppendStateTo bytes. Succeeds only when the
  /// current contents are position-consistent with the snapshot: every
  /// string interned so far must sit at the same id in the snapshot. That
  /// holds for an empty vocabulary (a pghived session restored at restart)
  /// and for one rebuilt by reloading the graph file the snapshotted run had
  /// loaded (the CLI --resume-from path); anything else means the snapshot
  /// belongs to a different graph and fails with FailedPrecondition, leaving
  /// the vocabulary untouched. Corrupt bytes fail with ParseError.
  util::Status RestoreState(std::string_view bytes);

 private:
  util::StringInterner labels_;
  util::StringInterner keys_;
  util::StringInterner tokens_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_VOCABULARY_H_
