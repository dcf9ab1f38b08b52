#include "pg/vocabulary.h"

#include <algorithm>
#include <array>

#include "util/binio.h"

namespace pghive::pg {

LabelSetToken Vocabulary::TokenForLabelSet(const std::vector<LabelId>& labels) {
  if (labels.empty()) return kNoToken;
  // A one-label set's token is the label's name: look it up as it is.
  if (labels.size() == 1) return tokens_.Intern(labels_.Get(labels[0]));
  std::vector<std::string_view> names;
  names.reserve(labels.size());
  for (LabelId id : labels) names.push_back(labels_.Get(id));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string joined;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) joined.push_back('|');
    joined.append(names[i]);
  }
  return tokens_.Intern(joined);
}

void Vocabulary::AppendStateTo(std::string* out) const {
  for (const util::StringInterner* interner : {&labels_, &keys_, &tokens_}) {
    util::PutU64(out, interner->size());
    for (const std::string& s : interner->strings()) util::PutString(out, s);
  }
}

util::Status Vocabulary::RestoreState(std::string_view bytes) {
  util::ByteReader in(bytes);
  std::array<std::vector<std::string>, 3> lists;
  for (auto& list : lists) {
    uint64_t n = in.ReadU64();
    if (!in.SaneCount(n, 1)) break;
    list.reserve(n);
    for (uint64_t i = 0; i < n && in.ok(); ++i) {
      std::string s;
      in.ReadString(&s);
      list.push_back(std::move(s));
    }
  }
  if (!in.ok() || !in.AtEnd()) {
    return util::Status::ParseError(
        "vocabulary snapshot: truncated or corrupt");
  }
  const std::array<const util::StringInterner*, 3> current = {
      &labels_, &keys_, &tokens_};
  const std::array<const char*, 3> names = {"label", "key", "token"};
  for (size_t k = 0; k < 3; ++k) {
    const std::vector<std::string>& have = current[k]->strings();
    if (have.size() > lists[k].size()) {
      return util::Status::FailedPrecondition(
          "vocabulary snapshot: " + std::string(names[k]) +
          " universe is smaller than the live one (snapshot from a "
          "different graph?)");
    }
    for (size_t i = 0; i < have.size(); ++i) {
      if (have[i] != lists[k][i]) {
        return util::Status::FailedPrecondition(
            "vocabulary snapshot: " + std::string(names[k]) + " id " +
            std::to_string(i) + " is '" + have[i] + "' here but '" +
            lists[k][i] + "' in the snapshot (different graph?)");
      }
    }
    std::vector<std::string> sorted = lists[k];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return util::Status::ParseError("vocabulary snapshot: duplicate " +
                                      std::string(names[k]));
    }
  }
  // Every check passed, so the Rebuilds below cannot fail and either all
  // three interners swap or none does.
  util::StringInterner* mut[3] = {&labels_, &keys_, &tokens_};
  for (size_t k = 0; k < 3; ++k) mut[k]->Rebuild(std::move(lists[k]));
  return util::Status::Ok();
}

}  // namespace pghive::pg
