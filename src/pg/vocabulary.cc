#include "pg/vocabulary.h"

#include <algorithm>
#include <array>
#include <functional>

#include "util/binio.h"
#include "util/rng.h"

namespace pghive::pg {

namespace {

// Appends `name` with '\\' and '|' escaped by a backslash, so a '|' in a
// token string only ever separates labels.
void AppendEscapedLabel(std::string* out, std::string_view name) {
  for (const char c : name) {
    if (c == '\\' || c == '|') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

size_t Vocabulary::IdsHash::operator()(const std::vector<LabelId>& ids) const {
  uint64_t h = ids.size();
  for (const LabelId id : ids) h = util::HashCombine(h, id);
  return static_cast<size_t>(h);
}

LabelSetToken Vocabulary::TokenForLabelSet(const std::vector<LabelId>& labels) {
  if (labels.empty()) return kNoToken;
  // Graph elements hold their labels sorted and deduplicated, so the usual
  // call looks its ids up as they are.
  if (std::adjacent_find(labels.begin(), labels.end(),
                         std::greater_equal<>()) == labels.end()) {
    return TokenForSortedSet(labels);
  }
  std::vector<LabelId> ids = labels;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return TokenForSortedSet(ids);
}

LabelSetToken Vocabulary::TokenForSortedSet(const std::vector<LabelId>& ids) {
  if (ids.size() == 1) {
    if (single_.size() <= ids[0]) {
      PGHIVE_CHECK(ids[0] < labels_.size());
      single_.resize(labels_.size(), kNoToken);
    }
    LabelSetToken& token = single_[ids[0]];
    if (token == kNoToken) {
      std::string name;
      AppendEscapedLabel(&name, labels_.Get(ids[0]));
      token = tokens_.Intern(name);
    }
    return token;
  }
  if (const auto it = multi_.find(ids); it != multi_.end()) return it->second;
  std::vector<std::string_view> names;
  names.reserve(ids.size());
  for (const LabelId id : ids) names.push_back(labels_.Get(id));
  std::sort(names.begin(), names.end());
  std::string joined;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) joined.push_back('|');
    AppendEscapedLabel(&joined, names[i]);
  }
  const LabelSetToken token = tokens_.Intern(joined);
  multi_.emplace(ids, token);
  return token;
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
  single_.clear();
  multi_.clear();
  return util::Status::Ok();
}

}  // namespace pghive::pg
