#include "pg/vocabulary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pghive::pg {
namespace {

TEST(VocabularyTest, InternsLabelsAndKeysSeparately) {
  Vocabulary vocab;
  LabelId l = vocab.InternLabel("name");
  PropKeyId k = vocab.InternKey("name");
  // Separate universes: both get id 0.
  EXPECT_EQ(l, 0u);
  EXPECT_EQ(k, 0u);
  EXPECT_EQ(vocab.LabelName(l), "name");
  EXPECT_EQ(vocab.KeyName(k), "name");
}

TEST(VocabularyTest, TokenForEmptySetIsNoToken) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.TokenForLabelSet({}), kNoToken);
  EXPECT_EQ(vocab.num_tokens(), 0u);
}

TEST(VocabularyTest, TokenIsOrderIndependent) {
  Vocabulary vocab;
  LabelId person = vocab.InternLabel("Person");
  LabelId student = vocab.InternLabel("Student");
  LabelSetToken t1 = vocab.TokenForLabelSet({person, student});
  LabelSetToken t2 = vocab.TokenForLabelSet({student, person});
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(vocab.TokenName(t1), "Person|Student");
}

TEST(VocabularyTest, TokenSortsAlphabeticallyByName) {
  Vocabulary vocab;
  // Intern in reverse-alphabetical id order to prove name sorting.
  LabelId z = vocab.InternLabel("Zebra");
  LabelId a = vocab.InternLabel("Apple");
  LabelSetToken t = vocab.TokenForLabelSet({z, a});
  EXPECT_EQ(vocab.TokenName(t), "Apple|Zebra");
}

TEST(VocabularyTest, DuplicateLabelsCollapseInToken) {
  Vocabulary vocab;
  LabelId p = vocab.InternLabel("Person");
  LabelSetToken t1 = vocab.TokenForLabelSet({p, p});
  LabelSetToken t2 = vocab.TokenForLabelSet({p});
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(vocab.TokenName(t1), "Person");
}

TEST(VocabularyTest, DistinctSetsGetDistinctTokens) {
  Vocabulary vocab;
  LabelId p = vocab.InternLabel("Person");
  LabelId s = vocab.InternLabel("Student");
  LabelId a = vocab.InternLabel("Athlete");
  EXPECT_NE(vocab.TokenForLabelSet({p, s}), vocab.TokenForLabelSet({p, a}));
  EXPECT_NE(vocab.TokenForLabelSet({p}), vocab.TokenForLabelSet({p, s}));
}

TEST(VocabularyTest, PipeInALabelNameDoesNotSpellALabelSet) {
  Vocabulary vocab;
  LabelId a = vocab.InternLabel("A");
  LabelId b = vocab.InternLabel("B");
  LabelId a_pipe_b = vocab.InternLabel("A|B");
  LabelId a_slash = vocab.InternLabel("A\\");
  const LabelSetToken set = vocab.TokenForLabelSet({a, b});
  const LabelSetToken one = vocab.TokenForLabelSet({a_pipe_b});
  EXPECT_NE(set, one);
  EXPECT_EQ(vocab.TokenName(set), "A|B");
  EXPECT_EQ(vocab.TokenName(one), "A\\|B");
  // {"A\", "B"} would otherwise read as "A\|B", the escaped one-label name.
  const LabelSetToken slash_set = vocab.TokenForLabelSet({a_slash, b});
  EXPECT_EQ(vocab.TokenName(slash_set), "A\\\\|B");
  EXPECT_NE(slash_set, one);
  EXPECT_EQ(vocab.num_tokens(), 3u);
}

// The token naming rule, from label names alone: sort, dedupe, escape '\'
// and '|', join with '|'.
std::string ExpectedToken(const Vocabulary& vocab,
                          const std::vector<LabelId>& labels) {
  std::vector<std::string> names;
  for (LabelId l : labels) names.push_back(vocab.LabelName(l));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string token;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) token += '|';
    for (char c : names[i]) {
      if (c == '\\' || c == '|') token += '\\';
      token += c;
    }
  }
  return token;
}

// Random 1-4 label lists, unsorted and with duplicates, over labels
// interned in non-alphabetical order whose names hold '|' and '\'.
std::vector<std::vector<LabelId>> RandomLabelLists(Vocabulary* vocab,
                                                   uint64_t seed) {
  const std::vector<std::string> names = {
      "Zeta", "b", "A|B", "A", "B", "\\", "|", "A\\|B", "Person", "B|A",
      "a\\", "M"};
  std::vector<LabelId> ids;
  for (const std::string& name : names) ids.push_back(vocab->InternLabel(name));
  util::Rng rng(seed);
  std::vector<std::vector<LabelId>> lists;
  for (int i = 0; i < 400; ++i) {
    std::vector<LabelId> list(1 + rng.NextBounded(4));
    for (LabelId& l : list) l = ids[rng.NextBounded(ids.size())];
    lists.push_back(std::move(list));
  }
  return lists;
}

TEST(VocabularyTest, TokenIndexFollowsTheNamingRule) {
  Vocabulary vocab;
  const auto lists = RandomLabelLists(&vocab, 17);
  // Token ids must follow the first occurrence of each expected string.
  std::map<std::string, LabelSetToken> first_seen;
  for (const std::vector<LabelId>& list : lists) {
    const std::string want = ExpectedToken(vocab, list);
    const LabelSetToken first = first_seen.try_emplace(
        want, static_cast<LabelSetToken>(first_seen.size())).first->second;
    const LabelSetToken token = vocab.TokenForLabelSet(list);
    ASSERT_EQ(vocab.TokenName(token), want);
    ASSERT_EQ(token, first) << want;
    // A second lookup answers from the index with the same id.
    std::vector<LabelId> reversed(list.rbegin(), list.rend());
    ASSERT_EQ(vocab.TokenForLabelSet(reversed), token) << want;
  }
  EXPECT_EQ(vocab.num_tokens(), first_seen.size());
}

TEST(VocabularyTest, CopiedVocabularyInternsIndependently) {
  Vocabulary original;
  const auto lists = RandomLabelLists(&original, 23);
  for (size_t i = 0; i < lists.size() / 2; ++i) {
    original.TokenForLabelSet(lists[i]);
  }
  const size_t before = original.num_tokens();
  Vocabulary copy = original;
  // The copy sees the rest in reverse, the original in order: each assigns
  // new ids in its own first-occurrence order.
  for (size_t i = lists.size(); i-- > lists.size() / 2;) {
    const LabelSetToken token = copy.TokenForLabelSet(lists[i]);
    ASSERT_EQ(copy.TokenName(token), ExpectedToken(copy, lists[i]));
  }
  EXPECT_EQ(original.num_tokens(), before);
  for (size_t i = lists.size() / 2; i < lists.size(); ++i) {
    const LabelSetToken token = original.TokenForLabelSet(lists[i]);
    ASSERT_EQ(original.TokenName(token), ExpectedToken(original, lists[i]));
  }
  ASSERT_EQ(copy.num_tokens(), original.num_tokens());
  for (size_t t = 0; t < before; ++t) {
    EXPECT_EQ(copy.TokenName(static_cast<LabelSetToken>(t)),
              original.TokenName(static_cast<LabelSetToken>(t)));
  }
  bool any_differs = false;
  for (size_t t = before; t < original.num_tokens(); ++t) {
    any_differs |= copy.TokenName(static_cast<LabelSetToken>(t)) !=
                   original.TokenName(static_cast<LabelSetToken>(t));
  }
  EXPECT_TRUE(any_differs);
}

TEST(VocabularyTest, LookupsAfterRestoreReturnTheSnapshotIds) {
  Vocabulary saved;
  const auto lists = RandomLabelLists(&saved, 29);
  std::vector<LabelSetToken> want;
  for (const std::vector<LabelId>& list : lists) {
    want.push_back(saved.TokenForLabelSet(list));
  }
  std::string bytes;
  saved.AppendStateTo(&bytes);
  // Restored into a fresh vocabulary, and into one whose index already
  // answered a prefix of the lookups.
  Vocabulary fresh;
  Vocabulary warm;
  RandomLabelLists(&warm, 29);  // The same labels at the same ids.
  for (size_t i = 0; i < 10; ++i) warm.TokenForLabelSet(lists[i]);
  for (Vocabulary* vocab : {&fresh, &warm}) {
    ASSERT_TRUE(vocab->RestoreState(bytes).ok());
    for (size_t i = lists.size(); i-- > 0;) {
      ASSERT_EQ(vocab->TokenForLabelSet(lists[i]), want[i]) << i;
    }
    EXPECT_EQ(vocab->num_tokens(), saved.num_tokens());
  }
}

TEST(VocabularyTest, FindMissingReturnsInvalid) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.FindLabel("nope"), util::StringInterner::kInvalidId);
  EXPECT_EQ(vocab.FindKey("nope"), util::StringInterner::kInvalidId);
}

}  // namespace
}  // namespace pghive::pg
