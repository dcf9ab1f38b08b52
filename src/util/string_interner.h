#ifndef PGHIVE_UTIL_STRING_INTERNER_H_
#define PGHIVE_UTIL_STRING_INTERNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pghive::util {

/// Maps strings to dense uint32 ids and back. Used to intern labels and
/// property keys so the hot pipeline paths work on integers.
///
/// Ids are assigned in first-seen order starting at 0 and are stable for the
/// lifetime of the interner.
class StringInterner {
 public:
  static constexpr uint32_t kInvalidId = UINT32_MAX;

  StringInterner() = default;

  /// Returns the id for `s`, interning it if unseen.
  uint32_t Intern(std::string_view s);

  /// Returns the id for `s`, or kInvalidId if it was never interned.
  uint32_t Find(std::string_view s) const;

  /// Returns the string for a valid id. Aborts on out-of-range ids.
  const std::string& Get(uint32_t id) const;

  bool Contains(std::string_view s) const { return Find(s) != kInvalidId; }
  size_t size() const { return strings_.size(); }
  bool empty() const { return strings_.empty(); }

  /// All interned strings in id order.
  const std::vector<std::string>& strings() const { return strings_; }

  /// Replaces the contents with `strings` (ids assigned by position),
  /// discarding whatever was interned before. Returns false — leaving the
  /// interner unchanged — if `strings` contains a duplicate, which can never
  /// come from a faithful snapshot. Snapshot restore uses this to put the id
  /// assignment back exactly as it was at save time.
  bool Rebuild(std::vector<std::string> strings);

 private:
  // Transparent hashing lets Intern and Find look a string_view up without
  // building a std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Index =
      std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>>;

  Index index_;
  std::vector<std::string> strings_;
};

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_STRING_INTERNER_H_
