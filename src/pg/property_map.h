#ifndef PGHIVE_PG_PROPERTY_MAP_H_
#define PGHIVE_PG_PROPERTY_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "pg/value.h"

namespace pghive::pg {

/// Interned property-key id (see pg::Vocabulary).
using KeyId = uint32_t;

/// A compact key->value map stored as a flat vector sorted by key id.
/// Property counts per element are small (tens), so binary search over a
/// contiguous array beats a hash map in both space and time.
class PropertyMap {
 public:
  PropertyMap() = default;

  /// Inserts or overwrites. A key above every present key appends without
  /// a search, so setting keys in ascending order costs no lookups.
  void Set(KeyId key, Value value);

  /// Makes room for `n` entries in all.
  void Reserve(size_t n) { entries_.reserve(n); }

  /// Returns the value for `key`, or nullptr if absent.
  const Value* Get(KeyId key) const;

  bool Has(KeyId key) const { return Get(key) != nullptr; }

  /// Removes `key` if present; returns whether it was present.
  bool Erase(KeyId key);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries sorted by key id.
  const std::vector<std::pair<KeyId, Value>>& entries() const {
    return entries_;
  }

  /// The sorted key-id set of this map (Def. 3.5's K component).
  std::vector<KeyId> Keys() const;

 private:
  std::vector<std::pair<KeyId, Value>> entries_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_PROPERTY_MAP_H_
