#include "pg/property_map.h"

#include <algorithm>

namespace pghive::pg {

namespace {

auto LowerBound(std::vector<std::pair<KeyId, Value>>& entries, KeyId key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const std::pair<KeyId, Value>& e, KeyId k) { return e.first < k; });
}

}  // namespace

void PropertyMap::Set(KeyId key, Value value) {
  if (entries_.empty() || entries_.back().first < key) {
    entries_.emplace_back(key, std::move(value));
    return;
  }
  auto it = LowerBound(entries_, key);
  if (it != entries_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    entries_.insert(it, {key, std::move(value)});
  }
}

const Value* PropertyMap::Get(KeyId key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const std::pair<KeyId, Value>& e, KeyId k) { return e.first < k; });
  if (it != entries_.end() && it->first == key) return &it->second;
  return nullptr;
}

bool PropertyMap::Erase(KeyId key) {
  auto it = LowerBound(entries_, key);
  if (it != entries_.end() && it->first == key) {
    entries_.erase(it);
    return true;
  }
  return false;
}

std::vector<KeyId> PropertyMap::Keys() const {
  std::vector<KeyId> keys;
  keys.reserve(entries_.size());
  for (const auto& [k, v] : entries_) keys.push_back(k);
  return keys;
}

}  // namespace pghive::pg
