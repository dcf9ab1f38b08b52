#include "util/string_interner.h"

#include "util/status.h"

namespace pghive::util {

uint32_t StringInterner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

uint32_t StringInterner::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return kInvalidId;
  return it->second;
}

const std::string& StringInterner::Get(uint32_t id) const {
  PGHIVE_CHECK(id < strings_.size());
  return strings_[id];
}

bool StringInterner::Rebuild(std::vector<std::string> strings) {
  Index index;
  index.reserve(strings.size());
  for (size_t i = 0; i < strings.size(); ++i) {
    if (!index.emplace(strings[i], static_cast<uint32_t>(i)).second) {
      return false;
    }
  }
  strings_ = std::move(strings);
  index_ = std::move(index);
  return true;
}

}  // namespace pghive::util
