// StringInterner: maps strings to dense uint32 ids with an open-addressed
// hash table, keeping the reverse mapping (id -> name) for cold-path
// rendering (trace detail strings, timeout messages).
//
// Hot paths intern a key once and then work entirely in dense ids, so the
// per-operation cost is one FNV-1a hash + a short linear probe instead of a
// std::map walk over string comparisons. Ids are assigned in first-seen
// order and are never recycled, which makes them safe to use as direct
// indexes into flat side tables (lock entries, per-owner stats).

#ifndef TPC_UTIL_INTERNER_H_
#define TPC_UTIL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tpc {

class StringInterner {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  StringInterner() : table_(kInitialBuckets, kEmpty) {}

  /// Id for `s`, assigning the next dense id on first sight.
  uint32_t Intern(std::string_view s) {
    uint64_t h = Hash(s);
    size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (table_[i] != kEmpty) {
      uint32_t id = table_[i];
      if (names_[id] == s) return id;
      i = (i + 1) & mask;
    }
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(s);
    table_[i] = id;
    if (names_.size() * 10 >= table_.size() * 7) Grow();
    return id;
  }

  /// Id for `s` if already interned, else kNotFound. Never allocates.
  uint32_t Find(std::string_view s) const {
    uint64_t h = Hash(s);
    size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(h) & mask;
    while (table_[i] != kEmpty) {
      uint32_t id = table_[i];
      if (names_[id] == s) return id;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  /// The string interned as `id`. Requires id < size().
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

  /// Heap bytes held by the id table and the interned names.
  uint64_t ApproxBytes() const {
    uint64_t bytes = table_.capacity() * sizeof(uint32_t) +
                     names_.capacity() * sizeof(std::string);
    for (const std::string& n : names_) bytes += n.capacity();
    return bytes;
  }

 private:
  static constexpr size_t kInitialBuckets = 64;  // power of two
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static uint64_t Hash(std::string_view s) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  void Grow() {
    std::vector<uint32_t> fresh(table_.size() * 2, kEmpty);
    size_t mask = fresh.size() - 1;
    for (uint32_t id = 0; id < names_.size(); ++id) {
      size_t i = static_cast<size_t>(Hash(names_[id])) & mask;
      while (fresh[i] != kEmpty) i = (i + 1) & mask;
      fresh[i] = id;
    }
    table_ = std::move(fresh);
  }

  std::vector<std::string> names_;  // id -> name
  std::vector<uint32_t> table_;     // open-addressed: bucket -> id
};

}  // namespace tpc

#endif  // TPC_UTIL_INTERNER_H_
