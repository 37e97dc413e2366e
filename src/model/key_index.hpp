#pragma once
// Flat open-addressing index of byte-string keys (the symreg fitness memo).
//
// KeyIndex gives each distinct key a dense index 0, 1, 2, ... in the order
// keys are first seen, so the caller keeps its values in one plain vector
// and refers to them by index (a vector may move its elements on growth;
// indices stay valid). Key bytes are appended to one arena; the table holds
// entry indices and is probed linearly at a load of at most 1/2. The caller
// passes a 64-bit hash of the key, and a hit needs an equal hash, an equal
// length and equal bytes (memcmp), so keys whose hashes collide stay
// distinct: a lookup can never return another key's index. Once the arena,
// the entries and the table have grown to a run's working size, lookups
// and inserts allocate nothing.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ftbesst::model {

/// 64-bit hash of `bytes`, folded in eight at a time and finished with the
/// MurmurHash3 avalanche, so the low bits (the home slot) and the high bits
/// (the slot tag) both depend on every byte.
[[nodiscard]] inline std::uint64_t hash_bytes(std::string_view bytes) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h ^= tail;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

class KeyIndex {
 public:
  struct Lookup {
    std::uint32_t index = 0;
    bool inserted = false;  ///< true if `key` was new
  };

  /// Index of `key`, inserting it with the next index if it is new. `hash`
  /// must be the same function of the bytes for every call (hash_bytes).
  Lookup find_or_insert(std::string_view key, std::uint64_t hash) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    const std::uint64_t tag = hash & kTagMask;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      const std::uint64_t slot = slots_[s];
      if (slot == 0) {
        if (keys_.size() >= kMaxKeys)
          throw std::length_error("KeyIndex holds at most 2^32 - 1 keys");
        const auto index = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(Key{hash, arena_.size(), key.size()});
        arena_.append(key);
        slots_[s] = tag | (std::uint64_t{index} + 1);
        return {index, true};
      }
      if ((slot & kTagMask) != tag) continue;
      const auto index = static_cast<std::uint32_t>(slot - 1);
      const Key& k = keys_[index];
      if (k.hash == hash && k.length == key.size() &&
          std::memcmp(arena_.data() + k.offset, key.data(), key.size()) == 0)
        return {index, false};
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  // A slot is 0 (empty) or the high 32 bits of the key's hash over its
  // index + 1, so most probes that miss never touch the key entries.
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ull;
  static constexpr std::size_t kMaxKeys = 0xffffffffu;

  struct Key {
    std::uint64_t hash;
    std::size_t offset;  // into arena_
    std::size_t length;
  };

  /// Double the table (16 slots at first) and re-place every key by its
  /// stored hash, in index order.
  void grow() {
    const std::size_t slots = slots_.empty() ? 16 : 2 * slots_.size();
    slots_.assign(slots, 0);
    const std::size_t mask = slots - 1;
    for (std::size_t index = 0; index < keys_.size(); ++index) {
      const std::uint64_t hash = keys_[index].hash;
      std::size_t s = hash & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = (hash & kTagMask) | (std::uint64_t{index} + 1);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<Key> keys_;
  std::string arena_;
};

}  // namespace ftbesst::model
