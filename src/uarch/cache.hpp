// Set-associative cache model with LRU replacement, write-back +
// write-allocate. Single-level building block for the hierarchy in
// hierarchy.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace advh::uarch {

enum class access_type { load, store };

struct cache_config {
  std::string name = "cache";
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t associativity = 8;
};

struct cache_stats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t accesses() const noexcept { return loads + stores; }
  std::uint64_t misses() const noexcept { return load_misses + store_misses; }
  double miss_rate() const noexcept {
    return accesses() ? static_cast<double>(misses()) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

class cache {
 public:
  explicit cache(const cache_config& cfg);

  /// Performs one access; returns true on hit. On miss the line is filled
  /// (write-allocate); a dirty eviction increments writebacks.
  bool access(std::uint64_t addr, access_type type) {
    const bool store = type == access_type::store;
    ++(store ? stats_.stores : stats_.loads);
    if (promote(set_index(addr) * ways_, tag_of(addr), store)) return true;
    ++(store ? stats_.store_misses : stats_.load_misses);  // write-allocate
    return false;
  }

  /// access(addr, access_type::store) when the last access to this cache
  /// touched addr's line: that line is the front of its set, so the store
  /// is a hit that only counts and marks it dirty.
  void store_to_front(std::uint64_t addr) noexcept {
    ++stats_.stores;
    dirty_[set_index(addr) * ways_] = 1;
  }

  /// Counts `n` load hits that change no state (repeats of a pass whose
  /// lines already stand at the front of their sets in pass order).
  void count_load_hits(std::uint64_t n) noexcept { stats_.loads += n; }

  /// True if the line containing addr is currently resident.
  bool probe(std::uint64_t addr) const;

  /// Inserts the line containing addr without touching the demand-access
  /// statistics (prefetch fill). Evictions/writebacks are still counted.
  void fill(std::uint64_t addr);

  void reset() noexcept;
  const cache_stats& stats() const noexcept { return stats_; }
  const cache_config& config() const noexcept { return cfg_; }

 private:
  // No tag: addr >> line_shift_ never sets every bit.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t set_index(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
  }
  std::uint64_t tag_of(std::uint64_t addr) const noexcept {
    return addr >> line_shift_;  // keep the set bits in the tag; harmless
  }

  /// Makes the line `tag` the most recent of the set starting at slot
  /// `base` and returns whether it was resident. A resident line keeps its
  /// dirty bit or-ed with `dirty`; a missing one enters with `dirty`,
  /// evicting the least recent line when the set is full.
  bool promote(std::size_t base, std::uint64_t tag, bool dirty) noexcept {
    std::uint64_t* t = tags_.data() + base;
    std::uint8_t* d = dirty_.data() + base;
    if (t[0] == tag) {
      d[0] |= static_cast<std::uint8_t>(dirty);
      return true;
    }
    // Walks the set from the front, moving each line back one slot, until
    // the walk reaches the line itself (a hit: its slot absorbs the shift)
    // or runs off the end (a miss: the last line falls out).
    std::uint64_t carry = tag;
    auto carry_dirty = static_cast<std::uint8_t>(dirty);
    for (std::size_t w = 0; w < ways_; ++w) {
      std::swap(t[w], carry);
      std::swap(d[w], carry_dirty);
      if (carry == tag) {
        d[0] |= carry_dirty;
        return true;
      }
    }
    if (carry != kEmpty) {
      ++stats_.evictions;
      if (carry_dirty) ++stats_.writebacks;
    }
    return false;
  }

  cache_config cfg_;
  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_shift_;
  // Per set, `ways_` slots in recency order: slot 0 holds the most recently
  // used line and the last slot the LRU victim. Lines fill from the front
  // and are never invalidated (reset() clears everything), so empty slots
  // (kEmpty) are always at the back. This evicts exactly the line a
  // last-use-timestamp LRU would.
  std::vector<std::uint64_t> tags_;  // sets_ * ways_, set-major
  std::vector<std::uint8_t> dirty_;  // parallel to tags_
  cache_stats stats_;
};

}  // namespace advh::uarch
