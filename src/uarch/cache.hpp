// Set-associative cache model with LRU replacement, write-back +
// write-allocate. Single-level building block for the hierarchy in
// hierarchy.hpp.
#pragma once

#include <cstdint>
#include <string>
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
  bool access(std::uint64_t addr, access_type type);

  /// True if the line containing addr is currently resident.
  bool probe(std::uint64_t addr) const;

  /// Inserts the line containing addr without touching the demand-access
  /// statistics (prefetch fill). Evictions/writebacks are still counted.
  void fill(std::uint64_t addr);

  void reset() noexcept;
  const cache_stats& stats() const noexcept { return stats_; }
  const cache_config& config() const noexcept { return cfg_; }

 private:
  std::size_t set_index(std::uint64_t addr) const noexcept;
  std::uint64_t tag_of(std::uint64_t addr) const noexcept;
  /// Makes the line `tag` the most recent of the set starting at slot
  /// `base` and returns whether it was resident. A resident line keeps its
  /// dirty bit or-ed with `dirty`; a missing one enters with `dirty`,
  /// evicting the least recent line when the set is full.
  bool promote(std::size_t base, std::uint64_t tag, bool dirty) noexcept;

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
