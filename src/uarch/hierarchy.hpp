// Three-cache memory hierarchy: split L1 (data / instruction) in front of
// a unified last-level cache. perf-style event counts are derived from the
// per-level statistics:
//
//   cache-references      = LLC accesses (L1 misses that reach the LLC)
//   cache-misses          = LLC misses
//   L1-dcache-load-misses = L1-D load misses
//   L1-icache-load-misses = L1-I fetch misses
//   LLC-load-misses       = LLC misses on the load path
//   LLC-store-misses      = LLC misses on the store path
#pragma once

#include "uarch/cache.hpp"
#include "uarch/prefetcher.hpp"

namespace advh::uarch {

struct hierarchy_config {
  cache_config l1d{"L1-D", 8 * 1024, 64, 4};
  cache_config l1i{"L1-I", 8 * 1024, 64, 4};
  cache_config llc{"LLC", 64 * 1024, 64, 8};
  /// L1-D demand-miss prefetcher (fills L1-D and the LLC).
  prefetcher_kind l1d_prefetch = prefetcher_kind::none;
};

class memory_hierarchy {
 public:
  explicit memory_hierarchy(const hierarchy_config& cfg = {});

  /// Data load/store through L1-D, falling through to the LLC on miss.
  void data_access(std::uint64_t addr, access_type type) {
    if (!l1d_.access(addr, type)) {
      // Write-allocate: a store miss fetches the line before writing, so
      // the LLC sees it on the store path.
      llc_.access(addr, type);
    }
    if (prefetch_.kind() != prefetcher_kind::none) train_prefetcher(addr);
  }

  /// A load of `addr`, then a store to it. With no prefetcher nothing runs
  /// between the two, so the store hits the line the load left at the
  /// front of its set; a prefetcher still trains on (and fills after) both.
  void load_store(std::uint64_t addr) {
    data_access(addr, access_type::load);
    if (prefetch_.kind() == prefetcher_kind::none) {
      l1d_.store_to_front(addr);
    } else {
      data_access(addr, access_type::store);
    }
  }

  /// Instruction fetch through L1-I, falling through to the LLC on miss.
  void fetch(std::uint64_t addr) {
    if (!l1i_.access(addr, access_type::load)) {
      llc_.access(addr, access_type::load);
    }
  }

  /// Counts `n` fetches that hit L1-I and change nothing: repeats of a code
  /// pass that hit on every line (cache::count_load_hits).
  void count_fetch_hits(std::uint64_t n) noexcept { l1i_.count_load_hits(n); }

  void reset() noexcept;

  const cache& l1d() const noexcept { return l1d_; }
  const prefetcher& l1d_prefetcher() const noexcept { return prefetch_; }
  const cache& l1i() const noexcept { return l1i_; }
  const cache& llc() const noexcept { return llc_; }

  std::uint64_t llc_references() const noexcept {
    return llc_.stats().accesses();
  }
  std::uint64_t llc_misses() const noexcept { return llc_.stats().misses(); }
  std::uint64_t llc_load_misses() const noexcept {
    return llc_.stats().load_misses;
  }
  std::uint64_t llc_store_misses() const noexcept {
    return llc_.stats().store_misses;
  }

 private:
  /// Feeds one demand access to the L1-D prefetcher and issues its fill.
  void train_prefetcher(std::uint64_t addr);

  cache l1d_;
  cache l1i_;
  cache llc_;
  prefetcher prefetch_;
};

}  // namespace advh::uarch
