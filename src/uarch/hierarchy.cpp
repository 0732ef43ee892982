#include "uarch/hierarchy.hpp"

namespace advh::uarch {

memory_hierarchy::memory_hierarchy(const hierarchy_config& cfg)
    : l1d_(cfg.l1d), l1i_(cfg.l1i), llc_(cfg.llc), prefetch_(cfg.l1d_prefetch) {}

void memory_hierarchy::train_prefetcher(std::uint64_t addr) {
  // The prefetcher trains on the demand stream (hits included, as L1
  // streamers do) and fills both levels without inflating demand
  // statistics.
  const std::uint64_t line = addr / l1d_.config().line_bytes;
  const std::uint64_t target = prefetch_.observe(line);
  if (target != 0) {
    const std::uint64_t target_addr = target * l1d_.config().line_bytes;
    if (!l1d_.probe(target_addr)) {
      l1d_.fill(target_addr);
      llc_.fill(target_addr);
      prefetch_.note_useful();
    }
  }
}

void memory_hierarchy::reset() noexcept {
  l1d_.reset();
  l1i_.reset();
  llc_.reset();
  prefetch_.reset();
}

}  // namespace advh::uarch
