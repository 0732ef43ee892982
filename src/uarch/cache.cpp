#include "uarch/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace advh::uarch {

cache::cache(const cache_config& cfg) : cfg_(cfg) {
  ADVH_CHECK_MSG(std::has_single_bit(cfg_.line_bytes),
                 "line size must be a power of two");
  ADVH_CHECK(cfg_.associativity > 0);
  ADVH_CHECK(cfg_.size_bytes % (cfg_.line_bytes * cfg_.associativity) == 0);
  sets_ = cfg_.size_bytes / (cfg_.line_bytes * cfg_.associativity);
  ADVH_CHECK_MSG(std::has_single_bit(sets_),
                 "set count must be a power of two");
  ways_ = cfg_.associativity;
  line_shift_ = static_cast<std::size_t>(std::countr_zero(cfg_.line_bytes));
  tags_.assign(sets_ * ways_, kEmpty);
  dirty_.assign(sets_ * ways_, 0);
}

void cache::fill(std::uint64_t addr) {
  ++stats_.prefetch_fills;
  // A resident line only moves to the front.
  (void)promote(set_index(addr) * ways_, tag_of(addr), false);
}

bool cache::probe(std::uint64_t addr) const {
  const std::uint64_t* t = tags_.data() + set_index(addr) * ways_;
  return std::find(t, t + ways_, tag_of(addr)) != t + ways_;
}

void cache::reset() noexcept {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  stats_ = cache_stats{};
}

}  // namespace advh::uarch
