#include "uarch/cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"

namespace advh::uarch {

namespace {
// No tag: addr >> line_shift_ never sets every bit.
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
}  // namespace

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

std::size_t cache::set_index(std::uint64_t addr) const noexcept {
  return static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
}

std::uint64_t cache::tag_of(std::uint64_t addr) const noexcept {
  return addr >> line_shift_;  // keep the set bits in the tag; harmless
}

inline bool cache::promote(std::size_t base, std::uint64_t tag,
                           bool dirty) noexcept {
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

bool cache::access(std::uint64_t addr, access_type type) {
  const bool store = type == access_type::store;
  ++(store ? stats_.stores : stats_.loads);
  if (promote(set_index(addr) * ways_, tag_of(addr), store)) return true;
  ++(store ? stats_.store_misses : stats_.load_misses);  // write-allocate
  return false;
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
