// gshare branch predictor: global history XOR PC indexing a table of
// 2-bit saturating counters. The sparsity-gate branch stream of the
// inference trace flows through this model to produce the branch-misses
// counter.
#pragma once

#include <cstdint>
#include <vector>

namespace advh::uarch {

struct branch_stats {
  std::uint64_t branches = 0;
  std::uint64_t mispredictions = 0;
};

class gshare_predictor {
 public:
  /// `table_bits` counters of 2 bits; history length equals table_bits.
  explicit gshare_predictor(std::size_t table_bits = 12);

  /// Records one executed branch; returns true if it was predicted
  /// correctly.
  bool execute(std::uint64_t pc, bool taken);

  void reset() noexcept;
  const branch_stats& stats() const noexcept { return stats_; }

 private:
  std::size_t table_bits_;
  std::uint64_t history_ = 0;
  std::vector<std::uint8_t> table_;  // 2-bit counters, init weakly taken
  branch_stats stats_;
};

}  // namespace advh::uarch
