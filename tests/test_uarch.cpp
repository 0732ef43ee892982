#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "common/rng.hpp"

#include "common/error.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/cache.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/trace_gen.hpp"

namespace advh::uarch {
namespace {

cache_config small_cache() {
  // 4 sets x 2 ways x 64B = 512B.
  return {"test", 512, 64, 2};
}

TEST(Cache, ColdMissThenHit) {
  cache c(small_cache());
  EXPECT_FALSE(c.access(0x1000, access_type::load));
  EXPECT_TRUE(c.access(0x1000, access_type::load));
  EXPECT_TRUE(c.access(0x1004, access_type::load));  // same line
  EXPECT_EQ(c.stats().loads, 3u);
  EXPECT_EQ(c.stats().load_misses, 1u);
}

TEST(Cache, SetIndexingSeparatesLines) {
  cache c(small_cache());
  // Addresses 0x0 and 0x40 are adjacent lines -> different sets: both fit.
  c.access(0x0, access_type::load);
  c.access(0x40, access_type::load);
  EXPECT_TRUE(c.probe(0x0));
  EXPECT_TRUE(c.probe(0x40));
}

TEST(Cache, LruEvictionOrder) {
  cache c(small_cache());
  // Three lines mapping to the same set (stride = sets*line = 256B).
  c.access(0x000, access_type::load);
  c.access(0x100, access_type::load);
  c.access(0x000, access_type::load);  // touch A again: B is now LRU
  c.access(0x200, access_type::load);  // evicts B
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x100));
  EXPECT_TRUE(c.probe(0x200));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, WritebackOnDirtyEviction) {
  cache c(small_cache());
  c.access(0x000, access_type::store);  // dirty
  c.access(0x100, access_type::load);
  c.access(0x200, access_type::load);  // evicts dirty 0x000
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  cache c(small_cache());
  c.access(0x000, access_type::load);
  c.access(0x100, access_type::load);
  c.access(0x200, access_type::load);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, StoreMissAllocates) {
  cache c(small_cache());
  EXPECT_FALSE(c.access(0x3000, access_type::store));
  EXPECT_TRUE(c.access(0x3000, access_type::load));
  EXPECT_EQ(c.stats().store_misses, 1u);
}

TEST(Cache, MissRateComputation) {
  cache c(small_cache());
  c.access(0x0, access_type::load);   // miss
  c.access(0x0, access_type::load);   // hit
  c.access(0x0, access_type::load);   // hit
  c.access(0x40, access_type::store); // miss
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

TEST(Cache, ResetClearsEverything) {
  cache c(small_cache());
  c.access(0x0, access_type::store);
  c.reset();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, ConfigValidation) {
  EXPECT_THROW(cache({"bad", 100, 64, 2}), invariant_error);   // not divisible
  EXPECT_THROW(cache({"bad", 512, 60, 2}), invariant_error);   // line not pow2
  EXPECT_THROW(cache({"bad", 512, 64, 0}), invariant_error);   // zero ways
}

TEST(Cache, FullyAssociativeWorks) {
  cache c({"fa", 256, 64, 4});  // 1 set, 4 ways
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * 0x1000, access_type::load);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(c.probe(i * 0x1000));
  c.access(0x9000, access_type::load);
  EXPECT_FALSE(c.probe(0x0));  // LRU victim
}

/// The last-use-timestamp LRU the recency-ordered cache must reproduce:
/// every line keeps the tick of its last use, and a miss fills the first
/// invalid way or else evicts the line with the oldest tick.
class timestamp_lru {
 public:
  explicit timestamp_lru(const cache_config& cfg)
      : ways_(cfg.associativity),
        sets_(cfg.size_bytes / (cfg.line_bytes * cfg.associativity)),
        shift_(static_cast<std::size_t>(std::countr_zero(cfg.line_bytes))),
        lines_(sets_ * ways_) {}

  bool access(std::uint64_t addr, access_type type) {
    const bool store = type == access_type::store;
    ++(store ? stats.stores : stats.loads);
    if (line* l = find(addr)) {
      l->tick = ++tick_;
      l->dirty = l->dirty || store;
      return true;
    }
    ++(store ? stats.store_misses : stats.load_misses);
    allocate(addr, store);
    return false;
  }

  void fill(std::uint64_t addr) {
    ++stats.prefetch_fills;
    if (line* l = find(addr)) {
      l->tick = ++tick_;
    } else {
      allocate(addr, false);
    }
  }

  bool probe(std::uint64_t addr) { return find(addr) != nullptr; }

  cache_stats stats;

 private:
  struct line {
    std::uint64_t tag = 0;
    std::uint64_t tick = 0;
    bool valid = false;
    bool dirty = false;
  };

  line* set_of(std::uint64_t addr) {
    return lines_.data() + ((addr >> shift_) & (sets_ - 1)) * ways_;
  }
  line* find(std::uint64_t addr) {
    line* set = set_of(addr);
    for (std::size_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == addr >> shift_) return &set[w];
    }
    return nullptr;
  }
  void allocate(std::uint64_t addr, bool dirty) {
    line* set = set_of(addr);
    line* victim = set;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (set[w].tick < victim->tick) victim = &set[w];
    }
    if (victim->valid) {
      ++stats.evictions;
      if (victim->dirty) ++stats.writebacks;
    }
    *victim = line{addr >> shift_, ++tick_, true, dirty};
  }

  std::size_t ways_, sets_, shift_;
  std::vector<line> lines_;
  std::uint64_t tick_ = 0;
};

std::array<std::uint64_t, 7> fields(const cache_stats& s) {
  return {s.loads,        s.stores,    s.prefetch_fills, s.load_misses,
          s.store_misses, s.evictions, s.writebacks};
}

TEST(Cache, MatchesTimestampLruOnRandomStreams) {
  const cache_config geometries[] = {
      {"1 set x 4", 256, 64, 4},   {"4 sets x 1", 256, 64, 1},
      {"4 sets x 2", 512, 64, 2},  {"4 sets x 4", 1024, 64, 4},
      {"8 sets x 8", 4096, 64, 8},
  };
  for (const cache_config& cfg : geometries) {
    SCOPED_TRACE(cfg.name);
    cache c(cfg);
    timestamp_lru ref(cfg);
    // Three times as many distinct lines as the cache holds: hits, misses,
    // evictions and dirty writebacks all occur.
    const std::uint64_t lines = 3 * cfg.size_bytes / cfg.line_bytes;
    rng gen(0xcace + cfg.associativity);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t addr =
          gen.uniform_index(lines) * cfg.line_bytes +
          gen.uniform_index(cfg.line_bytes);
      const double op = gen.uniform();
      if (op < 0.45) {
        ASSERT_EQ(c.access(addr, access_type::load),
                  ref.access(addr, access_type::load));
      } else if (op < 0.8) {
        ASSERT_EQ(c.access(addr, access_type::store),
                  ref.access(addr, access_type::store));
      } else {
        c.fill(addr);
        ref.fill(addr);
      }
      ASSERT_EQ(fields(c.stats()), fields(ref.stats)) << "step " << step;
      for (std::uint64_t l = 0; l < lines; ++l) {
        ASSERT_EQ(c.probe(l * cfg.line_bytes), ref.probe(l * cfg.line_bytes))
            << "line " << l << " after step " << step;
      }
    }
    EXPECT_GT(c.stats().writebacks, 0u);
  }
}

TEST(Gshare, LearnsAlwaysTaken) {
  gshare_predictor bp(8);
  std::size_t late_misses = 0;
  for (int i = 0; i < 100; ++i) {
    // Warm-up walks the history-indexed entries; after that the loop
    // branch must be predicted nearly perfectly.
    if (!bp.execute(0x400, true) && i >= 20) ++late_misses;
  }
  EXPECT_EQ(late_misses, 0u);
  EXPECT_EQ(bp.stats().branches, 100u);
}

TEST(Gshare, LearnsAlternatingPattern) {
  gshare_predictor bp(10);
  std::size_t late_misses = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool taken = (i % 2) == 0;
    const bool correct = bp.execute(0x400, taken);
    if (i >= 1000 && !correct) ++late_misses;
  }
  // History-based prediction captures period-2 patterns almost exactly.
  EXPECT_LT(late_misses, 20u);
}

TEST(Gshare, RandomPatternNearChance) {
  gshare_predictor bp(10);
  rng gen(3);
  std::size_t misses = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (!bp.execute(0x400, gen.bernoulli(0.5))) ++misses;
  }
  const double rate = static_cast<double>(misses) / n;
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

TEST(Gshare, ResetClearsState) {
  gshare_predictor bp(8);
  for (int i = 0; i < 10; ++i) bp.execute(0x1, true);
  bp.reset();
  EXPECT_EQ(bp.stats().branches, 0u);
}

TEST(Gshare, TableBitsValidated) {
  EXPECT_THROW(gshare_predictor(2), invariant_error);
  EXPECT_THROW(gshare_predictor(30), invariant_error);
}

TEST(Hierarchy, L1HitDoesNotReachLlc) {
  memory_hierarchy mem;
  mem.data_access(0x1000, access_type::load);  // L1 miss -> LLC access
  const auto llc_before = mem.llc_references();
  mem.data_access(0x1000, access_type::load);  // L1 hit
  EXPECT_EQ(mem.llc_references(), llc_before);
}

TEST(Hierarchy, InstructionPathUsesL1i) {
  memory_hierarchy mem;
  mem.fetch(0x8000);
  mem.fetch(0x8000);
  EXPECT_EQ(mem.l1i().stats().load_misses, 1u);
  EXPECT_EQ(mem.l1d().stats().accesses(), 0u);
  EXPECT_EQ(mem.llc_references(), 1u);
}

TEST(Hierarchy, LoadStoreSplitAtLlc) {
  memory_hierarchy mem;
  mem.data_access(0x100000, access_type::load);
  mem.data_access(0x200000, access_type::store);
  EXPECT_EQ(mem.llc_load_misses(), 1u);
  EXPECT_EQ(mem.llc_store_misses(), 1u);
}

nn::inference_trace make_trace(std::vector<std::uint32_t> active,
                               std::size_t in_numel = 256) {
  nn::inference_trace t;
  nn::layer_trace_entry e;
  e.kind = nn::layer_kind::conv2d;
  e.name = "conv";
  e.in_numel = in_numel;
  e.out_numel = 128;
  e.weight_bytes = 4096;
  e.in_channels = 4;
  e.in_spatial = in_numel / 4;
  e.out_channels = 8;
  e.out_spatial = 16;
  e.active_inputs = std::move(active);
  t.layers.push_back(std::move(e));
  return t;
}

TEST(TraceGen, DeterministicForSameTrace) {
  trace_generator gen;
  auto trace = make_trace({1, 5, 9, 100, 200});
  const auto a = gen.run(trace);
  const auto b = gen.run(trace);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.branches, b.branches);
}

TEST(TraceGen, InstructionsIndependentOfPattern) {
  trace_generator gen;
  // Same cardinality, different identity: instruction counts must match
  // (masked-SIMD model).
  const auto a = gen.run(make_trace({0, 1, 2, 3}));
  const auto b = gen.run(make_trace({100, 120, 130, 250}));
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.branches, b.branches);
}

TEST(TraceGen, UnorderedActiveInputsReplay) {
  // The replay walks channels forward over ascending active inputs, the
  // order nonzero_indices yields; an input behind the walk restarts it
  // rather than sending it past the last channel.
  trace_generator gen;
  const auto down = gen.run(make_trace({250, 130, 120, 100, 3, 2, 1, 0}));
  const auto up = gen.run(make_trace({0, 1, 2, 3, 100, 120, 130, 250}));
  EXPECT_EQ(down.instructions, up.instructions);
  EXPECT_EQ(down.branches, up.branches);
}

TEST(TraceGen, CacheFootprintDependsOnPattern) {
  trace_generator gen;
  // Clustered vs scattered active sets of equal size must differ in the
  // memory-side events.
  std::vector<std::uint32_t> clustered, scattered;
  for (std::uint32_t i = 0; i < 32; ++i) clustered.push_back(i);
  for (std::uint32_t i = 0; i < 32; ++i) scattered.push_back(i * 8);
  const auto a = gen.run(make_trace(clustered));
  const auto b = gen.run(make_trace(scattered));
  EXPECT_NE(a.l1d_load_misses, b.l1d_load_misses);
}

TEST(TraceGen, MoreActiveUnitsMoreReferences) {
  trace_generator gen;
  std::vector<std::uint32_t> few{0, 64, 128};
  std::vector<std::uint32_t> many;
  for (std::uint32_t i = 0; i < 256; i += 2) many.push_back(i);
  const auto a = gen.run(make_trace(few));
  const auto b = gen.run(make_trace(many));
  EXPECT_LT(a.cache_references, b.cache_references);
}

TEST(TraceGen, EmptyTraceYieldsZeroCounts) {
  trace_generator gen;
  nn::inference_trace t;
  const auto c = gen.run(t);
  EXPECT_EQ(c.instructions, 0u);
  EXPECT_EQ(c.cache_references, 0u);
}

TEST(TraceGen, ReluLayerContributesNoGatherTraffic) {
  trace_generator gen;
  nn::inference_trace t;
  nn::layer_trace_entry e;
  e.kind = nn::layer_kind::relu;
  e.name = "relu";
  e.in_numel = 1024;
  e.out_numel = 1024;
  for (std::uint32_t i = 0; i < 512; ++i) e.active_outputs.push_back(i * 2);
  t.layers.push_back(e);
  const auto a = gen.run(t);

  // Same layer with a different firing pattern: memory side identical
  // (in-place sweeps only).
  t.layers[0].active_outputs.clear();
  for (std::uint32_t i = 0; i < 512; ++i) {
    t.layers[0].active_outputs.push_back(i);
  }
  const auto b = gen.run(t);
  EXPECT_EQ(a.cache_references, b.cache_references);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

TEST(TraceGen, CountsAreInternallyConsistent) {
  trace_generator gen;
  const auto c = gen.run(make_trace({1, 2, 3, 50, 60, 70, 200}));
  EXPECT_GE(c.cache_references, c.cache_misses);
  EXPECT_EQ(c.cache_misses, c.llc_load_misses + c.llc_store_misses);
  EXPECT_GE(c.branches, c.branch_misses);
  EXPECT_GT(c.instructions, c.branches);
}

}  // namespace
}  // namespace advh::uarch
