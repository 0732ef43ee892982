// Converts an inference data-flow trace into a microarchitectural event
// profile by replaying it through the cache hierarchy and branch predictor.
//
// The replay models a sparsity-aware inference runtime:
//   * every input element of a parametric layer is tested by a gate branch
//     (taken iff the element is non-zero) — this branch stream feeds the
//     gshare predictor;
//   * every *active* element loads its own value, gathers the weight panel
//     of its channel, and accumulates into a window of the output buffer
//     whose address depends on the element's spatial position;
//   * structural layers (relu/pool/bn/...) sweep their buffers
//     sequentially.
//
// Only the gather and accumulate streams depend on *which* neurons are
// active — the mechanism the paper attributes the cache-miss signal to.
// Instruction and branch counts depend almost entirely on tensor shapes,
// which is why those events carry no signal (Figure 3 / Table 2).
#pragma once

#include "nn/trace.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/hierarchy.hpp"

namespace advh::uarch {

/// perf-style event profile of one inference.
struct uarch_counts {
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t l1d_load_misses = 0;
  std::uint64_t l1i_load_misses = 0;
  std::uint64_t llc_load_misses = 0;
  std::uint64_t llc_store_misses = 0;
};

struct trace_gen_config {
  hierarchy_config caches{};
  std::size_t predictor_bits = 12;

  /// Unfolded-weight lines gathered per active input element.
  std::size_t panel_lines = 1;
  /// Output-channel planes the accumulate window touches per active input.
  std::size_t accum_fanout = 1;
  /// Spatial elements sharing one gather key (vector width of the runtime).
  std::size_t spatial_block = 4;
  /// Unfolded working-set multiplier over raw weight bytes (im2col expands
  /// a 3x3 conv's effective footprint by ~K^2; we use a bounded factor).
  std::size_t unfold_factor = 6;
  /// Modelled code footprint per layer.
  std::size_t code_bytes_per_layer = 2048;
  /// One code sweep per this many output elements (loop body refetch).
  std::size_t code_sweep_interval = 64;

  // Instruction cost model (instructions retired per unit of work).
  // insn_per_active defaults to 0: masked-SIMD gathers retire the same
  // instruction count whatever the mask — only the memory side varies.
  std::uint64_t insn_per_active = 0;
  std::uint64_t insn_per_out = 40;
  std::uint64_t insn_per_in = 6;
  std::uint64_t insn_per_layer = 1800;
  /// One scalar branch per this many elements (vectorised inner loops).
  std::uint64_t branch_per_out_div = 8;
};

/// The part of one entry's replay fixed by its kind and sizes alone,
/// whatever its active sets: the instruction and branch counts and the
/// loop and code-sweep stream lengths. trace_generator::run replays these
/// and uarch::analyze_abstract_trace bounds the events with them, so the
/// two cannot disagree on the shape arithmetic.
struct shape_work {
  /// Instructions retired whatever the active sets.
  std::uint64_t instructions = 0;
  /// Further instructions per active input (parametric layers only).
  std::uint64_t insn_per_active = 0;
  /// Scalar branches that never reach the predictor.
  std::uint64_t extra_branches = 0;
  /// Loop back-edges replayed through gshare.
  std::size_t loop_chunks = 0;
  /// Passes over the layer's code footprint.
  std::size_t code_sweeps = 0;
};

shape_work entry_shape_work(const nn::layer_trace_entry& e,
                            const trace_gen_config& cfg);

/// Replays traces through one cache hierarchy and predictor. A generator
/// is not thread-safe; concurrent replays each need their own.
///
/// Everything run() derives from a trace's shape alone (the weight layout,
/// the per-position offset tables, entry_shape_work and the loop branch
/// stream's predictor statistics) is kept from the previous run() while
/// the shape is the same, and rebuilt whole when it is not. The shape is,
/// per entry, the kind, element counts, weight bytes, channels and spatial
/// sizes; nothing else of an entry but its active inputs is read.
class trace_generator {
 public:
  explicit trace_generator(const trace_gen_config& cfg = {});

  /// Replays one inference trace from a cold pipeline state and returns
  /// the event profile. Deterministic in the trace, whatever this
  /// generator replayed before.
  uarch_counts run(const nn::inference_trace& trace);

  const trace_gen_config& config() const noexcept { return cfg_; }

 private:
  /// One entry's shape: the key of the kept state.
  struct entry_shape {
    nn::layer_kind kind = nn::layer_kind::input;
    std::size_t in_numel = 0;
    std::size_t out_numel = 0;
    std::size_t weight_bytes = 0;
    std::size_t in_channels = 0;
    std::size_t in_spatial = 0;
    std::size_t out_channels = 0;
    std::size_t out_spatial = 0;
    bool operator==(const entry_shape&) const = default;
  };
  static entry_shape shape_of(const nn::layer_trace_entry& e) noexcept;

  /// What run() derives from one entry's shape, with that shape.
  struct entry_plan {
    entry_shape shape;
    shape_work work;
    std::uint64_t weight_base = 0;
    // Parametric entries only: the bytes of one input channel's weight
    // panel, the output planes each active input accumulates into, and
    // where the entry's table starts in offsets_. Per input spatial
    // position the table holds cfg_.panel_lines offsets into the panel,
    // then `fanout` offsets into the output buffer.
    std::size_t panel_bytes = 0;
    std::size_t fanout = 0;
    std::size_t offsets = 0;
  };

  bool same_shape(const nn::inference_trace& trace) const noexcept;
  /// Rebuilds all shape-only state for `trace`, including the loop branch
  /// stream replayed through a cold predictor.
  void plan(const nn::inference_trace& trace);

  // Data accesses of one entry; run() adds its shape_work after them.
  void replay_parametric(const nn::layer_trace_entry& e, const entry_plan& p);
  void replay_activation(const nn::layer_trace_entry& e);
  void replay_structural(const nn::layer_trace_entry& e);

  /// Sequential line sweep over a buffer region.
  void sweep(std::uint64_t base, std::size_t bytes, access_type type);
  /// `passes` sweeps over one layer's code footprint.
  void code_sweeps(std::size_t layer_idx, std::size_t passes);

  std::uint64_t code_base(std::size_t layer_idx) const;

  trace_gen_config cfg_;
  memory_hierarchy mem_;
  // Ping-pong activation buffers: each layer reads one, writes the other.
  bool write_to_second_ = true;

  // The shape-only state of the last trace's shape. Between plans the
  // predictor holds the loop stream's statistics.
  std::vector<entry_plan> plans_;
  std::vector<std::uint64_t> offsets_;
  gshare_predictor bp_;
};

}  // namespace advh::uarch
