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

class trace_generator {
 public:
  explicit trace_generator(const trace_gen_config& cfg = {});

  /// Replays one inference trace from a cold pipeline state and returns
  /// the event profile. Deterministic in the trace.
  uarch_counts run(const nn::inference_trace& trace);

  const trace_gen_config& config() const noexcept { return cfg_; }

 private:
  // Data accesses of one entry; run() adds its shape_work after them.
  void replay_parametric(const nn::layer_trace_entry& e, std::size_t layer_idx);
  void replay_activation(const nn::layer_trace_entry& e);
  void replay_structural(const nn::layer_trace_entry& e);

  /// Sequential line sweep over a buffer region.
  void sweep(std::uint64_t base, std::size_t bytes, access_type type);
  void code_sweep(std::size_t layer_idx);
  /// Loop back-edge branch stream (taken except on exit) through gshare.
  void loop_branches(std::size_t layer_idx, std::size_t chunks);

  std::uint64_t weight_base(std::size_t layer_idx) const;
  std::uint64_t code_base(std::size_t layer_idx) const;

  trace_gen_config cfg_;
  memory_hierarchy mem_;
  gshare_predictor bp_;
  std::uint64_t instructions_ = 0;
  std::uint64_t extra_branches_ = 0;
  // Ping-pong activation buffers: each layer reads one, writes the other.
  bool write_to_second_ = true;
  std::vector<std::uint64_t> weight_bases_;  // running layout per layer
  std::uint64_t next_weight_base_;
  // Per spatial position of the current parametric layer's input: offsets
  // into its channel's weight panel and into the output buffer.
  std::vector<std::uint64_t> panel_offsets_;
  std::vector<std::uint64_t> accum_offsets_;
};

}  // namespace advh::uarch
