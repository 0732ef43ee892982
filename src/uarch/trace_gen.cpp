#include "uarch/trace_gen.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace advh::uarch {

namespace {
// Virtual address-space layout of the modelled inference runtime.
constexpr std::uint64_t kWeightRegion = 0x1000'0000;
constexpr std::uint64_t kActRegionA = 0x2000'0000;
constexpr std::uint64_t kActRegionB = 0x2800'0000;
constexpr std::uint64_t kCodeRegion = 0x3000'0000;
constexpr std::uint64_t kLine = 64;
}  // namespace

shape_work entry_shape_work(const nn::layer_trace_entry& e,
                            const trace_gen_config& cfg) {
  const std::uint64_t bpod = std::max<std::uint64_t>(cfg.branch_per_out_div, 1);
  shape_work w;
  // Vectorised kernels are branchless at element level; the only predicted
  // branches are loop back-edges, one per unroll chunk of 16 elements.
  w.loop_chunks = e.in_numel / 16 + 1;
  w.code_sweeps = 1;
  switch (e.kind) {
    case nn::layer_kind::conv2d:
    case nn::layer_kind::depthwise_conv2d:
    case nn::layer_kind::linear:
      // Dominated by the dense loop structure, with a small gather term.
      w.instructions = cfg.insn_per_in * e.in_numel +
                       cfg.insn_per_out * e.out_numel + cfg.insn_per_layer;
      w.insn_per_active = cfg.insn_per_active;
      w.extra_branches = (e.in_numel + e.out_numel) / bpod + 64;
      // One loop-body refetch per code_sweep_interval output elements.
      w.code_sweeps +=
          e.out_numel / std::max<std::size_t>(cfg.code_sweep_interval, 1);
      break;
    case nn::layer_kind::relu:
      w.instructions = 3 * e.in_numel + cfg.insn_per_layer / 4;
      w.extra_branches = e.in_numel / bpod + 16;
      break;
    default:
      w.instructions =
          4 * e.in_numel + 2 * e.out_numel + cfg.insn_per_layer / 4;
      w.extra_branches = (e.in_numel + e.out_numel) / bpod + 16;
      break;
  }
  return w;
}

trace_generator::trace_generator(const trace_gen_config& cfg)
    : cfg_(cfg),
      mem_(cfg.caches),
      bp_(cfg.predictor_bits),
      next_weight_base_(kWeightRegion) {}

std::uint64_t trace_generator::weight_base(std::size_t layer_idx) const {
  ADVH_CHECK(layer_idx < weight_bases_.size());
  return weight_bases_[layer_idx];
}

std::uint64_t trace_generator::code_base(std::size_t layer_idx) const {
  return kCodeRegion +
         static_cast<std::uint64_t>(layer_idx) * cfg_.code_bytes_per_layer;
}

void trace_generator::sweep(std::uint64_t base, std::size_t bytes,
                            access_type type) {
  const std::size_t lines = (bytes + kLine - 1) / kLine;
  for (std::size_t l = 0; l < lines; ++l) {
    mem_.data_access(base + l * kLine, type);
  }
}

void trace_generator::code_sweep(std::size_t layer_idx) {
  const std::uint64_t base = code_base(layer_idx);
  const std::size_t lines = cfg_.code_bytes_per_layer / kLine;
  for (std::size_t l = 0; l < lines; ++l) mem_.fetch(base + l * kLine);
}

void trace_generator::loop_branches(std::size_t layer_idx,
                                    std::size_t chunks) {
  // Back-edges are taken except on exit, which gshare learns almost
  // perfectly.
  const std::uint64_t pc = code_base(layer_idx) + 0x8;
  for (std::size_t c = 0; c < chunks; ++c) {
    bp_.execute(pc, c + 1 != chunks);
  }
}

void trace_generator::replay_parametric(const nn::layer_trace_entry& e,
                                        std::size_t layer_idx) {
  const std::uint64_t w_base = weight_base(layer_idx);
  const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
  const std::uint64_t out_base = write_to_second_ ? kActRegionB : kActRegionA;

  const std::size_t in_spatial = std::max<std::size_t>(e.in_spatial, 1);
  const std::size_t out_channels = std::max<std::size_t>(e.out_channels, 1);
  const std::size_t out_spatial = std::max<std::size_t>(e.out_spatial, 1);
  const std::size_t w_bytes = std::max<std::size_t>(e.weight_bytes, kLine);
  const std::size_t out_bytes =
      std::max<std::size_t>(e.out_numel * sizeof(float), kLine);

  // The unfolded working set (im2col expands a KxK conv's effective
  // footprint): each input channel owns a contiguous panel of it.
  const std::size_t in_channels = std::max<std::size_t>(e.in_channels, 1);
  const std::size_t panel_bytes = std::max<std::size_t>(
      (w_bytes * cfg_.unfold_factor / in_channels + kLine - 1) / kLine * kLine,
      kLine);
  const std::size_t panel_lines = panel_bytes / kLine;
  const std::size_t out_plane_bytes = out_spatial * sizeof(float);
  const std::size_t fanout =
      std::min<std::size_t>(cfg_.accum_fanout, out_channels);

  // Sparsity-aware gather: active elements only. The vectorised gate is
  // branchless, so nothing here reaches the branch predictor.
  //
  // Each active (channel, spatial-block) pair touches one line of the
  // channel's panel, so the touched-line set is a fingerprint of the
  // activation pattern. In wide early layers most block slots are hit
  // anyway and the footprint saturates (shape-constant); in the narrow
  // deep layers — where activations are class-semantic — each active
  // unit contributes a distinct line, which is the data-flow signal
  // AdvHunter monitors.
  //
  // An active input at spatial position s of any channel gathers the same
  // panel lines and accumulates into the same output words, so both offset
  // sets are tabled once per position and the loop below divides nothing.
  const std::size_t gathers = cfg_.panel_lines;
  panel_offsets_.resize(in_spatial * gathers);
  accum_offsets_.resize(in_spatial * fanout);
  for (std::size_t s = 0; s < in_spatial; ++s) {
    const std::size_t block = s / cfg_.spatial_block;
    for (std::size_t l = 0; l < gathers; ++l) {
      panel_offsets_[s * gathers + l] =
          ((block + l * 0x61ULL) % panel_lines) * kLine;
    }
    const std::size_t spatial_out =
        in_spatial > 1 ? s * out_spatial / in_spatial : 0;
    for (std::size_t f = 0; f < fanout; ++f) {
      const std::size_t plane = f * out_channels / fanout;
      accum_offsets_[s * fanout + f] =
          (plane * out_plane_bytes + spatial_out * sizeof(float)) % out_bytes;
    }
  }

  // Channel of the current input, tracked incrementally: active inputs come
  // in ascending order, so the walk only moves forward.
  std::size_t channel_start = 0;  // flat index of the channel's first element
  std::uint64_t panel = w_base;   // the channel's weight panel
  for (std::uint32_t i : e.active_inputs) {
    // Load the element's own value.
    mem_.data_access(in_base + static_cast<std::uint64_t>(i) * sizeof(float),
                     access_type::load);

    if (i < channel_start) {  // out-of-order input: restart the walk
      channel_start = 0;
      panel = w_base;
    }
    while (i - channel_start >= in_spatial) {
      channel_start += in_spatial;
      panel += panel_bytes;
    }
    const std::size_t s = i - channel_start;
    for (std::size_t l = 0; l < gathers; ++l) {
      mem_.data_access(panel + panel_offsets_[s * gathers + l],
                       access_type::load);
    }

    // Accumulate into the output window at this spatial position across a
    // sample of output-channel planes.
    for (std::size_t f = 0; f < fanout; ++f) {
      const std::uint64_t addr = out_base + accum_offsets_[s * fanout + f];
      mem_.data_access(addr, access_type::load);
      mem_.data_access(addr, access_type::store);
    }
  }

  // Dense epilogue: bias add + write-out of the full output buffer.
  sweep(out_base, out_bytes, access_type::store);
  write_to_second_ = !write_to_second_;
}

void trace_generator::replay_activation(const nn::layer_trace_entry& e) {
  const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;

  // ReLU executes in place as a vectorised max — branchless, so the
  // activation mask never reaches the branch predictor.
  sweep(in_base, e.in_numel * sizeof(float), access_type::load);
  sweep(in_base, e.out_numel * sizeof(float), access_type::store);
  // In-place: no buffer flip.
}

void trace_generator::replay_structural(const nn::layer_trace_entry& e) {
  const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
  const std::uint64_t out_base = write_to_second_ ? kActRegionB : kActRegionA;

  sweep(in_base, e.in_numel * sizeof(float), access_type::load);
  sweep(out_base, e.out_numel * sizeof(float), access_type::store);
  write_to_second_ = !write_to_second_;
}

uarch_counts trace_generator::run(const nn::inference_trace& trace) {
  mem_.reset();
  bp_.reset();
  instructions_ = 0;
  extra_branches_ = 0;
  write_to_second_ = true;

  // Static weight layout: consecutive regions in trace order, sized by the
  // unfolded working set. The layout is identical across inferences of the
  // same model, as in a real runtime.
  weight_bases_.clear();
  next_weight_base_ = kWeightRegion;
  for (const auto& e : trace.layers) {
    weight_bases_.push_back(next_weight_base_);
    const std::size_t span =
        std::max<std::size_t>(e.weight_bytes, 1) * cfg_.unfold_factor;
    next_weight_base_ += ((span + kLine - 1) / kLine) * kLine;
  }

  for (std::size_t idx = 0; idx < trace.layers.size(); ++idx) {
    const auto& e = trace.layers[idx];
    switch (e.kind) {
      case nn::layer_kind::conv2d:
      case nn::layer_kind::depthwise_conv2d:
      case nn::layer_kind::linear:
        replay_parametric(e, idx);
        break;
      case nn::layer_kind::relu:
        replay_activation(e);
        break;
      default:
        replay_structural(e);
        break;
    }
    // Then the shape-only work: loop branches after the data accesses,
    // code sweeps last.
    const shape_work w = entry_shape_work(e, cfg_);
    instructions_ +=
        w.instructions + w.insn_per_active * e.active_inputs.size();
    extra_branches_ += w.extra_branches;
    loop_branches(idx, w.loop_chunks);
    for (std::size_t s = 0; s < w.code_sweeps; ++s) code_sweep(idx);
  }

  uarch_counts c;
  c.instructions = instructions_;
  c.branches = bp_.stats().branches + extra_branches_;
  c.branch_misses = bp_.stats().mispredictions;
  c.cache_references = mem_.llc_references();
  c.cache_misses = mem_.llc_misses();
  c.l1d_load_misses = mem_.l1d().stats().load_misses;
  c.l1i_load_misses = mem_.l1i().stats().load_misses;
  c.llc_load_misses = mem_.llc_load_misses();
  c.llc_store_misses = mem_.llc_store_misses();
  return c;
}

}  // namespace advh::uarch
