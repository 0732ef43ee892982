#include "uarch/trace_gen.hpp"

#include <algorithm>

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
    : cfg_(cfg), mem_(cfg.caches), bp_(cfg.predictor_bits) {}

std::uint64_t trace_generator::code_base(std::size_t layer_idx) const {
  return kCodeRegion +
         static_cast<std::uint64_t>(layer_idx) * cfg_.code_bytes_per_layer;
}

trace_generator::entry_shape trace_generator::shape_of(
    const nn::layer_trace_entry& e) noexcept {
  return {e.kind,        e.in_numel,   e.out_numel,    e.weight_bytes,
          e.in_channels, e.in_spatial, e.out_channels, e.out_spatial};
}

bool trace_generator::same_shape(
    const nn::inference_trace& trace) const noexcept {
  return std::equal(trace.layers.begin(), trace.layers.end(), plans_.begin(),
                    plans_.end(),
                    [](const nn::layer_trace_entry& e, const entry_plan& p) {
                      return shape_of(e) == p.shape;
                    });
}

void trace_generator::plan(const nn::inference_trace& trace) {
  plans_.clear();
  offsets_.clear();
  bp_.reset();

  // Static weight layout: consecutive regions in trace order, sized by the
  // unfolded working set. The layout is identical across inferences of the
  // same model, as in a real runtime.
  std::uint64_t next_weight_base = kWeightRegion;
  for (std::size_t idx = 0; idx < trace.layers.size(); ++idx) {
    const auto& e = trace.layers[idx];
    entry_plan p;
    p.shape = shape_of(e);
    p.work = entry_shape_work(e, cfg_);
    p.weight_base = next_weight_base;
    const std::size_t span =
        std::max<std::size_t>(e.weight_bytes, 1) * cfg_.unfold_factor;
    next_weight_base += ((span + kLine - 1) / kLine) * kLine;

    if (e.kind == nn::layer_kind::conv2d ||
        e.kind == nn::layer_kind::depthwise_conv2d ||
        e.kind == nn::layer_kind::linear) {
      const std::size_t in_spatial = std::max<std::size_t>(e.in_spatial, 1);
      const std::size_t out_channels =
          std::max<std::size_t>(e.out_channels, 1);
      const std::size_t out_spatial = std::max<std::size_t>(e.out_spatial, 1);
      const std::size_t w_bytes = std::max<std::size_t>(e.weight_bytes, kLine);
      const std::size_t out_bytes =
          std::max<std::size_t>(e.out_numel * sizeof(float), kLine);
      // The unfolded working set (im2col expands a KxK conv's effective
      // footprint): each input channel owns a contiguous panel of it.
      const std::size_t in_channels = std::max<std::size_t>(e.in_channels, 1);
      p.panel_bytes = std::max<std::size_t>(
          (w_bytes * cfg_.unfold_factor / in_channels + kLine - 1) / kLine *
              kLine,
          kLine);
      const std::size_t panel_lines = p.panel_bytes / kLine;
      const std::size_t out_plane_bytes = out_spatial * sizeof(float);
      p.fanout = std::min<std::size_t>(cfg_.accum_fanout, out_channels);
      p.offsets = offsets_.size();

      // An active input at spatial position s of any channel gathers the
      // same panel lines and accumulates into the same output words, so
      // both offset sets are tabled once per position and the replay
      // divides nothing.
      for (std::size_t s = 0; s < in_spatial; ++s) {
        const std::size_t block = s / cfg_.spatial_block;
        for (std::size_t l = 0; l < cfg_.panel_lines; ++l) {
          offsets_.push_back(((block + l * 0x61ULL) % panel_lines) * kLine);
        }
        const std::size_t spatial_out =
            in_spatial > 1 ? s * out_spatial / in_spatial : 0;
        for (std::size_t f = 0; f < p.fanout; ++f) {
          const std::size_t plane = f * out_channels / p.fanout;
          offsets_.push_back(
              (plane * out_plane_bytes + spatial_out * sizeof(float)) %
              out_bytes);
        }
      }
    }

    // Loop back-edges, taken except on exit, which gshare learns almost
    // perfectly. Nothing else reaches the predictor, so this stream and
    // its statistics depend on the shape alone.
    const std::uint64_t pc = code_base(idx) + 0x8;
    for (std::size_t c = 0; c < p.work.loop_chunks; ++c) {
      bp_.execute(pc, c + 1 != p.work.loop_chunks);
    }
    plans_.push_back(p);
  }
}

void trace_generator::sweep(std::uint64_t base, std::size_t bytes,
                            access_type type) {
  const std::size_t lines = (bytes + kLine - 1) / kLine;
  for (std::size_t l = 0; l < lines; ++l) {
    mem_.data_access(base + l * kLine, type);
  }
}

void trace_generator::code_sweeps(std::size_t layer_idx, std::size_t passes) {
  const std::uint64_t base = code_base(layer_idx);
  const std::size_t lines = cfg_.code_bytes_per_layer / kLine;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const std::uint64_t misses = mem_.l1i().stats().load_misses;
    for (std::size_t l = 0; l < lines; ++l) mem_.fetch(base + l * kLine);
    if (mem_.l1i().stats().load_misses == misses) {
      // A pass that hit on every line reached no LLC and left this layer's
      // lines at the front of their sets in pass order. The next pass
      // finds them so and changes nothing, and neither does any after it.
      mem_.count_fetch_hits((passes - pass - 1) * lines);
      return;
    }
  }
}

void trace_generator::replay_parametric(const nn::layer_trace_entry& e,
                                        const entry_plan& p) {
  const std::uint64_t in_base = write_to_second_ ? kActRegionA : kActRegionB;
  const std::uint64_t out_base = write_to_second_ ? kActRegionB : kActRegionA;
  const std::size_t in_spatial = std::max<std::size_t>(e.in_spatial, 1);
  const std::size_t gathers = cfg_.panel_lines;
  const std::uint64_t* const table = offsets_.data() + p.offsets;

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
  // Channel of the current input, tracked incrementally: active inputs come
  // in ascending order, so the walk only moves forward.
  std::size_t channel_start = 0;  // flat index of the channel's first element
  std::uint64_t panel = p.weight_base;  // the channel's weight panel
  for (std::uint32_t i : e.active_inputs) {
    // Load the element's own value.
    mem_.data_access(in_base + static_cast<std::uint64_t>(i) * sizeof(float),
                     access_type::load);

    if (i < channel_start) {  // out-of-order input: restart the walk
      channel_start = 0;
      panel = p.weight_base;
    }
    while (i - channel_start >= in_spatial) {
      channel_start += in_spatial;
      panel += p.panel_bytes;
    }
    const std::uint64_t* const at =
        table + (i - channel_start) * (gathers + p.fanout);
    for (std::size_t l = 0; l < gathers; ++l) {
      mem_.data_access(panel + at[l], access_type::load);
    }

    // Accumulate into the output window at this spatial position across a
    // sample of output-channel planes.
    for (std::size_t f = 0; f < p.fanout; ++f) {
      mem_.load_store(out_base + at[gathers + f]);
    }
  }

  // Dense epilogue: bias add + write-out of the full output buffer.
  sweep(out_base, std::max<std::size_t>(e.out_numel * sizeof(float), kLine),
        access_type::store);
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
  if (!same_shape(trace)) plan(trace);
  mem_.reset();
  write_to_second_ = true;

  std::uint64_t instructions = 0;
  std::uint64_t extra_branches = 0;
  for (std::size_t idx = 0; idx < trace.layers.size(); ++idx) {
    const auto& e = trace.layers[idx];
    const entry_plan& p = plans_[idx];
    switch (e.kind) {
      case nn::layer_kind::conv2d:
      case nn::layer_kind::depthwise_conv2d:
      case nn::layer_kind::linear:
        replay_parametric(e, p);
        break;
      case nn::layer_kind::relu:
        replay_activation(e);
        break;
      default:
        replay_structural(e);
        break;
    }
    // Then the shape-only work (the loop branches were replayed by plan()),
    // code sweeps last.
    instructions +=
        p.work.instructions + p.work.insn_per_active * e.active_inputs.size();
    extra_branches += p.work.extra_branches;
    code_sweeps(idx, p.work.code_sweeps);
  }

  uarch_counts c;
  c.instructions = instructions;
  c.branches = bp_.stats().branches + extra_branches;
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
