#include "uarch/static_model.hpp"

#include <algorithm>

namespace advh::uarch {

namespace {

constexpr std::size_t kLine = 64;

std::size_t lines_of(std::size_t bytes) { return (bytes + kLine - 1) / kLine; }

struct accumulator {
  // Instruction count is linear in the per-layer active counts.
  std::uint64_t insn_lo = 0;
  std::uint64_t insn_hi = 0;
  // Branch count is pure shape arithmetic (gate branches are vectorised
  // away; only back-edges and the extra_branches term exist).
  std::uint64_t branches = 0;
  // Back-edges run through gshare; each may or may not mispredict.
  std::uint64_t predicted_branches = 0;
  // Data-side access totals (loads/stores through L1-D).
  std::uint64_t loads_lo = 0;
  std::uint64_t loads_hi = 0;
  std::uint64_t stores_lo = 0;
  std::uint64_t stores_hi = 0;
  // Instruction fetches through L1-I (exact: code sweeps are dense).
  std::uint64_t fetches = 0;
  // Compulsory-miss floors: distinct lines guaranteed to be touched.
  std::uint64_t code_lines = 0;
  std::size_t act_lines[2] = {0, 0};  ///< max sweep extent per ping-pong region
};

}  // namespace

static_envelope analyze_abstract_trace(const nn::inference_trace& trace,
                                       const trace_gen_config& cfg) {
  accumulator a;
  const std::size_t code_lines_per_sweep = cfg.code_bytes_per_layer / kLine;
  bool write_to_second = true;  // mirrors trace_generator ping-pong state

  for (const nn::layer_trace_entry& e : trace.layers) {
    const std::size_t in_region = write_to_second ? 0 : 1;
    const std::size_t out_region = write_to_second ? 1 : 0;
    // The replay's own shape arithmetic: exact whatever the active sets,
    // except the per-active instruction term (active count in [0, in_numel]).
    const shape_work w = entry_shape_work(e, cfg);
    a.insn_lo += w.instructions;
    a.insn_hi += w.instructions + w.insn_per_active * e.in_numel;
    a.branches += w.loop_chunks + w.extra_branches;
    a.predicted_branches += w.loop_chunks;
    a.fetches += w.code_sweeps * code_lines_per_sweep;
    a.code_lines += code_lines_per_sweep;

    switch (e.kind) {
      case nn::layer_kind::conv2d:
      case nn::layer_kind::depthwise_conv2d:
      case nn::layer_kind::linear: {
        const std::size_t out_channels =
            std::max<std::size_t>(e.out_channels, 1);
        const std::size_t out_bytes =
            std::max<std::size_t>(e.out_numel * sizeof(float), kLine);
        const std::size_t fanout =
            std::min<std::size_t>(cfg.accum_fanout, out_channels);

        // Sparsity-dependent gather/accumulate stream: active count is
        // unknown, abstracted to [0, in_numel]. Per active element: one
        // own-value load, panel_lines weight-panel loads, and a
        // load+store pair per fanout plane.
        a.loads_hi += e.in_numel * (1 + cfg.panel_lines + fanout);
        a.stores_hi += e.in_numel * fanout;

        // Dense epilogue: unconditional store sweep of the output buffer.
        const std::size_t epilogue = lines_of(out_bytes);
        a.stores_lo += epilogue;
        a.stores_hi += epilogue;
        a.act_lines[out_region] =
            std::max(a.act_lines[out_region], epilogue);
        write_to_second = !write_to_second;
        break;
      }
      case nn::layer_kind::relu: {
        // In-place vectorised max: load sweep + store sweep of one region.
        const std::size_t in_lines = lines_of(e.in_numel * sizeof(float));
        const std::size_t out_lines = lines_of(e.out_numel * sizeof(float));
        a.loads_lo += in_lines;
        a.loads_hi += in_lines;
        a.stores_lo += out_lines;
        a.stores_hi += out_lines;
        a.act_lines[in_region] = std::max(
            a.act_lines[in_region], std::max(in_lines, out_lines));
        break;  // in place: no buffer flip
      }
      default: {
        // Structural sweep: read one region, write the other.
        const std::size_t in_lines = lines_of(e.in_numel * sizeof(float));
        const std::size_t out_lines = lines_of(e.out_numel * sizeof(float));
        a.loads_lo += in_lines;
        a.loads_hi += in_lines;
        a.stores_lo += out_lines;
        a.stores_hi += out_lines;
        a.act_lines[in_region] = std::max(a.act_lines[in_region], in_lines);
        a.act_lines[out_region] = std::max(a.act_lines[out_region], out_lines);
        write_to_second = !write_to_second;
        break;
      }
    }
  }

  // Compulsory-miss floors. Every distinct line's first access misses the
  // cold L1 and the cold LLC once. The sweep/code access set runs
  // regardless of sparsity, so its distinct-line count is a sound lower
  // bound; the sparsity-dependent gathers only add accesses. An L1-D
  // prefetcher can satisfy data lines ahead of their demand access, so
  // only the instruction-side floor survives when one is enabled.
  const bool prefetching = cfg.caches.l1d_prefetch != prefetcher_kind::none;
  const std::uint64_t data_floor =
      prefetching
          ? 0
          : static_cast<std::uint64_t>(a.act_lines[0]) + a.act_lines[1];

  static_envelope env;
  env.instructions = {static_cast<double>(a.insn_lo),
                      static_cast<double>(a.insn_hi)};
  env.branches = {static_cast<double>(a.branches),
                  static_cast<double>(a.branches)};
  env.branch_misses = {0.0, static_cast<double>(a.predicted_branches)};

  const double data_hi = static_cast<double>(a.loads_hi + a.stores_hi);
  const double fetches_d = static_cast<double>(a.fetches);
  // L1-I is never prefetch-filled, so its compulsory misses — and the LLC
  // accesses they cause — survive prefetching; prefetch fills can turn the
  // corresponding LLC *misses* into hits, so that floor does not.
  env.cache_references = {static_cast<double>(data_floor + a.code_lines),
                          data_hi + fetches_d};
  env.cache_misses = {prefetching ? 0.0
                                  : static_cast<double>(data_floor +
                                                        a.code_lines),
                      data_hi + fetches_d};
  env.l1d_load_misses = {0.0, static_cast<double>(a.loads_hi)};
  env.l1i_load_misses = {static_cast<double>(a.code_lines), fetches_d};
  // Instruction fetches fall through to the LLC on the load path.
  env.llc_load_misses = {prefetching ? 0.0
                                     : static_cast<double>(a.code_lines),
                         static_cast<double>(a.loads_hi) + fetches_d};
  env.llc_store_misses = {0.0, static_cast<double>(a.stores_hi)};
  return env;
}

}  // namespace advh::uarch
