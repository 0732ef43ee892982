// Inference data-flow traces.
//
// AdvHunter's core observation is that *which neurons activate* determines
// the memory-access pattern of inference. When tracing is enabled, each
// parametric layer records which of its input elements were non-zero
// (post-ReLU sparsity) together with its parameter footprint; each
// activation layer records which outputs fired. The uarch trace generator
// (src/uarch/trace_gen) turns these entries into an address stream for the
// cache/branch simulators, and the Figure-1 bench reads the activation
// entries directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace advh::nn {

enum class layer_kind {
  input,
  conv2d,
  depthwise_conv2d,
  linear,
  relu,
  maxpool2d,
  avgpool2d,
  global_avgpool,
  batchnorm2d,
  dropout,
  flatten,
  residual_add,
  concat,
};

/// Returns a stable lowercase name for a layer kind.
std::string to_string(layer_kind kind);

/// One layer execution within a single-input inference.
struct layer_trace_entry {
  layer_kind kind = layer_kind::input;
  std::string name;             ///< layer instance name
  std::size_t in_numel = 0;     ///< input elements
  std::size_t out_numel = 0;    ///< output elements
  std::size_t weight_bytes = 0; ///< parameter bytes this layer reads
  // Geometry for the uarch trace generator (parametric layers only):
  std::size_t in_channels = 0;  ///< channels (conv) / features (linear)
  std::size_t in_spatial = 0;   ///< H*W (conv) / 1 (linear)
  std::size_t out_channels = 0;
  std::size_t out_spatial = 0;
  /// For parametric layers: indices (into the flattened input) of non-zero
  /// input elements — the data-dependent gather set.
  std::vector<std::uint32_t> active_inputs;
  /// For activation layers: indices of outputs that fired (> 0).
  std::vector<std::uint32_t> active_outputs;
};

/// Complete data-flow record of one inference over a batch of size 1.
struct inference_trace {
  std::vector<layer_trace_entry> layers;

  /// Total active (fired) neurons across all activation layers.
  std::size_t total_active_neurons() const noexcept;
};

/// Static declaration of a layer's trace-event contribution: what its
/// forward() appends to forward_ctx::trace. The static verifier
/// (src/analysis) cross-checks these declarations so that trace_inference
/// provably observes the full data flow the HPC simulator fingerprints — a
/// layer that computes but emits no trace corrupts the uarch footprint
/// silently.
struct trace_contract {
  /// forward() appends at least one layer_trace_entry per invocation.
  bool emits_entry = false;
  /// Entries carry the parametric gather set (active_inputs + geometry).
  bool records_active_inputs = false;
  /// Entries carry the activation firing set (active_outputs).
  bool records_active_outputs = false;
};

/// Working memory a layer's inference path borrows for the length of one
/// layer call (conv2d's column matrix). It grows to the largest request and
/// is reused after that. It lives in a forward_ctx, which one thread uses
/// at a time, so concurrent forwards of a shared model never share it.
class scratch_buffer {
 public:
  /// Storage for at least `n` floats, contents unspecified.
  float* get(std::size_t n) {
    if (n > size_) {
      data_ = std::make_unique_for_overwrite<float[]>(n);
      size_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<float[]> data_;
  std::size_t size_ = 0;
};

/// Options threaded through every layer's forward pass.
struct forward_ctx {
  bool training = false;
  /// When true (the default) layers cache whatever backward() needs, which
  /// mutates layer-owned buffers. Pure-inference callers — most importantly
  /// the parallel measurement engine, which runs traced forwards of one
  /// shared model from many workers — set this false; backward() after a
  /// grad=false forward is a programming error.
  bool grad = true;
  /// When non-null (requires batch size 1) layers append trace entries.
  inference_trace* trace = nullptr;
  scratch_buffer scratch;
};

}  // namespace advh::nn
