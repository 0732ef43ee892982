// Layer abstraction for the from-scratch NN engine.
//
// Every layer supports forward (with optional data-flow tracing) and
// backward (gradient w.r.t. its input, optionally accumulating parameter
// gradients), which is what training and the gradient-based attacks
// (FGSM/PGD/DeepFool) require even though the *defender* in the paper only
// ever runs forward.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/trace.hpp"
#include "tensor/tensor.hpp"

namespace advh::nn {

/// A learnable tensor with its gradient accumulator.
struct parameter {
  std::string name;
  tensor value;
  tensor grad;

  parameter(std::string n, tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.dims()) {}

  void zero_grad() noexcept { grad.fill(0.0f); }
};

class layer {
 public:
  virtual ~layer() = default;

  layer(const layer&) = delete;
  layer& operator=(const layer&) = delete;

  /// Computes the layer output; caches whatever backward needs.
  virtual tensor forward(const tensor& x, forward_ctx& ctx) = 0;

  /// Propagates `grad_out` (d loss / d output) to d loss / d input, adding
  /// into parameter .grad members when that forward() ran with
  /// forward_ctx::param_grads. Must follow a forward() call with grad on.
  virtual tensor backward(const tensor& grad_out) = 0;

  /// Appends pointers to this layer's learnable parameters.
  virtual void collect_params(std::vector<parameter*>& out) { (void)out; }

  /// Appends pointers to *all* persistent tensors (parameters plus
  /// non-learnable buffers such as batch-norm running stats) for
  /// serialization.
  virtual void collect_state(std::vector<tensor*>& out);

  virtual layer_kind kind() const = 0;
  virtual std::string name() const = 0;

  /// Computes the shape this layer would output for input shape `in`
  /// *without executing it* — the basis of the static verifier's symbolic
  /// shape propagation. Throws advh::shape_error with a layer-precise
  /// message when `in` violates the layer's geometry. The default throws
  /// advh::unsupported_error; every shipped layer type overrides it.
  virtual shape infer_output_shape(const shape& in) const;

  /// Declares what this layer's forward() contributes to an inference
  /// trace. The default declares *nothing*, which the static verifier
  /// flags as an error: a layer that computes but emits no trace is
  /// invisible to the HPC simulator and corrupts detection fidelity.
  virtual trace_contract trace_info() const { return {}; }

  /// Invokes `fn` on each directly-owned sub-layer (containers and
  /// composite blocks only); leaves do nothing. Drives the verifier's
  /// graph walk.
  virtual void for_each_child(
      const std::function<void(const layer&)>& fn) const {
    (void)fn;
  }

 protected:
  layer() = default;

  /// Records indices of non-zero elements of `x` into a trace entry's
  /// active-input list (single-batch tensors only).
  static std::vector<std::uint32_t> nonzero_indices(const tensor& x);
};

using layer_ptr = std::unique_ptr<layer>;

}  // namespace advh::nn
