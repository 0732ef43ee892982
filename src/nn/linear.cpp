#include "nn/linear.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/matmul.hpp"

namespace advh::nn {

linear::linear(std::string name, std::size_t in_features,
               std::size_t out_features, rng& gen, bool with_bias)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      weight_(name_ + ".weight",
              tensor::randn(shape{out_features, in_features}, gen,
                            std::sqrt(2.0f / static_cast<float>(in_features)))) {
  ADVH_CHECK(in_ > 0 && out_ > 0);
  if (with_bias) bias_.emplace(name_ + ".bias", tensor(shape{out_}));
}

shape linear::infer_output_shape(const shape& in) const {
  if (in.rank() != 2) {
    throw shape_error(name_ + ": linear expects rank-2 (batch, features) " +
                      "input, got " + in.to_string() +
                      (in.rank() == 4 ? " (missing flatten?)" : ""));
  }
  if (in[1] != in_) {
    throw shape_error(name_ + ": feature-width mismatch, weight matrix is " +
                      std::to_string(out_) + "x" + std::to_string(in_) +
                      " but would receive " + std::to_string(in[1]) +
                      " features");
  }
  return shape{in[0], out_};
}

tensor linear::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 2, name_ + ": linear expects rank-2 input");
  ADVH_CHECK_MSG(x.dims()[1] == in_, name_ + ": feature mismatch");
  if (ctx.grad) {
    in_dims_ = x.dims();
    param_grads_ = ctx.param_grads;
    input_ = param_grads_ ? x : tensor();
  }
  tensor out = ops::matmul_a_bt(x, weight_.value);  // (batch, out)
  if (bias_) {
    const std::size_t batch = x.dims()[0];
    auto o = out.data();
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t j = 0; j < out_; ++j) o[b * out_ + j] += bias_->value[j];
    }
  }

  if (ctx.trace != nullptr) {
    ADVH_CHECK_MSG(x.dims()[0] == 1, "tracing requires batch size 1");
    layer_trace_entry e;
    e.kind = layer_kind::linear;
    e.name = name_;
    e.in_numel = x.numel();
    e.out_numel = out.numel();
    e.weight_bytes =
        (weight_.value.numel() + (bias_ ? bias_->value.numel() : 0)) *
        sizeof(float);
    e.in_channels = in_;
    e.in_spatial = 1;
    e.out_channels = out_;
    e.out_spatial = 1;
    e.active_inputs = nonzero_indices(x);
    ctx.trace->layers.push_back(std::move(e));
  }
  return out;
}

tensor linear::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(in_dims_.rank() == 2, "backward before forward");
  ADVH_CHECK(grad_out.dims() == shape({in_dims_[0], out_}));
  // dW += g^T x ; db += sum over batch ; dx = g W
  if (param_grads_) {
    tensor dw = ops::matmul_at_b(grad_out, input_);  // (out, in)
    auto wg = weight_.grad.data();
    const float* pdw = dw.data().data();
    for (std::size_t i = 0; i < wg.size(); ++i) wg[i] += pdw[i];

    if (bias_) {
      const std::size_t batch = grad_out.dims()[0];
      auto g = grad_out.data();
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t j = 0; j < out_; ++j) {
          bias_->grad[j] += g[b * out_ + j];
        }
      }
    }
  }
  return ops::matmul(grad_out, weight_.value);  // (batch, in)
}

void linear::collect_params(std::vector<parameter*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

}  // namespace advh::nn
