// 2-D convolution (NCHW, OIHW weights) via im2col + GEMM.
#pragma once

#include <optional>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace advh::nn {

struct conv2d_config {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;
  bool bias = true;
};

class conv2d final : public layer {
 public:
  /// Initialises weights with He-normal scaling using `gen`.
  conv2d(std::string name, const conv2d_config& cfg, rng& gen);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;

  layer_kind kind() const override { return layer_kind::conv2d; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, true, false}; }

  const conv2d_config& config() const noexcept { return cfg_; }
  parameter& weight() noexcept { return weight_; }
  parameter* bias() noexcept { return bias_ ? &*bias_ : nullptr; }

 private:
  std::string name_;
  conv2d_config cfg_;
  parameter weight_;             // (out, in*k*k) as a GEMM-ready matrix
  std::optional<parameter> bias_;

  // backward cache: the input's shape and, when the forward asked for
  // parameter gradients, the column matrix of each batch element.
  shape in_dims_;
  bool param_grads_ = false;
  std::vector<tensor> cols_;
};

}  // namespace advh::nn
