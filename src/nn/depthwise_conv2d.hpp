// Depthwise 2-D convolution (one filter per input channel) — the spatial
// half of the depthwise-separable blocks used by the EfficientNet-style
// scenario model.
#pragma once

#include <optional>

#include "nn/layer.hpp"

namespace advh::nn {

struct depthwise_conv2d_config {
  std::size_t channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;
  bool bias = true;
};

class depthwise_conv2d final : public layer {
 public:
  depthwise_conv2d(std::string name, const depthwise_conv2d_config& cfg,
                   rng& gen);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;

  layer_kind kind() const override { return layer_kind::depthwise_conv2d; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, true, false}; }

  const depthwise_conv2d_config& config() const noexcept { return cfg_; }

 private:
  std::string name_;
  depthwise_conv2d_config cfg_;
  parameter weight_;  // (channels, k*k)
  std::optional<parameter> bias_;

  // backward cache: the input's shape and, when the forward asked for
  // parameter gradients, the input dW reads.
  shape in_dims_;
  bool param_grads_ = false;
  tensor input_;
};

}  // namespace advh::nn
