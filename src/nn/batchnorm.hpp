// Per-channel batch normalisation for NCHW activations, with running
// statistics for inference mode.
#pragma once

#include "nn/layer.hpp"

namespace advh::nn {

class batchnorm2d final : public layer {
 public:
  batchnorm2d(std::string name, std::size_t channels, float momentum = 0.1f,
              float eps = 1e-5f);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;
  void collect_state(std::vector<tensor*>& out) override;

  layer_kind kind() const override { return layer_kind::batchnorm2d; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, false, false}; }

  const tensor& running_mean() const noexcept { return running_mean_; }
  const tensor& running_var() const noexcept { return running_var_; }
  std::size_t channels() const noexcept { return channels_; }
  float momentum() const noexcept { return momentum_; }
  float epsilon() const noexcept { return eps_; }

 private:
  std::string name_;
  std::size_t channels_;
  float momentum_;
  float eps_;
  parameter gamma_;
  parameter beta_;
  tensor running_mean_;
  tensor running_var_;

  // backward cache: the input's shape, the variance the forward used
  // and, unless the statistics were frozen and no parameter gradients
  // were asked for, the normalised input.
  shape in_dims_;
  tensor xhat_;
  std::vector<float> batch_var_;
  bool cached_training_ = false;
  bool param_grads_ = false;
};

}  // namespace advh::nn
