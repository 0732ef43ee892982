// Fully connected layer: y = x W^T + b, x is (batch, in).
#pragma once

#include <optional>

#include "nn/layer.hpp"

namespace advh::nn {

class linear final : public layer {
 public:
  linear(std::string name, std::size_t in_features, std::size_t out_features,
         rng& gen, bool with_bias = true);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;

  layer_kind kind() const override { return layer_kind::linear; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, true, false}; }

  parameter& weight() noexcept { return weight_; }

 private:
  std::string name_;
  std::size_t in_;
  std::size_t out_;
  parameter weight_;  // (out, in)
  std::optional<parameter> bias_;
  tensor input_;
};

}  // namespace advh::nn
