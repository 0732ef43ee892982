// Composite architecture blocks: residual (ResNet), dense (DenseNet),
// and depthwise-separable (EfficientNet-style) units.
#pragma once

#include <optional>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/layer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace advh::nn {

/// Basic ResNet block: conv-bn-relu-conv-bn plus identity (or strided 1x1
/// projection) skip, followed by ReLU.
class residual_block final : public layer {
 public:
  residual_block(std::string name, std::size_t in_channels,
                 std::size_t out_channels, std::size_t stride, rng& gen);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;
  void collect_state(std::vector<tensor*>& out) override;

  layer_kind kind() const override { return layer_kind::residual_add; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, false, false}; }
  void for_each_child(
      const std::function<void(const layer&)>& fn) const override;

 private:
  std::string name_;
  sequential main_;
  std::optional<sequential> projection_;
  relu out_relu_;
};

/// DenseNet block: `steps` bn-relu-conv3x3(growth) units, each consuming
/// the concatenation of the block input and all previous unit outputs.
class dense_block final : public layer {
 public:
  dense_block(std::string name, std::size_t in_channels, std::size_t growth,
              std::size_t steps, rng& gen);

  tensor forward(const tensor& x, forward_ctx& ctx) override;
  tensor backward(const tensor& grad_out) override;
  void collect_params(std::vector<parameter*>& out) override;
  void collect_state(std::vector<tensor*>& out) override;

  layer_kind kind() const override { return layer_kind::concat; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override;
  trace_contract trace_info() const override { return {true, false, false}; }
  void for_each_child(
      const std::function<void(const layer&)>& fn) const override;

  std::size_t out_channels() const noexcept {
    return in_channels_ + growth_ * units_.size();
  }

 private:
  std::string name_;
  std::size_t in_channels_;
  std::size_t growth_;
  std::vector<std::unique_ptr<sequential>> units_;
  std::vector<std::size_t> unit_channels_;  // each unit's input channels
};

/// DenseNet transition: bn-relu-1x1 conv (channel reduction) + 2x2 avgpool.
std::unique_ptr<sequential> make_dense_transition(std::string name,
                                                  std::size_t in_channels,
                                                  std::size_t out_channels,
                                                  rng& gen);

/// Depthwise-separable unit: depthwise 3x3 (stride) - bn - relu6 -
/// pointwise 1x1 - bn - relu6.
std::unique_ptr<sequential> make_separable_block(std::string name,
                                                 std::size_t in_channels,
                                                 std::size_t out_channels,
                                                 std::size_t stride, rng& gen);

/// Concatenates two NCHW tensors along the channel axis.
tensor cat_channels(const tensor& a, const tensor& b);

/// Splits an NCHW gradient into the first `c_a` channels and the rest.
std::pair<tensor, tensor> split_channels(const tensor& g, std::size_t c_a);

}  // namespace advh::nn
