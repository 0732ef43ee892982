// Top-level model wrapper: owns the layer graph and exposes the hard-label
// prediction interface the AdvHunter defender sees, plus the gradient
// interface the (white-box) adversary uses, plus trace capture for the
// HPC simulator backend.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace advh::nn {

class model {
 public:
  /// `input` is the CHW shape of one example, `classes` the logit width.
  model(std::string name, std::unique_ptr<sequential> net, shape input,
        std::size_t classes);

  const std::string& name() const noexcept { return name_; }
  const shape& input_shape() const noexcept { return input_; }
  std::size_t num_classes() const noexcept { return classes_; }

  /// Forward pass, explicit context (training / tracing).
  tensor forward(const tensor& x, forward_ctx& ctx);

  /// Inference-mode forward.
  tensor forward(const tensor& x);

  /// Gradient of the current cached forward pass w.r.t. its input.
  tensor backward(const tensor& grad_logits);

  /// Hard-label prediction for a batch (N, C, H, W) -> class per row.
  std::vector<std::size_t> predict(const tensor& x);

  /// Hard-label prediction for a single example (batch of one).
  std::size_t predict_one(const tensor& x);

  /// Runs one single-example inference with data-flow tracing enabled.
  /// Returns the trace; the hard-label prediction lands in `predicted`.
  inference_trace trace_inference(const tensor& x, std::size_t& predicted);

  /// Classification accuracy over a labelled batch.
  double accuracy(const tensor& x, const std::vector<std::size_t>& labels);

  std::vector<parameter*> params();
  std::size_t param_count();
  void zero_grad();

  sequential& net() noexcept { return *net_; }

 private:
  std::string name_;
  std::unique_ptr<sequential> net_;
  shape input_;
  std::size_t classes_;
};

}  // namespace advh::nn
