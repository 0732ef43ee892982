// im2col / col2im lowering for convolution.
//
// A (C_in, H, W) input with a (KH, KW) kernel, stride and zero padding is
// unfolded into a (C_in*KH*KW, OH*OW) matrix so convolution becomes a GEMM
// with the (C_out, C_in*KH*KW) weight matrix. col2im scatters gradients
// back for the backward pass.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace advh::ops {

struct conv_geometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  std::size_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
};

/// Unfolds one image (rank-3 view of a single batch element, passed as a
/// rank-4 tensor with N==1) into the column matrix.
tensor im2col(const tensor& input, std::size_t batch_index,
              const conv_geometry& g);

/// The same unfolding from one raw (C_in, H, W) image into caller-owned
/// storage of (C_in*KH*KW) x (OH*OW) floats.
void im2col(const float* image, const conv_geometry& g, float* cols);

/// Scatters a column-matrix gradient back into an image-shaped gradient,
/// accumulating into `grad_input` at the given batch index.
void col2im_accumulate(const tensor& cols, std::size_t batch_index,
                       const conv_geometry& g, tensor& grad_input);

}  // namespace advh::ops
