#include "nn/pooling.hpp"

#include <limits>

#include "common/error.hpp"

namespace advh::nn {

namespace {
shape infer_pool_shape(const std::string& name, const shape& in,
                       std::size_t window, std::size_t stride) {
  if (in.rank() != 4) {
    throw shape_error(name + ": pooling expects NCHW input, got " +
                      in.to_string());
  }
  if (in[2] < window || in[3] < window) {
    throw shape_error(name + ": " + std::to_string(window) + "x" +
                      std::to_string(window) + " window does not fit input " +
                      in.to_string());
  }
  return shape{in[0], in[1], (in[2] - window) / stride + 1,
               (in[3] - window) / stride + 1};
}

void record_pool_trace(forward_ctx& ctx, layer_kind kind,
                       const std::string& name, const tensor& x,
                       const tensor& out) {
  if (ctx.trace == nullptr) return;
  layer_trace_entry e;
  e.kind = kind;
  e.name = name;
  e.in_numel = x.numel();
  e.out_numel = out.numel();
  ctx.trace->layers.push_back(std::move(e));
}
}  // namespace

shape maxpool2d::infer_output_shape(const shape& in) const {
  return infer_pool_shape(name_, in, window_, stride_);
}

tensor maxpool2d::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, name_ + ": expects NCHW");
  const std::size_t n = x.dims()[0], c = x.dims()[1], h = x.dims()[2],
                    w = x.dims()[3];
  ADVH_CHECK(h >= window_ && w >= window_);
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;

  if (ctx.grad) in_shape_ = x.dims();
  tensor out(shape{n, c, oh, ow});
  std::vector<std::size_t> argmax(out.numel(), 0);

  const auto st = x.dims().strides();
  std::size_t oidx = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t xx = 0; xx < ow; ++xx, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = y * stride_ + ky;
              const std::size_t ix = xx * stride_ + kx;
              const std::size_t idx =
                  b * st[0] + ch * st[1] + iy * st[2] + ix * st[3];
              const float v = x.data()[idx];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          out.data()[oidx] = best;
          argmax[oidx] = best_idx;
        }
      }
    }
  }
  if (ctx.grad) argmax_ = std::move(argmax);
  record_pool_trace(ctx, layer_kind::maxpool2d, name_, x, out);
  return out;
}

tensor maxpool2d::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(!argmax_.empty(), "backward before forward");
  ADVH_CHECK(grad_out.numel() == argmax_.size());
  tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_in.data()[argmax_[i]] += grad_out.data()[i];
  }
  return grad_in;
}

shape avgpool2d::infer_output_shape(const shape& in) const {
  return infer_pool_shape(name_, in, window_, stride_);
}

tensor avgpool2d::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, name_ + ": expects NCHW");
  const std::size_t n = x.dims()[0], c = x.dims()[1], h = x.dims()[2],
                    w = x.dims()[3];
  ADVH_CHECK(h >= window_ && w >= window_);
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;

  if (ctx.grad) in_shape_ = x.dims();
  tensor out(shape{n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  const float* px = x.data().data();
  float* po = out.data().data();
  for (std::size_t p = 0; p < n * c; ++p) {
    const float* img = px + p * h * w;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t xx = 0; xx < ow; ++xx) {
        double acc = 0.0;
        for (std::size_t ky = 0; ky < window_; ++ky) {
          const float* row = img + (y * stride_ + ky) * w + xx * stride_;
          for (std::size_t kx = 0; kx < window_; ++kx) acc += row[kx];
        }
        *po++ = static_cast<float>(acc) * inv;
      }
    }
  }
  record_pool_trace(ctx, layer_kind::avgpool2d, name_, x, out);
  return out;
}

tensor avgpool2d::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(in_shape_.rank() == 4, "backward before forward");
  const std::size_t oh = grad_out.dims()[2];
  const std::size_t ow = grad_out.dims()[3];
  tensor grad_in(in_shape_);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t b = 0; b < in_shape_[0]; ++b) {
    for (std::size_t ch = 0; ch < in_shape_[1]; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t xx = 0; xx < ow; ++xx) {
          const float g = grad_out.at(b, ch, y, xx) * inv;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              grad_in.at(b, ch, y * stride_ + ky, xx * stride_ + kx) += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

shape global_avgpool::infer_output_shape(const shape& in) const {
  if (in.rank() != 4) {
    throw shape_error(name_ + ": global_avgpool expects NCHW input, got " +
                      in.to_string());
  }
  return shape{in[0], in[1]};
}

tensor global_avgpool::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, name_ + ": expects NCHW");
  const std::size_t n = x.dims()[0], c = x.dims()[1], h = x.dims()[2],
                    w = x.dims()[3];
  if (ctx.grad) in_shape_ = x.dims();
  tensor out(shape{n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* px = x.data().data();
  float* po = out.data().data();
  for (std::size_t p = 0; p < n * c; ++p) {
    const float* img = px + p * h * w;
    double acc = 0.0;
    for (std::size_t i = 0; i < h * w; ++i) acc += img[i];
    po[p] = static_cast<float>(acc) * inv;
  }
  record_pool_trace(ctx, layer_kind::global_avgpool, name_, x, out);
  return out;
}

tensor global_avgpool::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(in_shape_.rank() == 4, "backward before forward");
  tensor grad_in(in_shape_);
  const std::size_t h = in_shape_[2], w = in_shape_[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t b = 0; b < in_shape_[0]; ++b) {
    for (std::size_t ch = 0; ch < in_shape_[1]; ++ch) {
      const float g = grad_out.at(b, ch) * inv;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t xx = 0; xx < w; ++xx) grad_in.at(b, ch, y, xx) = g;
      }
    }
  }
  return grad_in;
}

}  // namespace advh::nn
