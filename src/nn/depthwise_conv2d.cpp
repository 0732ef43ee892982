#include "nn/depthwise_conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace advh::nn {

depthwise_conv2d::depthwise_conv2d(std::string name,
                                   const depthwise_conv2d_config& cfg,
                                   rng& gen)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(name_ + ".weight",
              tensor::randn(shape{cfg.channels, cfg.kernel * cfg.kernel}, gen,
                            std::sqrt(2.0f / static_cast<float>(
                                                 cfg.kernel * cfg.kernel)))) {
  ADVH_CHECK(cfg_.channels > 0 && cfg_.kernel > 0 && cfg_.stride > 0);
  if (cfg_.bias) {
    bias_.emplace(name_ + ".bias", tensor(shape{cfg_.channels}));
  }
}

shape depthwise_conv2d::infer_output_shape(const shape& in) const {
  if (in.rank() != 4) {
    throw shape_error(name_ + ": depthwise_conv2d expects NCHW input, got " +
                      in.to_string());
  }
  if (in[1] != cfg_.channels) {
    throw shape_error(name_ + ": channel mismatch, configured for " +
                      std::to_string(cfg_.channels) +
                      " channels but would receive " + std::to_string(in[1]));
  }
  if (in[2] + 2 * cfg_.pad < cfg_.kernel || in[3] + 2 * cfg_.pad < cfg_.kernel) {
    throw shape_error(name_ + ": " + std::to_string(cfg_.kernel) + "x" +
                      std::to_string(cfg_.kernel) + " kernel (pad " +
                      std::to_string(cfg_.pad) + ") does not fit input " +
                      in.to_string());
  }
  const std::size_t oh = (in[2] + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  const std::size_t ow = (in[3] + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  return shape{in[0], cfg_.channels, oh, ow};
}

tensor depthwise_conv2d::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, "depthwise_conv2d expects NCHW");
  ADVH_CHECK_MSG(x.dims()[1] == cfg_.channels, name_ + ": channel mismatch");
  const std::size_t batch = x.dims()[0];
  const std::size_t ih = x.dims()[2];
  const std::size_t iw = x.dims()[3];
  ADVH_CHECK(ih + 2 * cfg_.pad >= cfg_.kernel &&
             iw + 2 * cfg_.pad >= cfg_.kernel);
  const std::size_t oh = (ih + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  const std::size_t ow = (iw + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;

  if (ctx.grad) {
    in_dims_ = x.dims();
    param_grads_ = ctx.param_grads;
    input_ = param_grads_ ? x : tensor();
  }
  tensor out(shape{batch, cfg_.channels, oh, ow});
  const auto k = static_cast<std::ptrdiff_t>(cfg_.kernel);
  const auto stride = static_cast<std::ptrdiff_t>(cfg_.stride);
  const auto pad = static_cast<std::ptrdiff_t>(cfg_.pad);
  const auto sih = static_cast<std::ptrdiff_t>(ih);
  const auto siw = static_cast<std::ptrdiff_t>(iw);
  const float* px = x.data().data();
  float* po = out.data().data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < cfg_.channels; ++c) {
      const float* img = px + (b * cfg_.channels + c) * ih * iw;
      const float* w = weight_.value.data().data() +
                       c * cfg_.kernel * cfg_.kernel;
      const float bv = bias_ ? bias_->value[c] : 0.0f;
      for (std::size_t y = 0; y < oh; ++y) {
        // Input row of tap kh is y0 + kh; taps off the image are skipped.
        const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(y) * stride - pad;
        const std::ptrdiff_t kh_lo = std::max<std::ptrdiff_t>(0, -y0);
        const std::ptrdiff_t kh_hi = std::min(k, sih - y0);
        for (std::size_t xw = 0; xw < ow; ++xw) {
          const std::ptrdiff_t x0 =
              static_cast<std::ptrdiff_t>(xw) * stride - pad;
          const std::ptrdiff_t kw_lo = std::max<std::ptrdiff_t>(0, -x0);
          const std::ptrdiff_t kw_hi = std::min(k, siw - x0);
          double acc = bv;
          for (std::ptrdiff_t kh = kh_lo; kh < kh_hi; ++kh) {
            const float* row = img + (y0 + kh) * siw;
            const float* wr = w + kh * k;
            for (std::ptrdiff_t kw = kw_lo; kw < kw_hi; ++kw) {
              acc += static_cast<double>(row[x0 + kw]) * wr[kw];
            }
          }
          *po++ = static_cast<float>(acc);
        }
      }
    }
  }

  if (ctx.trace != nullptr) {
    ADVH_CHECK_MSG(batch == 1, "tracing requires batch size 1");
    layer_trace_entry e;
    e.kind = layer_kind::depthwise_conv2d;
    e.name = name_;
    e.in_numel = x.numel();
    e.out_numel = out.numel();
    e.weight_bytes =
        (weight_.value.numel() + (bias_ ? bias_->value.numel() : 0)) *
        sizeof(float);
    e.in_channels = cfg_.channels;
    e.in_spatial = ih * iw;
    e.out_channels = cfg_.channels;
    e.out_spatial = oh * ow;
    e.active_inputs = nonzero_indices(x);
    ctx.trace->layers.push_back(std::move(e));
  }
  return out;
}

tensor depthwise_conv2d::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(in_dims_.rank() == 4, "backward before forward");
  const std::size_t batch = in_dims_[0];
  const std::size_t ih = in_dims_[2];
  const std::size_t iw = in_dims_[3];
  const std::size_t oh = (ih + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  const std::size_t ow = (iw + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  ADVH_CHECK(grad_out.dims() == shape({batch, cfg_.channels, oh, ow}));

  tensor grad_in(in_dims_);
  const auto k = static_cast<std::ptrdiff_t>(cfg_.kernel);
  const auto stride = static_cast<std::ptrdiff_t>(cfg_.stride);
  const auto pad = static_cast<std::ptrdiff_t>(cfg_.pad);
  const auto sih = static_cast<std::ptrdiff_t>(ih);
  const auto siw = static_cast<std::ptrdiff_t>(iw);
  const float* pg = grad_out.data().data();
  // Each tap accumulates over output positions in (y, x) order, as does
  // each input-gradient element over (y, x, kh, kw).
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < cfg_.channels; ++c) {
      const std::size_t image = (b * cfg_.channels + c) * ih * iw;
      float* gimg = grad_in.data().data() + image;
      const float* img = param_grads_ ? input_.data().data() + image : nullptr;
      const std::size_t filter = c * cfg_.kernel * cfg_.kernel;
      const float* w = weight_.value.data().data() + filter;
      float* dw = weight_.grad.data().data() + filter;
      float* db = param_grads_ && bias_ ? &bias_->grad[c] : nullptr;
      for (std::size_t y = 0; y < oh; ++y) {
        const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(y) * stride - pad;
        const std::ptrdiff_t kh_lo = std::max<std::ptrdiff_t>(0, -y0);
        const std::ptrdiff_t kh_hi = std::min(k, sih - y0);
        for (std::size_t xw = 0; xw < ow; ++xw) {
          const std::ptrdiff_t x0 =
              static_cast<std::ptrdiff_t>(xw) * stride - pad;
          const std::ptrdiff_t kw_lo = std::max<std::ptrdiff_t>(0, -x0);
          const std::ptrdiff_t kw_hi = std::min(k, siw - x0);
          const float g = *pg++;
          if (db != nullptr) *db += g;
          for (std::ptrdiff_t kh = kh_lo; kh < kh_hi; ++kh) {
            float* grow = gimg + (y0 + kh) * siw;
            const float* wr = w + kh * k;
            for (std::ptrdiff_t kw = kw_lo; kw < kw_hi; ++kw) {
              grow[x0 + kw] += g * wr[kw];
            }
            if (img == nullptr) continue;
            const float* row = img + (y0 + kh) * siw;
            float* dwr = dw + kh * k;
            for (std::ptrdiff_t kw = kw_lo; kw < kw_hi; ++kw) {
              dwr[kw] += g * row[x0 + kw];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void depthwise_conv2d::collect_params(std::vector<parameter*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

}  // namespace advh::nn
