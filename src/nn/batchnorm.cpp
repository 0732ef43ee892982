#include "nn/batchnorm.hpp"

#include <cmath>

#include "common/error.hpp"

namespace advh::nn {

batchnorm2d::batchnorm2d(std::string name, std::size_t channels,
                         float momentum, float eps)
    : name_(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + ".gamma", tensor(shape{channels}, 1.0f)),
      beta_(name_ + ".beta", tensor(shape{channels})),
      running_mean_(shape{channels}),
      running_var_(shape{channels}, 1.0f) {
  ADVH_CHECK(channels_ > 0);
}

shape batchnorm2d::infer_output_shape(const shape& in) const {
  if (in.rank() != 4) {
    throw shape_error(name_ + ": batchnorm2d expects NCHW input, got " +
                      in.to_string());
  }
  if (in[1] != channels_) {
    throw shape_error(name_ + ": channel mismatch, normalises " +
                      std::to_string(channels_) +
                      " channels but would receive " + std::to_string(in[1]));
  }
  return in;
}

tensor batchnorm2d::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, name_ + ": expects NCHW");
  ADVH_CHECK_MSG(x.dims()[1] == channels_, name_ + ": channel mismatch");
  const std::size_t n = x.dims()[0];
  const std::size_t plane = x.dims()[2] * x.dims()[3];
  const std::size_t per_channel = n * plane;
  ADVH_CHECK(per_channel > 0);
  // Element i of channel c in batch element b sits at px[offset(b, c) + i].
  const auto offset = [&](std::size_t b, std::size_t c) {
    return (b * channels_ + c) * plane;
  };
  const float* px = x.data().data();

  tensor out(x.dims());

  std::vector<float> mean(channels_, 0.0f);
  std::vector<float> var(channels_, 0.0f);

  if (ctx.training) {
    for (std::size_t c = 0; c < channels_; ++c) {
      double sum = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        const float* p = px + offset(b, c);
        for (std::size_t i = 0; i < plane; ++i) sum += p[i];
      }
      const double m = sum / static_cast<double>(per_channel);
      double v = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        const float* p = px + offset(b, c);
        for (std::size_t i = 0; i < plane; ++i) {
          const double d = p[i] - m;
          v += d * d;
        }
      }
      v /= static_cast<double>(per_channel);
      mean[c] = static_cast<float>(m);
      var[c] = static_cast<float>(v);
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * var[c];
    }
  } else {
    for (std::size_t c = 0; c < channels_; ++c) {
      mean[c] = running_mean_[c];
      var[c] = running_var_[c];
    }
  }

  if (ctx.grad) {
    cached_training_ = ctx.training;
    batch_mean_ = mean;
    batch_var_ = var;
    input_ = x;
    xhat_ = tensor(x.dims());
  }
  float* po = out.data().data();
  for (std::size_t c = 0; c < channels_; ++c) {
    const float mc = mean[c];
    const float inv_std = 1.0f / std::sqrt(var[c] + eps_);
    const float gc = gamma_.value[c];
    const float bc = beta_.value[c];
    for (std::size_t b = 0; b < n; ++b) {
      const float* p = px + offset(b, c);
      float* o = po + offset(b, c);
      for (std::size_t i = 0; i < plane; ++i) {
        o[i] = gc * ((p[i] - mc) * inv_std) + bc;
      }
      if (ctx.grad) {
        float* xh = xhat_.data().data() + offset(b, c);
        for (std::size_t i = 0; i < plane; ++i) xh[i] = (p[i] - mc) * inv_std;
      }
    }
  }

  if (ctx.trace != nullptr) {
    layer_trace_entry e;
    e.kind = layer_kind::batchnorm2d;
    e.name = name_;
    e.in_numel = x.numel();
    e.out_numel = out.numel();
    e.weight_bytes = 4 * channels_ * sizeof(float);  // gamma/beta/mean/var
    ctx.trace->layers.push_back(std::move(e));
  }
  return out;
}

tensor batchnorm2d::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(!input_.empty(), "backward before forward");
  ADVH_CHECK(grad_out.dims() == input_.dims());
  const std::size_t n = input_.dims()[0];
  const std::size_t plane = input_.dims()[2] * input_.dims()[3];
  const auto m = static_cast<double>(n * plane);
  tensor grad_in(input_.dims());
  const float* pg = grad_out.data().data();
  const float* pxh = xhat_.data().data();
  float* pgi = grad_in.data().data();

  for (std::size_t c = 0; c < channels_; ++c) {
    const double inv_std = 1.0 / std::sqrt(batch_var_[c] + eps_);
    const float gc = gamma_.value[c];
    double sum_g = 0.0;
    double sum_g_xhat = 0.0;
    // Channel c of batch element b is [(b * C + c) * plane, + plane).
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t o = (b * channels_ + c) * plane;
      for (std::size_t i = o; i < o + plane; ++i) {
        const double g = pg[i];
        sum_g += g;
        sum_g_xhat += g * pxh[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_g_xhat);
    beta_.grad[c] += static_cast<float>(sum_g);

    if (cached_training_) {
      // Full batch-norm gradient (training statistics).
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t o = (b * channels_ + c) * plane;
        for (std::size_t i = o; i < o + plane; ++i) {
          const double g = pg[i];
          const double xh = pxh[i];
          const double gi =
              gc * inv_std * (g - sum_g / m - xh * sum_g_xhat / m);
          pgi[i] = static_cast<float>(gi);
        }
      }
    } else {
      // Inference mode (used by attacks against a frozen model): running
      // stats are constants, so the gradient is a plain affine pass-through.
      // g * gamma is rounded in float before the double inv_std.
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t o = (b * channels_ + c) * plane;
        for (std::size_t i = o; i < o + plane; ++i) {
          pgi[i] = static_cast<float>(pg[i] * gc * inv_std);
        }
      }
    }
  }
  return grad_in;
}

void batchnorm2d::collect_params(std::vector<parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void batchnorm2d::collect_state(std::vector<tensor*>& out) {
  out.push_back(&gamma_.value);
  out.push_back(&beta_.value);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

}  // namespace advh::nn
