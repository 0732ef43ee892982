#include "nn/conv2d.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/matmul.hpp"

namespace advh::nn {

namespace {
tensor he_normal(shape s, std::size_t fan_in, rng& gen) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return tensor::randn(s, gen, stddev);
}
}  // namespace

conv2d::conv2d(std::string name, const conv2d_config& cfg, rng& gen)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(name_ + ".weight",
              he_normal(shape{cfg.out_channels,
                              cfg.in_channels * cfg.kernel * cfg.kernel},
                        cfg.in_channels * cfg.kernel * cfg.kernel, gen)) {
  ADVH_CHECK(cfg_.in_channels > 0 && cfg_.out_channels > 0);
  ADVH_CHECK(cfg_.kernel > 0 && cfg_.stride > 0);
  if (cfg_.bias) {
    bias_.emplace(name_ + ".bias", tensor(shape{cfg_.out_channels}));
  }
}

shape conv2d::infer_output_shape(const shape& in) const {
  if (in.rank() != 4) {
    throw shape_error(name_ + ": conv2d expects NCHW input, got rank " +
                      std::to_string(in.rank()) + " shape " + in.to_string());
  }
  if (in[1] != cfg_.in_channels) {
    throw shape_error(name_ + ": channel mismatch, configured for " +
                      std::to_string(cfg_.in_channels) +
                      " input channels but would receive " +
                      std::to_string(in[1]));
  }
  if (in[2] + 2 * cfg_.pad < cfg_.kernel || in[3] + 2 * cfg_.pad < cfg_.kernel) {
    throw shape_error(name_ + ": " + std::to_string(cfg_.kernel) + "x" +
                      std::to_string(cfg_.kernel) +
                      " kernel (pad " + std::to_string(cfg_.pad) +
                      ") does not fit input " + in.to_string());
  }
  const ops::conv_geometry g{cfg_.in_channels, in[2],       in[3], cfg_.kernel,
                             cfg_.kernel,      cfg_.stride, cfg_.pad};
  return shape{in[0], cfg_.out_channels, g.out_h(), g.out_w()};
}

tensor conv2d::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, "conv2d expects NCHW input");
  ADVH_CHECK_MSG(x.dims()[1] == cfg_.in_channels,
                 name_ + ": channel mismatch");
  const std::size_t batch = x.dims()[0];

  const ops::conv_geometry g{cfg_.in_channels, x.dims()[2], x.dims()[3],
                             cfg_.kernel,      cfg_.kernel, cfg_.stride,
                             cfg_.pad};
  ADVH_CHECK_MSG(g.in_h + 2 * g.pad >= g.kernel_h &&
                     g.in_w + 2 * g.pad >= g.kernel_w,
                 name_ + ": kernel does not fit the input");
  const std::size_t plane = g.out_h() * g.out_w();
  const std::size_t rows = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  const std::size_t image = cfg_.in_channels * g.in_h * g.in_w;
  // A 1x1, stride-1, unpadded conv's column matrix is its input image.
  const bool pointwise =
      cfg_.kernel == 1 && cfg_.stride == 1 && cfg_.pad == 0;

  // dW = gy * cols^T reads the column matrices; the input gradient reads
  // only the input's shape, so without parameter gradients the forward
  // lowers into scratch as inference does.
  const bool keep_cols = ctx.grad && ctx.param_grads;
  if (ctx.grad) {
    in_dims_ = x.dims();
    param_grads_ = ctx.param_grads;
    cols_.clear();
    if (keep_cols) cols_.reserve(batch);
  }

  tensor out(shape{batch, cfg_.out_channels, g.out_h(), g.out_w()});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* px = x.data().data() + b * image;
    const float* cols = px;
    if (keep_cols) {
      cols_.push_back(ops::im2col(x, b, g));
      cols = cols_.back().data().data();
    } else if (!pointwise) {
      float* scratch = ctx.scratch.get(rows * plane);
      ops::im2col(px, g, scratch);
      cols = scratch;
    }
    // (out_c, rows) x (rows, oh*ow) -> (out_c, oh*ow), into the output.
    float* po = out.data().data() + b * cfg_.out_channels * plane;
    ops::matmul(weight_.value.data().data(), cols, po, cfg_.out_channels,
                rows, plane);
    if (bias_) {
      for (std::size_t c = 0; c < cfg_.out_channels; ++c) {
        const float bv = bias_->value[c];
        for (std::size_t i = 0; i < plane; ++i) po[c * plane + i] += bv;
      }
    }
  }

  if (ctx.trace != nullptr) {
    ADVH_CHECK_MSG(batch == 1, "tracing requires batch size 1");
    layer_trace_entry e;
    e.kind = layer_kind::conv2d;
    e.name = name_;
    e.in_numel = x.numel();
    e.out_numel = out.numel();
    e.weight_bytes =
        (weight_.value.numel() + (bias_ ? bias_->value.numel() : 0)) *
        sizeof(float);
    e.in_channels = cfg_.in_channels;
    e.in_spatial = x.dims()[2] * x.dims()[3];
    e.out_channels = cfg_.out_channels;
    e.out_spatial = plane;
    e.active_inputs = nonzero_indices(x);
    ctx.trace->layers.push_back(std::move(e));
  }
  return out;
}

tensor conv2d::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(in_dims_.rank() == 4, "backward before forward");
  const std::size_t batch = in_dims_[0];
  const ops::conv_geometry g{cfg_.in_channels, in_dims_[2], in_dims_[3],
                             cfg_.kernel,      cfg_.kernel, cfg_.stride,
                             cfg_.pad};
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  ADVH_CHECK(grad_out.dims() ==
             shape({batch, cfg_.out_channels, oh, ow}));

  tensor grad_in(in_dims_);
  for (std::size_t b = 0; b < batch; ++b) {
    tensor gy(shape{cfg_.out_channels, oh * ow});
    const float* pg =
        grad_out.data().data() + b * cfg_.out_channels * oh * ow;
    float* pgy = gy.data().data();
    for (std::size_t i = 0; i < gy.numel(); ++i) pgy[i] = pg[i];

    if (param_grads_) {
      // dW += gy * cols^T  -> (out_c, rows)
      tensor dw = ops::matmul_a_bt(gy, cols_[b]);
      auto wgrad = weight_.grad.data();
      const float* pdw = dw.data().data();
      for (std::size_t i = 0; i < wgrad.size(); ++i) wgrad[i] += pdw[i];

      if (bias_) {
        for (std::size_t c = 0; c < cfg_.out_channels; ++c) {
          double acc = 0.0;
          for (std::size_t i = 0; i < oh * ow; ++i) {
            acc += pgy[c * oh * ow + i];
          }
          bias_->grad[c] += static_cast<float>(acc);
        }
      }
    }

    // dcols = W^T * gy -> (rows, oh*ow), then scatter back.
    tensor dcols = ops::matmul_at_b(weight_.value, gy);
    ops::col2im_accumulate(dcols, b, g, grad_in);
  }
  return grad_in;
}

void conv2d::collect_params(std::vector<parameter*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

}  // namespace advh::nn
