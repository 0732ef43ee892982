#include "tensor/im2col.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace advh::ops {

namespace {
void check_geometry(const tensor& input, std::size_t batch_index,
                    const conv_geometry& g) {
  ADVH_CHECK(input.dims().rank() == 4);
  ADVH_CHECK(batch_index < input.dims()[0]);
  ADVH_CHECK(input.dims()[1] == g.in_channels);
  ADVH_CHECK(input.dims()[2] == g.in_h);
  ADVH_CHECK(input.dims()[3] == g.in_w);
  ADVH_CHECK(g.kernel_h > 0 && g.kernel_w > 0 && g.stride > 0);
  ADVH_CHECK(g.in_h + 2 * g.pad >= g.kernel_h);
  ADVH_CHECK(g.in_w + 2 * g.pad >= g.kernel_w);
}

// Output positions o in [0, out) whose input coordinate
// o * stride + k - pad lies inside [0, extent), as the range [lo, hi).
std::pair<std::size_t, std::size_t> inside(std::size_t k, std::size_t extent,
                                           std::size_t out,
                                           const conv_geometry& g) {
  const auto s = static_cast<std::ptrdiff_t>(g.stride);
  const std::ptrdiff_t off =
      static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(g.pad);
  const std::ptrdiff_t lim = static_cast<std::ptrdiff_t>(extent) - off;
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      lim <= 0 ? 0 : (lim + s - 1) / s, static_cast<std::ptrdiff_t>(out));
  const std::ptrdiff_t lo = std::min(off >= 0 ? 0 : (s - 1 - off) / s, hi);
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}
}  // namespace

void im2col(const float* image, const conv_geometry& g, float* cols) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const auto [y_lo, y_hi] = inside(kh, g.in_h, oh, g);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const auto [x_lo, x_hi] = inside(kw, g.in_w, ow, g);
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        float* out_row = cols + row * oh * ow;
        std::fill(out_row, out_row + y_lo * ow, 0.0f);
        for (std::size_t y = y_lo; y < y_hi; ++y) {
          // Column x reads input column x * stride + kw - pad, which is
          // inside the image for x in [x_lo, x_hi); zero padding elsewhere.
          const float* src =
              image + (c * g.in_h + y * g.stride + kh - g.pad) * g.in_w;
          float* dst = out_row + y * ow;
          std::fill(dst, dst + x_lo, 0.0f);
          if (g.stride == 1 && x_lo < x_hi) {
            std::copy(src + x_lo + kw - g.pad, src + x_hi + kw - g.pad,
                      dst + x_lo);
          } else {
            for (std::size_t x = x_lo; x < x_hi; ++x) {
              dst[x] = src[x * g.stride + kw - g.pad];
            }
          }
          std::fill(dst + x_hi, dst + ow, 0.0f);
        }
        std::fill(out_row + y_hi * ow, out_row + oh * ow, 0.0f);
      }
    }
  }
}

tensor im2col(const tensor& input, std::size_t batch_index,
              const conv_geometry& g) {
  check_geometry(input, batch_index, g);
  tensor cols(shape{g.in_channels * g.kernel_h * g.kernel_w,
                    g.out_h() * g.out_w()});
  im2col(input.data().data() + batch_index * g.in_channels * g.in_h * g.in_w,
         g, cols.data().data());
  return cols;
}

void col2im_accumulate(const tensor& cols, std::size_t batch_index,
                       const conv_geometry& g, tensor& grad_input) {
  check_geometry(grad_input, batch_index, g);
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t rows = g.in_channels * g.kernel_h * g.kernel_w;
  ADVH_CHECK(cols.dims().rank() == 2);
  ADVH_CHECK(cols.dims()[0] == rows);
  ADVH_CHECK(cols.dims()[1] == oh * ow);

  const float* pc = cols.data().data();
  float* pi = grad_input.data().data() +
              batch_index * g.in_channels * g.in_h * g.in_w;

  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const float* in_row = pc + row * oh * ow;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            pi[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
               static_cast<std::size_t>(ix)] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace advh::ops
