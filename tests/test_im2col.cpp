#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/matmul.hpp"

namespace advh::ops {
namespace {

TEST(ConvGeometry, OutputDims) {
  conv_geometry g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32u);
  EXPECT_EQ(g.out_w(), 32u);
  conv_geometry strided{3, 32, 32, 3, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 16u);
  conv_geometry unpadded{1, 5, 5, 3, 3, 1, 0};
  EXPECT_EQ(unpadded.out_h(), 3u);
}

TEST(Im2col, IdentityKernelReproducesInput) {
  // 1x1 kernel, stride 1, no pad: columns are exactly the flattened input.
  tensor x(shape{1, 2, 3, 3});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  conv_geometry g{2, 3, 3, 1, 1, 1, 0};
  tensor cols = im2col(x, 0, g);
  EXPECT_EQ(cols.dims(), shape({2, 9}));
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    EXPECT_EQ(cols[i], static_cast<float>(i));
  }
}

TEST(Im2col, PaddingProducesZeros) {
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  conv_geometry g{1, 2, 2, 3, 3, 1, 1};
  tensor cols = im2col(x, 0, g);
  // kernel position (0,0) at output (0,0) reads the padded corner.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // center kernel position reproduces the image.
  const std::size_t center_row = 1 * 3 + 1;  // kh=1, kw=1
  EXPECT_EQ(cols.at(center_row, 0), 1.0f);
  EXPECT_EQ(cols.at(center_row, 3), 4.0f);
}

TEST(Im2col, KnownConvolutionResult) {
  // 2x2 image, 2x2 all-ones kernel, no pad: single output = sum of pixels.
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  conv_geometry g{1, 2, 2, 2, 2, 1, 0};
  tensor cols = im2col(x, 0, g);
  tensor w(shape{1, 4}, std::vector<float>{1, 1, 1, 1});
  tensor y = matmul(w, cols);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Im2col, StrideSkipsPositions) {
  tensor x(shape{1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  conv_geometry g{1, 4, 4, 2, 2, 2, 0};
  tensor cols = im2col(x, 0, g);
  EXPECT_EQ(cols.dims(), shape({4, 4}));
  // First kernel element of the 4 output positions: 0, 2, 8, 10.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 2.0f);
  EXPECT_EQ(cols.at(0, 2), 8.0f);
  EXPECT_EQ(cols.at(0, 3), 10.0f);
}

TEST(Im2col, BatchIndexSelectsImage) {
  tensor x(shape{2, 1, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) x[i] = 1.0f;
  for (std::size_t i = 4; i < 8; ++i) x[i] = 2.0f;
  conv_geometry g{1, 2, 2, 1, 1, 1, 0};
  EXPECT_EQ(im2col(x, 0, g)[0], 1.0f);
  EXPECT_EQ(im2col(x, 1, g)[0], 2.0f);
}

TEST(Im2col, GeometryValidation) {
  tensor x(shape{1, 1, 2, 2});
  conv_geometry bad{2, 2, 2, 1, 1, 1, 0};  // channel mismatch
  EXPECT_THROW(im2col(x, 0, bad), invariant_error);
  conv_geometry big_kernel{1, 2, 2, 5, 5, 1, 0};
  EXPECT_THROW(im2col(x, 0, big_kernel), invariant_error);
}

TEST(Col2im, RoundTripAdjoint) {
  // <im2col(x), y> must equal <x, col2im(y)> (adjoint property), which
  // guarantees the conv backward pass computes correct input gradients.
  rng gen(3);
  tensor x = tensor::randn(shape{1, 2, 5, 5}, gen);
  conv_geometry g{2, 5, 5, 3, 3, 2, 1};
  tensor cols = im2col(x, 0, g);

  tensor y = tensor::randn(cols.dims(), gen);
  tensor back(x.dims());
  col2im_accumulate(y, 0, g, back);

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2im, Accumulates) {
  conv_geometry g{1, 2, 2, 1, 1, 1, 0};
  tensor ones(shape{1, 4}, std::vector<float>{1, 1, 1, 1});
  tensor grad(shape{1, 1, 2, 2});
  col2im_accumulate(ones, 0, g, grad);
  col2im_accumulate(ones, 0, g, grad);
  for (float v : grad.data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

// The scatter col2im_accumulate must match: every (c, kh, kw, y, x) in
// order, each input coordinate bounds-checked on its own.
void col2im_per_element(const tensor& cols, std::size_t batch_index,
                        const conv_geometry& g, tensor& grad_input) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
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
            grad_input.at(batch_index, c, static_cast<std::size_t>(iy),
                          static_cast<std::size_t>(ix)) +=
                cols.at(row, y * ow + x);
          }
        }
      }
    }
  }
}

TEST(Col2im, MatchesPerElementScatterBitForBit) {
  rng gen(29);
  for (int trial = 0; trial < 300; ++trial) {
    conv_geometry g;
    g.in_channels = 1 + gen.uniform_index(3);
    g.kernel_h = 1 + gen.uniform_index(5);
    g.kernel_w = 1 + gen.uniform_index(5);
    g.stride = 1 + gen.uniform_index(3);
    g.pad = gen.uniform_index(3);
    // Any extent from the smallest the kernel fits up to 10 pixels more.
    const auto smallest = [&](std::size_t k) -> std::size_t {
      return k > 2 * g.pad ? k - 2 * g.pad : 1;
    };
    g.in_h = smallest(g.kernel_h) + gen.uniform_index(11);
    g.in_w = smallest(g.kernel_w) + gen.uniform_index(11);
    const shape image{2, g.in_channels, g.in_h, g.in_w};
    const tensor cols = tensor::randn(
        shape{g.in_channels * g.kernel_h * g.kernel_w, g.out_h() * g.out_w()},
        gen);
    const tensor start = tensor::randn(image, gen);
    for (std::size_t b = 0; b < 2; ++b) {
      tensor want = start;
      col2im_per_element(cols, b, g, want);
      tensor got = start;
      col2im_accumulate(cols, b, g, got);
      for (std::size_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "trial " << trial << " batch " << b << " element " << i
            << ": C " << g.in_channels << ", " << g.in_h << "x" << g.in_w
            << ", kernel " << g.kernel_h << "x" << g.kernel_w << ", stride "
            << g.stride << ", pad " << g.pad;
      }
    }
  }
}

}  // namespace
}  // namespace advh::ops
