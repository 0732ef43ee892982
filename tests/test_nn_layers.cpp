// Layer-level tests: forward semantics and finite-difference gradient
// checks for every layer type. The gradient checks are what guarantee the
// attacks (which differentiate through the whole network) are correct.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/simple_layers.hpp"

namespace advh::nn {
namespace {

/// Central-difference check of d(sum(w * f(x)))/dx against backward().
/// `w` is a fixed random cotangent to probe all outputs at once.
void check_input_gradient(layer& l, const tensor& x, double tol = 2e-2,
                          bool training = false) {
  rng gen(99);
  forward_ctx ctx;
  ctx.training = training;
  tensor y = l.forward(x, ctx);
  tensor cotangent = tensor::randn(y.dims(), gen);
  tensor grad = l.backward(cotangent);
  ASSERT_EQ(grad.dims(), x.dims());

  const float eps = 1e-2f;
  rng probe_gen(7);
  // Probe a sample of input coordinates.
  const std::size_t probes = std::min<std::size_t>(x.numel(), 24);
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t i =
        static_cast<std::size_t>(probe_gen.uniform_index(x.numel()));
    tensor xp = x;
    xp[i] += eps;
    tensor xm = x;
    xm[i] -= eps;
    forward_ctx c2;
    c2.training = training;
    // Dropout and batch-norm training statistics make the function
    // stochastic/batch-coupled; tests only use deterministic settings.
    tensor yp = l.forward(xp, c2);
    tensor ym = l.forward(xm, c2);
    double fd = 0.0;
    for (std::size_t j = 0; j < yp.numel(); ++j) {
      fd += (static_cast<double>(yp[j]) - ym[j]) * cotangent[j];
    }
    fd /= 2.0 * eps;
    EXPECT_NEAR(grad[i], fd, tol * std::max(1.0, std::fabs(fd)))
        << "coordinate " << i;
  }
  // Restore the cached forward state for callers that keep using l.
  forward_ctx c3;
  c3.training = training;
  l.forward(x, c3);
}

/// Finite-difference check of parameter gradients.
void check_param_gradient(layer& l, const tensor& x, double tol = 2e-2,
                          bool training = false) {
  rng gen(123);
  forward_ctx ctx;
  ctx.training = training;
  tensor y = l.forward(x, ctx);
  tensor cotangent = tensor::randn(y.dims(), gen);

  std::vector<parameter*> params;
  l.collect_params(params);
  ASSERT_FALSE(params.empty());
  for (parameter* p : params) p->zero_grad();
  l.backward(cotangent);

  const float eps = 1e-2f;
  rng probe_gen(11);
  for (parameter* p : params) {
    const std::size_t probes = std::min<std::size_t>(p->value.numel(), 8);
    for (std::size_t q = 0; q < probes; ++q) {
      const std::size_t i =
          static_cast<std::size_t>(probe_gen.uniform_index(p->value.numel()));
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      forward_ctx c2;
      c2.training = training;
      tensor yp = l.forward(x, c2);
      p->value[i] = saved - eps;
      tensor ym = l.forward(x, c2);
      p->value[i] = saved;
      double fd = 0.0;
      for (std::size_t j = 0; j < yp.numel(); ++j) {
        fd += (static_cast<double>(yp[j]) - ym[j]) * cotangent[j];
      }
      fd /= 2.0 * eps;
      EXPECT_NEAR(p->grad[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << p->name << " coordinate " << i;
    }
  }
}

TEST(Conv2d, OutputShape) {
  rng gen(1);
  conv2d conv("c", {3, 8, 3, 1, 1, true}, gen);
  forward_ctx ctx;
  tensor y = conv.forward(tensor(shape{2, 3, 16, 16}), ctx);
  EXPECT_EQ(y.dims(), shape({2, 8, 16, 16}));
}

TEST(Conv2d, StrideHalvesResolution) {
  rng gen(1);
  conv2d conv("c", {4, 4, 3, 2, 1, false}, gen);
  forward_ctx ctx;
  tensor y = conv.forward(tensor(shape{1, 4, 8, 8}), ctx);
  EXPECT_EQ(y.dims(), shape({1, 4, 4, 4}));
}

TEST(Conv2d, KnownAveragingKernel) {
  rng gen(1);
  conv2d conv("c", {1, 1, 3, 1, 1, false}, gen);
  conv.weight().value.fill(1.0f);
  forward_ctx ctx;
  tensor x(shape{1, 1, 3, 3}, std::vector<float>(9, 1.0f));
  tensor y = conv.forward(x, ctx);
  // Center output sums all 9 ones; corner sums the 4 in-bounds taps.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
}

TEST(Conv2d, InputGradient) {
  rng gen(2);
  conv2d conv("c", {2, 3, 3, 1, 1, true}, gen);
  check_input_gradient(conv, tensor::randn(shape{1, 2, 6, 6}, gen));
}

TEST(Conv2d, ParamGradient) {
  rng gen(3);
  conv2d conv("c", {2, 3, 3, 2, 1, true}, gen);
  check_param_gradient(conv, tensor::randn(shape{2, 2, 6, 6}, gen));
}

TEST(Conv2d, ChannelMismatchThrows) {
  rng gen(1);
  conv2d conv("c", {3, 4, 3, 1, 1, true}, gen);
  forward_ctx ctx;
  EXPECT_THROW(conv.forward(tensor(shape{1, 2, 8, 8}), ctx), invariant_error);
}

TEST(DepthwiseConv2d, OutputShapeAndChannels) {
  rng gen(4);
  depthwise_conv2d conv("dw", {6, 3, 2, 1, true}, gen);
  forward_ctx ctx;
  tensor y = conv.forward(tensor(shape{1, 6, 8, 8}), ctx);
  EXPECT_EQ(y.dims(), shape({1, 6, 4, 4}));
}

TEST(DepthwiseConv2d, ChannelsAreIndependent) {
  rng gen(4);
  depthwise_conv2d conv("dw", {2, 3, 1, 1, false}, gen);
  forward_ctx ctx;
  // Energy in channel 0 only must not leak into channel 1.
  tensor x(shape{1, 2, 5, 5});
  x.at(0, 0, 2, 2) = 1.0f;
  tensor y = conv.forward(x, ctx);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(y.at(0, 1, i, j), 0.0f);
}

TEST(DepthwiseConv2d, InputGradient) {
  rng gen(5);
  depthwise_conv2d conv("dw", {3, 3, 1, 1, true}, gen);
  check_input_gradient(conv, tensor::randn(shape{1, 3, 6, 6}, gen));
}

TEST(DepthwiseConv2d, ParamGradient) {
  rng gen(6);
  depthwise_conv2d conv("dw", {2, 3, 2, 1, true}, gen);
  check_param_gradient(conv, tensor::randn(shape{1, 2, 6, 6}, gen));
}

TEST(Linear, KnownAffineMap) {
  rng gen(7);
  linear fc("fc", 2, 2, gen);
  fc.weight().value = tensor(shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  forward_ctx ctx;
  tensor x(shape{1, 2}, std::vector<float>{1.0f, 1.0f});
  tensor y = fc.forward(x, ctx);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Linear, InputGradient) {
  rng gen(8);
  linear fc("fc", 6, 4, gen);
  check_input_gradient(fc, tensor::randn(shape{3, 6}, gen));
}

TEST(Linear, ParamGradient) {
  rng gen(9);
  linear fc("fc", 5, 3, gen);
  check_param_gradient(fc, tensor::randn(shape{2, 5}, gen));
}

TEST(Relu, ZeroesNegatives) {
  relu act("r");
  forward_ctx ctx;
  tensor x(shape{4}, std::vector<float>{-1.0f, 0.0f, 0.5f, 2.0f});
  tensor y = act.forward(x, ctx);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  EXPECT_EQ(y[3], 2.0f);
}

TEST(Relu, ClipActsAsRelu6) {
  relu act("r6", 6.0f);
  forward_ctx ctx;
  tensor x(shape{2}, std::vector<float>{3.0f, 10.0f});
  tensor y = act.forward(x, ctx);
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_EQ(y[1], 6.0f);
}

TEST(Relu, GradientMasksInactive) {
  relu act("r");
  forward_ctx ctx;
  tensor x(shape{3}, std::vector<float>{-1.0f, 1.0f, 2.0f});
  act.forward(x, ctx);
  tensor g(shape{3}, std::vector<float>{5.0f, 5.0f, 5.0f});
  tensor gx = act.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 5.0f);
  EXPECT_EQ(gx[2], 5.0f);
}

TEST(Relu, TraceRecordsActiveOutputs) {
  relu act("r");
  inference_trace trace;
  forward_ctx ctx;
  ctx.trace = &trace;
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{-1.0f, 2.0f, 0.0f, 3.0f});
  act.forward(x, ctx);
  ASSERT_EQ(trace.layers.size(), 1u);
  EXPECT_EQ(trace.layers[0].active_outputs,
            (std::vector<std::uint32_t>{1, 3}));
}

TEST(Relu, SpecialValuesKeepTheScalarLoopsBits) {
  using limits = std::numeric_limits<float>;
  const float six = 6.0f;
  const std::vector<float> values{
      0.0f, -0.0f, 1.0f, -1.0f, limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(), limits::denorm_min(),
      -limits::denorm_min(), 1e-39f, -1e-39f, limits::min(), -limits::min(),
      std::nextafter(six, 0.0f), six, std::nextafter(six, 7.0f), 7.0f,
      limits::max(), -limits::max()};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const float clip : {0.0f, six}) {
    relu act("r", clip);
    forward_ctx ctx;
    const tensor x(shape{values.size()}, values);
    const tensor y = act.forward(x, ctx);
    // The gradient flowing in carries the same special values, reversed.
    const tensor g(shape{values.size()},
                   std::vector<float>(values.rbegin(), values.rend()));
    const tensor gx = act.backward(g);
    for (std::size_t i = 0; i < values.size(); ++i) {
      float want_y = values[i];
      if (want_y < 0.0f) want_y = 0.0f;
      if (clip > 0.0f && want_y > clip) want_y = clip;
      float want_g = g[i];
      const float v = values[i];
      if (!(v > 0.0f && (clip <= 0.0f || v < clip))) want_g = 0.0f;
      EXPECT_EQ(bits(y[i]), bits(want_y)) << "clip " << clip << ", x " << i;
      EXPECT_EQ(bits(gx[i]), bits(want_g)) << "clip " << clip << ", x " << i;
    }
  }
}

TEST(MaxPool, SelectsMaxima) {
  maxpool2d pool("p", 2);
  forward_ctx ctx;
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, 3.0f, 2.0f});
  tensor y = pool.forward(x, ctx);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool, GradientRoutesToArgmax) {
  maxpool2d pool("p", 2);
  forward_ctx ctx;
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, 3.0f, 2.0f});
  pool.forward(x, ctx);
  tensor g(shape{1, 1, 1, 1}, std::vector<float>{7.0f});
  tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 7.0f);
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(AvgPool, Averages) {
  avgpool2d pool("p", 2);
  forward_ctx ctx;
  tensor x(shape{1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 6.0f});
  tensor y = pool.forward(x, ctx);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPool, InputGradient) {
  rng gen(10);
  avgpool2d pool("p", 2);
  check_input_gradient(pool, tensor::randn(shape{1, 2, 4, 4}, gen));
}

TEST(GlobalAvgPool, ReducesToChannels) {
  global_avgpool gap("g");
  forward_ctx ctx;
  tensor x(shape{1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) x[i] = 2.0f;      // channel 0
  for (std::size_t i = 4; i < 8; ++i) x[i] = 4.0f;      // channel 1
  tensor y = gap.forward(x, ctx);
  EXPECT_EQ(y.dims(), shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
}

TEST(GlobalAvgPool, InputGradient) {
  rng gen(11);
  global_avgpool gap("g");
  check_input_gradient(gap, tensor::randn(shape{2, 3, 4, 4}, gen));
}

TEST(BatchNorm, NormalisesInTraining) {
  rng gen(12);
  batchnorm2d bn("bn", 2);
  forward_ctx ctx;
  ctx.training = true;
  tensor x = tensor::randn(shape{4, 2, 5, 5}, gen, 3.0f);
  tensor y = bn.forward(x, ctx);
  // Per-channel output must be ~zero-mean unit-variance.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sumsq = 0.0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j) {
          const double v = y.at(b, c, i, j);
          sum += v;
          sumsq += v * v;
        }
    const double n = 4 * 25;
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sumsq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndApply) {
  rng gen(13);
  batchnorm2d bn("bn", 1, /*momentum=*/0.5f);
  forward_ctx train_ctx;
  train_ctx.training = true;
  for (int i = 0; i < 20; ++i) {
    tensor x = tensor::randn(shape{8, 1, 4, 4}, gen, 2.0f);
    for (auto& v : x.data()) v += 5.0f;
    bn.forward(x, train_ctx);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0, 0.3);
  EXPECT_NEAR(bn.running_var()[0], 4.0, 0.8);

  // Inference mode uses the running stats.
  forward_ctx infer_ctx;
  tensor x(shape{1, 1, 1, 1}, std::vector<float>{5.0f});
  tensor y = bn.forward(x, infer_ctx);
  EXPECT_NEAR(y[0], 0.0, 0.2);
}

TEST(BatchNorm, InferenceInputGradient) {
  rng gen(14);
  batchnorm2d bn("bn", 3);
  // Give the running stats some non-trivial values first.
  forward_ctx train_ctx;
  train_ctx.training = true;
  bn.forward(tensor::randn(shape{8, 3, 4, 4}, gen), train_ctx);
  check_input_gradient(bn, tensor::randn(shape{1, 3, 4, 4}, gen), 2e-2,
                       /*training=*/false);
}

TEST(BatchNorm, TrainingInputGradient) {
  rng gen(15);
  batchnorm2d bn("bn", 2);
  check_input_gradient(bn, tensor::randn(shape{3, 2, 3, 3}, gen), 5e-2,
                       /*training=*/true);
}

TEST(BatchNorm, ParamGradient) {
  rng gen(16);
  batchnorm2d bn("bn", 2);
  check_param_gradient(bn, tensor::randn(shape{3, 2, 3, 3}, gen), 5e-2,
                       /*training=*/true);
}

TEST(Flatten, ShapeRoundTrip) {
  flatten fl("f");
  forward_ctx ctx;
  tensor x = tensor(shape{2, 3, 4, 4});
  tensor y = fl.forward(x, ctx);
  EXPECT_EQ(y.dims(), shape({2, 48}));
  tensor gx = fl.backward(y);
  EXPECT_EQ(gx.dims(), x.dims());
}

TEST(Dropout, IdentityInInference) {
  rng gen(17);
  dropout d("d", 0.5f, gen);
  forward_ctx ctx;  // inference
  tensor x = tensor::randn(shape{100}, gen);
  tensor y = d.forward(x, ctx);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, ScalesKeptUnitsInTraining) {
  rng gen(18);
  dropout d("d", 0.5f, gen);
  forward_ctx ctx;
  ctx.training = true;
  tensor x = tensor::full(shape{10000}, 1.0f);
  tensor y = d.forward(x, ctx);
  std::size_t kept = 0;
  for (float v : y.data()) {
    if (v != 0.0f) {
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / keep_prob
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / 10000.0, 0.5, 0.03);
}

TEST(ResidualBlock, IdentitySkipPreservesShape) {
  rng gen(19);
  residual_block block("b", 4, 4, 1, gen);
  forward_ctx ctx;
  tensor y = block.forward(tensor::randn(shape{1, 4, 8, 8}, gen), ctx);
  EXPECT_EQ(y.dims(), shape({1, 4, 8, 8}));
}

TEST(ResidualBlock, ProjectionChangesShape) {
  rng gen(20);
  residual_block block("b", 4, 8, 2, gen);
  forward_ctx ctx;
  tensor y = block.forward(tensor::randn(shape{1, 4, 8, 8}, gen), ctx);
  EXPECT_EQ(y.dims(), shape({1, 8, 4, 4}));
}

TEST(ResidualBlock, InputGradient) {
  rng gen(21);
  residual_block block("b", 3, 6, 2, gen);
  // Inference-mode gradient (what attacks use).
  check_input_gradient(block, tensor::randn(shape{1, 3, 6, 6}, gen), 3e-2);
}

TEST(DenseBlock, ChannelGrowth) {
  rng gen(22);
  dense_block block("d", 4, 3, 2, gen);
  EXPECT_EQ(block.out_channels(), 10u);
  forward_ctx ctx;
  tensor y = block.forward(tensor::randn(shape{1, 4, 8, 8}, gen), ctx);
  EXPECT_EQ(y.dims(), shape({1, 10, 8, 8}));
}

TEST(DenseBlock, InputGradient) {
  rng gen(23);
  dense_block block("d", 3, 2, 2, gen);
  check_input_gradient(block, tensor::randn(shape{1, 3, 5, 5}, gen), 3e-2);
}

TEST(CatChannels, ConcatenatesAndSplitsBack) {
  rng gen(24);
  tensor a = tensor::randn(shape{2, 3, 4, 4}, gen);
  tensor b = tensor::randn(shape{2, 2, 4, 4}, gen);
  tensor c = cat_channels(a, b);
  EXPECT_EQ(c.dims(), shape({2, 5, 4, 4}));
  auto [ga, gb] = split_channels(c, 3);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(ga[i], a[i]);
  for (std::size_t i = 0; i < b.numel(); ++i) EXPECT_EQ(gb[i], b[i]);
}

TEST(SeparableBlock, ShapeAndTrace) {
  rng gen(25);
  auto block = make_separable_block("s", 4, 8, 2, gen);
  inference_trace trace;
  forward_ctx ctx;
  ctx.trace = &trace;
  tensor y = block->forward(tensor::randn(shape{1, 4, 8, 8}, gen), ctx);
  EXPECT_EQ(y.dims(), shape({1, 8, 4, 4}));
  // depthwise + bn + relu + pointwise + bn + relu = 6 trace entries.
  EXPECT_EQ(trace.layers.size(), 6u);
  EXPECT_EQ(trace.layers[0].kind, layer_kind::depthwise_conv2d);
}

}  // namespace
}  // namespace advh::nn
