#include "nn/blocks.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace advh::nn {

tensor cat_channels(const tensor& a, const tensor& b) {
  ADVH_CHECK(a.dims().rank() == 4 && b.dims().rank() == 4);
  ADVH_CHECK(a.dims()[0] == b.dims()[0] && a.dims()[2] == b.dims()[2] &&
             a.dims()[3] == b.dims()[3]);
  const std::size_t n = a.dims()[0], ca = a.dims()[1], cb = b.dims()[1],
                    h = a.dims()[2], w = a.dims()[3];
  tensor out(shape{n, ca + cb, h, w});
  const std::size_t plane = h * w;
  for (std::size_t bidx = 0; bidx < n; ++bidx) {
    float* po = out.data().data() + bidx * (ca + cb) * plane;
    const float* pa = a.data().data() + bidx * ca * plane;
    const float* pb = b.data().data() + bidx * cb * plane;
    for (std::size_t i = 0; i < ca * plane; ++i) po[i] = pa[i];
    for (std::size_t i = 0; i < cb * plane; ++i) po[ca * plane + i] = pb[i];
  }
  return out;
}

std::pair<tensor, tensor> split_channels(const tensor& g, std::size_t c_a) {
  ADVH_CHECK(g.dims().rank() == 4);
  ADVH_CHECK(c_a < g.dims()[1]);
  const std::size_t n = g.dims()[0], c = g.dims()[1], h = g.dims()[2],
                    w = g.dims()[3];
  const std::size_t c_b = c - c_a;
  tensor ga(shape{n, c_a, h, w});
  tensor gb(shape{n, c_b, h, w});
  const std::size_t plane = h * w;
  for (std::size_t bidx = 0; bidx < n; ++bidx) {
    const float* pg = g.data().data() + bidx * c * plane;
    float* pa = ga.data().data() + bidx * c_a * plane;
    float* pb = gb.data().data() + bidx * c_b * plane;
    for (std::size_t i = 0; i < c_a * plane; ++i) pa[i] = pg[i];
    for (std::size_t i = 0; i < c_b * plane; ++i) pb[i] = pg[c_a * plane + i];
  }
  return {std::move(ga), std::move(gb)};
}

residual_block::residual_block(std::string name, std::size_t in_channels,
                               std::size_t out_channels, std::size_t stride,
                               rng& gen)
    : name_(std::move(name)), main_(name_ + ".main"), out_relu_(name_ + ".relu_out") {
  main_.emplace<conv2d>(
      name_ + ".conv1",
      conv2d_config{in_channels, out_channels, 3, stride, 1, false}, gen);
  main_.emplace<batchnorm2d>(name_ + ".bn1", out_channels);
  main_.emplace<relu>(name_ + ".relu1");
  main_.emplace<conv2d>(
      name_ + ".conv2",
      conv2d_config{out_channels, out_channels, 3, 1, 1, false}, gen);
  main_.emplace<batchnorm2d>(name_ + ".bn2", out_channels);

  if (stride != 1 || in_channels != out_channels) {
    projection_.emplace(name_ + ".proj");
    projection_->emplace<conv2d>(
        name_ + ".proj_conv",
        conv2d_config{in_channels, out_channels, 1, stride, 0, false}, gen);
    projection_->emplace<batchnorm2d>(name_ + ".proj_bn", out_channels);
  }
}

shape residual_block::infer_output_shape(const shape& in) const {
  const shape main_out = main_.infer_output_shape(in);
  const shape skip_out =
      projection_ ? projection_->infer_output_shape(in) : in;
  if (main_out != skip_out) {
    throw shape_error(
        name_ + ": residual add mismatch, main path produces " +
        main_out.to_string() + " but skip path carries " +
        skip_out.to_string() +
        (projection_ ? "" : " (identity skip needs matching shapes)"));
  }
  return out_relu_.infer_output_shape(main_out);
}

void residual_block::for_each_child(
    const std::function<void(const layer&)>& fn) const {
  fn(main_);
  if (projection_) fn(*projection_);
  fn(out_relu_);
}

tensor residual_block::forward(const tensor& x, forward_ctx& ctx) {
  tensor main_out = main_.forward(x, ctx);
  tensor skip_out = projection_ ? projection_->forward(x, ctx) : x;
  tensor sum = ops::add(main_out, skip_out);
  if (ctx.trace != nullptr) {
    layer_trace_entry e;
    e.kind = layer_kind::residual_add;
    e.name = name_ + ".add";
    e.in_numel = main_out.numel() * 2;
    e.out_numel = sum.numel();
    ctx.trace->layers.push_back(std::move(e));
  }
  return out_relu_.forward(sum, ctx);
}

tensor residual_block::backward(const tensor& grad_out) {
  tensor g = out_relu_.backward(grad_out);
  tensor g_main = main_.backward(g);
  tensor g_skip = projection_ ? projection_->backward(g) : g;
  return ops::add(g_main, g_skip);
}

void residual_block::collect_params(std::vector<parameter*>& out) {
  main_.collect_params(out);
  if (projection_) projection_->collect_params(out);
}

void residual_block::collect_state(std::vector<tensor*>& out) {
  main_.collect_state(out);
  if (projection_) projection_->collect_state(out);
}

dense_block::dense_block(std::string name, std::size_t in_channels,
                         std::size_t growth, std::size_t steps, rng& gen)
    : name_(std::move(name)), in_channels_(in_channels), growth_(growth) {
  ADVH_CHECK(steps > 0 && growth > 0);
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t c_in = in_channels + s * growth;
    auto unit =
        std::make_unique<sequential>(name_ + ".unit" + std::to_string(s));
    unit->emplace<batchnorm2d>(name_ + ".bn" + std::to_string(s), c_in);
    unit->emplace<relu>(name_ + ".relu" + std::to_string(s));
    unit->emplace<conv2d>(name_ + ".conv" + std::to_string(s),
                          conv2d_config{c_in, growth, 3, 1, 1, false}, gen);
    units_.push_back(std::move(unit));
  }
}

shape dense_block::infer_output_shape(const shape& in) const {
  shape cur = in;
  for (const auto& unit : units_) {
    const shape y = unit->infer_output_shape(cur);
    if (y.rank() != 4 || y[0] != cur[0] || y[1] != growth_ ||
        y[2] != cur[2] || y[3] != cur[3]) {
      throw shape_error(unit->name() + ": dense unit must produce " +
                        std::to_string(growth_) +
                        " growth channels at the block's spatial size, " +
                        "would produce " + y.to_string() + " from " +
                        cur.to_string());
    }
    cur = shape{cur[0], cur[1] + growth_, cur[2], cur[3]};
  }
  return cur;
}

void dense_block::for_each_child(
    const std::function<void(const layer&)>& fn) const {
  for (const auto& u : units_) fn(*u);
}

tensor dense_block::forward(const tensor& x, forward_ctx& ctx) {
  if (ctx.grad) unit_channels_.clear();
  tensor cur = x;
  for (auto& unit : units_) {
    if (ctx.grad) unit_channels_.push_back(cur.dims()[1]);
    tensor y = unit->forward(cur, ctx);
    cur = cat_channels(cur, y);
    if (ctx.trace != nullptr) {
      layer_trace_entry e;
      e.kind = layer_kind::concat;
      e.name = unit->name() + ".cat";
      e.in_numel = cur.numel();
      e.out_numel = cur.numel();
      ctx.trace->layers.push_back(std::move(e));
    }
  }
  return cur;
}

tensor dense_block::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(unit_channels_.size() == units_.size(),
                 "backward before forward");
  tensor g = grad_out;
  for (std::size_t s = units_.size(); s-- > 0;) {
    auto [g_prev, g_unit] = split_channels(g, unit_channels_[s]);
    tensor g_from_unit = units_[s]->backward(g_unit);
    g = ops::add(g_prev, g_from_unit);
  }
  return g;
}

void dense_block::collect_params(std::vector<parameter*>& out) {
  for (auto& u : units_) u->collect_params(out);
}

void dense_block::collect_state(std::vector<tensor*>& out) {
  for (auto& u : units_) u->collect_state(out);
}

std::unique_ptr<sequential> make_dense_transition(std::string name,
                                                  std::size_t in_channels,
                                                  std::size_t out_channels,
                                                  rng& gen) {
  auto s = std::make_unique<sequential>(name);
  s->emplace<batchnorm2d>(name + ".bn", in_channels);
  s->emplace<relu>(name + ".relu");
  s->emplace<conv2d>(name + ".conv",
                     conv2d_config{in_channels, out_channels, 1, 1, 0, false},
                     gen);
  s->emplace<avgpool2d>(name + ".pool", 2);
  return s;
}

std::unique_ptr<sequential> make_separable_block(std::string name,
                                                 std::size_t in_channels,
                                                 std::size_t out_channels,
                                                 std::size_t stride, rng& gen) {
  auto s = std::make_unique<sequential>(name);
  s->emplace<depthwise_conv2d>(
      name + ".dw", depthwise_conv2d_config{in_channels, 3, stride, 1, false},
      gen);
  s->emplace<batchnorm2d>(name + ".bn1", in_channels);
  s->emplace<relu>(name + ".relu1", 6.0f);
  s->emplace<conv2d>(name + ".pw",
                     conv2d_config{in_channels, out_channels, 1, 1, 0, false},
                     gen);
  s->emplace<batchnorm2d>(name + ".bn2", out_channels);
  s->emplace<relu>(name + ".relu2", 6.0f);
  return s;
}

}  // namespace advh::nn
