#include "nn/activations.hpp"

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace advh::nn {

namespace {
/// `alt` where `take` holds, else `v`, as a bitwise select: which units
/// fire is data, so a branch on it mispredicts.
float select(bool take, float alt, float v) {
  const std::uint32_t m = 0u - static_cast<std::uint32_t>(take);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(alt) & m) |
                              (std::bit_cast<std::uint32_t>(v) & ~m));
}
}  // namespace

tensor relu::forward(const tensor& x, forward_ctx& ctx) {
  if (ctx.grad) input_ = x;
  tensor out = x;
  // A negative input becomes +0; -0 and NaN pass, then the clip applies.
  const bool clipped = clip_ > 0.0f;
  for (auto& v : out.data()) {
    v = select(v < 0.0f, 0.0f, v);
    v = select(clipped & (v > clip_), clip_, v);
  }

  if (ctx.trace != nullptr) {
    ADVH_CHECK_MSG(x.dims().rank() < 1 || x.dims()[0] == 1,
                   "tracing requires batch size 1");
    layer_trace_entry e;
    e.kind = layer_kind::relu;
    e.name = name_;
    e.in_numel = x.numel();
    e.out_numel = out.numel();
    e.active_outputs = nonzero_indices(out);
    ctx.trace->layers.push_back(std::move(e));
  }
  return out;
}

tensor relu::backward(const tensor& grad_out) {
  ADVH_CHECK_MSG(!input_.empty(), "backward before forward");
  ADVH_CHECK(grad_out.dims() == input_.dims());
  tensor grad_in = grad_out;
  auto g = grad_in.data();
  auto x = input_.data();
  const bool unclipped = clip_ <= 0.0f;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const bool pass = (x[i] > 0.0f) & (unclipped | (x[i] < clip_));
    g[i] = select(!pass, 0.0f, g[i]);
  }
  return grad_in;
}

}  // namespace advh::nn
