#include "nn/layer.hpp"

#include "common/error.hpp"

namespace advh::nn {

std::string to_string(layer_kind kind) {
  switch (kind) {
    case layer_kind::input:
      return "input";
    case layer_kind::conv2d:
      return "conv2d";
    case layer_kind::depthwise_conv2d:
      return "depthwise_conv2d";
    case layer_kind::linear:
      return "linear";
    case layer_kind::relu:
      return "relu";
    case layer_kind::maxpool2d:
      return "maxpool2d";
    case layer_kind::avgpool2d:
      return "avgpool2d";
    case layer_kind::global_avgpool:
      return "global_avgpool";
    case layer_kind::batchnorm2d:
      return "batchnorm2d";
    case layer_kind::dropout:
      return "dropout";
    case layer_kind::flatten:
      return "flatten";
    case layer_kind::residual_add:
      return "residual_add";
    case layer_kind::concat:
      return "concat";
  }
  return "unknown";
}

std::size_t inference_trace::total_active_neurons() const noexcept {
  std::size_t n = 0;
  for (const auto& e : layers) n += e.active_outputs.size();
  return n;
}

shape layer::infer_output_shape(const shape& in) const {
  (void)in;
  throw unsupported_error(name() + " (" + to_string(kind()) +
                          "): layer declares no static shape inference");
}

void layer::collect_state(std::vector<tensor*>& out) {
  std::vector<parameter*> params;
  collect_params(params);
  for (parameter* p : params) out.push_back(&p->value);
}

std::vector<std::uint32_t> layer::nonzero_indices(const tensor& x) {
  auto d = x.data();
  // Branch-free compaction: every index is written, only non-zeros advance
  // (which inputs fired is data, so a branch on it mispredicts).
  std::vector<std::uint32_t> idx(d.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    idx[n] = static_cast<std::uint32_t>(i);
    n += d[i] != 0.0f;
  }
  idx.resize(n);
  return idx;
}

}  // namespace advh::nn
