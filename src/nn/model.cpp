#include "nn/model.hpp"

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace advh::nn {

model::model(std::string name, std::unique_ptr<sequential> net, shape input,
             std::size_t classes)
    : name_(std::move(name)),
      net_(std::move(net)),
      input_(input),
      classes_(classes) {
  ADVH_CHECK(net_ != nullptr);
  ADVH_CHECK(input_.rank() == 3);
  ADVH_CHECK(classes_ > 1);
}

tensor model::forward(const tensor& x, forward_ctx& ctx) {
  ADVH_CHECK_MSG(x.dims().rank() == 4, "model expects NCHW input");
  ADVH_CHECK_MSG(x.dims()[1] == input_[0] && x.dims()[2] == input_[1] &&
                     x.dims()[3] == input_[2],
                 name_ + ": input shape mismatch, want CHW " +
                     input_.to_string() + " got " + x.dims().to_string());
  return net_->forward(x, ctx);
}

tensor model::forward(const tensor& x) {
  forward_ctx ctx;
  ctx.grad = false;  // inference-only: leave no backward caches behind
  return forward(x, ctx);
}

tensor model::backward(const tensor& grad_logits) {
  return net_->backward(grad_logits);
}

std::vector<std::size_t> model::predict(const tensor& x) {
  return ops::argmax_rows(forward(x));
}

std::size_t model::predict_one(const tensor& x) {
  ADVH_CHECK(x.dims().rank() == 4 && x.dims()[0] == 1);
  return predict(x)[0];
}

inference_trace model::trace_inference(const tensor& x,
                                       std::size_t& predicted) {
  ADVH_CHECK_MSG(x.dims().rank() == 4 && x.dims()[0] == 1,
                 "trace_inference takes a single example");
  inference_trace trace;
  forward_ctx ctx;
  ctx.grad = false;  // tracing is read-only so a shared model stays
                     // safe under concurrent trace_inference calls
  ctx.trace = &trace;
  tensor logits = forward(x, ctx);
  predicted = ops::argmax(logits);
  return trace;
}

double model::accuracy(const tensor& x, const std::vector<std::size_t>& labels) {
  const auto preds = predict(x);
  ADVH_CHECK(preds.size() == labels.size());
  if (preds.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(preds.size());
}

std::vector<parameter*> model::params() {
  std::vector<parameter*> out;
  net_->collect_params(out);
  return out;
}

std::size_t model::param_count() {
  std::size_t n = 0;
  for (parameter* p : params()) n += p->value.numel();
  return n;
}

void model::zero_grad() {
  for (parameter* p : params()) p->zero_grad();
}

}  // namespace advh::nn
