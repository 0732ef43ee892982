#include "attack/fgsm.hpp"

#include "common/error.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace advh::attack {

tensor input_gradient(nn::model& m, const tensor& x, std::size_t label,
                      std::size_t& predicted) {
  ADVH_CHECK(x.dims().rank() == 4 && x.dims()[0] == 1);
  nn::forward_ctx ctx;  // inference mode: frozen batch-norm statistics
  ctx.param_grads = false;  // only d loss / d input is read
  tensor logits = m.forward(x, ctx);
  predicted = ops::argmax(logits);
  tensor grad_logits = nn::nll_grad_single(logits, label);
  return m.backward(grad_logits);
}

attack_result fgsm::run(nn::model& m, const tensor& x,
                        std::size_t true_label) {
  ADVH_CHECK(cfg_.epsilon >= 0.0f);
  std::size_t original_pred = 0;

  tensor adv;
  if (cfg_.goal == attack_goal::targeted) {
    // Descend the loss towards the target class.
    tensor g = input_gradient(m, x, cfg_.target_class, original_pred);
    adv = ops::add(x, ops::scale(ops::sign(g), -cfg_.epsilon));
  } else {
    // Ascend the loss w.r.t. the true class.
    tensor g = input_gradient(m, x, true_label, original_pred);
    adv = ops::add(x, ops::scale(ops::sign(g), cfg_.epsilon));
  }
  ops::clamp_inplace(adv, 0.0f, 1.0f);
  return finalize(m, x, std::move(adv), original_pred, true_label);
}

}  // namespace advh::attack
