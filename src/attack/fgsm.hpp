// Fast Gradient Sign Method (Goodfellow et al., ICLR 2015), L-infinity.
//
// Untargeted: x' = clip(x + eps * sign(d L(x, y_true) / d x)).
// Targeted:   x' = clip(x - eps * sign(d L(x, y_target) / d x)).
#pragma once

#include "attack/attack.hpp"

namespace advh::attack {

class fgsm final : public attack {
 public:
  explicit fgsm(attack_config cfg) : attack(std::move(cfg)) {}

  attack_result run(nn::model& m, const tensor& x,
                    std::size_t true_label) override;

  std::string name() const override { return "FGSM"; }
};

/// Computes d cross_entropy(logits, label) / d input for one example.
/// Shared by FGSM and PGD. Also returns the clean prediction. Runs the
/// input-only backward: every parameter .grad is left as it was.
tensor input_gradient(nn::model& m, const tensor& x, std::size_t label,
                      std::size_t& predicted);

}  // namespace advh::attack
