// Detection-aware adversary: minimal-strength attack search.
//
// An attacker who knows a side-channel detector is watching wants the
// *smallest* perturbation that still flips the model, since the HPC
// disturbance grows with the activation disturbance. This wraps any
// epsilon-parameterised attack in a bisection over epsilon and returns the
// weakest successful adversarial example. No bench evaluates AdvHunter
// against it yet; tests/test_extensions.cpp covers the search itself.
#pragma once

#include "attack/attack.hpp"

namespace advh::attack {

struct min_eps_config {
  attack_kind kind = attack_kind::pgd;
  attack_goal goal = attack_goal::untargeted;
  std::size_t target_class = 0;
  float eps_lo = 0.0f;     ///< known-failing strength
  float eps_hi = 0.3f;     ///< initial upper bound (doubled if it fails)
  float tolerance = 0.005f;  ///< bisection stop width
  std::size_t max_doublings = 3;
  std::size_t pgd_steps = 10;
};

struct min_eps_result {
  attack_result result;    ///< attack at the minimal successful epsilon
  float epsilon = 0.0f;
  bool found = false;
};

/// Bisects epsilon for one example. Deterministic given the model.
min_eps_result find_minimal_epsilon(nn::model& m, const tensor& x,
                                    std::size_t true_label,
                                    const min_eps_config& cfg);

}  // namespace advh::attack
