// The paper's headline result as a tier-1 test: on S2 under targeted FGSM,
// cache-misses separates adversarial examples from clean inputs of the
// target class, while the pipeline events (instructions, branches) do not.
//
// Protocol and seeds follow bench_table2_core_events (Table 2): the
// committed S2 model, the canonical simulator reader with seed 99, a
// template of M = 40 rows per class drawn with seed 77, and targeted FGSM
// at eps = 0.1 from the bench's attack pool, scored against an equal
// number of correctly classified clean target-class test images.
#include <gtest/gtest.h>

#include "bench/bench_common.hpp"

namespace advh {
namespace {

TEST(PaperResult, CacheMissesSeparatesS2TargetedFgsm) {
  auto rt = core::prepare_scenario(data::scenario_id::s2,
                                   ADVH_REPO_DIR "/advh_models");
  auto monitor = bench::make_monitor(*rt.net, 99);

  core::detector_config dcfg;
  dcfg.events = hpc::core_events();
  dcfg.repeats = 10;
  const auto det = bench::fit_detector(*monitor, dcfg, rt.train, 40, 77);

  constexpr std::size_t kPairs = 40;
  const auto pool = bench::attack_pool(rt, 120);
  const auto adv = bench::collect_adversarial(
      *rt.net, pool, attack::attack_kind::fgsm, attack::attack_goal::targeted,
      0.1f, rt.spec.target_class, kPairs);
  const auto clean =
      bench::clean_of_class(*rt.net, rt.test, rt.spec.target_class, kPairs);
  ASSERT_EQ(adv.inputs.size(), kPairs);
  ASSERT_EQ(clean.size(), kPairs);

  core::detection_eval eval;
  core::evaluate_inputs(det, *monitor, clean, false, eval);
  core::evaluate_inputs(det, *monitor, adv.inputs, true, eval);

  auto f1_of = [&](hpc::hpc_event e) {
    for (std::size_t i = 0; i < dcfg.events.size(); ++i) {
      if (dcfg.events[i] == e) return eval.per_event[i].f1();
    }
    ADD_FAILURE() << "event not configured: " << hpc::to_string(e);
    return 0.0;
  };
  EXPECT_GE(f1_of(hpc::hpc_event::cache_misses), 0.8);
  EXPECT_LE(f1_of(hpc::hpc_event::instructions), 0.2);
  EXPECT_LE(f1_of(hpc::hpc_event::branches), 0.2);
}

}  // namespace
}  // namespace advh
