// End-to-end integration tests: train a small model on a synthetic task,
// run the full AdvHunter offline + online pipeline through the simulator
// backend, and check the detection behaviour the paper reports — strong
// cache-miss detection, chance-level instruction/branch detection, low
// false-positive rate on clean inputs.
#include <gtest/gtest.h>

#include "attack/metrics.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "nn/trainer.hpp"

namespace advh {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::synthetic_spec spec;
    spec.name = "integration";
    spec.channels = 1;
    spec.height = 16;
    spec.width = 16;
    spec.classes = 4;
    spec.seed = 2024;
    spec.confusable_pairs = false;
    spec.hard_fraction = 0.05;
    train_ = new data::dataset(data::make_synthetic(spec, 70));
    spec.sample_seed = 1;
    test_ = new data::dataset(data::make_synthetic(spec, 30));

    model_ = nn::make_model(nn::architecture::case_study_cnn,
                            shape{1, 16, 16}, 4, 3)
                 .release();
    nn::train_config cfg;
    cfg.epochs = 4;
    nn::train_classifier(*model_, train_->images, train_->labels, cfg);
    ASSERT_GT(model_->accuracy(test_->images, test_->labels), 0.85);

    monitor_ = new hpc::resilient_monitor(
        std::make_unique<hpc::sim_backend>(*model_),
        hpc::resilience_config::naive());

    core::detector_config dcfg;
    dcfg.events = hpc::core_events();
    dcfg.repeats = 10;
    const auto tpl = core::collect_template(*monitor_, dcfg, *train_, 30, 7);
    detector_ = new core::detector(core::detector::fit(tpl, dcfg));
  }

  static void TearDownTestSuite() {
    delete detector_;
    delete monitor_;
    delete model_;
    delete test_;
    delete train_;
    detector_ = nullptr;
    monitor_ = nullptr;
    model_ = nullptr;
    test_ = nullptr;
    train_ = nullptr;
  }

  static std::size_t event_index(hpc::hpc_event e) {
    const auto events = hpc::core_events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i] == e) return i;
    }
    throw invariant_error("event not in core set");
  }

  static nn::model* model_;
  static data::dataset* train_;
  static data::dataset* test_;
  static hpc::resilient_monitor* monitor_;
  static core::detector* detector_;
};

nn::model* IntegrationTest::model_ = nullptr;
data::dataset* IntegrationTest::train_ = nullptr;
data::dataset* IntegrationTest::test_ = nullptr;
hpc::resilient_monitor* IntegrationTest::monitor_ = nullptr;
core::detector* IntegrationTest::detector_ = nullptr;

TEST_F(IntegrationTest, CleanInputsRarelyFlaggedOnCacheMisses) {
  const std::size_t cm = event_index(hpc::hpc_event::cache_misses);
  std::size_t flagged = 0, total = 0;
  for (std::size_t i = 0; i < test_->size(); ++i) {
    tensor x = nn::single_example(test_->images, i);
    if (model_->predict_one(x) != test_->labels[i]) continue;
    const auto v = detector_->classify(*monitor_, x);
    ++total;
    if (v.flagged[cm]) ++flagged;
  }
  ASSERT_GT(total, 50u);
  // Three-sigma rule: single-digit-percent false positives.
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(total), 0.15);
}

TEST_F(IntegrationTest, AdversarialInputsFlaggedOnCacheMisses) {
  const std::size_t cm = event_index(hpc::hpc_event::cache_misses);
  attack::attack_config cfg;
  cfg.epsilon = 0.3f;
  auto atk = attack::make_attack(attack::attack_kind::fgsm, cfg);

  std::size_t adv_flagged = 0, total = 0;
  for (std::size_t i = 0; i < test_->size() && total < 40; ++i) {
    tensor x = nn::single_example(test_->images, i);
    if (model_->predict_one(x) != test_->labels[i]) continue;
    auto r = atk->run(*model_, x, test_->labels[i]);
    if (!r.success) continue;
    const auto v = detector_->classify(*monitor_, r.adversarial);
    ++total;
    if (v.flagged[cm]) ++adv_flagged;
  }
  ASSERT_GT(total, 10u);
  const double adv_rate =
      static_cast<double>(adv_flagged) / static_cast<double>(total);

  // Clean baseline flag rate on the same event.
  std::size_t clean_flagged = 0, clean_total = 0;
  for (std::size_t i = 0; i < test_->size() && clean_total < 40; ++i) {
    tensor x = nn::single_example(test_->images, i);
    if (model_->predict_one(x) != test_->labels[i]) continue;
    ++clean_total;
    if (detector_->classify(*monitor_, x).flagged[cm]) ++clean_flagged;
  }
  const double clean_rate =
      static_cast<double>(clean_flagged) / static_cast<double>(clean_total);

  // The tiny 16x16 fixture has less data-flow signal than the full
  // 32x32 scenarios, so assert the *relative* property: AEs are flagged
  // far more often than clean inputs, and at a substantial absolute rate.
  EXPECT_GT(adv_rate, 0.3);
  EXPECT_GT(adv_rate, 3.0 * clean_rate);
}

TEST_F(IntegrationTest, InstructionEventIsChanceLevel) {
  // Instructions are shape-driven: AEs should NOT be reliably flagged.
  const std::size_t insn = event_index(hpc::hpc_event::instructions);
  attack::attack_config cfg;
  cfg.epsilon = 0.1f;
  auto atk = attack::make_attack(attack::attack_kind::fgsm, cfg);

  std::size_t flagged = 0, total = 0;
  for (std::size_t i = 0; i < test_->size() && total < 30; ++i) {
    tensor x = nn::single_example(test_->images, i);
    if (model_->predict_one(x) != test_->labels[i]) continue;
    auto r = atk->run(*model_, x, test_->labels[i]);
    if (!r.success) continue;
    const auto v = detector_->classify(*monitor_, r.adversarial);
    ++total;
    if (v.flagged[insn]) ++flagged;
  }
  ASSERT_GT(total, 10u);
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(total), 0.3);
}

TEST_F(IntegrationTest, VerdictFieldsConsistent) {
  tensor x = nn::single_example(test_->images, 0);
  const auto v = detector_->classify(*monitor_, x);
  EXPECT_EQ(v.nll.size(), hpc::core_events().size());
  EXPECT_EQ(v.flagged.size(), hpc::core_events().size());
  bool any = false;
  for (bool f : v.flagged) any = any || f;
  EXPECT_EQ(v.adversarial_any, any);
  EXPECT_LT(v.predicted, 4u);
}

TEST_F(IntegrationTest, TemplateBuilderSkipsMisclassified) {
  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses};
  dcfg.repeats = 2;
  // Relabel test images by +1 class, so every prediction disagrees with its
  // label: collect_template must accept none of them. Images whose
  // prediction happens to equal the wrong label are dropped up front.
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t wrong = (test_->labels[i] + 1) % 4;
    tensor x = nn::single_example(test_->images, i);
    if (model_->predict_one(x) != wrong) kept.push_back(i);
  }
  ASSERT_FALSE(kept.empty());
  data::dataset relabelled = data::subset(*test_, kept);
  for (std::size_t& label : relabelled.labels) label = (label + 1) % 4;
  const auto tpl = core::collect_template(*monitor_, dcfg, relabelled,
                                          /*per_class=*/10, /*seed=*/7);
  for (std::size_t cls = 0; cls < 4; ++cls) {
    EXPECT_EQ(tpl.rows(cls), 0u) << "class " << cls;
  }
}

TEST_F(IntegrationTest, EvaluateInputsAccumulates) {
  std::vector<tensor> inputs;
  inputs.push_back(nn::single_example(test_->images, 0));
  inputs.push_back(nn::single_example(test_->images, 1));
  core::detection_eval eval;
  core::evaluate_inputs(*detector_, *monitor_, inputs, false, eval);
  EXPECT_EQ(eval.fused.total(), 2u);
  core::evaluate_inputs(*detector_, *monitor_, inputs, true, eval);
  EXPECT_EQ(eval.fused.total(), 4u);
  EXPECT_EQ(eval.per_event.size(), hpc::core_events().size());
}

}  // namespace
}  // namespace advh
