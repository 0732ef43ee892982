// Tests for the model-graph static verifier (src/analysis): every
// ADVH-x1xx defect class gets one deliberately-broken model that must
// trigger it with the right layer attribution, and every factory model
// must verify clean at its scenario-matched input shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "analysis/verifier.hpp"
#include "analysis/walk.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models/models.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/simple_layers.hpp"

using namespace advh;
using analysis::severity;

namespace {

analysis::check_report verify(nn::model& m,
                              const analysis::verify_options& opts = {}) {
  analysis::check_report report;
  analysis::verify_model(m, report, opts);
  return report;
}

/// Finds the first finding with code number `number` (either severity), or
/// nullptr.
const analysis::finding* find_code(const analysis::check_report& r,
                                   int number) {
  for (const auto& f : r.findings) {
    if (f.code == analysis::make_code(f.sev, number)) return &f;
  }
  return nullptr;
}

std::unique_ptr<nn::model> wrap(std::unique_ptr<nn::sequential> net,
                                shape input, std::size_t classes) {
  return std::make_unique<nn::model>("broken", std::move(net), input, classes);
}

/// A small, clean 3x8x8 -> 4-logit CNN used as the base for breakage.
std::unique_ptr<nn::sequential> small_net(rng& gen, std::size_t classes = 4) {
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::maxpool2d>("pool1", 2);
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 4 * 4}, classes, gen);
  return net;
}

/// Layer that computes but declares no trace contribution: the exact
/// defect the trace-coverage pass exists to catch.
class silent_relu final : public nn::layer {
 public:
  explicit silent_relu(std::string name) : name_(std::move(name)) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::relu; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  // No trace_info() override: inherits the empty default contract.

 private:
  std::string name_;
};

/// Layer registering the same parameter twice — the gradient would be
/// applied twice per optimizer step.
class double_registering final : public nn::layer {
 public:
  explicit double_registering(std::string name)
      : name_(std::move(name)), w_(name_ + ".weight", tensor(shape{4, 4})) {
    w_.value.fill(0.5f);
  }
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  void collect_params(std::vector<nn::parameter*>& out) override {
    out.push_back(&w_);
    out.push_back(&w_);  // the bug under test
  }
  nn::layer_kind kind() const override { return nn::layer_kind::linear; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  nn::trace_contract trace_info() const override { return {true, true, false}; }

 private:
  std::string name_;
  nn::parameter w_;
};

/// Layer with no static shape inference (keeps the base-class default).
class opaque_layer final : public nn::layer {
 public:
  explicit opaque_layer(std::string name) : name_(std::move(name)) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::input; }
  std::string name() const override { return name_; }
  nn::trace_contract trace_info() const override { return {true, false, false}; }

 private:
  std::string name_;
};

}  // namespace

TEST(analysis, factory_models_verify_clean) {
  struct {
    nn::architecture arch;
    shape input;
    std::size_t classes;
  } zoo[] = {
      {nn::architecture::case_study_cnn, shape{3, 32, 32}, 10},
      {nn::architecture::efficientnet_lite, shape{1, 28, 28}, 10},
      {nn::architecture::resnet_small, shape{3, 32, 32}, 10},
      {nn::architecture::densenet_small, shape{3, 32, 32}, 43},
  };
  for (const auto& z : zoo) {
    auto m = nn::make_model(z.arch, z.input, z.classes, 7);
    const auto report = verify(*m);
    EXPECT_FALSE(report.has_errors())
        << nn::to_string(z.arch) << ":\n" << report.to_text();
    EXPECT_EQ(report.warning_count(), 0u)
        << nn::to_string(z.arch) << ":\n" << report.to_text();
    std::size_t leaves = 0;
    for (const auto& e : analysis::walk_graph_checked(m->net()).entries) {
      leaves += e.leaf ? 1 : 0;
    }
    EXPECT_GT(leaves, 0u);
    EXPECT_NO_THROW(analysis::ensure_verified(*m, nn::to_string(z.arch)));
  }
}

TEST(analysis, shape_mismatch_pins_offending_layer) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 8;  // input has 3 channels
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = verify(*m);
  ASSERT_TRUE(report.has_errors());
  const auto* d = find_code(report, 102);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 0 (conv1)");
  EXPECT_NE(d->message.find("channel"), std::string::npos) << d->message;
}

TEST(analysis, linear_fed_rank4_suggests_flatten) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::linear>("fc", std::size_t{256}, std::size_t{4}, gen);

  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 102);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 1 (fc)");
  EXPECT_NE(d->message.find("flatten"), std::string::npos) << d->message;
}

TEST(analysis, wrong_head_width_is_output_head_mismatch) {
  rng gen(1);
  auto m = wrap(small_net(gen, /*classes=*/7), shape{3, 8, 8},
                /*model says*/ 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 103);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 4 (fc)");  // the fc layer, last in small_net
}

TEST(analysis, no_shape_inference_layer_is_reported) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<opaque_layer>("mystery");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 101);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 5 (mystery)");
}

TEST(analysis, zeroed_weight_is_uninitialized_param) {
  rng gen(1);
  auto net = small_net(gen);
  static_cast<nn::linear&>(net->at(4)).weight().value.fill(0.0f);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 111);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 4 (fc)");
}

TEST(analysis, nan_weight_is_non_finite_param) {
  rng gen(1);
  auto net = small_net(gen);
  auto& conv = static_cast<nn::conv2d&>(net->at(0));
  conv.weight().value.data()[3] = std::numeric_limits<float>::quiet_NaN();
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 110);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 0 (conv1)");
  EXPECT_NE(d->message.find("1/"), std::string::npos) << d->message;
}

TEST(analysis, silent_layer_is_missing_trace_contract) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<silent_relu>("stealth");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 120);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->where, "layer 5 (stealth)");
}

TEST(analysis, duplicate_registration_is_reported) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<double_registering>("twice");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 112);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_NE(d->where.find("twice"), std::string::npos) << d->where;
  EXPECT_NE(d->message.find("2 times"), std::string::npos) << d->message;
}

TEST(analysis, empty_nested_sequential_is_dead_layer) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::sequential>("ghost_block");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 130);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::error);
  EXPECT_EQ(d->where, "layer 5 (ghost_block)");
}

TEST(analysis, relu_after_logits_is_trailing_activation) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);
  const auto* d = find_code(report, 131);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::error);
  EXPECT_EQ(d->where, "layer 5 (oops)");
}

TEST(analysis, double_relu_is_dead_layer_warning) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::relu>("relu1b");
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 8 * 8}, std::size_t{4}, gen);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = verify(*m);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  const auto* d = find_code(report, 130);
  ASSERT_NE(d, nullptr) << report.to_text();
  EXPECT_EQ(d->sev, severity::warning);
  EXPECT_EQ(d->where, "layer 2 (relu1b)");
}

TEST(analysis, batchnorm_hyperparameter_contracts) {
  rng gen(1);
  auto net = std::make_unique<nn::sequential>("net");
  nn::conv2d_config c;
  c.in_channels = 3;
  c.out_channels = 4;
  net->emplace<nn::conv2d>("conv1", c, gen);
  net->emplace<nn::batchnorm2d>("bn_bad", std::size_t{4}, /*momentum=*/1.5f,
                                /*epsilon=*/0.0f);
  net->emplace<nn::relu>("relu1");
  net->emplace<nn::flatten>("flat");
  net->emplace<nn::linear>("fc", std::size_t{4 * 8 * 8}, std::size_t{4}, gen);
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  const auto report = verify(*m);
  const auto* eps = find_code(report, 132);
  ASSERT_NE(eps, nullptr) << report.to_text();
  EXPECT_EQ(eps->sev, severity::error);
  EXPECT_EQ(eps->where, "layer 1 (bn_bad)");
  const auto* mom = find_code(report, 133);
  ASSERT_NE(mom, nullptr) << report.to_text();
  EXPECT_EQ(mom->where, "layer 1 (bn_bad)");
}

TEST(analysis, pass_toggles_limit_scope) {
  rng gen(1);
  auto net = small_net(gen);
  static_cast<nn::linear&>(net->at(4)).weight().value.fill(0.0f);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);

  analysis::verify_options only_params;
  only_params.check_shapes = false;
  only_params.check_trace = false;
  only_params.check_structure = false;
  const auto report = verify(*m, only_params);
  EXPECT_NE(find_code(report, 111), nullptr);
  EXPECT_EQ(find_code(report, 131), nullptr);
}

TEST(analysis, ensure_verified_throws_with_report) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  try {
    analysis::ensure_verified(*m, "unit-test");
    FAIL() << "expected check_error";
  } catch (const analysis::check_error& e) {
    EXPECT_TRUE(e.report().has_errors());
    EXPECT_NE(find_code(e.report(), 131), nullptr);
    EXPECT_NE(std::string(e.what()).find("unit-test"), std::string::npos);
  }
}

TEST(analysis, load_state_refuses_non_finite_weights) {
  const std::string path = "test_analysis_nan_state.advh";
  {
    auto m = nn::make_model(nn::architecture::case_study_cnn, shape{3, 32, 32},
                            10, 3);
    m->params()[0]->value.data()[0] = std::numeric_limits<float>::infinity();
    nn::save_state(*m, path);
  }
  auto fresh = nn::make_model(nn::architecture::case_study_cnn,
                              shape{3, 32, 32}, 10, 4);
  EXPECT_THROW(nn::load_state(*fresh, path), analysis::check_error);
  // The escape hatch still loads the bytes.
  EXPECT_NO_THROW(nn::load_state(*fresh, path, /*verify=*/false));
  std::remove(path.c_str());
}

TEST(analysis, report_renders_text_and_json) {
  rng gen(1);
  auto net = small_net(gen);
  net->emplace<nn::relu>("oops");
  auto m = wrap(std::move(net), shape{3, 8, 8}, 4);
  const auto report = verify(*m);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("trailing-activation"), std::string::npos) << text;
  EXPECT_NE(text.find("oops"), std::string::npos) << text;

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"code\":\"ADVH-E131\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"message\":\"trailing-activation: "),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
}
