// Tests for the advh_check static-analysis stack (src/analysis +
// core/detector_io's linter + the policy/envelope passes): golden
// diagnostic codes over the seeded-defect corpus in tests/data/, clean
// passes over the shipped model zoo and honestly-fitted detectors, the
// envelope pass's exact and input-independent intervals, walk hardening
// against malformed for_each_child wiring, and the runtime
// choke points (load_checkpoint, detector::fit, detection_service
// construction) rejecting with the same codes the CLI reports.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "analysis/envelope_pass.hpp"
#include "analysis/policy_pass.hpp"
#include "analysis/verifier.hpp"
#include "analysis/walk.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/detector_io.hpp"
#include "hpc/events.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "nn/serialize.hpp"
#include "serve/service.hpp"

using namespace advh;

namespace {

std::string data_path(const std::string& name) {
  return std::string(ADVH_TEST_DATA_DIR) + "/" + name;
}

std::string repo_path(const std::string& name) {
  return std::string(ADVH_REPO_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::unique_ptr<nn::model> make_test_model() {
  return nn::make_model(nn::architecture::case_study_cnn, shape{1, 16, 16}, 4,
                        1);
}

tensor test_input(double scale = 1.0) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] =
        static_cast<float>(scale * (0.1 + 0.01 * static_cast<double>(i % 7)));
  }
  return x;
}

core::detector_config test_detector_config() {
  core::detector_config cfg;
  const auto events = hpc::core_events();
  cfg.events = {events[0], events[1]};
  cfg.repeats = 10;
  return cfg;
}

/// Fits a detector honestly: template measured through the same simulated
/// backend (default cost model, default noise) the envelope pass assumes.
/// sim_backend is constructed directly — never through hpc::factory — so
/// the chaos-CI env knobs cannot perturb what must be a clean fit.
core::detector fit_test_detector(hpc::hpc_monitor& monitor,
                                 const core::detector_config& cfg) {
  core::benign_template tpl(4, cfg.events.size());
  for (std::size_t i = 0; i < 32; ++i) {
    const tensor x = test_input(0.4 + 0.05 * static_cast<double>(i % 12));
    const auto m = monitor.measure(x, cfg.events, cfg.repeats);
    tpl.add_row(m.predicted, m.mean_counts);
  }
  return core::detector::fit(tpl, cfg, 1);
}

/// The four factory architectures at their scenario input shapes.
const struct {
  nn::architecture arch;
  shape input;
  std::size_t classes;
} kScenarioZoo[] = {
    {nn::architecture::case_study_cnn, shape{3, 32, 32}, 10},
    {nn::architecture::efficientnet_lite, shape{1, 28, 28}, 10},
    {nn::architecture::resnet_small, shape{3, 32, 32}, 10},
    {nn::architecture::densenet_small, shape{3, 32, 32}, 43},
};

/// An envelope's nine intervals, named, in uarch_counts field order.
std::array<std::pair<std::string, uarch::count_interval>, 9> named_intervals(
    const uarch::static_envelope& env) {
  return {{{"instructions", env.instructions},
           {"branches", env.branches},
           {"branch_misses", env.branch_misses},
           {"cache_references", env.cache_references},
           {"cache_misses", env.cache_misses},
           {"l1d_load_misses", env.l1d_load_misses},
           {"l1i_load_misses", env.l1i_load_misses},
           {"llc_load_misses", env.llc_load_misses},
           {"llc_store_misses", env.llc_store_misses}}};
}

/// The nine counts, in the order of named_intervals.
std::array<double, 9> count_values(const uarch::uarch_counts& c) {
  return {double(c.instructions),     double(c.branches),
          double(c.branch_misses),    double(c.cache_references),
          double(c.cache_misses),     double(c.l1d_load_misses),
          double(c.l1i_load_misses),  double(c.llc_load_misses),
          double(c.llc_store_misses)};
}

/// Lints one corpus file and returns the report (the checkpoint must have
/// been rejected for error-class artifacts).
analysis::check_report lint(const std::string& name, bool expect_loadable) {
  analysis::check_report rep;
  const auto ckpt = core::lint_checkpoint_file(data_path(name), rep);
  EXPECT_EQ(ckpt.has_value(), expect_loadable) << rep.to_text();
  return rep;
}

// -------------------------------------------------- broken layer zoo ----

/// Layer whose for_each_child reports *itself* — the unbounded-recursion
/// wiring bug the checked walk must contain and diagnose.
class self_child final : public nn::layer {
 public:
  explicit self_child(std::string name) : name_(std::move(name)) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::relu; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  nn::trace_contract trace_info() const override { return {true, false, true}; }
  void for_each_child(
      const std::function<void(const nn::layer&)>& fn) const override {
    fn(*this);  // the bug under test
  }

 private:
  std::string name_;
};

/// Container that claims a borrowed layer as its child. Two of these
/// sharing one leaf model the aliased-wiring bug (one layer object
/// reachable through two parents).
class borrowing_parent final : public nn::layer {
 public:
  borrowing_parent(std::string name, const nn::layer& child)
      : name_(std::move(name)), child_(child) {}
  tensor forward(const tensor& x, nn::forward_ctx&) override { return x; }
  tensor backward(const tensor& g) override { return g; }
  nn::layer_kind kind() const override { return nn::layer_kind::input; }
  std::string name() const override { return name_; }
  shape infer_output_shape(const shape& in) const override { return in; }
  nn::trace_contract trace_info() const override { return {true, false, true}; }
  void for_each_child(
      const std::function<void(const nn::layer&)>& fn) const override {
    fn(child_);
  }

 private:
  std::string name_;
  const nn::layer& child_;
};

}  // namespace

// ------------------------------------------------- corpus golden codes --

TEST(check_corpus, bad_magic_is_e201) {
  const auto rep = lint("bad_magic.adet", false);
  EXPECT_TRUE(rep.has_code(201)) << rep.to_text();
  EXPECT_TRUE(rep.has_errors());
}

TEST(check_corpus, bad_weights_is_e231) {
  const auto rep = lint("bad_weights.adet", false);
  EXPECT_TRUE(rep.has_code(231)) << rep.to_text();
}

TEST(check_corpus, negative_variance_is_e233) {
  const auto rep = lint("negative_variance.adet", false);
  EXPECT_TRUE(rep.has_code(233)) << rep.to_text();
}

TEST(check_corpus, tampered_threshold_is_e237) {
  const auto rep = lint("tampered_threshold.adet", false);
  EXPECT_TRUE(rep.has_code(237)) << rep.to_text();
}

TEST(check_corpus, duplicate_event_is_e212) {
  const auto rep = lint("dup_events.adet", false);
  EXPECT_TRUE(rep.has_code(212)) << rep.to_text();
}

TEST(check_corpus, truncated_drift_is_e203) {
  const auto rep = lint("truncated_drift.adet", false);
  EXPECT_TRUE(rep.has_code(203)) << rep.to_text();
}

TEST(check_corpus, victim_quarantine_is_e246) {
  const auto rep = lint("victim_quarantine.adet", false);
  EXPECT_TRUE(rep.has_code(246)) << rep.to_text();
}

TEST(check_corpus, envelope_infeasible_lints_clean_but_fails_envelope) {
  // The 2xx linter cannot see this defect: the file is structurally and
  // numerically sound. Only the 3xx cross-check against a model's static
  // envelope exposes the impossible mass.
  analysis::check_report rep;
  const auto ckpt =
      core::lint_checkpoint_file(data_path("envelope_infeasible.adet"), rep);
  ASSERT_TRUE(ckpt.has_value()) << rep.to_text();
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();

  auto m = make_test_model();
  analysis::check_envelope(*m, ckpt->det, analysis::envelope_options{}, rep);
  EXPECT_TRUE(rep.has_code(301)) << rep.to_text();
  EXPECT_TRUE(rep.has_errors());
}

TEST(check_corpus, contradictory_serve_config_is_e447_e453) {
  const serve::serve_config cfg =
      serve::load_serve_config(data_path("contradictory_serve.conf"));
  analysis::check_report rep;
  analysis::check_serve_policy(cfg, core::detector_config{}, rep);
  EXPECT_TRUE(rep.has_code(447)) << rep.to_text();
  EXPECT_TRUE(rep.has_code(453)) << rep.to_text();
  EXPECT_EQ(rep.exit_code(), 2);
}

// --------------------------------------------- loader gating contract --

TEST(check_loader, load_checkpoint_rejects_with_cli_codes) {
  // The loader must fail on exactly the linter-fatal files and embed the
  // same ADVH-Exxx identifiers the CLI prints, so an operator can paste
  // the code from a service crash straight into the corpus table.
  struct {
    const char* file;
    const char* code;
  } cases[] = {
      {"bad_magic.adet", "ADVH-E201"},
      {"bad_weights.adet", "ADVH-E231"},
      {"negative_variance.adet", "ADVH-E233"},
      {"tampered_threshold.adet", "ADVH-E237"},
      {"dup_events.adet", "ADVH-E212"},
      {"truncated_drift.adet", "ADVH-E203"},
      {"victim_quarantine.adet", "ADVH-E246"},
  };
  for (const auto& c : cases) {
    try {
      (void)core::load_checkpoint(data_path(c.file));
      FAIL() << c.file << " loaded despite linter-fatal defect";
    } catch (const advh::io_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.code), std::string::npos)
          << c.file << " threw without its code: " << e.what();
    }
  }
  EXPECT_THROW((void)core::load_detector(data_path("bad_weights.adet")),
               advh::io_error);
}

TEST(check_loader, warning_findings_never_block_a_load) {
  // envelope_infeasible.adet lints with zero findings standalone; it must
  // load (the envelope defect needs a model to be visible).
  const core::checkpoint ckpt =
      core::load_checkpoint(data_path("envelope_infeasible.adet"));
  EXPECT_EQ(ckpt.det.config().events.size(), 2u);
}

TEST(check_loader, fitted_detector_round_trips_clean) {
  auto m = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*m),
                                 hpc::resilience_config::naive());
  const core::detector det = fit_test_detector(monitor, test_detector_config());

  const std::string path = temp_path("check_roundtrip.adet");
  core::save_detector(det, path);

  analysis::check_report rep;
  const auto ckpt = core::lint_checkpoint_file(path, rep);
  ASSERT_TRUE(ckpt.has_value()) << rep.to_text();
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();

  // The policy pass over the stored config is clean too (the CLI runs
  // both passes on every ADET target).
  analysis::check_detector_policy(ckpt->det.config(), rep);
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();
  std::remove(path.c_str());
}

// ------------------------------------------------ shipped-artifact pass --

TEST(check_clean, shipped_model_zoo_has_zero_findings) {
  struct {
    const char* file;
    nn::architecture arch;
    shape input;
    std::size_t classes;
  } zoo[] = {
      {"advh_models/S1_efficientnet_lite.advh",
       nn::architecture::efficientnet_lite, shape{1, 28, 28}, 10},
      {"advh_models/S2_resnet_small.advh", nn::architecture::resnet_small,
       shape{3, 32, 32}, 10},
      {"advh_models/S3_densenet_small.advh", nn::architecture::densenet_small,
       shape{3, 32, 32}, 43},
      {"advh_models/fig1_case_study_cnn.advh",
       nn::architecture::case_study_cnn, shape{3, 32, 32}, 10},
  };
  for (const auto& z : zoo) {
    auto m = nn::make_model(z.arch, z.input, z.classes, 1234);
    nn::load_state(*m, repo_path(z.file), /*verify=*/false);
    analysis::check_report rep;
    rep.target = z.file;
    analysis::verify_model(*m, rep);
    EXPECT_TRUE(rep.findings.empty()) << rep.to_text();
    EXPECT_EQ(rep.exit_code(), 0);
  }
}

// ------------------------------------------------------- envelope pass --

TEST(check_envelope, honest_fit_is_inside_the_envelope) {
  auto m = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*m),
                                 hpc::resilience_config::naive());
  const core::detector det = fit_test_detector(monitor, test_detector_config());

  analysis::check_report rep;
  analysis::check_envelope(*m, det, analysis::envelope_options{}, rep);
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();
}

TEST(check_envelope, mismatched_cost_model_is_flagged) {
  // Acceptance case from the issue: a template fitted under one uarch
  // cost model, checked against another, must be flagged — that IS the
  // miscalibration defect the pass exists for. Inflating the
  // per-output-element instruction cost 10x shifts the instruction
  // envelope an order of magnitude above the honestly-fitted mass.
  auto m = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*m),
                                 hpc::resilience_config::naive());
  const core::detector det = fit_test_detector(monitor, test_detector_config());

  analysis::envelope_options opts;
  opts.cost_model.insn_per_out *= 10;
  analysis::check_report rep;
  analysis::check_envelope(*m, det, opts, rep);
  EXPECT_TRUE(rep.has_code(301)) << rep.to_text();
  EXPECT_TRUE(rep.has_errors());
}

TEST(check_envelope, noise_free_profile_lies_inside_every_interval) {
  // Soundness: the simulator's deterministic (noise-free) counts of any
  // input must lie inside the static envelope with zero margin — the
  // envelope bounds *any* input, margins only absorb measurement noise.
  // Instructions and branches are the shape arithmetic the envelope shares
  // with the replay, so those two are single points equal to the counts.
  const auto expect_inside = [](nn::model& m, const tensor& x,
                                const std::string& label) {
    SCOPED_TRACE(label);
    hpc::sim_backend monitor(m);
    std::size_t predicted = 0;
    const uarch::uarch_counts c = monitor.profile(x, predicted);
    const uarch::static_envelope env = analysis::model_envelope(m);
    const auto values = count_values(c);
    const auto ivs = named_intervals(env);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      const auto& [name, iv] = ivs[i];
      EXPECT_TRUE(iv.contains(values[i]))
          << name << " = " << values[i] << " outside [" << iv.lo << ", "
          << iv.hi << "]";
    }
    EXPECT_EQ(env.instructions.lo, double(c.instructions));
    EXPECT_EQ(env.instructions.hi, double(c.instructions));
    EXPECT_EQ(env.branches.lo, double(c.branches));
    EXPECT_EQ(env.branches.hi, double(c.branches));
  };

  auto small = make_test_model();
  expect_inside(*small, test_input(), "case_study_cnn 1x16x16");

  rng gen(2024);
  for (const auto& z : kScenarioZoo) {
    auto m = nn::make_model(z.arch, z.input, z.classes, 7);
    for (int k = 0; k < 5; ++k) {
      tensor x(shape{1, z.input[0], z.input[1], z.input[2]});
      for (float& v : x.data()) v = static_cast<float>(gen.uniform());
      expect_inside(*m, x,
                    nn::to_string(z.arch) + " random input " +
                        std::to_string(k));
    }
  }
}

TEST(check_envelope, abstract_trace_matches_concrete_trace) {
  // model_envelope traces one zero input and ignores the active sets, so
  // it must not depend on which input was traced: the static model of
  // traced forwards at three different inputs equals it on all nine
  // intervals. Exercised across the plain, residual and dense composites.
  struct {
    nn::architecture arch;
    shape input;
    std::size_t classes;
  } zoo[] = {
      {nn::architecture::case_study_cnn, shape{1, 16, 16}, 4},
      {nn::architecture::resnet_small, shape{3, 32, 32}, 10},
      {nn::architecture::densenet_small, shape{3, 32, 32}, 43},
  };
  rng gen(11);
  for (const auto& z : zoo) {
    auto m = nn::make_model(z.arch, z.input, z.classes, 7);
    const auto expected = named_intervals(analysis::model_envelope(*m));
    for (const double scale : {0.1, 1.0, 10.0}) {
      tensor x(shape{1, z.input[0], z.input[1], z.input[2]});
      for (float& v : x.data()) {
        v = static_cast<float>(scale * gen.uniform(-1.0, 1.0));
      }
      std::size_t predicted = 0;
      const auto got = named_intervals(
          uarch::analyze_abstract_trace(m->trace_inference(x, predicted)));
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(nn::to_string(z.arch) + " scale " +
                     std::to_string(scale) + " " + got[i].first);
        EXPECT_EQ(got[i].second.lo, expected[i].second.lo);
        EXPECT_EQ(got[i].second.hi, expected[i].second.hi);
      }
    }
  }
}

// ------------------------------------------------------ walk hardening --

TEST(check_walk, self_referential_child_is_a_bounded_cycle_anomaly) {
  nn::sequential net("net");
  net.emplace<self_child>("ouroboros");
  const analysis::walk_result w = analysis::walk_graph_checked(net);
  ASSERT_EQ(w.anomalies.size(), 1u);
  EXPECT_EQ(w.anomalies[0].k, analysis::walk_anomaly::kind::cycle);
  EXPECT_EQ(w.anomalies[0].node_name, "ouroboros");
  // The walk stayed bounded: the node appears once.
  EXPECT_EQ(w.entries.size(), 1u);
}

TEST(check_walk, shared_child_is_an_alias_anomaly) {
  const self_child shared("shared_leaf");  // any leaf layer works
  nn::sequential net("net");
  net.emplace<borrowing_parent>("parent_a", shared);
  net.emplace<borrowing_parent>("parent_b", shared);
  const analysis::walk_result w = analysis::walk_graph_checked(net);
  bool saw_alias = false;
  for (const auto& a : w.anomalies) {
    if (a.k == analysis::walk_anomaly::kind::aliased &&
        a.node_name == "shared_leaf" && a.top_index == 1) {
      saw_alias = true;
    }
  }
  EXPECT_TRUE(saw_alias);
}

TEST(check_walk, verifier_reports_cycle_with_code_140) {
  auto net = std::make_unique<nn::sequential>("net");
  net->emplace<self_child>("ouroboros");
  nn::model m("broken", std::move(net), shape{3, 8, 8}, 4);
  analysis::check_report rep;
  analysis::verify_model(m, rep);
  EXPECT_TRUE(rep.has_code(140)) << rep.to_text();
  EXPECT_TRUE(rep.has_errors());
}

// --------------------------------------------------------- policy pass --

TEST(check_policy, shipped_defaults_are_clean) {
  analysis::check_report rep;
  analysis::check_detector_policy(test_detector_config(), rep);
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();
  analysis::check_serve_policy(serve::serve_config{}, test_detector_config(),
                               rep);
  EXPECT_TRUE(rep.findings.empty()) << rep.to_text();
}

TEST(check_policy, detector_defect_classes_each_fire) {
  {  // E420 zero events
    analysis::check_report rep;
    analysis::check_detector_policy(core::detector_config{}, rep);
    EXPECT_TRUE(rep.has_code(420));
  }
  {  // E424 fail-open zero evidence floor
    core::detector_config cfg = test_detector_config();
    cfg.min_events_for_verdict = 0;
    analysis::check_report rep;
    analysis::check_detector_policy(cfg, rep);
    EXPECT_TRUE(rep.has_code(424));
  }
  {  // E425 floor above event count
    core::detector_config cfg = test_detector_config();
    cfg.min_events_for_verdict = cfg.events.size() + 1;
    analysis::check_report rep;
    analysis::check_detector_policy(cfg, rep);
    EXPECT_TRUE(rep.has_code(425));
  }
  {  // E423 bad sigma, W427/W428 fail-open smells
    core::detector_config cfg = test_detector_config();
    cfg.sigma_multiplier = 0.0;
    cfg.flag_unmodeled = false;
    cfg.flag_on_abstain = false;
    analysis::check_report rep;
    analysis::check_detector_policy(cfg, rep);
    EXPECT_TRUE(rep.has_code(423));
    EXPECT_TRUE(rep.has_code(427));
    EXPECT_TRUE(rep.has_code(428));
    EXPECT_EQ(rep.error_count(), 1u);
    EXPECT_EQ(rep.warning_count(), 2u);
  }
}

TEST(check_policy, shed_below_abstain_floor_is_fail_open_error) {
  // The tentpole contradiction: the deepest rung sheds to 1 event, the
  // detector demands 2 for a verdict, and abstain is fail-open — every
  // overloaded verdict would pass as benign with no evidence.
  core::detector_config det = test_detector_config();
  det.min_events_for_verdict = 2;
  det.flag_on_abstain = false;
  serve::serve_config cfg;
  cfg.kept_events_when_shedding = 1;

  analysis::check_report rep;
  analysis::check_serve_policy(cfg, det, rep);
  EXPECT_TRUE(rep.has_code(451)) << rep.to_text();

  // Same ladder under fail-closed abstain degrades to a warning: every
  // shed verdict is the abstain policy, which is safe but evidence-free.
  det.flag_on_abstain = true;
  analysis::check_report rep2;
  analysis::check_serve_policy(cfg, det, rep2);
  EXPECT_FALSE(rep2.has_code(451));
  EXPECT_TRUE(rep2.has_code(452)) << rep2.to_text();
  EXPECT_FALSE(rep2.has_errors());
}

TEST(check_policy, service_construction_rejects_contradictory_config) {
  auto m = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*m),
                                 hpc::resilience_config::naive());
  const core::detector det = fit_test_detector(monitor, test_detector_config());
  serve::virtual_clock clock;

  serve::serve_config cfg;
  cfg.queue_capacity = 0;  // E440
  try {
    serve::detection_service svc(det, monitor, clock, cfg);
    FAIL() << "zero-capacity queue accepted";
  } catch (const analysis::check_error& e) {
    EXPECT_TRUE(e.report().has_code(440)) << e.what();
  }
  // check_error derives from invariant_error: pre-framework callers that
  // treat misconfiguration as a precondition violation keep working.
  serve::serve_config bad = cfg;
  EXPECT_THROW(serve::detection_service(det, monitor, clock, bad),
               advh::invariant_error);
}

TEST(check_policy, detector_fit_rejects_fail_open_config) {
  core::benign_template tpl(4, 2);
  core::detector_config cfg = test_detector_config();
  cfg.min_events_for_verdict = 0;
  try {
    (void)core::detector::fit(tpl, cfg, 1);
    FAIL() << "fail-open config accepted by fit";
  } catch (const analysis::check_error& e) {
    EXPECT_TRUE(e.report().has_code(424)) << e.what();
  }
}

// --------------------------------------------------- serve config file --

TEST(check_serve_config, parses_keys_and_rungs) {
  const std::string path = temp_path("check_serve_ok.conf");
  {
    std::ofstream os(path);
    os << "# comment\n"
       << "queue_capacity = 32\n"
       << "default_deadline_ms = 25\n"
       << "batch_admit_occupancy = 0.4\n"
       << "rung = 0.00 10 unlimited 1 0\n"
       << "rung = 0.50 5 2 0 0\n"
       << "rung = 0.90 1 1 0 1\n";
  }
  const serve::serve_config cfg = serve::load_serve_config(path);
  EXPECT_EQ(cfg.queue_capacity, 32u);
  EXPECT_EQ(cfg.default_deadline.count(),
            std::chrono::duration_cast<serve::clock_duration>(
                std::chrono::milliseconds(25))
                .count());
  ASSERT_EQ(cfg.ladder.size(), 3u);
  EXPECT_EQ(cfg.ladder[1].repeats, 5u);
  EXPECT_FALSE(cfg.ladder[1].allow_backoff);
  EXPECT_TRUE(cfg.ladder[2].shed_events);

  analysis::check_report rep;
  analysis::check_serve_policy(cfg, test_detector_config(), rep);
  EXPECT_FALSE(rep.has_errors()) << rep.to_text();
  std::remove(path.c_str());
}

TEST(check_serve_config, strict_parse_rejects_garbage) {
  const std::string path = temp_path("check_serve_bad.conf");
  {
    std::ofstream os(path);
    os << "queue_capacity = not_a_number\n";
  }
  EXPECT_THROW((void)serve::load_serve_config(path), advh::io_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------- report rendering --

TEST(check_report, codes_counts_and_exit_contract) {
  analysis::check_report rep;
  rep.target = "unit";
  EXPECT_EQ(rep.exit_code(), 0);
  rep.add(analysis::severity::warning, 238, "cell", "near miss");
  EXPECT_EQ(rep.exit_code(), 1);
  rep.add(analysis::severity::error, 231, "cell", "weights do not sum to 1");
  EXPECT_EQ(rep.exit_code(), 2);
  EXPECT_TRUE(rep.has_code(231));
  EXPECT_TRUE(rep.has_code(238));
  EXPECT_FALSE(rep.has_code(237));
  EXPECT_EQ(analysis::make_code(analysis::severity::error, 231), "ADVH-E231");
  EXPECT_EQ(analysis::make_code(analysis::severity::warning, 238),
            "ADVH-W238");
  EXPECT_EQ(rep.error_codes(), "ADVH-E231");
  // JSON stays parseable-ish: both codes and the target appear.
  const std::string j = rep.to_json();
  EXPECT_NE(j.find("\"ADVH-E231\""), std::string::npos);
  EXPECT_NE(j.find("\"unit\""), std::string::npos);
}
