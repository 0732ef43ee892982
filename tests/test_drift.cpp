// Drift-aware operation tests: sequential drift detectors (CUSUM,
// Page–Hinkley, windowed KS), the canary/victim controller with its
// quarantine + rolling-recalibration loop, poisoning rejection, the ADET
// v4 checkpoint format (atomic writes, corrupt-file rejection, resume),
// the drift-injecting backend, and the strict chaos-knob env parsing.
// Everything here is seeded and deterministic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/rng.hpp"
#include "core/detector_io.hpp"
#include "core/drift.hpp"
#include "hpc/drift_backend.hpp"
#include "hpc/factory.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"

namespace advh::core {
namespace {

// ------------------------------------------------------------ fixtures --

/// Deterministic pseudo-gaussian NLL stream around the cell's reference.
double ref_nll(rng& gen, double mean, double stddev) {
  return gen.normal(mean, stddev);
}

drift_cell feed(const drift_policy& policy, std::size_t n, double mean,
                double stddev, double offset_sigmas, rng& gen) {
  drift_cell cell;
  for (std::size_t i = 0; i < n; ++i) {
    cell_observe(cell, policy, ref_nll(gen, mean, stddev) +
                                   offset_sigmas * stddev,
                 mean, stddev);
  }
  return cell;
}

constexpr double kMean = 50.0;
constexpr double kStd = 4.0;

/// Two classes, two events, well-separated per-class count distributions.
detector synthetic_detector() {
  benign_template tpl(2, 2);
  rng gen(1234);
  for (std::size_t i = 0; i < 40; ++i) {
    tpl.add_row(0, std::vector<double>{gen.normal(1000.0, 20.0),
                                       gen.normal(500.0, 10.0)});
    tpl.add_row(1, std::vector<double>{gen.normal(2000.0, 30.0),
                                       gen.normal(800.0, 15.0)});
  }
  detector_config cfg;
  cfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  return detector::fit(tpl, cfg, 1);
}

hpc::measurement meas(std::size_t cls, std::vector<double> counts) {
  hpc::measurement m;
  m.predicted = cls;
  m.mean_counts = std::move(counts);
  m.stddev_counts.assign(m.mean_counts.size(), 0.0);
  return m;
}

/// A fresh baseline-distribution canary row for the class.
std::vector<double> baseline_row(std::size_t cls, rng& gen,
                                 double factor = 1.0) {
  if (cls == 0) {
    return {factor * gen.normal(1000.0, 20.0), factor * gen.normal(500.0, 10.0)};
  }
  return {factor * gen.normal(2000.0, 30.0), factor * gen.normal(800.0, 15.0)};
}

std::string scratch_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid()) + ".adet"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// Scoped env-var override that restores the prior value on destruction
/// (the chaos CI job exports these knobs for the whole suite).
class env_guard {
 public:
  explicit env_guard(const char* name) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
  }
  ~env_guard() {
    if (prior_.has_value()) {
      ::setenv(name_, prior_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> prior_;
};

// ------------------------------------------------------ sequential cells --

TEST(DriftCell, StationaryStreamNeverAlarms) {
  // Warn is advisory and a long unit-variance stream may brush it; the
  // action-driving contract is that a stationary stream never *alarms*.
  const drift_policy policy;
  rng gen(7);
  drift_cell cell;
  for (std::size_t i = 0; i < 400; ++i) {
    cell_observe(cell, policy, ref_nll(gen, kMean, kStd), kMean, kStd);
    ASSERT_NE(cell_status(cell, policy), drift_status::alarm) << "sample " << i;
  }
  EXPECT_LT(std::max(cell.cusum_pos, cell.cusum_neg), policy.cusum_warn);
}

TEST(DriftCell, UpwardStepAlarmsQuickly) {
  const drift_policy policy;
  rng gen(7);
  drift_cell cell = feed(policy, 100, kMean, kStd, 0.0, gen);
  ASSERT_NE(cell_status(cell, policy), drift_status::alarm);
  // A genuine baseline step drives the clamped residual to ~z_clamp every
  // sample; the alarm must fire within a handful of observations.
  std::size_t samples_to_alarm = 0;
  while (cell_status(cell, policy) != drift_status::alarm) {
    cell_observe(cell, policy, ref_nll(gen, kMean, kStd) + 50.0 * kStd, kMean,
                 kStd);
    ASSERT_LT(++samples_to_alarm, 10u);
  }
  EXPECT_LE(samples_to_alarm,
            static_cast<std::size_t>(std::ceil(
                policy.cusum_alarm / (policy.z_clamp - policy.cusum_slack))) +
                1);
  EXPECT_GT(cell.cusum_pos, cell.cusum_neg);
}

TEST(DriftCell, DownwardStepAlarmsOnNegativeSide) {
  const drift_policy policy;
  rng gen(11);
  drift_cell cell = feed(policy, 100, kMean, kStd, 0.0, gen);
  for (std::size_t i = 0; i < 10; ++i) {
    cell_observe(cell, policy, ref_nll(gen, kMean, kStd) - 50.0 * kStd, kMean,
                 kStd);
  }
  EXPECT_EQ(cell_status(cell, policy), drift_status::alarm);
  EXPECT_GT(cell.cusum_neg, cell.cusum_pos);
}

TEST(DriftCell, RampWarnsBeforeAlarm) {
  const drift_policy policy;
  rng gen(23);
  drift_cell cell = feed(policy, 100, kMean, kStd, 0.0, gen);
  bool warned_before_alarm = false;
  for (std::size_t i = 0; i < 400; ++i) {
    const double offset = 0.05 * static_cast<double>(i);  // sigmas per step
    cell_observe(cell, policy, ref_nll(gen, kMean, kStd) + offset * kStd,
                 kMean, kStd);
    const auto s = cell_status(cell, policy);
    if (s == drift_status::warn) warned_before_alarm = true;
    if (s == drift_status::alarm) break;
  }
  EXPECT_TRUE(warned_before_alarm);
  EXPECT_EQ(cell_status(cell, policy), drift_status::alarm);
}

TEST(DriftCell, BurnInAbsorbsPinnedStreamOffset) {
  // A pinned canary set sits at a fixed offset from the template-wide
  // mean. With burn-in the cell centres on the stream and stays stable;
  // with burn-in disabled the same stationary stream integrates to alarm.
  drift_policy with_burn_in;
  rng gen_a(5);
  const auto centred = feed(with_burn_in, 400, kMean, kStd, 3.0, gen_a);
  EXPECT_EQ(cell_status(centred, with_burn_in), drift_status::stable);
  EXPECT_NEAR(centred.ref_offset, 3.0, 1.0);

  drift_policy no_burn_in = with_burn_in;
  no_burn_in.burn_in = 0;
  rng gen_b(5);
  const auto raw = feed(no_burn_in, 400, kMean, kStd, 3.0, gen_b);
  EXPECT_EQ(cell_status(raw, no_burn_in), drift_status::alarm);
}

TEST(DriftCell, SingleSpikeDoesNotAlarm) {
  const drift_policy policy;
  rng gen(17);
  drift_cell cell = feed(policy, 100, kMean, kStd, 0.0, gen);
  // NLL grows quadratically in the tail: one noisy probe of an outlier
  // input can land hundreds of sigmas out. The clamp bounds its
  // contribution to z_clamp - slack, far below the alarm.
  cell_observe(cell, policy, kMean + 1e4 * kStd, kMean, kStd);
  EXPECT_NE(cell_status(cell, policy), drift_status::alarm);
  for (std::size_t i = 0; i < 50; ++i) {
    cell_observe(cell, policy, ref_nll(gen, kMean, kStd), kMean, kStd);
    EXPECT_NE(cell_status(cell, policy), drift_status::alarm);
  }
}

TEST(DriftCell, WindowIsBoundedByPolicy) {
  drift_policy policy;
  policy.ks_window = 16;
  rng gen(3);
  const auto cell = feed(policy, 100, kMean, kStd, 0.0, gen);
  EXPECT_EQ(cell.window.size(), policy.ks_window);
}

TEST(KsStatistic, SeparatesMatchedFromShiftedSamples) {
  rng gen(41);
  std::vector<double> matched, shifted;
  for (std::size_t i = 0; i < 64; ++i) {
    matched.push_back(gen.normal(kMean, kStd));
    shifted.push_back(gen.normal(kMean + 6.0 * kStd, kStd));
  }
  EXPECT_LT(ks_statistic(matched, kMean, kStd), 0.3);
  EXPECT_GT(ks_statistic(shifted, kMean, kStd), 0.9);
}

TEST(DriftPolicy, InvalidThresholdsRejected) {
  const detector det = synthetic_detector();
  drift_policy bad;
  bad.cusum_alarm = bad.cusum_warn / 2.0;  // alarm below warn
  EXPECT_THROW(drift_controller(det, bad), invariant_error);
  drift_policy bad2;
  bad2.reservoir_capacity = 4;
  bad2.min_refit_rows = 8;  // cannot ever accumulate enough rows
  EXPECT_THROW(drift_controller(det, bad2), invariant_error);
}

// ------------------------------------------------------------ controller --

TEST(DriftController, CanaryDriftQuarantinesThenRecalibrates) {
  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  rng gen(99);

  // Pre-drift canaries: burn-in plus steady-state, no alarms.
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t cls = 0; cls < 2; ++cls) {
      ASSERT_TRUE(ctl.observe_canary(meas(cls, baseline_row(cls, gen)), cls));
    }
  }
  ASSERT_EQ(ctl.report().quarantined_cells, 0u);
  ASSERT_FALSE(ctl.report().drift_suspected);

  // The machine's baseline doubles. Canary alarms must quarantine every
  // modelled cell of both classes within a few probes.
  std::size_t probes = 0;
  while (ctl.report().quarantined_cells < 4) {
    for (std::size_t cls = 0; cls < 2; ++cls) {
      ctl.observe_canary(meas(cls, baseline_row(cls, gen, 2.0)), cls);
    }
    ASSERT_LT(++probes, 12u);
  }
  EXPECT_TRUE(ctl.report().drift_suspected);

  // Fail-closed window: with every cell of the predicted class
  // quarantined, a victim verdict must abstain (and flag by policy),
  // never silently pass or fail on drifted evidence.
  const auto v = ctl.score_victim(meas(0, baseline_row(0, gen, 2.0)));
  EXPECT_TRUE(v.abstained);
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.adversarial_any);
  EXPECT_EQ(ctl.state().quarantined_verdicts, 1u);

  // Post-alarm canaries fill the reservoirs; the refit lifts the
  // quarantine and the new baseline scores as benign again.
  while (!ctl.recalibration_due()) {
    for (std::size_t cls = 0; cls < 2; ++cls) {
      ctl.observe_canary(meas(cls, baseline_row(cls, gen, 2.0)), cls);
    }
  }
  const auto refitted = ctl.recalibrate(1);
  EXPECT_EQ(refitted.size(), 2u);
  EXPECT_EQ(ctl.report().quarantined_cells, 0u);
  EXPECT_EQ(ctl.report().recalibrations, 2u);  // one per refitted class

  const auto post = ctl.score_victim(meas(0, {2.0 * 1000.0, 2.0 * 500.0}));
  EXPECT_FALSE(post.abstained);
  EXPECT_FALSE(post.adversarial_any);
  // And the old baseline now looks anomalous — the refit really moved.
  const auto old = ctl.score_victim(meas(0, {1000.0, 500.0}));
  EXPECT_TRUE(old.adversarial_any);
}

TEST(DriftController, AttackOnlyShiftNeverRecalibrates) {
  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  rng gen(77);

  // Canaries stay on the calibrated baseline the whole time.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t cls = 0; cls < 2; ++cls) {
      ctl.observe_canary(meas(cls, baseline_row(cls, gen)), cls);
    }
  }
  // Victim stream shifts hard (an attack wave): victim cells may alarm,
  // but that is telemetry — no quarantine, no recalibration, ever.
  for (std::size_t i = 0; i < 40; ++i) {
    const auto v = ctl.score_victim(meas(0, baseline_row(0, gen, 2.0)));
    EXPECT_FALSE(v.abstained);
    EXPECT_FALSE(ctl.recalibration_due());
  }
  const auto rep = ctl.report();
  EXPECT_TRUE(rep.attack_suspected);
  EXPECT_FALSE(rep.drift_suspected);
  EXPECT_EQ(rep.quarantined_cells, 0u);
  EXPECT_EQ(rep.recalibrations, 0u);
}

TEST(DriftController, PoisonedCanariesRejected) {
  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  rng gen(31);

  // Misprediction: the "canary" no longer behaves like its pinned label.
  auto wrong = meas(0, baseline_row(0, gen));
  wrong.predicted = 1;
  EXPECT_FALSE(ctl.observe_canary(wrong, 0));

  // Degraded measurement: a faulted counter must not write the baseline.
  auto degraded = meas(0, baseline_row(0, gen));
  degraded.q.available = {1, 0};
  EXPECT_FALSE(ctl.observe_canary(degraded, 0));

  EXPECT_EQ(ctl.state().canaries_rejected, 2u);
  EXPECT_EQ(ctl.state().canaries_accepted, 0u);
  EXPECT_TRUE(ctl.state().reservoir[0].empty());
}

TEST(DriftController, ReservoirRestartsAtAlarmAndStaysBounded) {
  const detector det = synthetic_detector();
  drift_policy policy;
  policy.reservoir_capacity = 16;
  drift_controller ctl(det, policy);
  rng gen(59);

  for (std::size_t i = 0; i < 30; ++i) {
    ctl.observe_canary(meas(0, baseline_row(0, gen)), 0);
  }
  EXPECT_EQ(ctl.state().reservoir[0].size(), policy.reservoir_capacity);

  // First drifted probes trip the alarm; the pre-alarm rows describe the
  // old baseline and must be gone.
  for (std::size_t i = 0; i < 4; ++i) {
    ctl.observe_canary(meas(0, baseline_row(0, gen, 2.0)), 0);
  }
  ASSERT_GT(ctl.report().quarantined_cells, 0u);
  EXPECT_LE(ctl.state().reservoir[0].size(), 4u);
}

TEST(DriftController, RecalibrateIsThreadInvariant) {
  const detector det = synthetic_detector();
  const auto run = [&](std::size_t threads) {
    drift_controller ctl(det, drift_policy{});
    rng gen(13);
    for (std::size_t i = 0; i < 16; ++i) {
      ctl.observe_canary(meas(0, baseline_row(0, gen)), 0);
    }
    for (std::size_t i = 0; i < 12; ++i) {
      ctl.observe_canary(meas(0, baseline_row(0, gen, 2.0)), 0);
    }
    ctl.recalibrate(threads);
    const std::string path = scratch_path("advh_drift_thr" +
                                          std::to_string(threads));
    save_checkpoint(ctl, path);
    const std::string bytes = slurp(path);
    std::remove(path.c_str());
    return bytes;
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

// --------------------------------------------------------- persistence --

TEST(DriftCheckpoint, RoundTripIsBitExactAndPreservesVerdicts) {
  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  rng gen(19);
  // Mid-episode state: steady canaries, then a partially-progressed drift
  // episode with live quarantine and a part-filled reservoir.
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t cls = 0; cls < 2; ++cls) {
      ctl.observe_canary(meas(cls, baseline_row(cls, gen)), cls);
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    ctl.observe_canary(meas(0, baseline_row(0, gen, 2.0)), 0);
    ctl.score_victim(meas(1, baseline_row(1, gen)));
  }
  ASSERT_GT(ctl.report().quarantined_cells, 0u);

  const std::string path_a = scratch_path("advh_drift_rt_a");
  const std::string path_b = scratch_path("advh_drift_rt_b");
  save_checkpoint(ctl, path_a);

  auto loaded = core::load_checkpoint(path_a);
  ASSERT_TRUE(loaded.drift.has_value());
  drift_controller resumed(std::move(loaded.det), std::move(*loaded.drift));

  // Serialisation is canonical: re-saving the resumed controller must
  // reproduce the original file byte for byte.
  save_checkpoint(resumed, path_b);
  EXPECT_EQ(slurp(path_a), slurp(path_b));

  // And the resumed loop behaves identically: same verdicts, same
  // recalibration trajectory.
  rng probe_gen(101);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto row = baseline_row(0, probe_gen, 2.0);
    const auto va = ctl.score_victim(meas(0, row));
    const auto vb = resumed.score_victim(meas(0, row));
    EXPECT_EQ(va.adversarial_any, vb.adversarial_any);
    EXPECT_EQ(va.abstained, vb.abstained);
    EXPECT_EQ(va.nll, vb.nll);
    ctl.observe_canary(meas(0, row), 0);
    resumed.observe_canary(meas(0, row), 0);
    EXPECT_EQ(ctl.recalibration_due(), resumed.recalibration_due());
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(DriftCheckpoint, EveryTruncationIsRejected) {
  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  rng gen(43);
  for (std::size_t i = 0; i < 12; ++i) {
    ctl.observe_canary(meas(0, baseline_row(0, gen)), 0);
  }
  const std::string path = scratch_path("advh_drift_trunc");
  save_checkpoint(ctl, path);
  const std::string v4 = slurp(path);
  // v5: the same checkpoint with the fleet section and CRC32C trailer.
  save_checkpoint(ctl, path, checkpoint_meta{});
  const std::string v5 = slurp(path);
  ASSERT_GT(v4.size(), 64u);
  ASSERT_GT(v5.size(), v4.size());

  // A kill -9 mid-write can never surface a prefix as the checkpoint
  // (atomic rename), but a corrupt disk can: every proper prefix must be
  // rejected as unreadable, not half-loaded.
  for (const std::string& bytes : {v4, v5}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      atomic_write_file(path, std::string_view(bytes).substr(0, len));
      EXPECT_THROW(core::load_checkpoint(path), io_error)
          << "prefix " << len << " of " << bytes.size();
    }
  }
  std::remove(path.c_str());
}

TEST(DriftCheckpoint, StaleTmpFileNeverShadowsTheCheckpoint) {
  const std::string path = scratch_path("advh_drift_stale");
  const std::string tmp = path + kAtomicTmpSuffix;
  std::remove(path.c_str());

  // A crash between staging and rename leaves only the temp file: the
  // destination must read as absent/unloadable, and the next save must
  // clobber the stale staging bytes.
  {
    std::ofstream os(tmp, std::ios::binary);
    os << "garbage from a crashed writer";
  }
  EXPECT_THROW(core::load_checkpoint(path), io_error);

  const detector det = synthetic_detector();
  drift_controller ctl(det, drift_policy{});
  save_checkpoint(ctl, path);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  const auto loaded = core::load_checkpoint(path);
  EXPECT_TRUE(loaded.drift.has_value());
  std::remove(path.c_str());
}

TEST(DriftCheckpoint, SaveDetectorCarriesNoDriftSection) {
  const detector det = synthetic_detector();
  const std::string path = scratch_path("advh_drift_nodrift");
  save_detector(det, path);
  const auto loaded = core::load_checkpoint(path);
  EXPECT_FALSE(loaded.drift.has_value());
  // and load_detector accepts a checkpoint file, dropping the state.
  drift_controller ctl(det, drift_policy{});
  save_checkpoint(ctl, path);
  EXPECT_NO_THROW(core::load_detector(path));
  std::remove(path.c_str());
}

TEST(DriftCheckpoint, InconsistentPolicyRejected) {
  const detector det = synthetic_detector();
  // A z_clamp value whose byte pattern cannot collide with anything else
  // in the file, so it can be located and corrupted surgically.
  drift_policy policy;
  policy.z_clamp = 7.12890625;
  drift_controller ctl(det, policy);
  const std::string path = scratch_path("advh_drift_badpol");
  save_checkpoint(ctl, path);
  std::string bytes = slurp(path);

  const char* raw = reinterpret_cast<const char*>(&policy.z_clamp);
  const std::size_t needle =
      bytes.find(std::string(raw, raw + sizeof(double)));
  ASSERT_NE(needle, std::string::npos);
  const double bad = -3.0;  // z_clamp must be positive
  bytes.replace(needle, sizeof(double),
                std::string(reinterpret_cast<const char*>(&bad),
                            sizeof(double)));
  atomic_write_file(path, bytes);
  EXPECT_THROW(core::load_checkpoint(path), io_error);
  std::remove(path.c_str());
}

// -------------------------------------------------------- drift backend --

TEST(DriftBackend, FactorFollowsStepAndRampShapes) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  hpc::drift_profile step;
  step.shape = hpc::drift_profile::shape_kind::step;
  step.magnitude = 2.0;
  step.onset_stream = 100;
  hpc::drift_backend stepped(std::make_unique<hpc::sim_backend>(*model), step);
  EXPECT_DOUBLE_EQ(stepped.factor_at(0), 1.0);
  EXPECT_DOUBLE_EQ(stepped.factor_at(99), 1.0);
  EXPECT_DOUBLE_EQ(stepped.factor_at(100), 2.0);
  EXPECT_DOUBLE_EQ(stepped.factor_at(1u << 20), 2.0);

  hpc::drift_profile ramp = step;
  ramp.shape = hpc::drift_profile::shape_kind::ramp;
  ramp.ramp_streams = 100;
  hpc::drift_backend ramped(std::make_unique<hpc::sim_backend>(*model), ramp);
  EXPECT_DOUBLE_EQ(ramped.factor_at(99), 1.0);
  EXPECT_NEAR(ramped.factor_at(150), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(ramped.factor_at(200), 2.0);
  EXPECT_DOUBLE_EQ(ramped.factor_at(10000), 2.0);
}

TEST(DriftBackend, ScalesOnlyAffectedEvents) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(0.1 + 0.01 * static_cast<double>(i % 7));
  }
  const std::vector<hpc::hpc_event> events = {
      hpc::hpc_event::cache_misses, hpc::hpc_event::instructions};

  hpc::sim_backend plain(*model);
  const auto base = plain.open(x)->read(events, 4, 42);

  hpc::drift_profile profile;
  profile.magnitude = 2.0;
  profile.onset_stream = 0;
  profile.events = {hpc::hpc_event::cache_misses};
  hpc::drift_backend drifted(std::make_unique<hpc::sim_backend>(*model),
                             profile);
  const auto shifted = drifted.open(x)->read(events, 4, 42);

  ASSERT_EQ(shifted.repetitions, base.repetitions);
  for (std::size_t rep = 0; rep < base.repetitions; ++rep) {
    EXPECT_NEAR(shifted.value_at(rep, 0), 2.0 * base.value_at(rep, 0),
                1e-6 * base.value_at(rep, 0));
    EXPECT_DOUBLE_EQ(shifted.value_at(rep, 1), base.value_at(rep, 1));
  }
}

// ------------------------------------------------------------ chaos env --

TEST(ChaosEnv, DriftRateParsesStrictly) {
  env_guard guard("ADVH_DRIFT_RATE");
  guard.unset();
  EXPECT_FALSE(hpc::drift_profile_from_env().has_value());
  guard.set("0");
  EXPECT_FALSE(hpc::drift_profile_from_env().has_value());
  guard.set("0.5");
  const auto p = hpc::drift_profile_from_env();
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->magnitude, 1.5);
  EXPECT_EQ(p->onset_stream, 0u);
  for (const char* bad : {"bogus", "", "0.1x", "-0.2", "1e999", "nan"}) {
    guard.set(bad);
    EXPECT_THROW(hpc::drift_profile_from_env(), std::invalid_argument)
        << "value: " << bad;
  }
}

TEST(ChaosEnv, FaultRateParsesStrictly) {
  env_guard guard("ADVH_FAULT_RATE");
  guard.unset();
  EXPECT_FALSE(hpc::fault_config_from_env().has_value());
  guard.set("0.05");
  const auto fc = hpc::fault_config_from_env();
  ASSERT_TRUE(fc.has_value());
  EXPECT_DOUBLE_EQ(fc->read_failure_rate, 0.05);
  EXPECT_DOUBLE_EQ(fc->spike_rate, 0.025);
  for (const char* bad : {"junk", "", "-0.1", "1.5", "0.05 "}) {
    guard.set(bad);
    EXPECT_THROW(hpc::fault_config_from_env(), std::invalid_argument)
        << "value: " << bad;
  }
}

}  // namespace
}  // namespace advh::core
