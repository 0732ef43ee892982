// Experiment orchestration shared by the examples and every bench binary:
// scenario preparation (dataset synthesis + model training with on-disk
// caching) and detection-evaluation loops.
#pragma once

#include <memory>
#include <string>

#include "core/detector.hpp"
#include "core/drift.hpp"
#include "core/metrics.hpp"
#include "data/scenarios.hpp"
#include "hpc/monitor.hpp"

namespace advh::core {

/// A fully prepared evaluation scenario: data, trained model, accuracy.
struct scenario_runtime {
  data::scenario_spec spec;
  data::dataset train;
  data::dataset test;
  std::unique_ptr<nn::model> net;
  double clean_accuracy = 0.0;  ///< test-set accuracy (Table 1 column)
};

/// Synthesises the scenario's dataset and trains its model (or loads a
/// cached state file from `cache_dir` when one exists). Deterministic in
/// the scenario spec and `seed`. Before the runtime is handed out, the
/// model passes the static verifier (src/analysis) and
/// analysis::check_error is raised on a broken graph.
scenario_runtime prepare_scenario(data::scenario_id id,
                                  const std::string& cache_dir = "advh_models",
                                  std::uint64_t seed = 1234);

/// Draws up to `per_class` validation examples of every class from `d`
/// (in dataset order after a seeded shuffle) and measures them into a
/// benign template. Misclassified validation images are skipped; when a
/// class's pool runs dry before `per_class` samples are accepted the
/// shortfall is logged and recorded on the returned template
/// (benign_template::underfilled_classes). Measurement runs through
/// hpc_monitor::measure_batch in deterministic chunks, so the template is
/// bitwise identical at any `threads` value (0 = ADVH_THREADS / hardware).
benign_template collect_template(hpc::hpc_monitor& monitor,
                                 const detector_config& cfg,
                                 const data::dataset& d, std::size_t per_class,
                                 std::uint64_t seed, std::size_t threads = 0);

/// Measures and scores a set of inputs with ground truth "adversarial or
/// not", accumulating one confusion matrix per configured event plus the
/// any-event fusion.
struct detection_eval {
  std::vector<detection_confusion> per_event;
  detection_confusion fused;
  /// Inputs whose predicted class had no fitted model; their fused
  /// verdict is the flag_unmodeled policy rather than measured evidence.
  std::size_t unmodeled = 0;
  /// Inputs scored with at least one configured event unavailable
  /// (verdict::degraded).
  std::size_t degraded = 0;
  /// Inputs where the detector abstained (verdict::abstained); their
  /// fused verdict is the flag_on_abstain policy.
  std::size_t abstained = 0;
};

/// Scores `inputs` (each a batch-of-one tensor); `is_adversarial` is the
/// shared ground-truth flag for the whole set. Measurement is batched
/// (bitwise identical at any `threads` value).
void evaluate_inputs(const detector& det, hpc::hpc_monitor& monitor,
                     std::span<const tensor> inputs, bool is_adversarial,
                     detection_eval& eval, std::size_t threads = 0);

/// A pinned set of known-benign calibration inputs with their
/// ground-truth labels, re-measured periodically as drift canaries.
struct canary_set {
  std::vector<tensor> inputs;  ///< each a batch-of-one tensor
  std::vector<std::size_t> labels;
};

/// Draws up to `per_class` correctly-classified examples of every class
/// from `d` (seeded shuffle, dataset order within a class). Deterministic
/// in (d, per_class, seed). Canaries must be inputs the deployment can
/// vouch for, so misclassified examples are skipped up front.
canary_set pick_canaries(nn::model& net, const data::dataset& d,
                         std::size_t per_class, std::uint64_t seed);

/// Measures the whole canary set through `monitor` (batched, bitwise
/// thread-invariant) and feeds every measurement to ctl.observe_canary.
/// Returns the number of canaries the controller accepted into its
/// reservoirs; the remainder were rejected by the poisoning guard.
std::size_t probe_canaries(drift_controller& ctl, hpc::hpc_monitor& monitor,
                           const canary_set& canaries, std::size_t threads = 0);

}  // namespace advh::core
