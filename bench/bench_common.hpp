// Shared experiment plumbing for the per-table/per-figure bench binaries.
//
// Every bench binary regenerates one table or figure of the paper. They
// share: scenario preparation (cached trained models), adversarial-example
// generation against a scenario, clean-input pools, detector fitting, and
// result rendering/CSV output. Experiment sizes are chosen so the full
// bench suite completes on a laptop; set ADVH_BENCH_SCALE=2 (etc.) to
// scale sample counts up for tighter statistics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "attack/metrics.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"

namespace advh::bench {

/// Sample-count multiplier from ADVH_BENCH_SCALE (default 1). Strictly
/// parsed: a set-but-malformed value throws std::invalid_argument.
double scale();

/// Parses the shared bench command line (the `--threads N` flag; 0 means
/// the ADVH_THREADS override or hardware concurrency). Returns nullopt
/// when --help was requested (help already printed).
std::optional<std::size_t> parse_threads(int argc, const char* const* argv,
                                         const std::string& program,
                                         const std::string& description);

/// Scaled count helper.
std::size_t scaled(std::size_t base);

/// Prepares (or loads) a scenario; identical across bench binaries so the
/// trained model cache is shared.
core::scenario_runtime prepare(data::scenario_id id);

/// Simulator reader with the canonical noise model and a fixed seed.
std::unique_ptr<hpc::sim_backend> make_reader(nn::model& m,
                                              std::uint64_t seed = 99);

/// Naively aggregating monitor over make_reader(m, seed).
hpc::monitor_ptr make_monitor(nn::model& m, std::uint64_t seed = 99);

/// A generated pool of attack-source images (fresh draws of the scenario's
/// task, disjoint from train and test streams).
data::dataset attack_pool(const core::scenario_runtime& rt,
                          std::size_t per_class);

struct adversarial_set {
  std::vector<tensor> inputs;          ///< successful AEs only
  std::vector<std::size_t> source_labels;  ///< original class per AE
  std::size_t attempted = 0;
  double attack_success_rate = 0.0;
  /// Untargeted: model accuracy under attack; targeted: target-hit rate.
  double attack_accuracy_metric = 0.0;
};

/// Runs `kind` over `pool` until `max_count` successful AEs are collected
/// (or the pool is exhausted). Only examples the model classifies
/// correctly when clean are attacked — matching the paper's protocol.
adversarial_set collect_adversarial(nn::model& m, const data::dataset& pool,
                                    attack::attack_kind kind,
                                    attack::attack_goal goal, float epsilon,
                                    std::size_t target_class,
                                    std::size_t max_count,
                                    std::size_t pgd_steps = 10);

/// Clean examples of one class that the model classifies correctly.
std::vector<tensor> clean_of_class(nn::model& m, const data::dataset& d,
                                   std::size_t cls, std::size_t max_count);

/// Fits the AdvHunter detector from the scenario's training pool. Both
/// the template measurement and the GMM-bank fit honour `threads`
/// (bitwise identical at any value); a partially-filled template is
/// logged per affected class.
core::detector fit_detector(hpc::hpc_monitor& monitor,
                            const core::detector_config& cfg,
                            const data::dataset& validation_pool,
                            std::size_t per_class, std::uint64_t seed = 77,
                            std::size_t threads = 0);

/// Prints the table and writes CSV under bench_results/<name>.csv.
void emit(const text_table& table, const std::string& name);

/// Writes a free-form text artifact under bench_results/.
void emit_text(const std::string& content, const std::string& name);

}  // namespace advh::bench
