// Cloud-deployment scenario: a hard-label MLaaS endpoint monitored by
// AdvHunter in a streaming loop, with drift-aware operation.
//
// The paper's motivation: the defender operates a proprietary DNN behind a
// hard-label API (no confidences, no internals) and wants to know, per
// query, whether the submitted input carried adversarial noise. This
// example simulates the full deployment loop:
//
//   * offline: calibrate templates and fit the detector on a clean
//     baseline, pin a canary set of known-benign validation inputs;
//   * online: a stream of mixed clean / FGSM / PGD / DeepFool queries
//     arrives in epochs; each epoch first re-probes the canaries (drift
//     telemetry + reservoir), then answers the epoch's queries;
//   * chaos: at --drift-epoch the simulated machine's counter baseline
//     steps by --drift-magnitude, the canary cells alarm, the affected
//     (class, event) cells are quarantined (verdicts fall back to the
//     fail-closed degraded/abstain policy), and once enough post-alarm
//     canaries accumulate the controller refits the quarantined cells;
//   * crash safety: the controller state is checkpointed atomically after
//     every epoch, SIGINT/SIGTERM drain the loop and flush a final
//     checkpoint, and an existing checkpoint is resumed on start.
//
// At the end (or on an interrupt) it prints the incident report.
#include <csignal>
#include <filesystem>
#include <iostream>
#include <map>

#include "attack/metrics.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/detector_io.hpp"
#include "core/pipeline.hpp"
#include "hpc/factory.hpp"
#include "hpc/resilient_monitor.hpp"
#include "nn/trainer.hpp"

using namespace advh;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct query {
  tensor image;
  bool adversarial;
  std::string kind;
};

/// Builds one epoch's query stream: mixed clean and successful attacks.
std::vector<query> build_stream(core::scenario_runtime& rt, rng& gen,
                                std::size_t total, double adv_fraction) {
  const std::vector<attack::attack_kind> kinds{attack::attack_kind::fgsm,
                                               attack::attack_kind::pgd,
                                               attack::attack_kind::deepfool};
  std::vector<query> stream;
  while (stream.size() < total) {
    const std::size_t idx = gen.uniform_index(rt.test.size());
    tensor x = nn::single_example(rt.test.images, idx);
    if (!gen.bernoulli(adv_fraction)) {
      stream.push_back({std::move(x), false, "clean"});
      continue;
    }
    const auto kind = kinds[gen.uniform_index(kinds.size())];
    attack::attack_config acfg;
    acfg.goal = gen.bernoulli(0.5) ? attack::attack_goal::targeted
                                   : attack::attack_goal::untargeted;
    acfg.target_class = rt.spec.target_class;
    acfg.epsilon = 0.1f;
    if (acfg.goal == attack::attack_goal::targeted &&
        rt.test.labels[idx] == rt.spec.target_class) {
      continue;
    }
    auto atk = attack::make_attack(kind, acfg);
    auto r = atk->run(*rt.net, x, rt.test.labels[idx]);
    if (!r.success) continue;  // only successful evasions enter the stream
    stream.push_back({std::move(r.adversarial), true, to_string(kind)});
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("cloud_monitor",
                 "streaming hard-label MLaaS monitor with drift recovery");
  cli.add_flag("scenario", "S2", "scenario: S1, S2 or S3");
  cli.add_flag("epochs", "8", "online epochs (canary probe + query batch)");
  cli.add_flag("queries-per-epoch", "12", "victim queries per epoch");
  cli.add_flag("canaries-per-class", "4", "pinned canary probes per class");
  cli.add_flag("adversarial-fraction", "0.4", "fraction of attack queries");
  cli.add_flag("drift-epoch", "3",
               "epoch at which the baseline steps (>= epochs disables)");
  cli.add_flag("drift-magnitude", "2.0", "baseline step multiplier");
  cli.add_flag("checkpoint", "advh_monitor_ckpt.adet",
               "controller checkpoint path (resumed when present)");
  cli.add_flag("seed", "2024", "stream RNG seed");
  cli.add_flag("threads", "0",
               "measurement worker threads (0 = ADVH_THREADS or hardware)");
  data::scenario_id scenario_id{};
  std::size_t epochs = 0, per_epoch = 0, canaries_per_class = 0;
  std::size_t drift_epoch = 0, threads = 0;
  double adv_fraction = 0.0, drift_magnitude = 0.0;
  std::string ckpt_path;
  std::uint64_t seed = 0;
  try {  // every flag is read before any work, so a bad value fails fast
    if (!cli.parse(argc, argv)) return 0;
    scenario_id = data::scenario_from_string(cli.get("scenario"));
    epochs = cli.get_count("epochs", 1);
    per_epoch = cli.get_count("queries-per-epoch", 1);
    canaries_per_class = cli.get_count("canaries-per-class", 1);
    adv_fraction = cli.get_double("adversarial-fraction");
    drift_epoch = cli.get_count("drift-epoch");
    drift_magnitude = cli.get_double("drift-magnitude");
    ckpt_path = cli.get("checkpoint");
    seed = cli.get_count("seed");
    threads = cli.get_count("threads", 0, parallel::max_threads);
  } catch (const std::exception& e) {
    return cli.usage_error(e);
  }

  install_signal_handlers();

  auto rt = core::prepare_scenario(scenario_id);

  // Offline phase on the clean calibration machine.
  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  dcfg.repeats = 10;
  auto calib_monitor = hpc::make_monitor(*rt.net, hpc::backend_kind::simulator);
  const auto tpl =
      core::collect_template(*calib_monitor, dcfg, rt.train, 40, 7, threads);

  core::drift_policy policy;
  policy.min_refit_rows = 8;
  std::optional<core::drift_controller> ctl;
  if (std::filesystem::exists(ckpt_path)) {
    auto loaded = core::load_checkpoint(ckpt_path);
    if (loaded.drift.has_value()) {
      std::cout << "resuming controller from " << ckpt_path << "\n";
      ctl.emplace(std::move(loaded.det), std::move(*loaded.drift));
    } else {
      std::cout << ckpt_path << " has no drift state; starting fresh\n";
      ctl.emplace(std::move(loaded.det), policy);
    }
  } else {
    ctl.emplace(core::detector::fit(tpl, dcfg, threads), policy);
  }
  std::cout << "offline phase complete (" << tpl.num_classes()
            << " class templates, events: cache-misses + LLC-load-misses)\n";

  // Pinned canary set: correctly-classified validation inputs.
  const auto canaries =
      core::pick_canaries(*rt.net, rt.test, canaries_per_class, 11);

  // Online monitor: same simulated machine, but its baseline steps at the
  // configured epoch. Stream indices advance attempt_stride per sample,
  // and each epoch measures canaries.size() + queries-per-epoch samples.
  hpc::monitor_options mopts;
  mopts.kind = hpc::backend_kind::simulator;
  mopts.resilience = hpc::resilience_config{};
  if (drift_epoch < epochs) {
    hpc::drift_profile profile;
    profile.shape = hpc::drift_profile::shape_kind::step;
    profile.magnitude = drift_magnitude;
    profile.onset_stream = drift_epoch * (canaries.inputs.size() + per_epoch) *
                           hpc::resilient_monitor::attempt_stride;
    mopts.drift = profile;
  }
  auto monitor = hpc::make_monitor(*rt.net, mopts);

  // Online phase.
  rng gen(seed);
  std::map<std::string, core::detection_confusion> by_kind;
  core::detection_confusion overall;
  std::size_t quarantined_verdicts = 0;
  std::size_t abstained = 0;

  for (std::size_t epoch = 0; epoch < epochs && !g_stop; ++epoch) {
    if (epoch == drift_epoch) {
      std::cout << "-- baseline drift begins (x"
                << drift_magnitude << " step) --\n";
    }
    const std::size_t accepted =
        core::probe_canaries(*ctl, *monitor, canaries, threads);

    std::vector<std::size_t> refitted;
    if (ctl->recalibration_due()) refitted = ctl->recalibrate(threads);

    auto stream = build_stream(rt, gen, per_epoch, adv_fraction);
    const auto& cfg = ctl->det().config();
    std::vector<tensor> inputs;
    inputs.reserve(stream.size());
    for (auto& q : stream) inputs.push_back(std::move(q.image));
    const auto ms =
        monitor->measure_batch(inputs, cfg.events, cfg.repeats, threads);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const std::uint64_t q_before = ctl->state().quarantined_verdicts;
      const auto v = ctl->score_victim(ms[i]);
      overall.push(stream[i].adversarial, v.adversarial_any);
      by_kind[stream[i].kind].push(stream[i].adversarial, v.adversarial_any);
      if (ctl->state().quarantined_verdicts != q_before) ++quarantined_verdicts;
      if (v.abstained) ++abstained;
    }

    const auto rep = ctl->report();
    std::cout << "epoch " << epoch << ": canaries " << accepted << "/"
              << canaries.inputs.size() << " accepted, quarantined cells "
              << rep.quarantined_cells << ", recalibrations "
              << rep.recalibrations;
    if (!refitted.empty()) {
      std::cout << " [refitted " << refitted.size() << " classes]";
    }
    if (rep.drift_suspected) std::cout << " [DRIFT]";
    if (rep.attack_suspected) std::cout << " [ATTACK]";
    std::cout << "\n";

    // Atomic checkpoint: a kill -9 here leaves either this epoch's state
    // or the previous epoch's, never a torn file.
    core::save_checkpoint(*ctl, ckpt_path);
  }

  if (g_stop) {
    std::cout << "\ninterrupted: flushing drift state to " << ckpt_path
              << "\n";
    core::save_checkpoint(*ctl, ckpt_path);
  }

  text_table report("incident report");
  report.set_header({"traffic", "queries", "flagged", "accuracy %", "F1"});
  for (const auto& [kind, c] : by_kind) {
    report.add_row({kind, std::to_string(c.total()),
                    std::to_string(c.true_positives() + c.false_positives()),
                    text_table::num(100.0 * c.accuracy(), 2),
                    text_table::num(c.f1(), 4)});
  }
  report.add_row({"overall", std::to_string(overall.total()),
                  std::to_string(overall.true_positives() +
                                 overall.false_positives()),
                  text_table::num(100.0 * overall.accuracy(), 2),
                  text_table::num(overall.f1(), 4)});
  report.print(std::cout);

  const auto rep = ctl->report();
  std::cout << "drift summary: canaries " << rep.canaries_accepted
            << " accepted / " << rep.canaries_rejected << " rejected, "
            << rep.quarantined_cells << " cells quarantined, "
            << quarantined_verdicts << " quarantine-masked verdicts, "
            << abstained << " abstentions, " << rep.recalibrations
            << " cell recalibrations\n";
  return g_stop ? 130 : 0;
}
