// Quickstart: the complete AdvHunter loop on one scenario.
//
//   1. prepare a scenario (synthetic dataset + trained CNN, cached on disk)
//   2. craft adversarial examples with FGSM against the model
//   3. build the benign HPC template from clean validation images (offline)
//   4. fit per-(class, event) GMMs + 3-sigma thresholds
//   5. classify unseen clean images and AEs (online) and report per-event
//      detection accuracy / F1
//
// Run with --help for the knobs.
#include <iostream>

#include "attack/metrics.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "hpc/factory.hpp"
#include "nn/trainer.hpp"

using namespace advh;

int main(int argc, char** argv) {
  cli_parser cli("quickstart", "end-to-end AdvHunter demo");
  cli.add_flag("scenario", "S2", "scenario: S1, S2 or S3");
  cli.add_flag("epsilon", "0.1", "FGSM attack strength");
  cli.add_flag("targeted", "true", "targeted (paper's Table 2 setting)?");
  cli.add_flag("validation-per-class", "40", "template size M per class");
  cli.add_flag("eval-count", "60", "clean/adversarial examples to classify");
  cli.add_flag("repeats", "10", "HPC measurement repetitions R");
  cli.add_flag("backend", "sim", "HPC backend: sim, perf or auto");
  cli.add_flag("threads", "0",
               "measurement worker threads (0 = ADVH_THREADS or hardware)");
  data::scenario_id scenario_id{};
  bool targeted = false;
  double epsilon = 0.0;
  std::size_t m_per_class = 0, eval_count = 0, repeats = 0, threads = 0;
  std::string backend_name;
  try {  // every flag is read before any work, so a bad value fails fast
    if (!cli.parse(argc, argv)) return 0;
    scenario_id = data::scenario_from_string(cli.get("scenario"));
    targeted = cli.get_bool("targeted");
    epsilon = cli.get_double("epsilon");
    m_per_class = cli.get_count("validation-per-class");
    eval_count = cli.get_count("eval-count");
    repeats = cli.get_count("repeats", 1);
    backend_name = cli.get("backend");
    threads = cli.get_count("threads", 0, parallel::max_threads);
  } catch (const std::exception& e) {
    return cli.usage_error(e);
  }

  // 1. Scenario: dataset + trained model (Table 1 row).
  core::scenario_runtime rt = core::prepare_scenario(scenario_id);
  std::cout << "scenario " << rt.spec.label << ": " << rt.train.name << " + "
            << to_string(rt.spec.arch) << ", clean accuracy "
            << text_table::num(100.0 * rt.clean_accuracy, 2) << "%\n";

  // 2. Adversarial examples against the target class.
  attack::attack_config acfg;
  acfg.goal = targeted ? attack::attack_goal::targeted
                       : attack::attack_goal::untargeted;
  acfg.target_class = rt.spec.target_class;
  acfg.epsilon = static_cast<float>(epsilon);
  auto atk = attack::make_attack(attack::attack_kind::fgsm, acfg);

  // Attack across the whole test set (interleaving classes) until enough
  // successful AEs are collected.
  std::vector<tensor> adv_inputs;
  std::size_t attempted = 0;
  for (std::size_t stride = 0; stride < 7 && adv_inputs.size() < eval_count;
       ++stride) {
    for (std::size_t i = stride; i < rt.test.size() && adv_inputs.size() < eval_count;
         i += 7) {
      if (acfg.goal == attack::attack_goal::targeted &&
          rt.test.labels[i] == rt.spec.target_class) {
        continue;
      }
      auto r = atk->run(*rt.net, nn::single_example(rt.test.images, i),
                        rt.test.labels[i]);
      ++attempted;
      if (r.success) adv_inputs.push_back(std::move(r.adversarial));
    }
  }
  std::cout << "FGSM eps=" << acfg.epsilon << ": " << adv_inputs.size() << "/"
            << attempted << " successful AEs\n";

  // 3-4. Offline phase: benign template -> GMMs -> thresholds.
  const auto backend = backend_name == "perf" ? hpc::backend_kind::perf
                       : backend_name == "auto" ? hpc::backend_kind::auto_detect
                                                : hpc::backend_kind::simulator;
  auto monitor = hpc::make_monitor(*rt.net, backend);

  core::detector_config dcfg;
  dcfg.events = hpc::core_events();
  dcfg.repeats = repeats;
  const auto tpl = core::collect_template(*monitor, dcfg, rt.train,
                                          m_per_class, /*seed=*/77, threads);
  const auto det = core::detector::fit(tpl, dcfg, threads);
  std::cout << "offline phase done: " << tpl.num_classes() << " classes x "
            << dcfg.events.size() << " events, M<=" << m_per_class << "\n";

  // 5. Online phase: clean target-class images vs successful AEs.
  std::vector<tensor> clean_inputs;
  for (std::size_t i = 0;
       i < rt.test.size() && clean_inputs.size() < eval_count; ++i) {
    if (rt.test.labels[i] == rt.spec.target_class) {
      clean_inputs.push_back(nn::single_example(rt.test.images, i));
    }
  }
  core::detection_eval eval;
  core::evaluate_inputs(det, *monitor, clean_inputs, false, eval, threads);
  core::evaluate_inputs(det, *monitor, adv_inputs, true, eval, threads);

  text_table table("per-event detection performance (clean '" +
                   rt.spec.target_class_name + "' vs AEs)");
  table.set_header({"event", "accuracy %", "F1", "TP", "FP", "TN", "FN"});
  for (std::size_t e = 0; e < dcfg.events.size(); ++e) {
    const auto& c = eval.per_event[e];
    table.add_row({to_string(dcfg.events[e]),
                   text_table::num(100.0 * c.accuracy(), 2),
                   text_table::num(c.f1(), 4),
                   std::to_string(c.true_positives()),
                   std::to_string(c.false_positives()),
                   std::to_string(c.true_negatives()),
                   std::to_string(c.false_negatives())});
  }
  table.print(std::cout);
  std::cout << "fused (any event): accuracy "
            << text_table::num(100.0 * eval.fused.accuracy(), 2) << "%, F1 "
            << text_table::num(eval.fused.f1(), 4) << "\n";
  return 0;
}
