// Traffic-sign scenario (S3): a 43-class GTSRB-style deployment audited
// against targeted attacks that try to turn arbitrary signs into
// "speed limit (30km/h)" — the paper's S3 targeted setting.
//
// Demonstrates AdvHunter on the many-class scenario: the larger validation
// requirement (M ~ 60 per class, Figure 6) and per-source-class detection
// breakdown for a safety-critical deployment.
#include <iostream>
#include <map>

#include "attack/metrics.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "hpc/factory.hpp"
#include "nn/trainer.hpp"

using namespace advh;

int main(int argc, char** argv) {
  cli_parser cli("traffic_sign_audit", "43-class GTSRB-style audit (S3)");
  cli.add_flag("validation-per-class", "60", "template size M per class");
  cli.add_flag("audit-count", "40", "adversarial signs to audit");
  cli.add_flag("epsilon", "0.3", "PGD attack strength");
  cli.add_flag("threads", "0",
               "measurement worker threads (0 = ADVH_THREADS or hardware)");
  std::size_t m_per_class = 0, audit_count = 0, threads = 0;
  double epsilon = 0.0;
  try {  // every flag is read before any work, so a bad value fails fast
    if (!cli.parse(argc, argv)) return 0;
    m_per_class = cli.get_count("validation-per-class");
    audit_count = cli.get_count("audit-count");
    epsilon = cli.get_double("epsilon");
    threads = cli.get_count("threads", 0, parallel::max_threads);
  } catch (const std::exception& e) {
    return cli.usage_error(e);
  }

  auto rt = core::prepare_scenario(data::scenario_id::s3);
  std::cout << "S3: " << rt.train.name << " ("
            << rt.train.num_classes << " classes), clean accuracy "
            << text_table::num(100.0 * rt.clean_accuracy, 2) << "%\n";
  std::cout << "target class: '" << rt.spec.target_class_name << "'\n";

  auto monitor = hpc::make_monitor(*rt.net, hpc::backend_kind::simulator);

  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses};
  dcfg.repeats = 10;
  // The training pool doubles as the clean validation set (the defender's
  // "limited set of clean validation images").
  const auto tpl =
      core::collect_template(*monitor, dcfg, rt.train, m_per_class, 31, threads);
  const auto det = core::detector::fit(tpl, dcfg, threads);

  // Craft targeted PGD attacks from a spread of source signs.
  attack::attack_config acfg;
  acfg.goal = attack::attack_goal::targeted;
  acfg.target_class = rt.spec.target_class;
  acfg.epsilon = static_cast<float>(epsilon);
  acfg.steps = 10;
  auto atk = attack::make_attack(attack::attack_kind::pgd, acfg);

  core::detection_confusion confusion;
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> per_source;

  std::size_t audited = 0;
  for (std::size_t i = 0; i < rt.test.size() && audited < audit_count; ++i) {
    if (rt.test.labels[i] == rt.spec.target_class) continue;
    tensor x = nn::single_example(rt.test.images, i);
    if (rt.net->predict_one(x) != rt.test.labels[i]) continue;
    auto r = atk->run(*rt.net, x, rt.test.labels[i]);
    if (!r.success) continue;
    ++audited;

    const auto verdict = det.classify(*monitor, r.adversarial);
    confusion.push(true, verdict.adversarial_any);
    auto& [caught, seen] = per_source[rt.test.labels[i]];
    ++seen;
    if (verdict.adversarial_any) ++caught;
  }

  // Also audit genuine 30km/h signs to check the false-alarm rate.
  std::size_t clean_checked = 0;
  for (std::size_t i = 0;
       i < rt.test.size() && clean_checked < audit_count; ++i) {
    if (rt.test.labels[i] != rt.spec.target_class) continue;
    tensor x = nn::single_example(rt.test.images, i);
    if (rt.net->predict_one(x) != rt.spec.target_class) continue;
    ++clean_checked;
    confusion.push(false, det.classify(*monitor, x).adversarial_any);
  }

  std::cout << "\naudited " << audited << " successful targeted AEs and "
            << clean_checked << " genuine '" << rt.spec.target_class_name
            << "' signs\n";
  text_table report("audit summary");
  report.set_header({"metric", "value"});
  report.add_row({"AEs caught", std::to_string(confusion.true_positives()) +
                                    "/" + std::to_string(audited)});
  report.add_row(
      {"false alarms", std::to_string(confusion.false_positives()) + "/" +
                           std::to_string(clean_checked)});
  report.add_row({"accuracy %", text_table::num(100.0 * confusion.accuracy(), 2)});
  report.add_row({"F1", text_table::num(confusion.f1(), 4)});
  report.print(std::cout);

  std::cout << "caught-by-source breakdown (first 8 source classes):\n";
  std::size_t shown = 0;
  for (const auto& [cls, counts] : per_source) {
    if (shown++ >= 8) break;
    std::cout << "  " << rt.test.class_names[cls] << ": " << counts.first
              << "/" << counts.second << "\n";
  }
  return 0;
}
