#include "bench/bench_common.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "nn/trainer.hpp"

namespace advh::bench {

double scale() {
  if (const char* env = std::getenv("ADVH_BENCH_SCALE")) {
    // A typo in a CI matrix must fail the job, not quietly change (or
    // keep) the workload size.
    return parse_number("ADVH_BENCH_SCALE", env,
                        {.lo = 0, .hi = 1e6, .lo_open = true});
  }
  return 1.0;
}

std::size_t scaled(std::size_t base) {
  const auto s = static_cast<std::size_t>(static_cast<double>(base) * scale());
  return std::max<std::size_t>(s, 1);
}

std::optional<std::size_t> parse_threads(int argc, const char* const* argv,
                                         const std::string& program,
                                         const std::string& description) {
  cli_parser cli(program, description);
  cli.add_flag("threads", "0",
               "measurement worker threads (0 = ADVH_THREADS or hardware)");
  if (!cli.parse(argc, argv)) return std::nullopt;
  return cli.get_count("threads", 0, parallel::max_threads);
}

core::scenario_runtime prepare(data::scenario_id id) {
  return core::prepare_scenario(id);
}

std::unique_ptr<hpc::sim_backend> make_reader(nn::model& m,
                                              std::uint64_t seed) {
  return std::make_unique<hpc::sim_backend>(m, uarch::trace_gen_config{},
                                            hpc::noise_model{}, seed);
}

hpc::monitor_ptr make_monitor(nn::model& m, std::uint64_t seed) {
  return std::make_unique<hpc::resilient_monitor>(
      make_reader(m, seed), hpc::resilience_config::naive());
}

data::dataset attack_pool(const core::scenario_runtime& rt,
                          std::size_t per_class) {
  auto spec = rt.spec.dataset_spec;
  spec.sample_seed = 2;  // disjoint from train (0) and test (1)
  return data::make_synthetic(spec, per_class);
}

adversarial_set collect_adversarial(nn::model& m, const data::dataset& pool,
                                    attack::attack_kind kind,
                                    attack::attack_goal goal, float epsilon,
                                    std::size_t target_class,
                                    std::size_t max_count,
                                    std::size_t pgd_steps) {
  attack::attack_config cfg;
  cfg.goal = goal;
  cfg.target_class = target_class;
  cfg.epsilon = epsilon;
  cfg.steps = pgd_steps;
  auto atk = attack::make_attack(kind, cfg);

  adversarial_set out;
  std::size_t true_hits = 0;
  std::size_t target_hits = 0;
  // Round-robin over classes so sources are balanced even if we stop early.
  std::vector<std::vector<std::size_t>> by_class(pool.num_classes);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_class[pool.labels[i]].push_back(i);
  }
  for (std::size_t round = 0; out.inputs.size() < max_count; ++round) {
    bool any = false;
    for (std::size_t cls = 0;
         cls < pool.num_classes && out.inputs.size() < max_count; ++cls) {
      if (goal == attack::attack_goal::targeted && cls == target_class) {
        continue;
      }
      if (round >= by_class[cls].size()) continue;
      any = true;
      const std::size_t i = by_class[cls][round];
      tensor x = nn::single_example(pool.images, i);
      if (m.predict_one(x) != pool.labels[i]) continue;  // already wrong
      auto r = atk->run(m, x, pool.labels[i]);
      ++out.attempted;
      if (r.adversarial_prediction == pool.labels[i]) ++true_hits;
      if (goal == attack::attack_goal::targeted &&
          r.adversarial_prediction == target_class) {
        ++target_hits;
      }
      if (r.success) {
        out.inputs.push_back(std::move(r.adversarial));
        out.source_labels.push_back(pool.labels[i]);
      }
    }
    if (!any) break;  // pool exhausted
  }

  if (out.attempted > 0) {
    const auto n = static_cast<double>(out.attempted);
    out.attack_success_rate =
        static_cast<double>(out.inputs.size()) / n;
    out.attack_accuracy_metric =
        goal == attack::attack_goal::targeted
            ? static_cast<double>(target_hits) / n
            : static_cast<double>(true_hits) / n;
  }
  return out;
}

std::vector<tensor> clean_of_class(nn::model& m, const data::dataset& d,
                                   std::size_t cls, std::size_t max_count) {
  std::vector<tensor> out;
  for (std::size_t i = 0; i < d.size() && out.size() < max_count; ++i) {
    if (d.labels[i] != cls) continue;
    tensor x = nn::single_example(d.images, i);
    if (m.predict_one(x) == cls) out.push_back(std::move(x));
  }
  return out;
}

core::detector fit_detector(hpc::hpc_monitor& monitor,
                            const core::detector_config& cfg,
                            const data::dataset& validation_pool,
                            std::size_t per_class, std::uint64_t seed,
                            std::size_t threads) {
  const auto tpl = core::collect_template(monitor, cfg, validation_pool,
                                          per_class, seed, threads);
  const auto short_classes = tpl.underfilled_classes();
  if (!short_classes.empty()) {
    log::warn("template short on ", short_classes.size(), " of ",
              tpl.num_classes(), " classes (requested ",
              tpl.requested_per_class(), " rows per class)");
  }
  return core::detector::fit(tpl, cfg, threads);
}

void emit(const text_table& table, const std::string& name) {
  table.print(std::cout);
  write_file("bench_results/" + name + ".csv", table.to_csv());
}

void emit_text(const std::string& content, const std::string& name) {
  std::cout << content << "\n";
  write_file("bench_results/" + name + ".txt", content);
}

}  // namespace advh::bench
