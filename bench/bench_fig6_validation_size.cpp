// Reproduces Figure 6: AdvHunter F1 (cache-misses) as a function of the
// validation-set size M per category, for scenarios S1 and S2 (and the S3
// trend the paper describes in text), under targeted PGD eps = 0.1 (the
// paper's untargeted FGSM eps = 0.01 carries little signal here; see
// EXPERIMENTS.md).
// Each point averages 30 random validation subsets; the band is their
// standard deviation.
//
// Expected shape (paper): F1 saturates at M ~ 30 for S1, ~ 40 for S2, and
// ~ 60 for the 43-class S3.
#include <iostream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"

using namespace advh;

namespace {

struct measured_input {
  std::size_t predicted = 0;
  std::vector<double> counts;
};

/// Measures a set of inputs once; measurements are then reused across all
/// (M, resample) detector variants, which is what makes the 30-resample
/// protocol tractable.
std::vector<measured_input> measure_all(hpc::hpc_monitor& monitor,
                                        const std::vector<tensor>& inputs,
                                        std::span<const hpc::hpc_event> events,
                                        std::size_t repeats,
                                        std::size_t threads) {
  auto ms = monitor.measure_batch(inputs, events, repeats, threads);
  std::vector<measured_input> out;
  out.reserve(ms.size());
  for (auto& m : ms) out.push_back({m.predicted, std::move(m.mean_counts)});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto threads_opt = bench::parse_threads(
      argc, argv, "bench_fig6_validation_size",
      "Figure 6: F1 vs validation size M");
  if (!threads_opt) return 0;
  const std::size_t threads = *threads_opt;

  const std::vector<std::size_t> sizes{5, 10, 15, 20, 30, 40, 60, 80};
  const std::size_t resamples = 30;

  std::vector<plot::series> curves;
  text_table table("Figure 6: F1 vs validation size M (30 resamples)");
  table.set_header({"scenario", "M", "mean F1", "std dev"});

  for (auto id : {data::scenario_id::s1, data::scenario_id::s2,
                  data::scenario_id::s3}) {
    auto rt = bench::prepare(id);
    auto monitor = bench::make_monitor(*rt.net);

    core::detector_config dcfg;
    dcfg.events = {hpc::hpc_event::cache_misses};
    dcfg.repeats = 10;

    // Validation measurement pool: up to max(sizes) correctly classified
    // images per class, measured once.
    const std::size_t pool_size = sizes.back();
    std::vector<std::vector<measured_input>> val_pool(rt.train.num_classes);
    for (std::size_t cls = 0; cls < rt.train.num_classes; ++cls) {
      auto inputs = bench::clean_of_class(*rt.net, rt.train, cls, pool_size);
      val_pool[cls] =
          measure_all(*monitor, inputs, dcfg.events, dcfg.repeats, threads);
    }

    // Evaluation set: clean images + targeted PGD eps=0.1 AEs, measured
    // once.
    const std::size_t eval_n = bench::scaled(40);
    std::vector<tensor> clean;
    for (std::size_t cls = 0; cls < rt.test.num_classes; ++cls) {
      auto v = bench::clean_of_class(
          *rt.net, rt.test, cls,
          std::max<std::size_t>(1, eval_n / rt.test.num_classes));
      for (auto& x : v) clean.push_back(std::move(x));
    }
    auto pool = bench::attack_pool(
        rt, std::max<std::size_t>(4, bench::scaled(80) / rt.test.num_classes));
    auto adv = bench::collect_adversarial(
        *rt.net, pool, attack::attack_kind::pgd,
        attack::attack_goal::targeted, 0.1f, rt.spec.target_class,
        clean.size());
    auto clean_meas =
        measure_all(*monitor, clean, dcfg.events, dcfg.repeats, threads);
    auto adv_meas =
        measure_all(*monitor, adv.inputs, dcfg.events, dcfg.repeats, threads);

    plot::series curve;
    curve.name = rt.spec.label;
    rng resampler(1234 + static_cast<std::uint64_t>(id));
    for (std::size_t m : sizes) {
      stats::running_stats f1_stats;
      for (std::size_t rep = 0; rep < resamples; ++rep) {
        // Random subset of M measured validation rows per class.
        core::benign_template tpl(rt.train.num_classes, dcfg.events.size());
        for (std::size_t cls = 0; cls < rt.train.num_classes; ++cls) {
          auto order = resampler.permutation(val_pool[cls].size());
          const std::size_t take = std::min(m, val_pool[cls].size());
          for (std::size_t i = 0; i < take; ++i) {
            tpl.add_row(cls, val_pool[cls][order[i]].counts);
          }
        }
        const auto det = core::detector::fit(tpl, dcfg, threads);

        core::detection_confusion confusion;
        for (const auto& mi : clean_meas) {
          confusion.push(false, det.score(mi.predicted, mi.counts).flagged[0]);
        }
        for (const auto& mi : adv_meas) {
          confusion.push(true, det.score(mi.predicted, mi.counts).flagged[0]);
        }
        f1_stats.push(confusion.f1());
      }
      curve.y.push_back(f1_stats.mean());
      curve.band.push_back(f1_stats.stddev());
      table.add_row({rt.spec.label, std::to_string(m),
                     text_table::num(f1_stats.mean(), 4),
                     text_table::num(f1_stats.stddev(), 4)});
    }
    curves.push_back(std::move(curve));
  }

  std::vector<double> xs(sizes.begin(), sizes.end());
  std::ostringstream artifact;
  artifact << plot::line_plot(xs, curves, 64, 18);
  std::cout << artifact.str() << "\n";
  bench::emit(table, "fig6_validation_size");
  bench::emit_text(artifact.str(), "fig6_validation_size_plot");
  return 0;
}
