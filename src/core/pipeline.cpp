#include "core/pipeline.hpp"

#include <algorithm>
#include <filesystem>

#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace advh::core {

namespace {

std::string cache_path(const std::string& cache_dir,
                       const data::scenario_spec& spec) {
  return cache_dir + "/" + spec.label + "_" + to_string(spec.arch) + ".advh";
}

}  // namespace

scenario_runtime prepare_scenario(data::scenario_id id,
                                  const std::string& cache_dir,
                                  std::uint64_t seed) {
  scenario_runtime rt;
  rt.spec = data::get_scenario(id);

  rt.train = data::make_synthetic(rt.spec.dataset_spec, rt.spec.train_per_class);
  // Test/validation pool drawn from an independent sample stream of the
  // same task (same class prototypes, fresh jitter draws).
  auto test_spec = rt.spec.dataset_spec;
  test_spec.sample_seed = 1;
  rt.test = data::make_synthetic(test_spec, rt.spec.test_per_class);

  rt.net = nn::make_model(rt.spec.arch, rt.train.example_shape(),
                          rt.train.num_classes, seed);

  // Gate the run on the static verifier *before* training: a broken graph
  // fails in seconds here instead of after minutes of training (and the
  // load path re-verifies the deserialized parameters).
  analysis::ensure_verified(*rt.net, rt.spec.label);

  const std::string path = cache_path(cache_dir, rt.spec);
  if (nn::is_state_file(path)) {
    log::info(rt.spec.label, ": loading cached model from ", path);
    nn::load_state(*rt.net, path);
  } else {
    log::info(rt.spec.label, ": training ", to_string(rt.spec.arch), " (",
              rt.train.size(), " examples, ", rt.spec.train_epochs,
              " epochs)");
    nn::train_config cfg;
    cfg.epochs = rt.spec.train_epochs;
    cfg.shuffle_seed = seed ^ 0xbeefULL;
    cfg.on_epoch = [&](std::size_t epoch, double loss, double acc) {
      log::info(rt.spec.label, ": epoch ", epoch, " loss ", loss, " acc ",
                acc);
    };
    nn::train_classifier(*rt.net, rt.train.images, rt.train.labels, cfg);
    nn::save_state(*rt.net, path);
  }

  rt.clean_accuracy = rt.net->accuracy(rt.test.images, rt.test.labels);
  log::info(rt.spec.label, ": clean test accuracy ", rt.clean_accuracy);
  return rt;
}

benign_template collect_template(hpc::hpc_monitor& monitor,
                                 const detector_config& cfg,
                                 const data::dataset& d, std::size_t per_class,
                                 std::uint64_t seed, std::size_t threads) {
  ADVH_CHECK_MSG(!cfg.events.empty(), "detector needs at least one event");
  benign_template tpl(d.num_classes, cfg.events.size());
  tpl.set_requested_per_class(per_class);
  rng gen(seed);
  for (std::size_t cls = 0; cls < d.num_classes; ++cls) {
    auto pool = d.indices_of_class(cls);
    gen.shuffle(pool);
    // Measure candidates in chunks of the outstanding request. The chunk
    // boundaries — and therefore the monitor's noise-stream consumption —
    // depend only on which predictions matched, never on thread count.
    std::size_t accepted = 0;
    std::size_t cursor = 0;
    while (accepted < per_class && cursor < pool.size()) {
      const std::size_t take =
          std::min(per_class - accepted, pool.size() - cursor);
      std::vector<tensor> batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(nn::single_example(d.images, pool[cursor + i]));
      }
      const auto ms =
          monitor.measure_batch(batch, cfg.events, cfg.repeats, threads);
      for (const auto& m : ms) {
        // A misclassified "clean" image is not representative of its
        // category's computational behaviour; skip it.
        if (m.predicted != cls) continue;
        tpl.add_row(cls, m.mean_counts);
        ++accepted;
      }
      cursor += take;
    }
    if (accepted < per_class) {
      log::warn("template class ", cls, ": accepted ", accepted, " of ",
                per_class, " requested samples (pool of ", pool.size(),
                " exhausted); detector quality degrades below ~2 rows");
    }
  }
  return tpl;
}

void evaluate_inputs(const detector& det, hpc::hpc_monitor& monitor,
                     std::span<const tensor> inputs, bool is_adversarial,
                     detection_eval& eval, std::size_t threads) {
  if (eval.per_event.size() != det.config().events.size()) {
    eval.per_event.assign(det.config().events.size(), detection_confusion{});
  }
  const auto verdicts = det.classify_batch(monitor, inputs, threads);
  for (const verdict& v : verdicts) {
    for (std::size_t e = 0; e < v.flagged.size(); ++e) {
      eval.per_event[e].push(is_adversarial, v.flagged[e]);
    }
    eval.fused.push(is_adversarial, v.adversarial_any);
    if (!v.modeled) ++eval.unmodeled;
    if (v.degraded) ++eval.degraded;
    if (v.abstained) ++eval.abstained;
  }
}

canary_set pick_canaries(nn::model& net, const data::dataset& d,
                         std::size_t per_class, std::uint64_t seed) {
  canary_set canaries;
  rng gen(seed);
  for (std::size_t cls = 0; cls < d.num_classes; ++cls) {
    auto pool = d.indices_of_class(cls);
    gen.shuffle(pool);
    std::size_t accepted = 0;
    for (std::size_t idx : pool) {
      if (accepted == per_class) break;
      tensor x = nn::single_example(d.images, idx);
      if (net.predict_one(x) != cls) continue;
      canaries.inputs.push_back(std::move(x));
      canaries.labels.push_back(cls);
      ++accepted;
    }
    if (accepted < per_class) {
      log::warn("canary class ", cls, ": pinned ", accepted, " of ",
                per_class, " requested probes (pool exhausted)");
    }
  }
  return canaries;
}

std::size_t probe_canaries(drift_controller& ctl, hpc::hpc_monitor& monitor,
                           const canary_set& canaries, std::size_t threads) {
  ADVH_CHECK_MSG(canaries.inputs.size() == canaries.labels.size(),
                 "canary inputs and labels must pair up");
  const auto& cfg = ctl.det().config();
  const auto ms = monitor.measure_batch(canaries.inputs, cfg.events,
                                        cfg.repeats, threads);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ctl.observe_canary(ms[i], canaries.labels[i])) ++accepted;
  }
  return accepted;
}

}  // namespace advh::core
