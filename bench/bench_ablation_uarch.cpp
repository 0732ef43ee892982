// Microarchitecture-sensitivity ablation: how does AdvHunter's cache-miss
// signal depend on the hardware it runs on? Sweeps the simulated LLC
// size, the L1-D size, and the hardware prefetcher, reporting detection
// F1/AUC on the Table-2 setting for each configuration. This answers the
// deployment question the paper leaves open: which platforms expose
// enough signal through `cache-misses`.
#include <iostream>

#include "bench/bench_common.hpp"
#include "core/roc.hpp"

using namespace advh;

namespace {

struct uarch_variant {
  std::string label;
  uarch::trace_gen_config cfg;
};

}  // namespace

int main() {
  auto rt = bench::prepare(data::scenario_id::s2);

  // Shared inputs (attack once; measure per variant).
  const std::size_t n = bench::scaled(40);
  auto clean = bench::clean_of_class(*rt.net, rt.test, rt.spec.target_class,
                                     n);
  auto pool = bench::attack_pool(rt, bench::scaled(40));
  auto adv = bench::collect_adversarial(
      *rt.net, pool, attack::attack_kind::fgsm, attack::attack_goal::targeted,
      0.1f, rt.spec.target_class, n);
  std::cout << clean.size() << " clean / " << adv.inputs.size()
            << " adversarial inputs\n\n";

  std::vector<uarch_variant> variants;
  {
    uarch_variant v{"baseline (8K L1D, 64K LLC)", {}};
    variants.push_back(v);
  }
  {
    uarch_variant v{"small LLC (32K)", {}};
    v.cfg.caches.llc.size_bytes = 32 * 1024;
    variants.push_back(v);
  }
  {
    uarch_variant v{"large LLC (256K)", {}};
    v.cfg.caches.llc.size_bytes = 256 * 1024;
    variants.push_back(v);
  }
  {
    uarch_variant v{"large L1D (32K)", {}};
    v.cfg.caches.l1d.size_bytes = 32 * 1024;
    variants.push_back(v);
  }
  {
    uarch_variant v{"next-line prefetch", {}};
    v.cfg.caches.l1d_prefetch = uarch::prefetcher_kind::next_line;
    variants.push_back(v);
  }
  {
    uarch_variant v{"stride prefetch", {}};
    v.cfg.caches.l1d_prefetch = uarch::prefetcher_kind::stride;
    variants.push_back(v);
  }

  text_table table("uarch sensitivity of the cache-misses detector (S2, "
                   "targeted FGSM eps=0.1)");
  table.set_header({"configuration", "accuracy %", "F1", "AUC"});

  for (const auto& variant : variants) {
    auto monitor = std::make_unique<hpc::resilient_monitor>(
        std::make_unique<hpc::sim_backend>(*rt.net, variant.cfg,
                                           hpc::noise_model{}, 99),
        hpc::resilience_config::naive());

    core::detector_config dcfg;
    dcfg.events = {hpc::hpc_event::cache_misses};
    dcfg.repeats = 10;
    const auto det = bench::fit_detector(*monitor, dcfg, rt.train,
                                         bench::scaled(40));

    core::detection_confusion conf;
    std::vector<double> clean_scores, adv_scores;
    for (const auto& x : clean) {
      const auto v = det.classify(*monitor, x);
      conf.push(false, v.adversarial_any);
      clean_scores.push_back(v.nll[0]);
    }
    for (const auto& x : adv.inputs) {
      const auto v = det.classify(*monitor, x);
      conf.push(true, v.adversarial_any);
      adv_scores.push_back(v.nll[0]);
    }
    const auto roc = core::compute_roc(clean_scores, adv_scores);
    table.add_row({variant.label, text_table::num(100.0 * conf.accuracy(), 2),
                   text_table::num(conf.f1(), 4),
                   text_table::num(roc.auc, 4)});
  }
  bench::emit(table, "ablation_uarch");
  return 0;
}
