// calibrate_s3: the offline batch phase. Scenario S3 (DenseNet, 43
// classes): core::collect_template over all nine events through
// measure_batch on a fixed thread count, then core::detector::fit for the
// 43 x 9-cell GMM BIC bank, repeated with a fresh template seed each time.
// After every calibration, a single-threaded acceptance screen classifies
// held-out clean queries with the new detector; those verdicts give this
// workload's verdict latency and throughput. (Targeted FGSM at eps 0.1 does
// not succeed on S3, so the pool has no AEs and detection F1 is not
// defined here.)
#include <algorithm>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "harness.hpp"
#include "hpc/events.hpp"

namespace perfbench {

using namespace advh;

namespace {

constexpr std::size_t kTemplatePerClass = 8;
constexpr std::size_t kCleanPerClass = 4;  ///< 172 acceptance queries

core::detector_config calibrate_config() {
  core::detector_config cfg;
  cfg.events = hpc::all_events();
  cfg.repeats = 10;
  return cfg;
}

struct calibrate_state {
  scenario sc;
  query_set pool;
};

calibrate_state set_up(const options& opt, tracer& tr, samples& s) {
  calibrate_state st{load_scenario(data::scenario_id::s3, opt, tr, s), {}};
  s.add("attack.pool_s", tr.time("attack.pool", opt.seed, [&] {
    add_clean(st.pool, *st.sc.net, st.sc.queries, kCleanPerClass, opt.seed);
  }));
  return st;
}

}  // namespace

result run_calibrate(const options& opt, tracer& tr) {
  samples s;
  setup_series setups(tr, s, [&] { return set_up(opt, tr, s); });
  auto st = setups.first();
  result r;
  nn::model& net = *st.sc.net;
  const auto cfg = calibrate_config();
  const std::size_t threads = std::min<std::size_t>(
      opt.calibrate_threads,
      std::max<unsigned>(std::thread::hardware_concurrency(), 1));
  const std::size_t cells = st.sc.calib.num_classes * cfg.events.size();

  auto mon = sim_monitor(net, opt.seed * 7 + 5);
  const auto order = rng(opt.seed).permutation(st.pool.size());
  cpu_rotor rotor;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    rotor.follow();
    (void)mon->measure(st.pool.inputs[order[i % order.size()]], cfg.events,
                       cfg.repeats);
  }

  std::vector<double> lat_ms;
  double screen_s = 0;
  double t0 = now_s();
  std::optional<calibration> last;
  for (std::uint64_t c = 0; now_s() - t0 < opt.seconds; ++c) {
    t0 += setups.step((now_s() - t0) / opt.seconds);
    ++r.attempted;
    rotor.follow(threads);
    try {
      // The calibration series is the same for every --seed (which picks
      // the acceptance pool and noise streams), so calibrate_s compares
      // like with like.
      last.emplace(calibrate(*mon, cfg, st.sc.calib, kTemplatePerClass,
                             1000 + c, threads, tr, s));
      s.add("calibrate_s", last->seconds);
      std::size_t fitted = 0;
      for (std::size_t cls = 0; cls < st.sc.calib.num_classes; ++cls) {
        for (std::size_t e = 0; e < cfg.events.size(); ++e) {
          if (last->det.model_for(cls, e).has_value()) ++fitted;
        }
      }
      if (fitted != cells) {
        r.fail("calibration " + std::to_string(c) + " fitted " +
               std::to_string(fitted) + " of " + std::to_string(cells) +
               " cells");
      }
    } catch (const std::exception& e) {
      r.fail(e.what());
      continue;
    }
    // After the first, a screen may end with the window, so the run stays
    // --seconds long.
    for (std::size_t i = 0;
         i < order.size() && (c == 0 || now_s() - t0 < opt.seconds); ++i) {
      const std::size_t q = order[i];
      rotor.follow();
      ++r.attempted;
      try {
        core::verdict v;
        const double t = tr.time("core.classify", c * order.size() + i, [&] {
          v = last->det.classify(*mon, st.pool.inputs[q]);
        });
        screen_s += t;
        lat_ms.push_back(1e3 * t);
        if (v.predicted != st.pool.labels[q]) {
          r.fail("query " + std::to_string(q) + ": predicted " +
                 std::to_string(v.predicted) + ", model says " +
                 std::to_string(st.pool.labels[q]));
        }
      } catch (const std::exception& e) {
        r.fail(e.what());
      }
    }
  }
  setups.step(1);

  r.set("verdicts_per_s", static_cast<double>(lat_ms.size()) / screen_s,
        "1/s");
  r.set("verdict_p99_ms", quantile(lat_ms, 0.99), "ms");
  s.add("verdict_p50_ms", quantile(lat_ms, 0.5));
  s.add("verdict_samples", static_cast<double>(lat_ms.size()));

  if (opt.trace && last) {
    attribute(net, *mon, last->det, st.pool.inputs, kAttributionSeconds,
              tr, s);
  }

  // Seed-independent reference: a two-row-per-class calibration and fixed
  // clean inputs.
  query_set probes;
  add_clean(probes, net, st.sc.queries, 1, kGoldenSeed);
  probes.inputs.resize(std::min<std::size_t>(probes.size(), 8));
  check_golden(opt,
               reference_digest(net, cfg, st.sc.calib, 2, threads,
                                probes.inputs, nullptr, tr),
               r);

  report(s, r);
  return r;
}

}  // namespace perfbench
