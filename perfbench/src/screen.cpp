// screen_s2: one closed-loop client calling core::detector::classify over a
// plain simulator monitor. Scenario S2 (ResNet), the paper's five core
// events, R = 10, and a labelled pool of half clean test images and half
// targeted-FGSM AEs toward "frog". Serve, track, the resilient retries and
// GMM fitting are off this path.
#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "harness.hpp"
#include "hpc/events.hpp"

namespace perfbench {

using namespace advh;

namespace {

constexpr std::size_t kCleanPerClass = 3;  ///< 30 clean queries
constexpr std::size_t kAdversarial = 30;
/// The AEs come from one fixed draw of kAeDraw successes, and --seed picks
/// kAdversarial of them: how many candidates the attack must try before it
/// has enough successes depends on the draw, and set-up time should not.
constexpr std::size_t kAeDraw = 40;
constexpr std::uint64_t kAeDrawSeed = 1;
constexpr std::size_t kTemplatePerClass = 8;
/// Verdict time between two calibrations of the timed window, which opens
/// with one: the calibrations (about a second each) are spread over the
/// whole window, so calibrate_s samples the same stretch of the run as the
/// verdicts.
constexpr double kSliceSeconds = 2.0;

core::detector_config screen_config() {
  core::detector_config cfg;
  cfg.events = hpc::core_events();
  cfg.repeats = 10;
  return cfg;
}

struct screen_state {
  scenario sc;
  query_set pool;
  std::optional<core::detector> det;
};

screen_state set_up(const options& opt, tracer& tr, samples& s) {
  screen_state st{load_scenario(data::scenario_id::s2, opt, tr, s),
                  {}, std::nullopt};
  s.add("attack.pool_s", tr.time("attack.pool", opt.seed, [&] {
    add_clean(st.pool, *st.sc.net, st.sc.queries, kCleanPerClass, opt.seed);
    query_set aes;
    add_targeted_aes(aes, st.sc, kAeDraw, kAeDrawSeed);
    const auto pick = rng(opt.seed ^ 0xae5ULL).permutation(aes.size());
    for (std::size_t k = 0; k < kAdversarial && k < pick.size(); ++k) {
      st.pool.add(std::move(aes.inputs[pick[k]]), aes.labels[pick[k]], true);
    }
  }));
  st.det.emplace(calibrate_defender(*st.sc.net, st.sc.calib, screen_config(),
                                    kTemplatePerClass, tr, s)
                     .det);
  return st;
}

/// The golden probe set: fixed clean queries and AEs.
std::vector<tensor> golden_probes(screen_state& st) {
  query_set probe;
  add_clean(probe, *st.sc.net, st.sc.queries, 1, kGoldenSeed);
  add_targeted_aes(probe, st.sc, 4, kGoldenSeed);
  return probe.inputs;
}

}  // namespace

result run_screen(const options& opt, tracer& tr) {
  samples s;
  setup_series setups(tr, s, [&] { return set_up(opt, tr, s); });
  auto st = setups.first();
  result r;
  if (st.pool.size() < 2 * kAdversarial * 3 / 4) {
    r.fail("query pool short: " + std::to_string(st.pool.size()));
  }
  const core::detector& det = *st.det;
  const auto events = det.config().events;
  const std::size_t cm =
      static_cast<std::size_t>(std::find(events.begin(), events.end(),
                                         hpc::hpc_event::cache_misses) -
                               events.begin());
  auto mon = sim_monitor(*st.sc.net, opt.seed * 7 + 2);
  const auto order = rng(opt.seed).permutation(st.pool.size());
  cpu_rotor rotor;

  for (std::size_t i = 0; i < kWarmup; ++i) {
    rotor.follow();
    (void)det.classify(*mon, st.pool.inputs[order[i % order.size()]]);
  }

  // A traced run records a span around every other pass over the pool, and
  // none around the passes between: the gap between the two is the tracing
  // overhead, measured without the drift between separate runs.
  tracer untraced(false);
  core::detection_confusion conf;
  std::vector<double> lat_ms;
  double t0 = now_s();
  double verdict_s = 0, slice_s = 0;
  for (std::size_t i = 0; now_s() - t0 < opt.seconds; ++i) {
    t0 += setups.step((now_s() - t0) / opt.seconds);
    rotor.follow();
    if (i == 0 || slice_s >= kSliceSeconds) {
      s.add("calibrate_s", calibrate_defender(*st.sc.net, st.sc.calib,
                                              screen_config(),
                                              kTemplatePerClass, tr, s)
                               .seconds);
      slice_s = 0;
    }
    const double it0 = now_s();
    const std::size_t q = order[i % order.size()];
    const bool spanned = opt.trace && (i / order.size()) % 2 == 0;
    core::verdict v;
    ++r.attempted;
    try {
      lat_ms.push_back(1e3 * (spanned ? tr : untraced)
                                 .time("core.classify", i, [&] {
                                   v = det.classify(*mon, st.pool.inputs[q]);
                                 }));
      if (opt.trace) {
        s.add(spanned ? "trace.spanned_verdict_ms" : "trace.plain_verdict_ms",
              lat_ms.back());
      }
      if (v.predicted != st.pool.labels[q]) {
        r.fail("query " + std::to_string(q) + ": predicted " +
               std::to_string(v.predicted) + ", model says " +
               std::to_string(st.pool.labels[q]));
      }
      conf.push(st.pool.adversarial[q], v.flagged.at(cm));
    } catch (const std::exception& e) {
      r.fail(e.what());
    }
    const double took = now_s() - it0;
    verdict_s += took;
    slice_s += took;
  }
  setups.step(1);

  r.set("verdicts_per_s", static_cast<double>(lat_ms.size()) / verdict_s,
        "1/s");
  r.set("verdict_p99_ms", quantile(lat_ms, 0.99), "ms");
  s.add("verdict_p50_ms", quantile(lat_ms, 0.5));
  s.add("verdict_samples", static_cast<double>(lat_ms.size()));
  s.add("core.detection_f1", conf.f1());

  if (opt.trace) {
    attribute(*st.sc.net, *mon, det, st.pool.inputs, kAttributionSeconds, tr,
              s);
  }
  check_golden(opt,
               reference_digest(*st.sc.net, screen_config(), st.sc.calib, 3,
                                1, golden_probes(st), nullptr, tr),
               r);
  report(s, r);
  return r;
}

}  // namespace perfbench
