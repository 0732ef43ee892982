// serve_s1: an open loop on the wall clock. Scenario S1 (EfficientNet-lite)
// behind serve::detection_service with a track::query_tracker attached, over
// the resilient monitor stack with 5% injected read faults and zero backoff.
// Two phases at fixed arrival rates: `light`, well under full-fidelity
// capacity (latency), and `overload`, well over it (on-time throughput and
// the R-shedding ladder). The phases alternate in short slices, with the
// service drained and the defender recalibrated after each, so every metric
// samples the whole run. Each phase has a service of its own (sharing the
// monitor stack, the tracker and one worker thread), so the admission state
// one phase builds up does not spill into the other. Honest traffic is ~70%
// interactive / 30% batch; every 25th arrival is a canary; in the light
// phase a share of arrivals are campaign clients replaying near-duplicate
// probes of one image.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "hpc/events.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

#include "harness.hpp"

namespace perfbench {

using namespace advh;
using std::chrono::milliseconds;

namespace {

constexpr std::size_t kHonestPerClass = 24;
constexpr std::size_t kTemplatePerClass = 16;
constexpr std::size_t kCanaryEvery = 25;
constexpr double kCampaignShare = 0.2;
constexpr double kBatchShare = 0.3;
constexpr std::size_t kCampaignBudget = 40;  ///< probes per campaign
constexpr std::size_t kCampaignBases = 16;
constexpr std::size_t kActiveCampaigns = 4;
constexpr std::uint64_t kHonestClients = 997;  ///< prime: no repeated image
constexpr double kWarmupSeconds = 0.5;
/// Lengths of one light and one overload slice. The light slices are the
/// longer ones, for the sample count of the light-phase p99.
constexpr double kLightSliceSeconds = 3.0;
constexpr double kOverloadSliceSeconds = 2.0;
/// Run time budgeted per light + overload pair: the two slices, the drains
/// and two calibrations (about 0.4 s each). The number of pairs is fixed by
/// --seconds alone, so every commit receives the same arrivals.
constexpr double kPairSeconds = 6.0;
constexpr double kIdleWaitSeconds = 5.0;
constexpr std::size_t kQueueCapacity = 8;
constexpr std::size_t kLightQueueCapacity = 64;
/// Deadlines far above any wait the 8-slot queue can build up. Admission
/// scales the latency it has seen per repeat x event up to full fidelity, so
/// once overload sinks the ladder to one repeat of one event, the queue wait
/// of a served request (~15 ms) is charged 50 times over: with a deadline
/// near a second, admission then flips between refusing all interactive
/// traffic and letting it all in, and on-time throughput depends on that
/// oscillation more than on the cost of a verdict.
constexpr milliseconds kInteractiveDeadline{120'000};
constexpr milliseconds kBatchDeadline{240'000};

core::detector_config serve_config_events() {
  core::detector_config cfg;
  cfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::cache_references,
                hpc::hpc_event::instructions, hpc::hpc_event::branches,
                hpc::hpc_event::branch_misses};
  cfg.repeats = 10;
  return cfg;
}

/// The serve_s1 monitor stack, built from explicit options: simulator,
/// 5% transient read faults, resilient retries with backoff zeroed so a
/// retry costs a re-read, not a sleep.
hpc::monitor_ptr resilient_stack(nn::model& net, std::uint64_t seed) {
  hpc::monitor_options mo;
  mo.kind = hpc::backend_kind::simulator;
  mo.noise_seed = seed * 7 + 3;
  hpc::fault_config faults;
  faults.read_failure_rate = 0.05;
  faults.seed = seed * 7 + 4;
  mo.faults = faults;
  hpc::resilience_config res;
  res.retry.base_delay = milliseconds(0);
  res.retry.max_delay = milliseconds(0);
  mo.resilience = res;
  return hpc::make_monitor(net, mo);
}

enum class phase : std::uint8_t { warmup, light, overload };

struct arrival {
  std::size_t slice = 0;   ///< the warm-ups come first
  double at = 0;           ///< scheduled send time, seconds from slice start
  phase ph = phase::light;
  bool heavy = false;      ///< sent at the overload rate, to its service
  serve::priority prio = serve::priority::interactive;
  std::uint64_t client = 0;
  std::size_t input = 0;   ///< index into serve_state::inputs
  std::size_t campaign = 0;  ///< campaign index + 1 (0 = honest/canary)
  bool last_probe = false;
};

struct serve_state {
  scenario sc;
  query_set inputs;  ///< honest pool, then canaries, then campaign probes
  std::size_t honest = 0, canaries = 0;
  std::optional<core::detector> det;
};

/// Campaign probe q of base x: a sub-quantization-step perturbation, the
/// near-duplicate a query-based attacker replays.
tensor probe(const tensor& x, std::size_t q) {
  tensor y = x;
  const float d = 0.001f * static_cast<float>(q);
  auto data = y.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::clamp(data[i] + ((i % 2 == 0) ? d : -d), 0.0f, 1.0f);
  }
  return y;
}

serve_state set_up(const options& opt, tracer& tr, samples& s) {
  serve_state st{load_scenario(data::scenario_id::s1, opt, tr, s),
                 {}, 0, 0, std::nullopt};
  nn::model& net = *st.sc.net;
  s.add("attack.pool_s", tr.time("attack.pool", opt.seed, [&] {
    add_clean(st.inputs, net, st.sc.queries, kHonestPerClass, opt.seed);
    st.honest = st.inputs.size();
    add_clean(st.inputs, net, st.sc.calib, 1, opt.seed + 1);
    st.canaries = st.inputs.size() - st.honest;
    query_set bases;
    add_clean(bases, net, st.sc.queries, 2, opt.seed + 2);
    for (std::size_t b = 0; b < kCampaignBases && b < bases.size(); ++b) {
      const tensor& base = bases.inputs[(b * 7) % bases.size()];
      for (std::size_t q = 0; q < kCampaignBudget; ++q) {
        tensor x = probe(base, q);
        const std::size_t label = net.predict_one(x);
        st.inputs.add(std::move(x), label, true);
      }
    }
  }));
  st.det.emplace(calibrate_defender(net, st.sc.calib, serve_config_events(),
                                    kTemplatePerClass, tr, s)
                     .det);
  return st;
}

std::size_t pairs(const options& opt) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(opt.seconds / kPairSeconds)));
}

/// The arrival schedule, slice by slice: fixed rates from the command line,
/// never from a capacity measured in the run, so every commit receives the
/// same load.
std::vector<arrival> schedule(const options& opt, const serve_state& st) {
  std::vector<arrival> out;
  rng gen(opt.seed ^ 0x5e7e);
  std::size_t honest_next = 0, arrivals = 0;
  const std::size_t bases = (st.inputs.size() - st.honest - st.canaries) /
                            kCampaignBudget;
  struct live {
    std::size_t id = 0, base = 0, sent = 0;
  };
  std::vector<live> campaigns;
  std::size_t next_campaign = 0;
  const auto honest_perm = gen.permutation(st.honest);
  std::size_t slice = 0;
  const auto add_phase = [&](phase ph, bool heavy, double len) {
    const double rate = heavy ? opt.overload_rate : opt.light_rate;
    const auto n = static_cast<std::size_t>(len * rate);
    for (std::size_t k = 0; k < n; ++k) {
      arrival a;
      a.slice = slice;
      a.at = static_cast<double>(k) / rate;
      a.ph = ph;
      a.heavy = heavy;
      if (arrivals++ % kCanaryEvery == 0) {
        arrival c = a;
        c.prio = serve::priority::canary;
        c.input = st.honest + gen.uniform_index(st.canaries);
        out.push_back(c);
      }
      // Campaigns run in the light phase only: in overload their
      // full-fidelity probes before the ban would make on-time honest
      // throughput depend on how many slipped through.
      if (ph == phase::light && bases > 0 && gen.uniform() < kCampaignShare) {
        while (campaigns.size() < kActiveCampaigns) {
          campaigns.push_back({++next_campaign, next_campaign % bases, 0});
        }
        const std::size_t slot = gen.uniform_index(campaigns.size());
        live& c = campaigns[slot];
        a.client = 1'000'000 + c.id;
        a.campaign = c.id;
        a.input = st.honest + st.canaries + c.base * kCampaignBudget + c.sent;
        a.last_probe = ++c.sent == kCampaignBudget;
        if (a.last_probe) campaigns.erase(campaigns.begin() + slot);
      } else {
        const std::size_t h = honest_next++;
        a.client = 1 + h % kHonestClients;
        a.input = honest_perm[h % st.honest];
        if (gen.uniform() < kBatchShare) a.prio = serve::priority::batch;
      }
      out.push_back(a);
    }
    ++slice;
  };
  add_phase(phase::warmup, false, kWarmupSeconds);
  add_phase(phase::warmup, true, kWarmupSeconds);
  for (std::size_t p = 0; p < pairs(opt); ++p) {
    add_phase(phase::light, false, kLightSliceSeconds);
    add_phase(phase::overload, true, kOverloadSliceSeconds);
  }
  return out;
}

struct completion {
  serve::response resp;
  bool heavy = false;  ///< from the overload phase's service
  double round_start = 0;
  double done = 0;
};

}  // namespace

result run_serve(const options& opt, tracer& tr) {
  samples s;
  // The generator thread, which runs the set-ups, follows a rotor at offset
  // 1; see below.
  setup_series setups(tr, s, [&] { return set_up(opt, tr, s); }, 1);
  auto st = setups.first();
  result r;
  nn::model& net = *st.sc.net;
  const core::detector& det = *st.det;
  const auto plan = schedule(opt, st);

  auto monitor = resilient_stack(net, opt.seed);
  // The worker measures on the rotor's CPU; the generator, which also
  // calibrates while the worker idles, on the next one.
  cpu_rotor rotor(1);
  for (std::size_t i = 0; i < kWarmup; ++i) {
    rotor.follow();
    (void)det.classify(*monitor, st.inputs.inputs[i % st.honest]);
  }
  serve::steady_clock_face clock;
  // A short queue and deadlines long enough that it, not the deadline
  // admission estimate, bounds the backlog: overload keeps the queue full,
  // so the degradation ladder sits on its last rung and on-time throughput
  // is the service's capacity there rather than an admission-feedback
  // oscillation.
  // The light phase's queue is deeper: a stall of the host must not turn
  // into refused light traffic.
  serve::serve_config cfg;
  cfg.queue_capacity = kQueueCapacity;
  cfg.default_deadline = kInteractiveDeadline;
  serve::serve_config light_cfg = cfg;
  light_cfg.queue_capacity = kLightQueueCapacity;
  track::query_tracker tracker(clock, track::track_config{});
  // [0] serves the light phase, [1] the overload phase.
  serve::detection_service light(det, *monitor, clock, light_cfg);
  serve::detection_service heavy(det, *monitor, clock, cfg);
  serve::detection_service* const services[2] = {&light, &heavy};
  for (auto* svc : services) svc->attach_tracker(tracker);

  // One service worker, on the service of the current slice; measurement
  // itself stays single-threaded.
  std::mutex done_mutex;
  std::vector<completion> done;
  std::atomic<bool> stop{false}, active_heavy{false};
  std::vector<double> round_us, round_size;
  std::thread worker([&] {
    cpu_rotor worker_rotor;
    for (std::uint64_t round = 0;;) {
      worker_rotor.follow();
      const bool on_heavy = active_heavy.load();
      const auto began = std::chrono::steady_clock::now();
      const double t0 = now_s();
      auto rs = services[on_heavy]->service_batch();
      const double t1 = now_s();
      if (rs.empty()) {
        if (stop.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      tr.record("serve.round", round++, began,
                std::chrono::steady_clock::now());
      std::lock_guard<std::mutex> lock(done_mutex);
      round_us.push_back(1e6 * (t1 - t0));
      round_size.push_back(static_cast<double>(rs.size()));
      for (auto& x : rs) done.push_back({std::move(x), on_heavy, t0, t1});
    }
  });

  std::vector<serve::submit_result> sent(plan.size());
  std::vector<double> due(plan.size()), submitted_at(plan.size());
  std::size_t peak_bytes = 0, admitted = 0;
  // After a slice: waits until every admitted request has its response (at
  // most kIdleWaitSeconds; the output check catches a lost one), so the
  // worker idles, then, after a timed slice, recalibrates the defender and
  // runs the set-ups whose turn has come on the main thread.
  const double timed_slices = 2.0 * static_cast<double>(pairs(opt));
  double slices_done = 0;
  const auto close_slice = [&](phase ph) {
    const double give_up = now_s() + kIdleWaitSeconds;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        if (done.size() >= admitted || now_s() > give_up) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (ph == phase::warmup) return;
    s.add("calibrate_s",
          calibrate_defender(net, st.sc.calib, serve_config_events(),
                             kTemplatePerClass, tr, s)
              .seconds);
    setups.step(++slices_done / timed_slices);
  };
  double slice_start = 0;
  try {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const arrival& a = plan[i];
      if (i == 0 || a.slice != plan[i - 1].slice) {
        if (i > 0) close_slice(plan[i - 1].ph);
        active_heavy = a.heavy;
        slice_start = now_s() + 0.001;
      }
      rotor.follow();
      due[i] = slice_start + a.at;
      while (now_s() < due[i]) {
        const double wait = due[i] - now_s();
        if (wait > 2e-4) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(wait - 1e-4));
        }
      }
      submitted_at[i] = now_s();
      if (a.ph != phase::warmup) {
        s.add("serve.late_ms", 1e3 * (submitted_at[i] - due[i]));
      }
      tensor x = st.inputs.inputs[a.input];
      s.add("serve.submit_us", 1e6 * tr.time("serve.submit", i, [&] {
        auto& service = *services[a.heavy];
        sent[i] = a.prio == serve::priority::batch
                      ? service.submit(std::move(x), a.prio, kBatchDeadline,
                                       a.client)
                      : service.submit(std::move(x), a.prio, std::nullopt,
                                       a.client);
      }));
      if (sent[i].admitted()) ++admitted;
      if (i % 16 == 0) peak_bytes = std::max(peak_bytes, tracker.bytes_used());
    }
    close_slice(plan.back().ph);
  } catch (...) {
    stop = true;
    worker.join();
    throw;
  }
  stop = true;
  worker.join();
  for (const bool h : {false, true}) {
    services[h]->drain();
    for (auto& x : services[h]->flush()) {
      done.push_back({std::move(x), h, now_s(), now_s()});
    }
  }

  // ---- output check: terminal buckets, predictions, canaries. Request
  // ids are per service.
  const auto key = [](std::uint64_t id, bool h) { return 2 * id + h; };
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    by_id[key(sent[i].id, plan[i].heavy)] = i;
  }
  std::vector<const completion*> resp_of(plan.size(), nullptr);
  for (const completion& c : done) {
    const auto it = by_id.find(key(c.resp.id, c.heavy));
    if (it == by_id.end()) {
      r.fail("response for unknown request " + std::to_string(c.resp.id));
      continue;
    }
    const std::size_t i = it->second;
    if (!sent[i].admitted() || resp_of[i] != nullptr) {
      r.fail("request " + std::to_string(c.resp.id) +
             " has more than one terminal outcome");
    }
    resp_of[i] = &c;
  }
  const auto light_stats = light.stats(), heavy_stats = heavy.stats();
  if (light_stats.submitted + heavy_stats.submitted != plan.size()) {
    r.fail("service lost submissions");
  }
  if (light_stats.canary_shed + heavy_stats.canary_shed != 0) {
    r.fail("canary shed");
  }

  std::vector<double> light_ms;
  std::size_t overload_on_time = 0, overload_served = 0, overload_rung0 = 0;
  std::map<std::size_t, std::pair<bool, bool>> campaigns;  // banned, finished
  std::vector<double> wait_ms;
  std::vector<std::size_t> rung_count(4, 0);
  std::size_t honest_served = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const arrival& a = plan[i];
    const bool honest = a.campaign == 0 && a.prio != serve::priority::canary;
    const completion* c = resp_of[i];
    if (a.campaign != 0) {
      // A campaign counts once its probe budget is spent within the run.
      auto& [banned, finished] = campaigns[a.campaign];
      if (sent[i].status == serve::admit_status::rejected_banned &&
          !a.last_probe) {
        banned = true;
      }
      if (a.last_probe) finished = true;
      if (sent[i].status == serve::admit_status::rejected_banned) {
        s.add("serve.campaign_rejected_banned", 1);
      }
    }
    if (a.ph != phase::warmup) ++r.attempted;
    if (sent[i].admitted() && c == nullptr) {
      r.fail("admitted request " + std::to_string(sent[i].id) +
             " has no terminal outcome");
      continue;
    }
    if (a.prio == serve::priority::canary &&
        (c == nullptr || c->resp.outcome != serve::response::kind::served)) {
      r.fail("canary " + std::to_string(sent[i].id) + " not served");
    }
    const bool served =
        c != nullptr && c->resp.outcome == serve::response::kind::served;
    if (served && c->resp.v.predicted != st.inputs.labels[a.input]) {
      r.fail("request " + std::to_string(sent[i].id) + ": predicted " +
             std::to_string(c->resp.v.predicted) + ", model says " +
             std::to_string(st.inputs.labels[a.input]));
    }
    if (!honest || a.ph == phase::warmup) continue;
    if (served) {
      wait_ms.push_back(1e3 * (c->round_start - submitted_at[i]));
      if (c->resp.rung < rung_count.size()) ++rung_count[c->resp.rung];
      ++honest_served;
    }
    if (!sent[i].admitted()) {
      switch (sent[i].status) {
        case serve::admit_status::rejected_queue_full:
          s.add("serve.honest_rejected_queue_full", 1);
          break;
        case serve::admit_status::rejected_deadline:
          s.add("serve.honest_rejected_deadline", 1);
          break;
        case serve::admit_status::rejected_backpressure:
          s.add("serve.honest_rejected_backpressure", 1);
          break;
        case serve::admit_status::rejected_banned:
          s.add("serve.honest_rejected_banned", 1);
          break;
        default:
          break;
      }
    } else if (c->resp.outcome == serve::response::kind::shed_deadline) {
      s.add("serve.shed_deadline", 1);
    }
    if (served && c->resp.deadline_missed) s.add("serve.deadline_misses", 1);
    if (a.ph == phase::light) {
      // Light load is well under capacity: a refused, shed or failed
      // honest request there is a failed operation. The exception is a batch
      // request refused at admission on its deadline: the projection of
      // interactive traffic overtaking it refuses batch by design for as
      // long as a latency spike of the host inflates the estimate.
      const bool projected_out =
          a.prio == serve::priority::batch &&
          sent[i].status == serve::admit_status::rejected_deadline;
      if (!served && !projected_out) {
        r.fail("light-phase request " + std::to_string(sent[i].id) +
               " not served: " +
               (sent[i].admitted() ? "shed or failed"
                                   : serve::to_string(sent[i].status)));
        continue;
      }
      if (served) light_ms.push_back(1e3 * (c->done - due[i]));
    } else {
      if (!served) continue;
      ++overload_served;
      if (!c->resp.deadline_missed) ++overload_on_time;
      if (c->resp.rung == 0 && !c->resp.events_shed) ++overload_rung0;
    }
  }

  r.set("verdicts_per_s",
        static_cast<double>(overload_on_time) /
            (static_cast<double>(pairs(opt)) * kOverloadSliceSeconds),
        "1/s");
  r.set("verdict_p99_ms", quantile(light_ms, 0.99), "ms");
  s.add("verdict_p50_ms", quantile(light_ms, 0.5));
  s.add("verdict_samples", static_cast<double>(light_ms.size()));
  s.add("serve.full_fidelity_share",
        overload_served ? static_cast<double>(overload_rung0) /
                              static_cast<double>(overload_served)
                        : 0.0);
  for (std::size_t k = 0; k < rung_count.size(); ++k) {
    s.add("serve.rung" + std::to_string(k) + "_share",
          honest_served ? static_cast<double>(rung_count[k]) /
                              static_cast<double>(honest_served)
                        : 0.0);
  }
  s.add("serve.repeats_shed",
        static_cast<double>(light_stats.repeats_shed + heavy_stats.repeats_shed));
  for (double w : wait_ms) s.add("serve.queue_wait_ms", w);
  for (double u : round_us) s.add("serve.round_us", u);
  for (double n : round_size) s.add("serve.round_size", n);
  std::size_t banned = 0, finished = 0;
  for (const auto& [id, c] : campaigns) {
    if (!c.second) continue;
    ++finished;
    if (c.first) ++banned;
  }
  s.add("track.campaigns_banned_share",
        finished ? static_cast<double>(banned) / static_cast<double>(finished)
                 : 0.0);
  const auto ts = tracker.stats();
  s.add("track.matched_share", ts.queries ? static_cast<double>(ts.matched) /
                                                static_cast<double>(ts.queries)
                                          : 0.0);
  s.add("track.bans", static_cast<double>(ts.bans));
  s.add("track.peak_bytes", static_cast<double>(peak_bytes));

  if (opt.trace) {
    // query_tracker::observe on its own: replay the identified submissions
    // through a fresh tracker.
    track::query_tracker replay(clock, track::track_config{});
    const double stop_at = now_s() + kAttributionSeconds / 2;
    for (std::size_t i = 0; i < plan.size() && now_s() < stop_at; ++i) {
      if (plan[i].client == 0) continue;
      const tensor& x = st.inputs.inputs[plan[i].input];
      s.add("track.observe_us", 1e6 * tr.time("track.observe", i, [&] {
        (void)replay.observe(plan[i].client, x);
      }));
    }
    std::vector<tensor> honest(st.inputs.inputs.begin(),
                               st.inputs.inputs.begin() + st.honest);
    attribute(net, *monitor, det, honest, kAttributionSeconds / 2, tr, s);
  }

  // Seed-independent reference, verdicts through the same monitor stack.
  query_set probes;
  add_clean(probes, net, st.sc.queries, 1, kGoldenSeed);
  auto ref_stack = resilient_stack(net, kGoldenSeed);
  check_golden(opt,
               reference_digest(net, serve_config_events(), st.sc.calib, 3, 1,
                                probes.inputs, ref_stack.get(), tr),
               r);

  report(s, r);
  return r;
}

}  // namespace perfbench
