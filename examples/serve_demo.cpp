// Serving-under-load scenario: the detection service in front of a
// hard-label endpoint, driven by an overloaded open-loop query stream.
//
// The deployment question this answers: what happens to per-query
// adversarial screening when traffic arrives faster than full-fidelity
// measurement can serve it? The demo builds the scenario-S1 detector,
// wraps it in serve::detection_service, and replays a mixed
// interactive/batch stream (with periodic canary probes) at a configured
// overload factor on the virtual clock:
//
//   * admission control rejects work that cannot meet its deadline —
//     typed rejections, never silent queueing;
//   * the degradation ladder sheds measurement repeats as the queue
//     fills, and reduced-evidence verdicts stay fail-closed;
//   * canary probes are never shed, so drift telemetry survives the storm;
//   * SIGINT/SIGTERM drain gracefully: admission stops, admitted work is
//     flushed, and the partial report still prints.
//
// Environment knobs (strict: malformed values abort): ADVH_QUEUE_DEPTH
// overrides the queue bound, ADVH_DEADLINE_MS the default deadline, and
// ADVH_FAULT_RATE composes injected counter faults under the overload.
#include <csignal>
#include <iostream>
#include <optional>
#include <vector>

#include "attack/attack.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "hpc/factory.hpp"
#include "nn/trainer.hpp"
#include "serve/service.hpp"

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

struct planned_arrival {
  serve::clock_duration at{0};
  serve::priority prio = serve::priority::interactive;
  std::size_t pool_idx = 0;
  bool adversarial = false;
};

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("serve_demo",
                 "overload-resilient detection service on a virtual clock");
  cli.add_flag("scenario", "S1", "scenario: S1, S2 or S3");
  cli.add_flag("requests", "400", "traffic arrivals to schedule");
  cli.add_flag("overload", "4.0",
               "arrival rate as a multiple of the full-fidelity service rate");
  cli.add_flag("adversarial-fraction", "0.5", "fraction of FGSM queries");
  cli.add_flag("queue-depth", "24", "bounded queue capacity");
  cli.add_flag("deadline-ms", "25", "interactive deadline (batch gets 4x)");
  cli.add_flag("canary-every", "25", "traffic arrivals per canary probe");
  cli.add_flag("seed", "2024", "stream RNG seed");
  cli.add_flag("threads", "1", "measurement worker threads");
  data::scenario_id scenario_id{};
  std::size_t n_requests = 0, queue_depth = 0, deadline_ms = 0;
  std::size_t canary_every = 0, threads = 0;
  double overload = 0.0, adv_fraction = 0.0;
  std::uint64_t seed = 0;
  try {  // every flag is read before any work, so a bad value fails fast
    if (!cli.parse(argc, argv)) return 0;
    scenario_id = data::scenario_from_string(cli.get("scenario"));
    n_requests = cli.get_count("requests", 1);
    overload = std::max(1.0, cli.get_double("overload"));
    adv_fraction = cli.get_double("adversarial-fraction");
    queue_depth = cli.get_count("queue-depth", 1);
    deadline_ms = cli.get_count("deadline-ms", 1);
    canary_every = cli.get_count("canary-every", 1);
    seed = cli.get_count("seed");
    threads = cli.get_count("threads", 1, parallel::max_threads);
  } catch (const std::exception& e) {
    return cli.usage_error(e);
  }

  install_signal_handlers();

  auto rt = core::prepare_scenario(scenario_id);

  // Offline: calibrate the S-scenario detector at full fidelity.
  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  dcfg.repeats = 10;
  auto calib_monitor = hpc::make_monitor(*rt.net, hpc::backend_kind::simulator);
  const auto tpl =
      core::collect_template(*calib_monitor, dcfg, rt.train, 40, 7, threads);
  const auto det = core::detector::fit(tpl, dcfg, threads);
  std::cout << "offline phase complete (" << tpl.num_classes()
            << " class templates, R = " << dcfg.repeats << ")\n";

  // Query pool: clean test images plus successful FGSM evasions.
  rng gen(seed);
  std::vector<tensor> pool;
  std::vector<bool> pool_adv;
  while (pool.size() < 64) {
    const std::size_t idx = gen.uniform_index(rt.test.size());
    tensor x = nn::single_example(rt.test.images, idx);
    if (!gen.bernoulli(adv_fraction)) {
      pool.push_back(std::move(x));
      pool_adv.push_back(false);
      continue;
    }
    attack::attack_config acfg;
    acfg.epsilon = 0.1f;
    auto atk = attack::make_attack(attack::attack_kind::fgsm, acfg);
    auto r = atk->run(*rt.net, x, rt.test.labels[idx]);
    if (!r.success) continue;
    pool.push_back(std::move(r.adversarial));
    pool_adv.push_back(true);
  }
  const tensor canary_input = nn::single_example(rt.test.images, 0);

  // Service configuration: CLI first, then the strict env overrides
  // (ADVH_QUEUE_DEPTH / ADVH_DEADLINE_MS), so a deployment manifest wins
  // over the demo defaults and a typo in it fails loudly.
  serve::serve_config scfg;
  scfg.queue_capacity = queue_depth;
  scfg.default_deadline = std::chrono::milliseconds(deadline_ms);
  scfg.threads = threads;
  scfg.admission_margin = 3.0;
  scfg.batch_admit_occupancy = 1.0 / 3.0;
  // Early-engage ladder: admission keeps the queue shallow, so the first
  // degraded rung must engage well below the default 0.5 occupancy for
  // shedding to buy throughput under sustained overload.
  scfg.ladder = {
      {0.00, dcfg.repeats, hpc::measure_budget::unlimited, true, false},
      {0.15, dcfg.repeats * 4 / 5, 3, false, false},
      {0.55, std::max<std::size_t>(dcfg.repeats / 2, 1), 2, false, false},
      {0.85, std::max<std::size_t>(dcfg.repeats * 3 / 10, 1), 1, false, true},
  };
  scfg = serve::serve_config_from_env(scfg);
  const auto interactive_deadline = scfg.default_deadline;
  const auto batch_deadline = scfg.default_deadline * 4;

  auto monitor = hpc::make_monitor(*rt.net);  // chaos knobs compose here
  serve::virtual_clock clock;
  serve::detection_service service(det, *monitor, clock, scfg);

  // Open-loop schedule at the configured overload factor.
  const auto est_full =
      scfg.sim_cost.fixed +
      scfg.sim_cost.per_unit * static_cast<serve::clock_duration::rep>(
                                   dcfg.repeats * dcfg.events.size());
  const auto period = serve::clock_duration(
      static_cast<serve::clock_duration::rep>(
          static_cast<double>(est_full.count()) / overload));
  std::vector<planned_arrival> schedule;
  serve::clock_duration t{0};
  for (std::size_t i = 0; i < n_requests; ++i) {
    if (i % canary_every == 0) {
      schedule.push_back({t, serve::priority::canary, 0, false});
    }
    planned_arrival a;
    a.at = t;
    a.prio = gen.uniform() < 0.7 ? serve::priority::interactive
                                 : serve::priority::batch;
    a.pool_idx = gen.uniform_index(pool.size());
    a.adversarial = pool_adv[a.pool_idx];
    schedule.push_back(a);
    t += period;
  }

  // Online: submit due arrivals, service, jump the clock when idle. A
  // SIGINT/SIGTERM drains: admission stops, admitted work still flushes.
  core::detection_confusion confusion;
  std::vector<serve::response> responses;
  std::vector<bool> id_adv(1, false);  // id 0 never issued
  std::size_t next = 0;
  while (next < schedule.size() || service.queue_depth() > 0) {
    if (g_stop && !service.draining()) {
      std::cout << "\ninterrupted: draining admitted work\n";
      service.drain();
    }
    const auto now = clock.now();
    while (next < schedule.size() && schedule[next].at <= now) {
      const auto& a = schedule[next++];
      const bool canary = a.prio == serve::priority::canary;
      (void)service.submit(
          canary ? canary_input : pool[a.pool_idx], a.prio,
          canary ? std::optional<serve::clock_duration>{}
                 : std::optional<serve::clock_duration>{
                       a.prio == serve::priority::interactive
                           ? interactive_deadline
                           : batch_deadline});
      id_adv.push_back(!canary && a.adversarial);
    }
    auto round = service.service_batch();
    if (round.empty()) {
      if (next >= schedule.size() || service.draining()) break;
      clock.advance_to(schedule[next].at);
      continue;
    }
    responses.insert(responses.end(), std::make_move_iterator(round.begin()),
                     std::make_move_iterator(round.end()));
  }
  service.drain();
  auto rest = service.flush();
  responses.insert(responses.end(), std::make_move_iterator(rest.begin()),
                   std::make_move_iterator(rest.end()));

  for (const auto& r : responses) {
    if (r.prio == serve::priority::canary ||
        r.outcome != serve::response::kind::served) {
      continue;
    }
    confusion.push(id_adv[static_cast<std::size_t>(r.id)],
                   r.v.adversarial_any);
  }

  const auto s = service.stats();
  text_table report("serving under " + cli.get("overload") + "x overload");
  report.set_header({"metric", "value"});
  report.add_row({"submitted (traffic)",
                  std::to_string(s.submitted - s.canary_submitted)});
  report.add_row({"served (traffic)",
                  std::to_string(s.served - s.canary_served)});
  report.add_row({"rejected: deadline", std::to_string(s.rejected_deadline)});
  report.add_row(
      {"rejected: backpressure", std::to_string(s.rejected_backpressure)});
  report.add_row(
      {"rejected: queue full", std::to_string(s.rejected_queue_full)});
  report.add_row({"rejected: breaker", std::to_string(s.rejected_breaker)});
  report.add_row({"rejected: draining", std::to_string(s.rejected_draining)});
  report.add_row({"shed after admission", std::to_string(s.shed_deadline)});
  report.add_row({"deadline misses", std::to_string(s.deadline_misses)});
  report.add_row({"canaries served/submitted",
                  std::to_string(s.canary_served) + "/" +
                      std::to_string(s.canary_submitted)});
  report.add_row({"max ladder rung", std::to_string(s.max_rung_engaged)});
  report.add_row({"repeats shed", std::to_string(s.repeats_shed)});
  report.add_row({"degraded verdicts", std::to_string(s.degraded_verdicts)});
  report.add_row({"flagged adversarial", std::to_string(s.flagged_adversarial)});
  report.add_row(
      {"detection accuracy %",
       confusion.total() == 0 ? "n/a"
                              : text_table::num(100.0 * confusion.accuracy(),
                                                2)});
  report.print(std::cout);

  std::cout << "virtual time elapsed: "
            << std::chrono::duration_cast<std::chrono::milliseconds>(
                   clock.now())
                   .count()
            << " ms; breaker " << to_string(service.breaker()) << "\n";
  return g_stop ? 130 : 0;
}
