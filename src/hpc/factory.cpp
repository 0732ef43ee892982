#include "hpc/factory.hpp"

#include <cstdlib>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "hpc/perf_backend.hpp"

namespace advh::hpc {

std::optional<fault_config> fault_config_from_env() {
  const char* env = std::getenv("ADVH_FAULT_RATE");
  if (env == nullptr) return std::nullopt;
  // A set-but-broken knob throws instead of silently disabling the chaos
  // it was meant to inject.
  const double rate = parse_number("ADVH_FAULT_RATE", env, {.lo = 0, .hi = 1});
  if (rate == 0.0) return std::nullopt;
  fault_config cfg;
  cfg.read_failure_rate = rate;
  cfg.spike_rate = rate / 2.0;
  cfg.stuck_rate = rate / 4.0;
  // Rare, short hangs: enough to exercise the timed-out-read path without
  // slowing the suite down.
  cfg.hang_rate = rate / 50.0;
  cfg.hang_ms = 1;
  return cfg;
}

std::optional<drift_profile> drift_profile_from_env() {
  const char* env = std::getenv("ADVH_DRIFT_RATE");
  if (env == nullptr) return std::nullopt;
  const double rate = parse_number("ADVH_DRIFT_RATE", env, {.lo = 0, .hi = 99});
  if (rate == 0.0) return std::nullopt;
  drift_profile p;
  p.shape = drift_profile::shape_kind::step;
  p.magnitude = 1.0 + rate;
  // Active from stream 0: the whole session — template collection and
  // online scoring alike — runs on the shifted baseline, which is how a
  // redeployment onto different silicon looks. Mid-session onsets are the
  // drift bench's job (it constructs explicit profiles).
  p.onset_stream = 0;
  return p;
}

monitor_ptr make_monitor(nn::model& m, const monitor_options& opts) {
  std::unique_ptr<raw_reader> reader;
  switch (opts.kind) {
    case backend_kind::perf:
      reader = std::make_unique<perf_backend>(m);
      break;
    case backend_kind::simulator:
      reader = std::make_unique<sim_backend>(m, opts.sim_cfg, noise_model{},
                                             opts.noise_seed);
      break;
    case backend_kind::auto_detect:
      if (perf_events_available()) {
        log::info("HPC monitor: native perf_event backend");
        reader = std::make_unique<perf_backend>(m);
      } else {
        log::info("HPC monitor: perf_event unavailable, using simulator");
        reader = std::make_unique<sim_backend>(m, opts.sim_cfg, noise_model{},
                                               opts.noise_seed);
      }
      break;
  }
  if (reader == nullptr) throw invariant_error("unknown backend kind");

  if (opts.drift.has_value()) {
    log::info("HPC monitor: injecting baseline drift (magnitude ",
              opts.drift->magnitude, ")");
    reader = std::make_unique<drift_backend>(std::move(reader), *opts.drift);
  }
  if (opts.faults.has_value()) {
    log::info("HPC monitor: injecting faults (read failure rate ",
              opts.faults->read_failure_rate, ")");
    reader = std::make_unique<fault_backend>(std::move(reader), *opts.faults);
  }
  return std::make_unique<resilient_monitor>(
      std::move(reader),
      opts.resilience.value_or(resilience_config::naive()));
}

monitor_ptr make_monitor(nn::model& m, backend_kind kind,
                         const uarch::trace_gen_config& sim_cfg,
                         std::uint64_t noise_seed) {
  monitor_options opts;
  opts.kind = kind;
  opts.sim_cfg = sim_cfg;
  opts.noise_seed = noise_seed;
  // Chaos overrides: an injected (drifted or faulty) stack is only useful
  // with retries and robust aggregation, so they always come along here.
  opts.drift = drift_profile_from_env();
  opts.faults = fault_config_from_env();
  if (opts.drift.has_value() || opts.faults.has_value()) {
    opts.resilience = resilience_config{};
  }
  return make_monitor(m, opts);
}

}  // namespace advh::hpc
