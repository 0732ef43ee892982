// Monitor construction with graceful fallback: prefer the native perf
// reader when the kernel permits it, otherwise the simulator — optionally
// wrapped in drift and fault injection — behind one resilient_monitor.
//
// Chaos wiring: when the ADVH_FAULT_RATE environment variable is set to a
// positive rate, the convenience make_monitor overload wraps whatever
// reader it builds in fault_backend (deterministic injected faults at
// that rate) and turns on retries and robust aggregation, so the whole
// test/bench suite can be exercised under measurement faults without
// touching call sites.
#pragma once

#include <optional>

#include "hpc/drift_backend.hpp"
#include "hpc/fault_backend.hpp"
#include "hpc/monitor.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/model.hpp"

namespace advh::hpc {

enum class backend_kind { auto_detect, simulator, perf };

struct monitor_options {
  backend_kind kind = backend_kind::auto_detect;
  uarch::trace_gen_config sim_cfg{};
  std::uint64_t noise_seed = 99;
  /// When set, the base reader is wrapped in a drift_backend shifting
  /// the counter baseline (drift chaos testing). Applied closest to the
  /// hardware, under the fault layer: faults corrupt an already-drifted
  /// baseline, which is the order deployments experience.
  std::optional<drift_profile> drift;
  /// When set, the (possibly drifted) reader is wrapped in a
  /// fault_backend injecting deterministic faults (chaos testing).
  std::optional<fault_config> faults;
  /// Retry and aggregation settings of the monitor; unset means
  /// resilience_config::naive() (one read per sample, plain average).
  std::optional<resilience_config> resilience;
};

/// Builds the monitor stack described by `opts` over `m`. With
/// auto_detect, perf is used when available and the simulator otherwise.
/// The returned monitor borrows the model; callers keep it alive.
monitor_ptr make_monitor(nn::model& m, const monitor_options& opts);

/// Convenience overload. Honours the ADVH_FAULT_RATE and ADVH_DRIFT_RATE
/// chaos overrides (see fault_config_from_env / drift_profile_from_env);
/// pass explicit monitor_options to opt out.
monitor_ptr make_monitor(nn::model& m,
                         backend_kind kind = backend_kind::auto_detect,
                         const uarch::trace_gen_config& sim_cfg = {},
                         std::uint64_t noise_seed = 99);

/// Parses the ADVH_FAULT_RATE environment variable into a fault profile:
/// transient read failures at the given rate, spikes at half of it, and
/// stuck-at reads at a quarter. Returns nullopt when unset or 0; throws
/// std::invalid_argument when set to a negative, non-numeric, or > 1
/// value (a broken chaos knob must not silently disable the chaos).
std::optional<fault_config> fault_config_from_env();

/// Parses the ADVH_DRIFT_RATE environment variable into a drift profile:
/// a whole-session baseline step of magnitude (1 + rate) on every event,
/// active from stream 0 — i.e. the suite runs as if deployed on a machine
/// whose baseline differs from the reference by that factor. Returns
/// nullopt when unset or 0; throws std::invalid_argument when set to a
/// negative, non-numeric, or implausibly large value.
std::optional<drift_profile> drift_profile_from_env();

}  // namespace advh::hpc
