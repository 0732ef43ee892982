// Probes the machine's real HPC capabilities and falls back to the
// simulator: enumerates which of the nine paper events perf_event_open can
// count here, then takes one measurement through whichever backend is
// available. Useful for checking a deployment before running AdvHunter on
// native counters.
#include <iostream>

#include "common/table.hpp"
#include "hpc/factory.hpp"
#include "hpc/perf_backend.hpp"
#include "hpc/resilient_monitor.hpp"
#include "nn/models/models.hpp"

using namespace advh;

int main() {
  std::cout << "perf_event_open available: "
            << (hpc::perf_events_available() ? "yes" : "no") << "\n\n";

  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{3, 32, 32}, 10, 1);

  // Try each event individually through a throwaway backend.
  text_table availability("event availability");
  availability.set_header({"event", "native perf", "simulator"});
  for (hpc::hpc_event e : hpc::all_events()) {
    bool native = false;
    if (hpc::perf_events_available()) {
      try {
        hpc::resilient_monitor backend(
            std::make_unique<hpc::perf_backend>(*model),
            hpc::resilience_config::naive());
        rng gen(1);
        tensor x = tensor::rand_uniform(shape{1, 3, 32, 32}, gen, 0.0f, 1.0f);
        auto m = backend.measure(x, std::vector<hpc::hpc_event>{e}, 1);
        native = m.mean_counts[0] >= 0.0;
      } catch (const std::exception&) {
        native = false;
      }
    }
    availability.add_row({to_string(e), native ? "yes" : "no", "yes"});
  }
  availability.print(std::cout);

  // One measurement through the auto-selected backend (the legacy factory
  // entry point also honours the ADVH_FAULT_RATE chaos knob, in which case
  // the quality columns below show the resilient layer at work).
  auto monitor = hpc::make_monitor(*model);
  std::cout << "selected backend: " << monitor->backend_name() << "\n";
  rng gen(2);
  tensor x = tensor::rand_uniform(shape{1, 3, 32, 32}, gen, 0.0f, 1.0f);
  auto m = monitor->measure(x, hpc::all_events(), 10);

  text_table sample("sample measurement (R = 10)");
  sample.set_header({"event", "mean", "stddev", "available", "multiplexed"});
  const auto events = hpc::all_events();
  for (std::size_t e = 0; e < events.size(); ++e) {
    const bool mux = e < m.q.multiplexed.size() && m.q.multiplexed[e] != 0;
    sample.add_row({to_string(events[e]), text_table::num(m.mean_counts[e], 1),
                    text_table::num(m.stddev_counts[e], 1),
                    m.q.event_available(e) ? "yes" : "NO",
                    mux ? "yes (scaled)" : "no"});
  }
  sample.print(std::cout);
  std::cout << "hard-label prediction: class " << m.predicted << "\n";
  std::cout << "measurement quality: " << m.q.retries << " retries, "
            << m.q.failed_repetitions << " unrecovered repetitions, "
            << m.q.outliers_rejected << " outliers rejected\n";
  if (m.q.degraded()) {
    std::cout << "WARNING: measurement degraded — at least one event was "
                 "unavailable\n";
  }
  return 0;
}
