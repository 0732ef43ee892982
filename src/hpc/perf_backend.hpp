// Native Linux perf_event_open reader.
//
// Counts the nine supported events around real inference executions of the
// wrapped model — what the paper runs on an Intel i7-9700. Container and
// CI environments usually deny perf_event_open (perf_event_paranoid or
// seccomp); construction then throws backend_unavailable and callers fall
// back to the simulator (see make_monitor in hpc/factory.hpp).
//
// Hardened against real-counter flakiness: reads retry on EINTR and
// reassemble short reads; counters are opened with
// time_enabled/time_running so multiplexed events are scaled to their
// full-time estimate (logged once per event); an event that cannot be
// opened or read is reported unavailable in measurement::quality instead
// of aborting the measurement, so the monitor can degrade gracefully.
#pragma once

#include <array>
#include <mutex>

#include "hpc/monitor.hpp"
#include "nn/model.hpp"

namespace advh::hpc {

/// Returns true if a basic hardware counter can be opened on this system.
bool perf_events_available() noexcept;

class perf_backend final : public raw_reader {
 public:
  /// Throws backend_unavailable if perf_event_open is not permitted.
  explicit perf_backend(nn::model& m);
  ~perf_backend() override;

  std::string backend_name() const override { return "perf_event"; }

  /// A sample of `x` whose every read counts `repeats` real inferences of
  /// it; `stream` is ignored (real hardware has no replayable randomness).
  /// Concurrent reads are serialised — one physical PMU — so a threaded
  /// batch still reads one inference at a time.
  std::unique_ptr<raw_sample> open(const tensor& x) override;

 private:
  class sample;

  /// The body of every sample read: `repeats` counted inferences of `x`.
  reading_block count_inferences(const tensor& x,
                                 std::span<const hpc_event> events,
                                 std::size_t repeats);

  /// Opens a counter fd for one event; returns -1 on failure.
  static int open_event(hpc_event e) noexcept;

  nn::model& model_;
  /// Serialises count_inferences: it guards the one PMU and the warned
  /// flags below.
  std::mutex read_mutex_;
  /// Events already warned about (multiplex scaling / open failure), so
  /// each condition logs once per event per backend instance.
  std::array<bool, hpc_event_count> scale_warned_{};
  std::array<bool, hpc_event_count> open_warned_{};
};

}  // namespace advh::hpc
