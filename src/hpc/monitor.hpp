// HPC measurement interface.
//
// A monitor wraps a DNN deployment the defender can query: it submits one
// input, observes the hard-label prediction, and returns per-event counter
// statistics averaged over R measurement repetitions — exactly the
// defender's view in the paper's threat model (Section 4).
//
// Measurement is split in two. A backend is a `raw_reader`: it opens one
// input as a `raw_sample`, whose reads each take R raw readings of N
// events, addressed by an explicit stream index, and report per-reading
// failures instead of hiding them. The one concrete monitor,
// `resilient_monitor`, owns everything above that: stream numbering,
// batching over threads, retries under a `measure_budget` and
// aggregation. Fault and drift injection are reader-to-reader wrappers.
// Real counters are not the paper's idealised ones — reads fail
// transiently, the PMU multiplexes events, co-tenant noise spikes counts,
// events disappear mid-session — so every measurement carries a
// `measurement::quality` report describing how trustworthy it is.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hpc/events.hpp"
#include "tensor/tensor.hpp"

namespace advh {
class cancel_token;  // common/retry.hpp
}

namespace advh::hpc {

/// Deadline budget for one measurement (or one batch). The serve layer
/// derives a budget from the request's remaining deadline and the current
/// degradation-ladder rung; the resilient layer spends it: retry rounds
/// are capped, backoff sleeps can be suppressed, and a cancelled token
/// aborts further retries mid-measurement (graceful drain). A
/// default-constructed budget changes nothing — a monitor configured
/// without retries ignores it entirely — and because the budget only
/// *truncates* the retry schedule (stream indices are still keyed on
/// sample/attempt alone), measurements under any fixed budget remain
/// bitwise thread-count-invariant.
struct measure_budget {
  static constexpr std::size_t unlimited = ~static_cast<std::size_t>(0);

  /// Ceiling on retry rounds (re-reads after the first) the resilient
  /// layer may spend per sample. 0 = first read only; unlimited = whatever
  /// the retry policy allows.
  std::size_t max_retry_rounds = unlimited;
  /// When false, retry rounds run back to back without backoff sleeps —
  /// under a tight deadline, sleeping is worse than a busy re-read.
  bool allow_backoff = true;
  /// Optional cancellation: a cancelled token stops further retry rounds
  /// (and cuts any pending backoff sleep short). Non-owning.
  const cancel_token* cancel = nullptr;
};

struct measurement {
  /// Provenance/trust report for one measurement. An empty `available`
  /// vector means "every requested event was measured normally".
  struct quality {
    /// Per requested event: 1 when the event was actually measured for
    /// this sample, 0 when it was unavailable (permanently lost counter,
    /// or every repetition failed). Empty = all available.
    std::vector<std::uint8_t> available;
    /// Per requested event: 1 when the reported count was scaled by
    /// time_enabled/time_running because the PMU multiplexed the event.
    /// Empty = no scaling occurred.
    std::vector<std::uint8_t> multiplexed;
    /// Retry rounds the resilient layer spent refilling failed
    /// repetitions for this sample.
    std::uint32_t retries = 0;
    /// Repetitions rejected by robust (median/MAD) aggregation.
    std::uint32_t outliers_rejected = 0;
    /// Repetitions that stayed failed after the retry budget ran out.
    std::uint32_t failed_repetitions = 0;
    /// The R the caller asked for (0 when the backend does not report it).
    std::uint32_t repetitions = 0;

    bool event_available(std::size_t e) const noexcept {
      return available.empty() || (e < available.size() && available[e] != 0);
    }
    /// True when at least one requested event was unavailable.
    bool degraded() const noexcept {
      for (const std::uint8_t a : available) {
        if (a == 0) return true;
      }
      return false;
    }
  };

  /// Mean counter value per requested event (the paper's E-bar).
  std::vector<double> mean_counts;
  /// Per-event standard deviation across the R repetitions.
  std::vector<double> stddev_counts;
  /// The DNN's hard-label prediction for the submitted input.
  std::size_t predicted = 0;
  /// Trust report (see above); default-constructed = fully trusted.
  quality q;
};

/// One block of raw per-repetition counter readings, before aggregation.
/// Produced by a `raw_sample`; consumed by resilient_monitor, which
/// retries failures and aggregates.
struct reading_block {
  enum class read_status : std::uint8_t {
    ok = 0,                ///< value holds a real reading
    transient_failure = 1, ///< this read failed; a retry may succeed
    event_lost = 2,        ///< the counter is permanently gone
  };

  std::size_t repetitions = 0;
  std::size_t num_events = 0;
  /// Hard-label prediction of the inference the readings were taken
  /// around. The prediction comes from the model, not the counters, so it
  /// survives every counter fault.
  std::size_t predicted = 0;
  /// values[rep * num_events + event]; meaningful only where the
  /// corresponding status is ok.
  std::vector<double> values;
  std::vector<read_status> status;
  /// Per event: 1 when any repetition's count was multiplex-scaled.
  /// Empty = none.
  std::vector<std::uint8_t> multiplexed;

  double value_at(std::size_t rep, std::size_t event) const {
    return values[rep * num_events + event];
  }
  read_status status_at(std::size_t rep, std::size_t event) const {
    return status[rep * num_events + event];
  }
};

/// One input opened for measurement. Each `read` is one round of raw
/// readings addressed by an explicit stream index; the index — not call
/// order — fully determines any simulated randomness, which is what lets
/// the monitor retry and parallelise without losing bitwise
/// reproducibility. One thread reads a sample at a time.
class raw_sample {
 public:
  raw_sample() = default;
  virtual ~raw_sample() = default;
  raw_sample(const raw_sample&) = delete;
  raw_sample& operator=(const raw_sample&) = delete;

  /// Takes `repeats` raw readings of `events` of the opened input.
  /// Simulated backends derive all stochastic behaviour from `stream`;
  /// hardware backends ignore it.
  virtual reading_block read(std::span<const hpc_event> events,
                             std::size_t repeats, std::uint64_t stream) = 0;
};

/// A sample whose every read is an inner sample's read passed through
/// `transform(block, events, stream)`: the shape of the reader-to-reader
/// wrappers (faults, drift).
class transformed_sample final : public raw_sample {
 public:
  using transform_fn = std::function<void(
      reading_block&, std::span<const hpc_event>, std::uint64_t)>;

  transformed_sample(std::unique_ptr<raw_sample> inner, transform_fn transform)
      : inner_(std::move(inner)), transform_(std::move(transform)) {}

  reading_block read(std::span<const hpc_event> events, std::size_t repeats,
                     std::uint64_t stream) override;

 private:
  std::unique_ptr<raw_sample> inner_;
  transform_fn transform_;
};

/// The backend contract: open one input per measurement, then read rounds
/// from it. Implementations must be safe to open concurrently from
/// multiple threads.
class raw_reader {
 public:
  raw_reader() = default;
  virtual ~raw_reader() = default;
  // Samples hold the reader's address, so it never moves.
  raw_reader(const raw_reader&) = delete;
  raw_reader& operator=(const raw_reader&) = delete;

  virtual std::string backend_name() const = 0;

  /// Opens `x` for one measurement. The sample borrows `x` and this
  /// reader; both must outlive it.
  virtual std::unique_ptr<raw_sample> open(const tensor& x) = 0;
};

class hpc_monitor {
 public:
  virtual ~hpc_monitor() = default;
  hpc_monitor(const hpc_monitor&) = delete;
  hpc_monitor& operator=(const hpc_monitor&) = delete;

  /// Runs inference on one example (batch-of-one tensor), sampling the
  /// given events `repeats` times (the paper's R; 10 by default there).
  /// Throws std::invalid_argument when repeats == 0 — this validation is
  /// the non-virtual boundary, so every monitor inherits it.
  measurement measure(const tensor& x, std::span<const hpc_event> events,
                      std::size_t repeats);

  /// Measures a batch of independent inputs; out[i] corresponds to
  /// inputs[i] and is bitwise identical to serial `measure` calls in the
  /// same order. `threads` follows advh::resolve_threads semantics: 0
  /// means the ADVH_THREADS override or, failing that, hardware
  /// concurrency. Every sample runs under the same `budget` (see
  /// measure_budget). Throws std::invalid_argument when repeats == 0.
  std::vector<measurement> measure_batch(std::span<const tensor> inputs,
                                         std::span<const hpc_event> events,
                                         std::size_t repeats,
                                         std::size_t threads = 0,
                                         const measure_budget& budget = {});

  virtual std::string backend_name() const = 0;

 protected:
  hpc_monitor() = default;

  /// Implementation of `measure`; repeats > 0 is guaranteed.
  virtual measurement do_measure(const tensor& x,
                                 std::span<const hpc_event> events,
                                 std::size_t repeats) = 0;

  /// Unbudgeted batch; defaults to a serial loop over do_measure.
  virtual std::vector<measurement> do_measure_batch(
      std::span<const tensor> inputs, std::span<const hpc_event> events,
      std::size_t repeats, std::size_t threads);

  /// Implementation of `measure_batch`. The default ignores the budget
  /// and forwards to do_measure_batch — only a monitor that spends time
  /// on retries has anything to cap.
  virtual std::vector<measurement> do_measure_batch_budgeted(
      std::span<const tensor> inputs, std::span<const hpc_event> events,
      std::size_t repeats, std::size_t threads, const measure_budget& budget);
};

using monitor_ptr = std::unique_ptr<hpc_monitor>;

}  // namespace advh::hpc
