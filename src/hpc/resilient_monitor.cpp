#include "hpc/resilient_monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace advh::hpc {

namespace {

/// 1.4826 * MAD estimates sigma for Gaussian data; the multiplier in the
/// config is therefore in "robust standard deviations".
constexpr double kMadToSigma = 1.4826;

struct robust_aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t rejected = 0;
};

robust_aggregate aggregate(const std::vector<double>& values,
                           double mad_multiplier) {
  robust_aggregate out;
  std::vector<double> kept;
  if (mad_multiplier > 0.0 && values.size() >= 4) {
    const double med = stats::median(values);
    std::vector<double> dev;
    dev.reserve(values.size());
    for (double v : values) dev.push_back(std::abs(v - med));
    const double mad = stats::median(dev);
    if (mad > 0.0) {
      const double cut = mad_multiplier * kMadToSigma * mad;
      for (double v : values) {
        if (std::abs(v - med) <= cut) kept.push_back(v);
      }
    }
  }
  if (kept.empty()) kept = values;
  out.rejected = values.size() - kept.size();
  stats::running_stats acc;
  for (double v : kept) acc.push(v);
  out.mean = acc.mean();
  // Population stddev: exactly 0 for a single surviving repetition.
  out.stddev = acc.stddev();
  return out;
}

}  // namespace

resilient_monitor::resilient_monitor(std::unique_ptr<raw_reader> reader,
                                     resilience_config cfg)
    : reader_(std::move(reader)), cfg_(cfg) {
  ADVH_CHECK(reader_ != nullptr);
  ADVH_CHECK_MSG(cfg_.retry.max_attempts >= 1 &&
                     cfg_.retry.max_attempts <= attempt_stride,
                 "retry.max_attempts must be in [1, attempt_stride]");
}

std::string resilient_monitor::backend_name() const {
  if (cfg_.retry.max_attempts == 1) return reader_->backend_name();
  return "resilient(" + reader_->backend_name() + ")";
}

std::vector<hpc_event> resilient_monitor::lost_events() const {
  std::lock_guard<std::mutex> lock(lost_mutex_);
  return {lost_.begin(), lost_.end()};
}

std::vector<hpc_event> resilient_monitor::surviving(
    std::span<const hpc_event> requested) const {
  std::lock_guard<std::mutex> lock(lost_mutex_);
  std::vector<hpc_event> out;
  out.reserve(requested.size());
  for (hpc_event e : requested) {
    if (lost_.find(e) == lost_.end()) out.push_back(e);
  }
  return out;
}

measurement resilient_monitor::measure_sample(
    const tensor& x, std::span<const hpc_event> events, std::size_t repeats,
    std::uint64_t sample_index, const measure_budget& budget) const {
  const std::size_t n_events = events.size();
  // Without retries sample k owns stream k alone.
  const std::uint64_t base_stream =
      sample_index * (cfg_.retry.max_attempts == 1 ? 1 : attempt_stride);

  measurement out;
  out.mean_counts.assign(n_events, 0.0);
  out.stddev_counts.assign(n_events, 0.0);
  out.q.available.assign(n_events, 1);
  out.q.repetitions = static_cast<std::uint32_t>(repeats);

  std::vector<std::vector<double>> good(n_events);
  for (auto& g : good) g.reserve(repeats);
  std::vector<std::uint8_t> lost(n_events, 0);

  const auto absorb = [&](const reading_block& block) {
    for (std::size_t r = 0; r < block.repetitions; ++r) {
      for (std::size_t e = 0; e < n_events; ++e) {
        switch (block.status_at(r, e)) {
          case reading_block::read_status::ok:
            if (good[e].size() < repeats) good[e].push_back(block.value_at(r, e));
            break;
          case reading_block::read_status::transient_failure:
            break;
          case reading_block::read_status::event_lost:
            lost[e] = 1;
            break;
        }
      }
    }
    if (!block.multiplexed.empty()) {
      if (out.q.multiplexed.empty()) out.q.multiplexed.assign(n_events, 0);
      for (std::size_t e = 0; e < n_events; ++e) {
        out.q.multiplexed[e] |= block.multiplexed[e];
      }
    }
  };

  // Repetitions still to read: the largest shortfall among events that
  // are not lost.
  const auto missing = [&] {
    std::size_t needed = 0;
    for (std::size_t e = 0; e < n_events; ++e) {
      if (!lost[e]) needed = std::max(needed, repeats - good[e].size());
    }
    return needed;
  };

  // One sample per measurement: attempt 0 and every retry round read the
  // same opened input. Attempt 0 sets the prediction, which comes from
  // the inference itself, not the counters, so it survives any counter
  // fault. Attempt a > 0 re-reads the missing repetitions at stream
  // base_stream + a. The budget only truncates the retry schedule (the
  // rounds that do run use the unbudgeted stream indices), so budgeted
  // measurements stay thread-invariant.
  const std::unique_ptr<raw_sample> sample = reader_->open(x);
  retry_policy policy = cfg_.retry;
  if (budget.max_retry_rounds != measure_budget::unlimited) {
    policy.max_attempts =
        std::min(policy.max_attempts, budget.max_retry_rounds + 1);
  }
  if (!budget.allow_backoff) policy.base_delay = std::chrono::milliseconds{0};
  run_with_retry(
      policy,
      [&](std::size_t attempt) {
        if (attempt == 0) {
          const reading_block first =
              sample->read(events, repeats, base_stream);
          out.predicted = first.predicted;
          absorb(first);
        } else {
          ++out.q.retries;
          absorb(sample->read(events, missing(), base_stream + attempt));
        }
        return missing() == 0;
      },
      budget.cancel);

  const std::size_t min_reps = std::max<std::size_t>(cfg_.min_repetitions, 1);
  for (std::size_t e = 0; e < n_events; ++e) {
    if (!lost[e]) {
      out.q.failed_repetitions +=
          static_cast<std::uint32_t>(repeats - good[e].size());
    }
    if (lost[e] || good[e].size() < min_reps) {
      out.q.available[e] = 0;
      continue;
    }
    const robust_aggregate agg = aggregate(good[e], cfg_.mad_multiplier);
    out.mean_counts[e] = agg.mean;
    out.stddev_counts[e] = agg.stddev;
    out.q.outliers_rejected += static_cast<std::uint32_t>(agg.rejected);
  }

  bool any_lost = false;
  for (const std::uint8_t l : lost) any_lost = any_lost || l != 0;
  if (any_lost) {
    std::lock_guard<std::mutex> lock(lost_mutex_);
    for (std::size_t e = 0; e < n_events; ++e) {
      if (lost[e]) lost_.insert(events[e]);
    }
  }
  return out;
}

measurement resilient_monitor::do_measure(const tensor& x,
                                          std::span<const hpc_event> events,
                                          std::size_t repeats) {
  return measure_sample(x, events, repeats, next_sample_++, measure_budget{});
}

std::vector<measurement> resilient_monitor::do_measure_batch_budgeted(
    std::span<const tensor> inputs, std::span<const hpc_event> events,
    std::size_t repeats, std::size_t threads, const measure_budget& budget) {
  std::vector<measurement> out(inputs.size());
  const std::uint64_t base = next_sample_;
  next_sample_ += inputs.size();
  parallel::parallel_for(inputs.size(), threads,
                         [&](std::size_t i, std::size_t /*worker*/) {
                           out[i] = measure_sample(inputs[i], events, repeats,
                                                   base + i, budget);
                         });
  return out;
}

}  // namespace advh::hpc
