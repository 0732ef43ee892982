#include "hpc/monitor.hpp"

#include <stdexcept>

namespace advh::hpc {

reading_block transformed_sample::read(std::span<const hpc_event> events,
                                       std::size_t repeats,
                                       std::uint64_t stream) {
  reading_block block = inner_->read(events, repeats, stream);
  transform_(block, events, stream);
  return block;
}

measurement hpc_monitor::measure(const tensor& x,
                                 std::span<const hpc_event> events,
                                 std::size_t repeats) {
  if (repeats == 0) {
    throw std::invalid_argument(
        "hpc_monitor::measure: repeats must be positive");
  }
  return do_measure(x, events, repeats);
}

std::vector<measurement> hpc_monitor::measure_batch(
    std::span<const tensor> inputs, std::span<const hpc_event> events,
    std::size_t repeats, std::size_t threads, const measure_budget& budget) {
  if (repeats == 0) {
    throw std::invalid_argument(
        "hpc_monitor::measure_batch: repeats must be positive");
  }
  return do_measure_batch_budgeted(inputs, events, repeats, threads, budget);
}

std::vector<measurement> hpc_monitor::do_measure_batch(
    std::span<const tensor> inputs, std::span<const hpc_event> events,
    std::size_t repeats, std::size_t threads) {
  (void)threads;  // a serial loop: batch order is the measurement order
  std::vector<measurement> out;
  out.reserve(inputs.size());
  for (const tensor& x : inputs) out.push_back(do_measure(x, events, repeats));
  return out;
}

std::vector<measurement> hpc_monitor::do_measure_batch_budgeted(
    std::span<const tensor> inputs, std::span<const hpc_event> events,
    std::size_t repeats, std::size_t threads, const measure_budget& budget) {
  (void)budget;  // no retry loop here: nothing to cap
  return do_measure_batch(inputs, events, repeats, threads);
}

}  // namespace advh::hpc
