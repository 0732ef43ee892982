#include "hpc/sim_backend.hpp"

#include "common/error.hpp"

namespace advh::hpc {

sim_backend::sim_backend(nn::model& m, const uarch::trace_gen_config& cfg,
                         noise_model noise, std::uint64_t seed)
    : model_(m), cfg_(cfg), noise_(std::move(noise)), seed_(seed) {}

uarch::uarch_counts sim_backend::profile(const tensor& x,
                                         std::size_t& predicted) const {
  const nn::inference_trace trace = model_.trace_inference(x, predicted);
  std::unique_ptr<uarch::trace_generator> gen;
  {
    const std::lock_guard lock(idle_mutex_);
    if (!idle_.empty()) {
      gen = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (!gen) gen = std::make_unique<uarch::trace_generator>(cfg_);
  const uarch::uarch_counts counts = gen->run(trace);
  const std::lock_guard lock(idle_mutex_);
  idle_.push_back(std::move(gen));
  return counts;
}

/// One profiled input: its true counts, observed through the noise model
/// on each read.
class sim_backend::sample final : public raw_sample {
 public:
  sample(const sim_backend& reader, const tensor& x) : reader_(reader) {
    counts_ = reader_.profile(x, predicted_);
  }

  reading_block read(std::span<const hpc_event> events, std::size_t repeats,
                     std::uint64_t stream) override {
    ADVH_CHECK(repeats > 0);
    reading_block block;
    block.repetitions = repeats;
    block.num_events = events.size();
    block.predicted = predicted_;
    block.values.assign(repeats * events.size(), 0.0);
    block.status.assign(repeats * events.size(),
                        reading_block::read_status::ok);

    // Event-outer, repetition-inner draws, keyed purely by (seed, stream).
    rng noise_rng = rng::stream(reader_.seed_, stream);
    for (std::size_t e = 0; e < events.size(); ++e) {
      const auto truth = static_cast<double>(extract(counts_, events[e]));
      for (std::size_t r = 0; r < repeats; ++r) {
        block.values[r * events.size() + e] =
            reader_.noise_.sample(events[e], truth, noise_rng);
      }
    }
    return block;
  }

 private:
  const sim_backend& reader_;
  uarch::uarch_counts counts_;
  std::size_t predicted_ = 0;
};

std::unique_ptr<raw_sample> sim_backend::open(const tensor& x) {
  return std::make_unique<sample>(*this, x);
}

}  // namespace advh::hpc
