#include "hpc/perf_backend.hpp"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace advh::hpc {

namespace {

long perf_event_open_syscall(perf_event_attr* attr, pid_t pid, int cpu,
                             int group_fd, unsigned long flags) noexcept {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

bool event_ids(hpc_event e, std::uint32_t& type, std::uint64_t& config) {
  constexpr auto hw_cache = [](std::uint64_t id, std::uint64_t op,
                               std::uint64_t result) {
    return id | (op << 8) | (result << 16);
  };
  switch (e) {
    case hpc_event::instructions:
      type = PERF_TYPE_HARDWARE;
      config = PERF_COUNT_HW_INSTRUCTIONS;
      return true;
    case hpc_event::branches:
      type = PERF_TYPE_HARDWARE;
      config = PERF_COUNT_HW_BRANCH_INSTRUCTIONS;
      return true;
    case hpc_event::branch_misses:
      type = PERF_TYPE_HARDWARE;
      config = PERF_COUNT_HW_BRANCH_MISSES;
      return true;
    case hpc_event::cache_references:
      type = PERF_TYPE_HARDWARE;
      config = PERF_COUNT_HW_CACHE_REFERENCES;
      return true;
    case hpc_event::cache_misses:
      type = PERF_TYPE_HARDWARE;
      config = PERF_COUNT_HW_CACHE_MISSES;
      return true;
    case hpc_event::l1d_load_misses:
      type = PERF_TYPE_HW_CACHE;
      config = hw_cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                        PERF_COUNT_HW_CACHE_RESULT_MISS);
      return true;
    case hpc_event::l1i_load_misses:
      type = PERF_TYPE_HW_CACHE;
      config = hw_cache(PERF_COUNT_HW_CACHE_L1I, PERF_COUNT_HW_CACHE_OP_READ,
                        PERF_COUNT_HW_CACHE_RESULT_MISS);
      return true;
    case hpc_event::llc_load_misses:
      type = PERF_TYPE_HW_CACHE;
      config = hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                        PERF_COUNT_HW_CACHE_RESULT_MISS);
      return true;
    case hpc_event::llc_store_misses:
      type = PERF_TYPE_HW_CACHE;
      config = hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_WRITE,
                        PERF_COUNT_HW_CACHE_RESULT_MISS);
      return true;
  }
  return false;
}

class scoped_fd {
 public:
  explicit scoped_fd(int fd) noexcept : fd_(fd) {}
  ~scoped_fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  scoped_fd(const scoped_fd&) = delete;
  scoped_fd& operator=(const scoped_fd&) = delete;
  scoped_fd(scoped_fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

int open_event_fd(hpc_event e) noexcept {
  std::uint32_t type = 0;
  std::uint64_t config = 0;
  if (!event_ids(e, type, config)) return -1;

  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Expose PMU scheduling time so multiplexed counts can be scaled.
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      perf_event_open_syscall(&attr, 0 /* self */, -1, -1, 0));
}

/// What the kernel returns for the read_format above.
struct counter_reading {
  std::uint64_t value = 0;
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
};

/// Reads the full counter struct, retrying on EINTR and reassembling
/// short reads. Returns false when the read failed outright.
bool robust_read(int fd, counter_reading& out) noexcept {
  auto* bytes = reinterpret_cast<char*>(&out);
  std::size_t have = 0;
  while (have < sizeof(out)) {
    const ssize_t got = ::read(fd, bytes + have, sizeof(out) - have);
    if (got > 0) {
      have += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;  // interrupted: retry the read
    return false;  // EOF or hard error: the caller treats this repetition
                   // as a transient failure
  }
  return true;
}

}  // namespace

int perf_backend::open_event(hpc_event e) noexcept { return open_event_fd(e); }

bool perf_events_available() noexcept {
  const int fd = open_event_fd(hpc_event::instructions);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

perf_backend::perf_backend(nn::model& m) : model_(m) {
  if (!perf_events_available()) {
    throw backend_unavailable(
        std::string("perf_event_open denied (") + std::strerror(errno) +
        "); lower /proc/sys/kernel/perf_event_paranoid or use the simulator "
        "backend");
  }
}

perf_backend::~perf_backend() = default;

/// One input, counted around `repeats` real inferences per read.
class perf_backend::sample final : public raw_sample {
 public:
  sample(perf_backend& reader, const tensor& x) : reader_(reader), x_(x) {}

  reading_block read(std::span<const hpc_event> events, std::size_t repeats,
                     std::uint64_t /*stream*/) override {
    return reader_.count_inferences(x_, events, repeats);
  }

 private:
  perf_backend& reader_;
  const tensor& x_;
};

std::unique_ptr<raw_sample> perf_backend::open(const tensor& x) {
  return std::make_unique<sample>(*this, x);
}

reading_block perf_backend::count_inferences(const tensor& x,
                                             std::span<const hpc_event> events,
                                             std::size_t repeats) {
  const std::lock_guard<std::mutex> lock(read_mutex_);
  reading_block block;
  block.repetitions = repeats;
  block.num_events = events.size();
  block.values.assign(repeats * events.size(), 0.0);
  block.status.assign(repeats * events.size(), reading_block::read_status::ok);
  block.multiplexed.assign(events.size(), 0);

  for (std::size_t r = 0; r < repeats; ++r) {
    // One fd per event, counting simultaneously around a real inference.
    std::vector<scoped_fd> fds;
    fds.reserve(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
      fds.emplace_back(open_event(events[e]));
      if (!fds.back().valid()) {
        const auto idx = static_cast<std::size_t>(events[e]);
        if (!open_warned_[idx]) {
          open_warned_[idx] = true;
          log::warn("perf: cannot open counter for ", to_string(events[e]),
                    " (", std::strerror(errno), "); event reported lost");
        }
        block.status[r * events.size() + e] =
            reading_block::read_status::event_lost;
        continue;
      }
      ioctl(fds.back().get(), PERF_EVENT_IOC_RESET, 0);
    }
    for (auto& fd : fds) {
      if (fd.valid()) ioctl(fd.get(), PERF_EVENT_IOC_ENABLE, 0);
    }

    block.predicted = model_.predict_one(x);

    for (std::size_t e = 0; e < events.size(); ++e) {
      const std::size_t idx = r * events.size() + e;
      if (block.status[idx] == reading_block::read_status::event_lost) {
        continue;
      }
      ioctl(fds[e].get(), PERF_EVENT_IOC_DISABLE, 0);
      counter_reading reading;
      if (!robust_read(fds[e].get(), reading) || reading.time_running == 0) {
        // Hard read error, or the event never got PMU time this run.
        block.status[idx] = reading_block::read_status::transient_failure;
        continue;
      }
      double value = static_cast<double>(reading.value);
      if (reading.time_running < reading.time_enabled) {
        // The PMU multiplexed this event: scale the observed count to the
        // full enabled window, the standard perf estimate.
        value *= static_cast<double>(reading.time_enabled) /
                 static_cast<double>(reading.time_running);
        block.multiplexed[e] = 1;
        const auto ev_idx = static_cast<std::size_t>(events[e]);
        if (!scale_warned_[ev_idx]) {
          scale_warned_[ev_idx] = true;
          log::warn("perf: ", to_string(events[e]),
                    " is multiplexed; counts scaled by "
                    "time_enabled/time_running");
        }
      }
      block.values[idx] = value;
    }
  }
  return block;
}

}  // namespace advh::hpc
