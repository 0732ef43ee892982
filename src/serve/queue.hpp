// Bounded MPMC request queue with priority classes.
//
// The queue is the only buffer between traffic and the measurement path,
// and it is explicitly bounded: when it is full the push *fails* — callers
// get immediate backpressure instead of unbounded latency. Three priority
// classes exist, served strictly highest-first with FIFO order inside a
// class:
//
//   canary      — PR 4's drift probes. Never count against capacity and
//                 never shed: the drift monitor must keep functioning
//                 precisely when the system is under the most stress.
//   interactive — latency-sensitive user queries.
//   batch       — throughput traffic; first to starve under overload.
//
// Two hardening rules fell out of the serve/admission audit:
//
//   * a closed queue rejects every push, canaries included. Before, a
//     push racing close() could land a request in a queue whose blocked
//     consumers had already woken and left — admitted work stranded with
//     nobody to serve it. Rejection is typed (rejected_closed) so callers
//     can tell shutdown from backpressure.
//   * rejection counters live *inside* the queue, updated under the same
//     lock that makes the accept/reject decision. Callers that counted
//     rejections under their own lock could drift from the decisions
//     whenever a push raced a drain; these counters cannot.
//
// Capacity accounting is global across the two bounded lanes (interactive
// + batch share one bound; an exactly-full queue rejects either lane and
// still accepts canaries) — the regression tests pin the exact-full
// boundary. All policy (admission control, deadline checks, shedding)
// lives in detection_service.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "serve/clock.hpp"
#include "tensor/tensor.hpp"

namespace advh::serve {

enum class priority : std::uint8_t { canary = 0, interactive = 1, batch = 2 };
inline constexpr std::size_t num_priorities = 3;

const char* to_string(priority p) noexcept;

/// One queued detection request.
struct request {
  std::uint64_t id = 0;
  tensor input;
  priority prio = priority::interactive;
  /// Client identity for the stateful query-stream defense (src/track);
  /// 0 = anonymous/untracked.
  std::uint64_t client = 0;
  /// Set when the tracker escalated the client: served at full fidelity
  /// (rung-0 repeats and events) regardless of the current ladder rung.
  bool escalated = false;
  /// Absolute submission time (service clock).
  clock_duration submitted{0};
  /// Absolute deadline; no_deadline = none. Canary probes default to none.
  clock_duration deadline = no_deadline;
  /// Circuit-breaker generation stamped at admission; outcome reports carry
  /// it back so a stale probe cannot double-transition the breaker.
  std::uint64_t breaker_epoch = 0;
};

/// Typed outcome of a push; the decision and its counter update happen
/// atomically under the queue lock.
enum class push_result : std::uint8_t {
  accepted = 0,
  rejected_full = 1,    ///< bounded lanes at capacity (non-canary only)
  rejected_closed = 2,  ///< queue closed (drain/shutdown); all classes
};

class request_queue {
 public:
  /// `capacity` bounds the queued interactive + batch requests. Canary
  /// probes bypass the bound (the pinned canary set is small by
  /// construction — see core::pick_canaries).
  explicit request_queue(std::size_t capacity);

  /// Enqueues `r`; `r` is left untouched on rejection. Canary pushes
  /// bypass the capacity bound but not close().
  push_result push(request& r);

  /// Pops the oldest request of the highest non-empty priority class.
  std::optional<request> try_pop();

  /// Like try_pop, but blocks up to `timeout` for a request to arrive.
  /// Wakes early when close() is called.
  std::optional<request> pop_wait(std::chrono::milliseconds timeout);

  /// Wakes all blocked pop_wait callers and rejects all further pushes
  /// (drain/shutdown). Already-queued requests stay poppable.
  void close();

  /// Queued interactive + batch requests (the capacity-bounded set).
  std::size_t depth() const;
  /// Queued requests of one class.
  std::size_t depth(priority p) const;
  /// Queued requests across all classes, canaries included.
  std::size_t total_depth() const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Pushes rejected at the capacity bound, exact by construction (same
  /// lock as the decision).
  std::uint64_t rejected_full() const;
  /// Pushes rejected because the queue was closed.
  std::uint64_t rejected_closed() const;
  /// Pushes accepted; accepted + rejected_full + rejected_closed equals
  /// the number of push() calls ever made.
  std::uint64_t accepted() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<request>, num_priorities> lanes_;
  std::size_t capacity_;
  bool closed_ = false;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_closed_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace advh::serve
