// Deterministic parallel execution primitives.
//
// The measurement hot paths (template collection, evaluation sweeps, GMM
// bank fitting) are embarrassingly parallel over independent items. The
// engine here is intentionally work-stealing-free: parallel_for splits
// [0, n) into one contiguous chunk per worker, so which worker processes
// which item is a pure function of (n, workers) and never of timing. As
// long as each item's computation depends only on per-item state (the
// measurement engine derives per-sample RNG streams for exactly this
// reason), results are bitwise identical at any worker count, including 1.
#pragma once

#include <cstddef>
#include <functional>

namespace advh::parallel {

/// Ceiling on any requested worker count (ADVH_THREADS or a --threads
/// flag): far above any real machine, low enough to catch unit-confused
/// values (e.g. a millicore count pasted from a container spec).
inline constexpr std::size_t max_threads = 4096;

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t hardware_threads() noexcept;

/// The ambient worker count: ADVH_THREADS when set (ADVH_THREADS=0 means
/// "all cores"), otherwise hardware_threads(). A set-but-invalid
/// ADVH_THREADS — negative, non-numeric, trailing garbage, or an
/// implausibly large count — throws std::invalid_argument instead of
/// silently falling back: a typo in a deployment manifest should fail
/// loudly, not quietly serialise the measurement engine.
std::size_t default_threads();

/// Resolves a user-requested thread count: 0 means default_threads()
/// (which honours — and validates — the ADVH_THREADS override), anything
/// else is taken literally.
std::size_t resolve_threads(std::size_t requested);

/// Fork/join chunked loop: fn(index, worker) for every index in [0, n).
/// With W = min(resolve_threads(threads), n) workers, worker w runs the
/// contiguous chunk [w*n/W, (w+1)*n/W): the caller's thread is worker 0,
/// W - 1 threads are started for the rest and joined before returning.
/// There is no task queue and no stealing. Serial (worker 0 on the
/// caller, no thread started) when W < 2. A worker whose fn throws
/// abandons the rest of its chunk while the others finish theirs; after
/// the join the lowest-numbered failing worker's exception is rethrown,
/// so which error surfaces never depends on timing.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t index,
                                           std::size_t worker)>& fn);

}  // namespace advh::parallel
