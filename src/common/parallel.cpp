#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace advh::parallel {

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_threads() {
  const char* env = std::getenv("ADVH_THREADS");
  if (env == nullptr) return hardware_threads();
  // A set-but-broken override fails loudly: silently dropping to the
  // hardware default would hide deployment-manifest typos.
  const auto v = static_cast<std::size_t>(parse_number(
      "ADVH_THREADS", env, {.lo = 0, .hi = max_threads, .integer = true}));
  return v == 0 ? hardware_threads() : v;
}

std::size_t resolve_threads(std::size_t requested) {
  return requested == 0 ? default_threads() : requested;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  ADVH_CHECK_MSG(fn != nullptr, "parallel_for needs a callable");
  const std::size_t workers = std::min(resolve_threads(threads), n);
  if (workers < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  const auto run_chunk = [&](std::size_t w) {
    try {
      const std::size_t end = (w + 1) * n / workers;
      for (std::size_t i = w * n / workers; i < end; ++i) fn(i, w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    // jthread joins on destruction, so a failed spawn still joins the
    // workers already started before the exception leaves this scope.
    std::vector<std::jthread> spawned;
    spawned.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      spawned.emplace_back(run_chunk, w);
    }
    run_chunk(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace advh::parallel
