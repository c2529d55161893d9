// The shard pool's spawn/join helper (DESIGN.md §14), shared by the
// sharded cost-model build (core/sharded_cost_model.hpp) and the epoch
// loop's hour-0 solve and shard phase (sim/sharded.hpp).
#pragma once

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#if defined(PPDC_HAVE_OPENMP)
#include <omp.h>
#endif

namespace ppdc {

/// Runs `body(s)` for every shard s on up to `pool` threads, or in shard
/// order on the calling thread when `pool` <= 1, and returns the error of
/// the first failing shard in shard order (null when none failed). Workers
/// pull shards from a shared counter and stop pulling once `stop()` turns
/// true; the serial path also stops at its first error. Shards touch only
/// their own state, so the outcome is the same at every pool size.
template <class Body, class Stop>
std::exception_ptr for_each_shard(int num_shards, int pool, Body&& body,
                                  Stop&& stop) {
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_shards));
  if (pool <= 1) {
    for (int s = 0; s < num_shards; ++s) {
      if (stop()) break;
      try {
        body(s);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
        break;
      }
    }
  } else {
    std::atomic<int> next{0};
    auto worker = [&]() noexcept {
#if defined(PPDC_HAVE_OPENMP)
      // The pool already occupies the cores: a worker runs its shards'
      // OpenMP kernels on itself instead of opening a nested team each.
      omp_set_num_threads(1);
#endif
      for (;;) {
        if (stop()) return;
        const int s = next.fetch_add(1, std::memory_order_relaxed);
        if (s >= num_shards) return;
        try {
          body(s);
        } catch (...) {
          errors[static_cast<std::size_t>(s)] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(pool));
    for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) return e;
  }
  return nullptr;
}

}  // namespace ppdc
