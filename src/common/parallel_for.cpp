#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace dare {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);

  std::atomic<std::size_t> next{0};
  // One slot per index: each is written only by the thread that ran that
  // index and read after the joins, so no lock is needed.
  std::vector<std::exception_ptr> errors(n);
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    try {
      workers.emplace_back(worker);
    } catch (const std::system_error&) {
      // Out of OS threads: the ones already running drain every index.
      if (workers.empty()) throw;
      break;
    }
  }
  for (auto& w : workers) w.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace dare
