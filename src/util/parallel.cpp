#include "util/parallel.hpp"

#include <exception>
#include <string>
#include <thread>

#include "util/error.hpp"

namespace epi {

std::size_t hardware_limit() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t workers_for(std::size_t items, std::size_t grain) {
  return std::clamp<std::size_t>(items / grain, 1, hardware_limit());
}

void run_workers(std::size_t workers,
                 const std::function<void(std::size_t)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  auto guarded = [&](std::size_t w) {
    try {
      fn(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(guarded, w);
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  guarded(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

namespace detail {
void throw_bucket_overflow(std::size_t bucket) {
  throw Error("bucket scatter: bucket " + std::to_string(bucket) +
              " holds 2^32 entries or more");
}
}  // namespace detail

}  // namespace epi
