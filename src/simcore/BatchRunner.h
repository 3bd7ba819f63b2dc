#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

/// \file BatchRunner.h
/// A thread pool that fans independent simulation trials across cores.
///
/// Each job builds and runs its own Simulation, so jobs share nothing; the
/// pool's only contract is index-based dispatch with results collected in
/// submission order. That makes a batched run's output bit-identical to the
/// same trials run serially, regardless of worker count or OS scheduling —
/// the property the Tables II-IV benches and the parity tests rely on.

namespace vg::sim {

class BatchRunner {
 public:
  /// \param workers number of pool threads; 0 means hardware_concurrency().
  explicit BatchRunner(unsigned workers = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Runs job(0) .. job(n-1) across the pool; blocks until all complete.
  /// If any job throws, the first exception (in completion order) is
  /// rethrown on the caller's thread after the batch drains.
  void run(std::size_t n, const std::function<void(std::size_t)>& job);

  /// Like run(), but collects each job's return value; results[i] always
  /// corresponds to job(i) irrespective of which worker ran it or when.
  template <typename R>
  std::vector<R> map(std::size_t n, const std::function<R(std::size_t)>& job) {
    std::vector<std::optional<R>> slots(n);
    run(n, [&](std::size_t i) { slots[i].emplace(job(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  struct Batch;
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  Batch* batch_{nullptr};  // currently dispatched batch, if any
  bool stop_{false};
};

}  // namespace vg::sim
