#include "simcore/BatchRunner.h"

#include <algorithm>

namespace vg::sim {

/// One dispatched batch: an index cursor workers pull from, plus completion
/// bookkeeping. Lives on the caller's stack for the duration of run().
struct BatchRunner::Batch {
  std::size_t n{0};
  const std::function<void(std::size_t)>* job{nullptr};
  std::size_t next{0};       // next index to hand out (under mu_)
  std::size_t completed{0};  // jobs finished (under mu_)
  std::exception_ptr error;  // first failure, if any (under mu_)
  std::condition_variable done_cv;
};

BatchRunner::BatchRunner(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void BatchRunner::run(std::size_t n, const std::function<void(std::size_t)>& job) {
  if (n == 0) return;
  Batch batch;
  batch.n = n;
  batch.job = &job;

  std::unique_lock<std::mutex> lock(mu_);
  batch_ = &batch;
  cv_.notify_all();
  batch.done_cv.wait(lock, [&] { return batch.completed == batch.n; });
  batch_ = nullptr;
  if (batch.error) std::rethrow_exception(batch.error);
}

void BatchRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stop_ || (batch_ != nullptr && batch_->next < batch_->n);
    });
    if (stop_) return;
    Batch& b = *batch_;
    const std::size_t i = b.next++;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*b.job)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !b.error) b.error = err;
    if (++b.completed == b.n) b.done_cv.notify_all();
  }
}

}  // namespace vg::sim
