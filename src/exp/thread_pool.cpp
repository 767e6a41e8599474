#include "exp/thread_pool.hpp"

#include <cstdlib>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pmsb::exp {

bool pin_current_thread(unsigned cpu) {
#if defined(__linux__)
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool pin_threads_env() {
  static const bool on = [] {
    const char* v = std::getenv("PMSB_PIN_THREADS");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return on;
}

ThreadPool::ThreadPool(unsigned threads, ThreadPoolOptions opts) : opts_(std::move(opts)) {
  PMSB_CHECK(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  // Return only once every worker's start hook has run, so placement (and
  // any other per-thread setup) is in effect before the first submit().
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this, threads] { return started_ == threads; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  PMSB_CHECK(queue_.empty(), "thread pool joined with work still queued");
}

void ThreadPool::submit(std::function<void()> fn) {
  PMSB_CHECK(fn != nullptr, "null task submitted to thread pool");
  {
    std::lock_guard<std::mutex> lk(mu_);
    PMSB_CHECK(!shutdown_, "submit() after thread pool shutdown began");
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(unsigned index) {
  if (opts_.on_worker_start) opts_.on_worker_start(index);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++started_;
  }
  idle_cv_.notify_all();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return !queue_.empty() || shutdown_; });
      // Graceful shutdown: exit only once the queue has fully drained.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace pmsb::exp
