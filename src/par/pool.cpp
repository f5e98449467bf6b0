#include "par/pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace leaf::par {

namespace {

/// How long an idle thread polls for a post (or for its own job to finish)
/// before it parks on a condition variable.  Long enough to bridge the
/// serial stretches of a retrain between two nested posts (a tree's
/// small-node scans, binning): waking a parked thread costs the poster a
/// syscall, and the sleeper arrives after the work is gone.  On leafbench's
/// fleet_leaf, 50 us gave 1.09-1.29x the parent's work_per_s, 200 us and
/// 1 ms 1.27-1.40x, and 5 ms no more (BENCH_nested_par.json).  Bounded,
/// and the poll yields, so LEAF_THREADS above the core count cannot starve
/// a submitter.
constexpr auto kSpin = std::chrono::microseconds(1000);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls done() for at most kSpin, yielding now and then.
template <typename Done>
void spin_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1; !done(); ++i) {
    cpu_relax();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return;
      std::this_thread::yield();
    }
  }
}

int resolve_env_threads() {
  const char* env = std::getenv("LEAF_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
    std::fprintf(stderr,
                 "leaf::par: ignoring invalid LEAF_THREADS=%s (want 1..1024); "
                 "using hardware concurrency\n",
                 env);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

// Global pool state.  `g_mu` serializes resolution, creation and
// replacement; the hot-path reads are the two atomics.
std::mutex g_mu;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_ptr{nullptr};
std::atomic<int> g_threads{0};  // 0 = not yet resolved

int threads_locked() {
  if (g_threads.load(std::memory_order_relaxed) == 0)
    g_threads.store(resolve_env_threads(), std::memory_order_release);
  return g_threads.load(std::memory_order_relaxed);
}

}  // namespace

int threads() {
  const int t = g_threads.load(std::memory_order_acquire);
  if (t != 0) return t;
  std::lock_guard<std::mutex> lk(g_mu);
  return threads_locked();
}

void set_threads(int n) {
  std::lock_guard<std::mutex> lk(g_mu);
  assert((!g_pool || !g_pool->busy()) &&
         "par::set_threads called inside a parallel region");
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // joins any existing workers
  g_threads.store(n > 0 ? n : resolve_env_threads(),
                  std::memory_order_release);
}

ThreadPool& pool() {
  if (ThreadPool* p = g_pool_ptr.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(threads_locked() - 1);
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n_chunks = 0;
  const Job* parent = nullptr;        // job whose chunk posted this one
  std::atomic<std::size_t> next{0};   // chunk cursor
  std::atomic<int> active{0};         // helpers inside; changed under mu_
  std::exception_ptr error;           // first failure (err_mu)
  std::mutex err_mu;

  /// True when this job was posted, at any depth, from a chunk of `root`.
  /// Ancestors outlive their open descendants, so the walk is safe.
  bool nested_in(const Job* root) const {
    for (const Job* p = parent; p != nullptr; p = p->parent)
      if (p == root) return true;
    return false;
  }
};

ThreadPool::ThreadPool(int workers) {
  threads_.reserve(static_cast<std::size_t>(workers > 0 ? workers : 0));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

const ThreadPool::Job*& ThreadPool::running() {
  thread_local const Job* job = nullptr;
  return job;
}

void ThreadPool::execute_chunks(Job& job) {
  const Job*& current = running();
  const Job* const outer = current;
  current = &job;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) break;
    try {
      (*job.fn)(c);
    } catch (...) {
      std::lock_guard<std::mutex> g(job.err_mu);
      if (!job.error) job.error = std::current_exception();
    }
  }
  current = outer;
}

ThreadPool::Job* ThreadPool::claimable(const Job* within) const {
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    Job* j = *it;
    if (j->next.load(std::memory_order_relaxed) < j->n_chunks &&
        (within == nullptr || j->nested_in(within)))
      return j;
  }
  return nullptr;
}

void ThreadPool::help(Job* own, std::unique_lock<std::mutex>& lk) {
  // A waiting submitter helps only jobs nested inside its own: an outer
  // job's chunk (a whole group of shards) would bury its own, nearly done
  // chunk under far more work than it is waiting for.
  const auto finished = [&] {
    return own != nullptr ? own->active.load(std::memory_order_acquire) == 0
                          : stop_;
  };
  for (;;) {
    if (finished()) return;
    const std::uint64_t seen = posts_.load(std::memory_order_relaxed);
    if (Job* j = claimable(own)) {
      j->active.fetch_add(1, std::memory_order_relaxed);  // pins j open
      lk.unlock();
      execute_chunks(*j);
      lk.lock();
      // Last touch of j: its submitter may retire it once this reads 0.
      if (j->active.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          parked_waiters_ > 0)
        cv_wait_.notify_all();
      continue;
    }
    // Nothing to claim.  A submitter polls for its helpers to finish; a
    // worker polls for posts only while a region is open (a worker polling
    // between top-level regions would grab chunks of tiny jobs their
    // submitter finishes faster alone).  Then park.
    if (own != nullptr || open_.load(std::memory_order_relaxed) > 0) {
      lk.unlock();
      spin_until([&] {
        return posts_.load(std::memory_order_acquire) != seen ||
               (own != nullptr
                    ? own->active.load(std::memory_order_acquire) == 0
                    : open_.load(std::memory_order_relaxed) == 0);
      });
      lk.lock();
    }
    const auto woken = [&] {
      return finished() || posts_.load(std::memory_order_relaxed) != seen;
    };
    if (woken()) continue;
    if (own != nullptr) {
      ++parked_waiters_;
      cv_wait_.wait(lk, woken);
      --parked_waiters_;
    } else {
      ++parked_workers_;
      cv_work_.wait(lk, woken);
      --parked_workers_;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  help(nullptr, lk);
}

void ThreadPool::run(std::size_t n_chunks,
                     const std::function<void(std::size_t)>& fn) {
  if (n_chunks == 0) return;
  if (threads_.empty() || n_chunks == 1) {
    // Serial path: exceptions propagate naturally.
    for (std::size_t c = 0; c < n_chunks; ++c) fn(c);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n_chunks = n_chunks;
  job.parent = running();
  bool wake_workers = false, wake_waiters = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(&job);
    open_.fetch_add(1, std::memory_order_relaxed);
    posts_.fetch_add(1, std::memory_order_release);
    wake_workers = parked_workers_ > 0;
    wake_waiters = parked_waiters_ > 0;
  }
  if (wake_workers) cv_work_.notify_all();
  if (wake_waiters) cv_wait_.notify_all();

  execute_chunks(job);

  {
    // Every chunk is claimed (the cursor ran out above).  Wait, helping,
    // until no thread is inside the job, then retract it under the same
    // lock so no thread can attach to a dangling pointer.
    std::unique_lock<std::mutex> lk(mu_);
    help(&job, lk);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    open_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace leaf::par
