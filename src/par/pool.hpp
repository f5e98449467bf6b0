// Deterministic bounded thread pool — the execution layer behind every
// parallel hot path in the repository (leaf::par).
//
// Design contract: **parallelism must never change numeric output.**  Work
// is partitioned by index, never by thread; any randomness a task needs
// comes from a counter-based Rng sub-stream derived from the task index
// (`Rng::substream`), and reductions combine per-index results in index
// order.  Under that discipline every parallel site produces bit-identical
// output at any thread count, and `LEAF_THREADS` is a pure throughput knob:
//
//   LEAF_THREADS=1   exact serial semantics (no pool threads at all);
//   LEAF_THREADS=N   bounded pool of N-1 workers plus the calling thread;
//   unset / invalid  hardware_concurrency().
//
// Every run() posts a job to a list of open jobs, innermost (most recently
// posted) last.  A chunk that itself calls a parallel_* helper posts a
// nested job there instead of looping inline, so a long chunk (one shard's
// retrain inside the fleet step) can use pool threads that would otherwise
// sit idle:
//
//   * an idle worker claims chunks of the innermost open job that still
//     has unclaimed chunks;
//   * a submitter runs its own chunks, then waits only for the threads
//     running the rest of its job, and while it waits it runs unclaimed
//     chunks of jobs nested inside its own (help-while-waiting — with one
//     worker this is the only help a worker's chunk can get);
//   * workers spin for a bounded time while some job is open, and park
//     when none is or the spin runs out; a post wakes parked threads only.
//
// Chunk -> thread assignment is scheduling-dependent, but chunk *contents*
// are a pure function of (n, chunk index), which is what determinism rests
// on.  Each job keeps its own first exception and rethrows it on its own
// submitter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace leaf::par {

/// Resolved parallelism width: LEAF_THREADS if set and valid, otherwise
/// hardware_concurrency() (minimum 1).  1 means strictly serial.  After the
/// first call this is one atomic load.
int threads();

/// Overrides the thread count at runtime (the determinism tests switch
/// between 1 and 4 within one process).  n <= 0 re-reads the environment.
/// Must not be called while a parallel region is executing (asserted).
void set_threads(int n);

class ThreadPool {
 public:
  /// Spawns `workers` helper threads (the submitting thread is worker
  /// number `workers`, so total parallelism is workers + 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// True while any job is open on this pool.
  bool busy() const { return open_.load(std::memory_order_acquire) > 0; }

  /// Executes fn(c) for every c in [0, n_chunks), distributing chunks over
  /// the workers and the calling thread.  Blocks until all chunks finished.
  /// The first exception thrown by any chunk is rethrown on the caller
  /// (remaining chunks still run, so the pool is left quiescent).  Safe to
  /// call from inside a chunk.
  void run(std::size_t n_chunks, const std::function<void(std::size_t)>& fn);

 private:
  struct Job;
  void worker_loop();
  /// Runs claimable chunks until `own` has no thread left in it (own !=
  /// nullptr, the submitter's wait) or the pool stops (a worker).
  void help(Job* own, std::unique_lock<std::mutex>& lk);
  /// Innermost job with unclaimed chunks; with `within`, only jobs nested
  /// inside it.  Requires mu_.
  Job* claimable(const Job* within) const;
  static void execute_chunks(Job& job);
  /// The job whose chunk this thread is executing (null outside any).
  static const Job*& running();

  std::vector<std::thread> threads_;
  std::mutex mu_;                    // guards jobs_, parked counts, stop_
  std::condition_variable cv_work_;  // parked workers: a job was posted
  std::condition_variable cv_wait_;  // parked submitters: post or detach
  std::vector<Job*> jobs_;           // open jobs, innermost last
  std::atomic<int> open_{0};         // jobs_.size(), readable lock-free
  std::atomic<std::uint64_t> posts_{0};  // bumped by every post
  int parked_workers_ = 0;
  int parked_waiters_ = 0;
  bool stop_ = false;
};

/// Process-wide pool sized by threads(); created lazily on first use.
ThreadPool& pool();

}  // namespace leaf::par
