// Persistent thread pool with a deterministic parallel_for.
//
// Work is split into contiguous index ranges, one per worker, so each output
// element is written by exactly one thread: results are bit-identical to the
// serial execution regardless of scheduling.
//
// Hand-off: spin, then park. A model forward issues hundreds of dispatches
// whose bodies are often shorter than a condvar/futex wake-up (tens of
// microseconds), so a worker that has finished its range spins on its task
// slot's atomic dispatch generation for a fixed budget (kSpinBudget, 100 us
// of steady clock) before it parks on a condition variable. The budget
// covers the gap between back-to-back dispatches of one forward, so a busy
// pool hands work over without a futex wake-up; it also caps what an idle
// pool burns at one budget per worker after its last dispatch. Past its
// first few microseconds the spin yields the CPU on every poll, so it steps
// aside for other runnable threads on a loaded host. The dispatcher takes
// the mutex and notifies only when some worker is parked, and the caller,
// after running its own range, spins on the atomic pending count for the
// same budget before it waits for the workers on a condvar.
//
// Partitioning: the process-wide pool (`instance()`) serves single-tenant
// workloads. Multi-tenant callers (the serving engine's workers) instead
// carve the machine into independent pools via `partition_pools` and
// bind one to each tenant thread with `PoolBinding`: every `parallel_for`
// issued from that thread (however deep in the model) then runs on the
// tenant's own disjoint worker set instead of contending for the global
// pool's single dispatch slot. Each partition's workers own their own
// thread-local Workspace arenas, so partitions never share scratch memory.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcdiff::nn {

class ThreadPool {
 public:
  // Global pool sized to the hardware concurrency (at least 1 worker).
  static ThreadPool& instance();

  // The pool `parallel_for`/`parallel_for_ranges` dispatch to from the
  // calling thread: the thread's bound partition when a PoolBinding is
  // active, the global instance() otherwise.
  static ThreadPool& current();

  // `num_threads` counts the calling thread: the pool spawns num_threads - 1
  // workers. When `cpu_first` >= 0 worker i is pinned to CPU
  // cpu_first + 1 + i (Linux; ignored elsewhere) — the caller that drives
  // this pool is expected to pin itself to `cpu_first` (see
  // pin_current_thread_to_cpu), giving the pool a disjoint CPU range.
  explicit ThreadPool(int num_threads, int cpu_first = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }
  // First CPU of this pool's pinned range (-1 when unpinned).
  int cpu_first() const { return cpu_first_; }

  // Cumulative wall time this pool's threads (workers plus the calling
  // thread's own range shares) have spent inside dispatched loop bodies.
  // Utilization over an interval is delta busy / (delta wall * num_threads);
  // the serving engine reads it per worker at export time
  // (dcdiff_serve_worker_pool_busy_seconds_total{worker="i"}).
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  // Calls fn(begin, end) on disjoint ranges covering [0, n). The calling
  // thread participates. Blocks until all ranges are done. `grain` bounds
  // fan-out from below: no more than n / grain ranges are dispatched, so
  // small loops don't pay full dispatch cost (grain <= 1 means one range
  // per worker). Nested calls — from a worker, or from fn on the calling
  // thread — run the whole loop inline instead of deadlocking the pool.
  // Concurrent top-level callers (e.g. two serve workers batching model
  // forwards at once) are safe: the pool's task slots serve one dispatch at
  // a time, and a caller that finds them busy runs its loop inline rather
  // than waiting — losers degrade to serial, they never corrupt the pool.
  // If fn throws on any range, every range still runs to completion (or to
  // its own throw) and the first exception recorded is rethrown here, on
  // the calling thread, after all workers are done with `fn`.
  void parallel_ranges(int64_t n,
                       const std::function<void(int64_t, int64_t)>& fn,
                       int64_t grain = 1);

 private:
  // One worker's task slot, on its own cache line. The dispatcher writes
  // fn/begin/end, then publishes them by storing a new `generation`; the
  // worker runs the slot when `generation` differs from the last one it ran.
  struct alignas(64) Slot {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    std::atomic<uint64_t> generation{0};
  };

  void worker_loop(int worker_index);
  // Blocks (spin, then park) until `slot` carries a generation other than
  // `ran` or the pool stops; returns false on stop.
  bool await_task(const Slot& slot, uint64_t ran);
  void record_error(std::exception_ptr e);

  std::atomic<uint64_t> busy_ns_{0};
  std::unique_ptr<Slot[]> slots_;  // one per worker
  // Held for the duration of one dispatch (slot writes through completion
  // wait). try_lock only: a busy pool means the caller runs inline.
  std::mutex dispatch_mu_;
  uint64_t dispatch_generation_ = 0;  // guarded by dispatch_mu_
  std::atomic<int> pending_{0};       // worker ranges of this dispatch not done
  std::atomic<int> parked_{0};        // workers waiting on cv_
  std::atomic<bool> stop_{false};
  std::mutex mu_;  // pairs with cv_ / done_cv_; guards error_
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;
  int cpu_first_ = -1;
  // Last: workers start in the constructor and use every member above.
  std::vector<std::thread> workers_;
};

// RAII: binds `pool` as the calling thread's current() pool for the scope
// (nullptr rebinds the global instance()). Bindings nest; each scope restores
// the previous binding on destruction. The binding is thread-local: a serve
// worker binds its partition once and every nested parallel loop it issues —
// model forward, im2col, GEMM tiles — lands on that partition.
class PoolBinding {
 public:
  explicit PoolBinding(ThreadPool* pool);
  ~PoolBinding();
  PoolBinding(const PoolBinding&) = delete;
  PoolBinding& operator=(const PoolBinding&) = delete;

 private:
  ThreadPool* prev_;
};

// Splits `total_threads` compute threads (0 = hardware concurrency) into
// `parts` independent pools, distributing any remainder to the first pools so
// every thread is owned by exactly one partition. With `pin_cpus` true (and
// total_threads not oversubscribing the host) partition p's threads are
// pinned to the contiguous CPU range its predecessors left off at; the thread
// that drives partition p should pin itself to pools[p]->cpu_first().
std::vector<std::unique_ptr<ThreadPool>> partition_pools(
    int parts, int total_threads = 0, bool pin_cpus = false);

// Pins the calling thread to `cpu` (Linux sched affinity; returns false and
// does nothing on other platforms or on failure).
bool pin_current_thread_to_cpu(int cpu);

// Convenience: parallel loop over [0, n) with per-element fn. Dispatches to
// ThreadPool::current() — the calling thread's bound partition, if any.
void parallel_for(int64_t n, const std::function<void(int64_t)>& fn);
// Range form (preferred for hot loops: avoids per-element std::function call).
void parallel_for_ranges(int64_t n,
                         const std::function<void(int64_t, int64_t)>& fn);
// Grain-aware range form: dispatches at most n / grain ranges (min 1), so
// loops whose per-element work is tiny stay serial below the grain.
void parallel_for_ranges(int64_t n, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn);

}  // namespace dcdiff::nn
