#include "nn/threadpool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/metrics.h"

namespace dcdiff::nn {

namespace {

// Worker-side task latency. Observed per dispatched range, not per element,
// so the two clock reads are amortized over the whole chunk.
obs::Histogram& task_histogram() {
  static obs::Histogram& h = obs::histogram("nn.threadpool.task_seconds");
  return h;
}

// Set while this thread executes inside a parallel region (worker task or
// the caller's own share). Nested parallel_ranges calls check it and run
// inline: the pool's one-task-slot-per-worker design is not reentrant.
thread_local bool tl_in_parallel_region = false;

// The calling thread's bound partition (PoolBinding); nullptr = global pool.
thread_local ThreadPool* tl_bound_pool = nullptr;

// How long a waiting thread spins before it blocks on a condition variable
// (see the hand-off note in threadpool.h). A named constant, not an option:
// it only has to exceed the gap between dispatches of one forward.
constexpr std::chrono::microseconds kSpinBudget{100};

// Marks the current thread as inside a parallel region for one scope and
// restores the previous state on exit, exceptions included.
class ParallelRegion {
 public:
  ParallelRegion() : prev_(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~ParallelRegion() { tl_in_parallel_region = prev_; }
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  bool prev_;
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Polls that only pause the core before a spinning thread starts yielding
// it (~4 us): long enough for the back-to-back dispatches of one forward.
constexpr int kPausePolls = 64;

// Spins until done() holds or kSpinBudget has passed; returns done(). After
// the first kPausePolls polls each poll also yields the CPU, so a spinning
// thread steps aside for any other runnable thread on its core (another
// process, or a thread of this one) instead of holding it for the budget.
template <typename Done>
bool spin_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (int polls = 0; !done(); ++polls) {
    if (std::chrono::steady_clock::now() >= deadline) return done();
    if (polls < kPausePolls) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  return true;
}

// Runs fn(begin, end) as one range of a dispatch inside a parallel region
// and adds its wall time to `busy_ns`. Exceptions propagate to the caller.
void run_range(const std::function<void(int64_t, int64_t)>& fn, int64_t begin,
               int64_t end, std::atomic<uint64_t>& busy_ns) {
  ParallelRegion region;
  const auto t0 = std::chrono::steady_clock::now();
  fn(begin, end);
  busy_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
}

}  // namespace

bool pin_current_thread_to_cpu(int cpu) {
#ifdef __linux__
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) %
              std::max(1u, std::thread::hardware_concurrency()),
          &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

ThreadPool& ThreadPool::current() {
  return tl_bound_pool != nullptr ? *tl_bound_pool : instance();
}

PoolBinding::PoolBinding(ThreadPool* pool) : prev_(tl_bound_pool) {
  tl_bound_pool = pool;
}

PoolBinding::~PoolBinding() { tl_bound_pool = prev_; }

ThreadPool::ThreadPool(int num_threads, int cpu_first)
    : cpu_first_(cpu_first) {
  const int workers = std::max(0, num_threads - 1);
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(workers));
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      if (cpu_first_ >= 0) pin_current_thread_to_cpu(cpu_first_ + 1 + i);
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::await_task(const Slot& slot, uint64_t ran) {
  const auto ready = [&] {
    return stop_.load(std::memory_order_acquire) ||
           slot.generation.load(std::memory_order_acquire) != ran;
  };
  if (!spin_until(ready)) {
    // Park. parked_ is raised before the generation is re-read (both
    // seq_cst), and the dispatcher stores the generation before it reads
    // parked_: either this thread sees the new generation, or the
    // dispatcher sees a parked worker and notifies under mu_.
    std::unique_lock<std::mutex> lock(mu_);
    parked_.fetch_add(1);
    cv_.wait(lock, [&] {
      return stop_.load() || slot.generation.load() != ran;
    });
    parked_.fetch_sub(1);
  }
  return !stop_.load(std::memory_order_acquire);
}

void ThreadPool::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::move(e);
}

void ThreadPool::worker_loop(int worker_index) {
  const Slot& slot = slots_[static_cast<size_t>(worker_index)];
  uint64_t ran = 0;
  while (await_task(slot, ran)) {
    ran = slot.generation.load(std::memory_order_acquire);
    const std::function<void(int64_t, int64_t)>* fn = slot.fn;
    const int64_t begin = slot.begin;
    const int64_t end = slot.end;
    try {
      obs::ScopedLatency timer(task_histogram());
      run_range(*fn, begin, end, busy_ns_);
    } catch (...) {
      record_error(std::current_exception());
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Taking mu_ orders this notify after a caller that has checked
      // pending_ under mu_ is inside done_cv_.wait.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_ranges(
    int64_t n, const std::function<void(int64_t, int64_t)>& fn,
    int64_t grain) {
  if (n <= 0) return;
  const int total = num_threads();
  // Fan-out capped by the grain: a loop under 2 grains of work runs inline.
  const int64_t max_parts =
      grain > 1 ? std::max<int64_t>(1, n / grain) : n;
  if (total == 1 || n == 1 || max_parts == 1 || tl_in_parallel_region) {
    fn(0, n);
    return;
  }
  // One dispatch at a time: the task slots and the pending_ count describe
  // a single job. A second top-level caller (another serve worker
  // mid-batch) would otherwise overwrite live slots; it runs inline instead.
  std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
  if (!dispatch.owns_lock()) {
    static obs::Counter& contended =
        obs::counter("nn.threadpool.dispatch_contended");
    contended.inc();
    fn(0, n);
    return;
  }
  const int parts =
      static_cast<int>(std::min<int64_t>(total, std::min<int64_t>(max_parts, n)));
  const int64_t chunk = (n + parts - 1) / parts;
  // Worker i handles [i*chunk, min((i+1)*chunk, n)); caller takes part 0.
  int launched = 0;
  while (launched + 1 < parts && (launched + 1) * chunk < n) ++launched;
  pending_.store(launched, std::memory_order_relaxed);
  const uint64_t generation = ++dispatch_generation_;
  for (int i = 1; i <= launched; ++i) {
    Slot& slot = slots_[static_cast<size_t>(i - 1)];
    slot.fn = &fn;
    slot.begin = i * chunk;
    slot.end = std::min<int64_t>(n, slot.begin + chunk);
    slot.generation.store(generation);
  }
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }
  // Queue depth at dispatch time: how many ranges are waiting on workers.
  static obs::Gauge& depth = obs::gauge("nn.threadpool.queue_depth");
  static obs::Gauge& peak = obs::gauge("nn.threadpool.queue_depth_peak");
  static obs::Counter& dispatched = obs::counter("nn.threadpool.tasks");
  depth.set(static_cast<double>(launched));
  peak.set_max(static_cast<double>(launched));
  dispatched.inc(static_cast<uint64_t>(launched));
  try {
    run_range(fn, 0, std::min<int64_t>(n, chunk), busy_ns_);
  } catch (...) {
    record_error(std::current_exception());
  }
  // Every worker range must finish before returning or unwinding: they
  // hold &fn, which lives in the caller's frame.
  const auto done = [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, done);
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::vector<std::unique_ptr<ThreadPool>> partition_pools(int parts,
                                                         int total_threads,
                                                         bool pin_cpus) {
  parts = std::max(1, parts);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (total_threads <= 0) total_threads = hw;
  // Pinning a range that oversubscribes the host would stack partitions on
  // the same CPUs — worse than letting the scheduler place them.
  if (total_threads > hw) pin_cpus = false;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.reserve(static_cast<size_t>(parts));
  const int base = std::max(1, total_threads / parts);
  int remainder = std::max(0, total_threads - base * parts);
  int cpu = 0;
  for (int p = 0; p < parts; ++p) {
    const int threads = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    pools.push_back(std::make_unique<ThreadPool>(
        threads, pin_cpus && cpu + threads <= hw ? cpu : -1));
    cpu += threads;
  }
  return pools;
}

void parallel_for(int64_t n, const std::function<void(int64_t)>& fn) {
  ThreadPool::current().parallel_ranges(
      n, [&fn](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) fn(i);
      });
}

void parallel_for_ranges(int64_t n,
                         const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::current().parallel_ranges(n, fn);
}

void parallel_for_ranges(int64_t n, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::current().parallel_ranges(n, fn, grain);
}

}  // namespace dcdiff::nn
