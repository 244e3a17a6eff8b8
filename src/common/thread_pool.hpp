#pragma once

#include <cstdint>
#include <functional>

namespace bnsgcn::common {

// ---------------------------------------------------------------------------
// Process-wide worker pool for the tensor kernels.
//
// Determinism contract (docs/ARCHITECTURE.md §6, load-bearing for every
// parity/fuzz/replay gate in the repo): parallel_for splits [0, n) into
// FIXED-SIZE blocks whose geometry is a pure function of (n, block) —
// never of the thread count or of which worker happens to claim a block.
// A kernel built on it is bit-identical for every thread count as long as
//   (a) each block writes an output region disjoint from every other
//       block's, and
//   (b) the work inside one block runs in a fixed serial order.
// Every pooled kernel in tensor/ops.cpp and nn/layer.cpp satisfies both:
// each output element's accumulation order is the scalar kernel's order,
// computed entirely within one block. Dynamic block *claiming* (an atomic
// cursor, for load balance) is therefore safe: it moves blocks between
// threads, never work between blocks.
// ---------------------------------------------------------------------------

class ThreadPool {
 public:
  /// The process-wide pool. Created lazily on first use; fork-safe: a
  /// pthread_atfork child handler abandons the parent's pool (its worker
  /// threads do not survive fork(2)), so the first kernel in a forked rank
  /// process transparently builds a fresh one. The rank runtime's forked
  /// half (api::run_ranks_piped over uds/tcp) relies on this.
  [[nodiscard]] static ThreadPool& instance();

  /// Worker threads currently spawned. Grows on demand: a parallel_for
  /// asking for K lanes ensures K-1 workers exist (capped at kMaxWorkers);
  /// nothing is spawned until the first parallel call actually needs help.
  [[nodiscard]] int workers() const;

  /// Hardware core budget: std::thread::hardware_concurrency(), never
  /// below 1 (the standard allows a 0 "unknown" return).
  [[nodiscard]] static int hardware_budget();

  /// Run body(begin, end) for every block [i*block, min((i+1)*block, n))
  /// of [0, n), using the calling thread plus up to threads-1 pool
  /// workers. The caller participates (threads == 1, n <= block, or a
  /// nested call from inside any lane — a pool worker, or the caller while
  /// it runs blocks — all degrade to a plain serial loop in ascending
  /// block order). Blocks are claimed from an atomic
  /// cursor; see the class comment for why that preserves bit-exactness.
  /// The first exception thrown by any block is rethrown on the calling
  /// thread after every block has finished (no block is abandoned
  /// mid-write).
  void parallel_for(std::int64_t n, std::int64_t block, int threads,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// True on a pool worker thread (the reentrancy guard parallel_for uses
  /// to run nested calls inline instead of deadlocking on its own pool).
  [[nodiscard]] static bool on_worker_thread();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Hard cap on spawned workers — a backstop for test configurations
  /// that deliberately oversubscribe, not a tuning knob.
  static constexpr int kMaxWorkers = 64;

 private:
  ThreadPool();
  ~ThreadPool();

  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Per-thread kernel budget. The tensor kernels read this instead of taking
// a threads parameter: each trainer rank (a thread on the mailbox fabric,
// a whole process on a socket fabric) sets its budget once and every
// kernel it calls — directly or through the nn layers — inherits it.
// Results never depend on the value (see the determinism contract above);
// only wall-clock time does.
// ---------------------------------------------------------------------------

/// This thread's kernel budget (>= 1; 1 until set_ops_threads is called).
[[nodiscard]] int ops_threads();

/// Set this thread's kernel budget (values < 1 clamp to 1).
void set_ops_threads(int k);

/// The rank×thread sizing rule: the largest K such that `nranks` trainer
/// ranks running K kernel lanes each stay within the hardware budget —
/// min(requested, max(1, hardware / nranks)), with requested < 1 read as
/// 1. `hardware` == 0 means "detect" (ThreadPool::hardware_budget());
/// tests inject explicit budgets. Both runtimes apply the same rule: P
/// mailbox rank threads and P forked rank processes contend for the same
/// cores.
[[nodiscard]] int clamp_rank_threads(int requested, int nranks,
                                     int hardware = 0);

/// for_blocks: the kernel-side entry point. Serial fast path (no
/// std::function, no pool touch) when the budget is 1 or there is at most
/// one block; otherwise ThreadPool::parallel_for at this thread's
/// ops_threads() budget. `Body` is invoked as body(begin, end).
template <typename Body>
void for_blocks(std::int64_t n, std::int64_t block, Body&& body) {
  const int k = ops_threads();
  if (k <= 1 || n <= block || ThreadPool::on_worker_thread()) {
    for (std::int64_t i0 = 0; i0 < n; i0 += block)
      body(i0, i0 + block < n ? i0 + block : n);
    return;
  }
  ThreadPool::instance().parallel_for(n, block, k, body);
}

} // namespace bnsgcn::common
