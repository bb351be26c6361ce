//===- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with a blocked-range parallelFor, plus a
/// bounded MPMC work queue the pool can drain. This is the execution
/// substrate standing in for the paper's OpenMP runtime: the executor
/// (src/rt) maps conditionally-parallelized loops onto it, and the serving
/// layer (src/serve) feeds execution requests through the bounded queue.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_THREADPOOL_H
#define HALO_SUPPORT_THREADPOOL_H

#include "support/CancelToken.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

namespace halo {

/// Bounded multi-producer / multi-consumer queue of tasks.
///
/// The serving layer's backpressure point: `push` blocks while the queue
/// is at capacity (closed-loop clients slow down instead of ballooning
/// memory), `tryPush` fails instead (load-shedding callers count a
/// rejection), and `pop` blocks until a task arrives or the queue is
/// closed. After close(), producers are refused but consumers still drain
/// every task already queued — pop() returns an empty function only once
/// the queue is both closed and empty, so no accepted task is dropped.
///
/// Shutdown ordering contract (what serve::Engine::shutdown() relies on):
///   1. close() the queue — new producers are refused from this point on;
///   2. wait for consumers to drain (every pop() eventually returns empty,
///      exactly once per consumer, after the backlog is exhausted);
///   3. join/destroy the consumers.
/// close() is strictly idempotent: a second (or racing) close() is a
/// no-op — it neither re-notifies nor disturbs consumers mid-drain — so
/// an explicit shutdown() racing a destructor, or two shutdown() calls,
/// is safe. Producers may race close() freely: each push either lands
/// before the close (and will be drained) or returns false.
class BoundedWorkQueue {
public:
  /// \p Capacity is the maximum number of queued (not yet popped) tasks;
  /// it must be >= 1.
  explicit BoundedWorkQueue(size_t Capacity);

  BoundedWorkQueue(const BoundedWorkQueue &) = delete;
  BoundedWorkQueue &operator=(const BoundedWorkQueue &) = delete;

  /// Enqueues \p Task, blocking while the queue is full. Returns false
  /// (without enqueueing) when the queue is closed.
  bool push(std::function<void()> Task);

  /// Enqueues \p Task only if there is room right now. Returns false when
  /// the queue is full or closed.
  bool tryPush(std::function<void()> Task);

  /// Dequeues the oldest task, blocking while the queue is empty and open.
  /// Returns an empty function when the queue is closed and fully drained.
  std::function<void()> pop();

  /// Closes the queue: subsequent pushes fail, pending pops drain the
  /// remaining tasks and then return empty. Idempotent.
  void close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }
  /// High-water mark of the queue depth (serving-pressure telemetry).
  size_t peakDepth() const;

private:
  const size_t Capacity;
  /// Guards every mutable field below (the queue is one monitor).
  mutable support::Mutex Mutex;
  support::CondVar NotFull;
  support::CondVar NotEmpty;
  std::queue<std::function<void()>> Tasks HALO_GUARDED_BY(Mutex);
  size_t Peak HALO_GUARDED_BY(Mutex) = 0;
  bool Closed HALO_GUARDED_BY(Mutex) = false;
};

/// Fixed-size pool of worker threads.
///
/// Workers are spawned once in the constructor and joined in the destructor;
/// `run` enqueues a task, `parallelFor` splits an iteration range into one
/// contiguous chunk per worker and blocks until all chunks finish. With
/// NumThreads == 1 `parallelFor` degenerates to an inline sequential loop so
/// that single-threaded baselines pay no synchronization cost.
///
/// Concurrent parallelFor/parallelForBlocked/parallelAllOf callers on one
/// pool do not corrupt each other (the task queue is locked; every chunk
/// runs exactly once), but completion is NOT tracked per call: each
/// caller returns via wait(), which blocks until the pool is *globally*
/// idle. Under sustained load from other callers that wait can be
/// arbitrarily long. Callers that need isolated completion (e.g.
/// per-request fan-out under the serving engine) should use
/// NumThreads == 1 sessions (inline) or dedicated pools.
class ThreadPool {
public:
  /// Whether a 1-thread pool executes run() inline on the caller (the
  /// default, so single-threaded baselines pay no synchronization) or
  /// still spawns a real worker (required by long-running tasks such as
  /// serve::Engine's request-queue drainers, which would otherwise block
  /// the caller forever).
  enum class SingleThread { Inline, Spawn };

  explicit ThreadPool(unsigned NumThreads,
                      SingleThread Mode = SingleThread::Inline);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return Workers.empty() ? 1 : NumWorkers; }

  /// Enqueues \p Task for asynchronous execution.
  void run(std::function<void()> Task);

  /// Blocks until every enqueued task has completed.
  void wait();

  /// Executes Body(I) for I in [Lo, Hi) across the pool, one contiguous
  /// block per worker, and blocks until all blocks are done.
  void parallelFor(int64_t Lo, int64_t Hi,
                   const std::function<void(int64_t)> &Body);

  /// Block-level variant: Body(BlockLo, BlockHi, WorkerIndex) is invoked
  /// once per chunk. Useful for per-thread accumulators (reductions).
  void parallelForBlocked(
      int64_t Lo, int64_t Hi,
      const std::function<void(int64_t, int64_t, unsigned)> &Body);

  /// Chunked parallel and-reduction over [Lo, Hi): Body(BlockLo, BlockHi,
  /// BlockIndex, Stop) evaluates one contiguous block and returns false to
  /// fail the reduction. Stop is raised as soon as any block fails so
  /// sibling blocks can bail out mid-range; every block is still invoked
  /// (callers that need exact first-failure semantics, like the compiled
  /// LoopAll evaluator, track their own failure frontier and may ignore
  /// Stop). Block indices are < numThreads(). Returns true iff every block
  /// returned true. Single-threaded pools run the whole range inline.
  ///
  /// \p Cancel, when non-null, is polled at the existing chunk
  /// boundaries: a fired token suppresses blocks that have not started
  /// yet (they count as failed and raise Stop) and makes the call return
  /// false. Callers that must distinguish "reduction is false" from
  /// "cancelled" re-check the token after the call and discard the
  /// result — a cancelled evaluation has no answer.
  bool parallelAllOf(int64_t Lo, int64_t Hi,
                     const std::function<bool(int64_t, int64_t, unsigned,
                                              std::atomic<bool> &)> &Body,
                     const support::CancelToken *Cancel = nullptr);

private:
  void workerLoop();

  unsigned NumWorkers = 1;
  /// Immutable after the constructor returns (worker threads are spawned
  /// once and joined in the destructor), so reads need no lock.
  std::vector<std::thread> Workers;
  /// Guards the task queue and its idle accounting (one monitor).
  support::Mutex Mutex;
  std::queue<std::function<void()>> Tasks HALO_GUARDED_BY(Mutex);
  support::CondVar TaskAvailable;
  support::CondVar AllDone;
  unsigned Active HALO_GUARDED_BY(Mutex) = 0;
  bool ShuttingDown HALO_GUARDED_BY(Mutex) = false;
};

} // namespace halo

#endif // HALO_SUPPORT_THREADPOOL_H
