//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>

using namespace halo;

//===----------------------------------------------------------------------===//
// BoundedWorkQueue
//===----------------------------------------------------------------------===//

BoundedWorkQueue::BoundedWorkQueue(size_t Capacity)
    : Capacity(std::max<size_t>(1, Capacity)) {}

bool BoundedWorkQueue::push(std::function<void()> Task) {
  if (support::faultHit("queue.push"))
    return false; // Injected spurious rejection (reads as closed/full).
  {
    support::MutexLock Lock(Mutex);
    while (!Closed && Tasks.size() >= Capacity)
      NotFull.wait(Mutex);
    if (Closed)
      return false;
    Tasks.push(std::move(Task));
    Peak = std::max(Peak, Tasks.size());
  }
  NotEmpty.notify_one();
  return true;
}

bool BoundedWorkQueue::tryPush(std::function<void()> Task) {
  if (support::faultHit("queue.push"))
    return false; // Injected spurious rejection (reads as closed/full).
  {
    support::MutexLock Lock(Mutex);
    if (Closed || Tasks.size() >= Capacity)
      return false;
    Tasks.push(std::move(Task));
    Peak = std::max(Peak, Tasks.size());
  }
  NotEmpty.notify_one();
  return true;
}

std::function<void()> BoundedWorkQueue::pop() {
  std::function<void()> Task;
  {
    support::MutexLock Lock(Mutex);
    while (!Closed && Tasks.empty())
      NotEmpty.wait(Mutex);
    if (Tasks.empty())
      return nullptr; // Closed and drained.
    Task = std::move(Tasks.front());
    Tasks.pop();
  }
  NotFull.notify_one();
  return Task;
}

void BoundedWorkQueue::close() {
  {
    support::MutexLock Lock(Mutex);
    // Idempotent: a second (possibly racing) close() must not re-notify —
    // consumers between "saw Closed+empty" and returning rely on no
    // further wakeups arriving once the first close() has run.
    if (Closed)
      return;
    Closed = true;
  }
  NotFull.notify_all();
  NotEmpty.notify_all();
}

bool BoundedWorkQueue::closed() const {
  support::MutexLock Lock(Mutex);
  return Closed;
}

size_t BoundedWorkQueue::size() const {
  support::MutexLock Lock(Mutex);
  return Tasks.size();
}

size_t BoundedWorkQueue::peakDepth() const {
  support::MutexLock Lock(Mutex);
  return Peak;
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

ThreadPool::ThreadPool(unsigned NumThreads, SingleThread Mode) {
  NumWorkers = std::max(1u, NumThreads);
  // A single-threaded pool runs everything inline by default; no workers
  // needed. Queue drainers need a real thread even at NumWorkers == 1.
  if (NumWorkers == 1 && Mode == SingleThread::Inline)
    return;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    support::MutexLock Lock(Mutex);
    ShuttingDown = true;
  }
  TaskAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      support::MutexLock Lock(Mutex);
      while (!ShuttingDown && Tasks.empty())
        TaskAvailable.wait(Mutex);
      if (Tasks.empty())
        return;
      Task = std::move(Tasks.front());
      Tasks.pop();
      ++Active;
    }
    Task();
    {
      support::MutexLock Lock(Mutex);
      --Active;
      if (Tasks.empty() && Active == 0)
        AllDone.notify_all();
    }
  }
}

void ThreadPool::run(std::function<void()> Task) {
  if (Workers.empty()) {
    Task();
    return;
  }
  {
    support::MutexLock Lock(Mutex);
    Tasks.push(std::move(Task));
  }
  TaskAvailable.notify_one();
}

void ThreadPool::wait() {
  if (Workers.empty())
    return;
  support::MutexLock Lock(Mutex);
  while (!Tasks.empty() || Active != 0)
    AllDone.wait(Mutex);
}

void ThreadPool::parallelFor(int64_t Lo, int64_t Hi,
                             const std::function<void(int64_t)> &Body) {
  parallelForBlocked(Lo, Hi, [&Body](int64_t BLo, int64_t BHi, unsigned) {
    for (int64_t I = BLo; I != BHi; ++I)
      Body(I);
  });
}

bool ThreadPool::parallelAllOf(
    int64_t Lo, int64_t Hi,
    const std::function<bool(int64_t, int64_t, unsigned, std::atomic<bool> &)>
        &Body,
    const support::CancelToken *Cancel) {
  std::atomic<bool> Stop{false};
  if (Lo >= Hi)
    return true;
  if (support::stopRequested(Cancel))
    return false;
  const int64_t Count = Hi - Lo;
  if (Workers.empty() || Count == 1)
    return Body(Lo, Hi, 0, Stop);
  std::atomic<bool> AllOk{true};
  const unsigned NumBlocks =
      static_cast<unsigned>(std::min<int64_t>(NumWorkers, Count));
  const int64_t Chunk = (Count + NumBlocks - 1) / NumBlocks;
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const int64_t BLo = Lo + static_cast<int64_t>(B) * Chunk;
    const int64_t BHi = std::min<int64_t>(BLo + Chunk, Hi);
    if (BLo >= BHi)
      break;
    run([&Body, &Stop, &AllOk, Cancel, BLo, BHi, B] {
      // Chunk-boundary cancellation poll: a fired token fails the
      // reduction without running the block, and Stop lets in-flight
      // sibling blocks bail at their own per-iteration frontier checks.
      if (support::stopRequested(Cancel) ||
          !Body(BLo, BHi, B, Stop)) {
        AllOk.store(false, std::memory_order_relaxed);
        Stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  wait();
  return AllOk.load(std::memory_order_relaxed);
}

void ThreadPool::parallelForBlocked(
    int64_t Lo, int64_t Hi,
    const std::function<void(int64_t, int64_t, unsigned)> &Body) {
  if (Lo >= Hi)
    return;
  const int64_t Count = Hi - Lo;
  if (Workers.empty() || Count == 1) {
    Body(Lo, Hi, 0);
    return;
  }
  const unsigned NumBlocks =
      static_cast<unsigned>(std::min<int64_t>(NumWorkers, Count));
  const int64_t Chunk = (Count + NumBlocks - 1) / NumBlocks;
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const int64_t BLo = Lo + static_cast<int64_t>(B) * Chunk;
    const int64_t BHi = std::min<int64_t>(BLo + Chunk, Hi);
    if (BLo >= BHi)
      break;
    run([&Body, BLo, BHi, B] { Body(BLo, BHi, B); });
  }
  wait();
}
