//===- tests/support_test.cpp - Support library unit tests ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/CancelToken.h"
#include "support/Casting.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Sync.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace halo;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Base {
  enum class Kind { A, B } K;
  explicit Base(Kind K) : K(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::A; }
};
struct DerivedB : Base {
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::B; }
};

TEST(CastingTest, IsaAndDynCast) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_NE(dyn_cast<DerivedA>(B), nullptr);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  EXPECT_EQ(cast<DerivedA>(B), &A);
}

TEST(CastingTest, ConstVariants) {
  const DerivedB D;
  const Base *B = &D;
  EXPECT_TRUE(isa<DerivedB>(B));
  EXPECT_EQ(cast<DerivedB>(B), &D);
  EXPECT_EQ(dyn_cast<DerivedA>(B), nullptr);
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(HashingTest, CombineIsOrderSensitive) {
  size_t H1 = 0, H2 = 0;
  hashCombine(H1, size_t(1));
  hashCombine(H1, size_t(2));
  hashCombine(H2, size_t(2));
  hashCombine(H2, size_t(1));
  EXPECT_NE(H1, H2);
}

TEST(HashingTest, RangeHashingMatchesElementwise) {
  std::vector<int> V{3, 1, 4, 1, 5};
  size_t HR = 0, HE = 0;
  hashRange(HR, V.begin(), V.end());
  for (int X : V)
    hashCombine(HE, std::hash<int>{}(X));
  EXPECT_EQ(HR, HE);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u); // All five values appear.
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunAndWait) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 64; ++I)
    Pool.run([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, BlockedVariantPartitionsContiguously) {
  ThreadPool Pool(4);
  std::mutex Mu;
  std::vector<std::pair<int64_t, int64_t>> Blocks;
  Pool.parallelForBlocked(0, 100, [&](int64_t Lo, int64_t Hi, unsigned) {
    std::lock_guard<std::mutex> G(Mu);
    Blocks.emplace_back(Lo, Hi);
  });
  std::sort(Blocks.begin(), Blocks.end());
  int64_t Next = 0;
  for (auto &[Lo, Hi] : Blocks) {
    EXPECT_EQ(Lo, Next);
    EXPECT_GT(Hi, Lo);
    Next = Hi;
  }
  EXPECT_EQ(Next, 100);
}

TEST(ThreadPoolTest, MoreBlocksThanItemsIsSafe) {
  ThreadPool Pool(8);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 3, [&](int64_t) { ++Count; });
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPoolTest, NestedWaitDoesNotDeadlock) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 4, [&](int64_t) { ++Count; });
  Pool.parallelFor(0, 4, [&](int64_t) { ++Count; });
  EXPECT_EQ(Count.load(), 8);
}

TEST(ThreadPoolTest, ParallelAllOfAllTrueCoversRange) {
  ThreadPool Pool(4);
  std::mutex Mu;
  std::vector<std::pair<int64_t, int64_t>> Blocks;
  bool Ok = Pool.parallelAllOf(
      0, 100, [&](int64_t Lo, int64_t Hi, unsigned W, std::atomic<bool> &) {
        EXPECT_LT(W, Pool.numThreads());
        std::lock_guard<std::mutex> G(Mu);
        Blocks.emplace_back(Lo, Hi);
        return true;
      });
  EXPECT_TRUE(Ok);
  std::sort(Blocks.begin(), Blocks.end());
  int64_t Next = 0;
  for (auto &[Lo, Hi] : Blocks) {
    EXPECT_EQ(Lo, Next);
    Next = Hi;
  }
  EXPECT_EQ(Next, 100);
}

TEST(ThreadPoolTest, ParallelAllOfFailingBlockFailsReduction) {
  ThreadPool Pool(4);
  bool Ok = Pool.parallelAllOf(
      0, 1000, [&](int64_t Lo, int64_t, unsigned, std::atomic<bool> &) {
        return Lo != 0; // The first block votes false.
      });
  EXPECT_FALSE(Ok);
}

TEST(ThreadPoolTest, ParallelAllOfRaisesStopForEarlyExit) {
  ThreadPool Pool(2);
  std::atomic<bool> SawStop{false};
  bool Ok = Pool.parallelAllOf(
      0, 2, [&](int64_t Lo, int64_t, unsigned, std::atomic<bool> &Stop) {
        if (Lo == 0)
          return false; // Fails immediately; the pool must raise Stop.
        // The sibling block spins until it observes the early-exit flag
        // (bounded so a regression fails instead of hanging).
        for (long I = 0; I < 2000000000L; ++I)
          if (Stop.load(std::memory_order_relaxed)) {
            SawStop = true;
            return true;
          }
        return true;
      });
  EXPECT_FALSE(Ok);
  EXPECT_TRUE(SawStop.load());
}

TEST(ThreadPoolTest, ParallelAllOfSingleThreadRunsInline) {
  ThreadPool Pool(1);
  std::vector<std::pair<int64_t, int64_t>> Blocks;
  bool Ok = Pool.parallelAllOf(
      0, 10, [&](int64_t Lo, int64_t Hi, unsigned W, std::atomic<bool> &) {
        EXPECT_EQ(W, 0u);
        Blocks.emplace_back(Lo, Hi);
        return true;
      });
  EXPECT_TRUE(Ok);
  ASSERT_EQ(Blocks.size(), 1u);
  EXPECT_EQ(Blocks[0], std::make_pair(int64_t(0), int64_t(10)));
  EXPECT_TRUE(Pool.parallelAllOf(
      5, 5, [&](int64_t, int64_t, unsigned, std::atomic<bool> &) {
        ADD_FAILURE() << "empty range must not invoke the body";
        return false;
      }));
}

//===----------------------------------------------------------------------===//
// BoundedWorkQueue (the serving layer's request queue)
//===----------------------------------------------------------------------===//

TEST(BoundedWorkQueueTest, FifoOrderAndDepthTelemetry) {
  BoundedWorkQueue Q(8);
  std::vector<int> Ran;
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Q.push([&Ran, I] { Ran.push_back(I); }));
  EXPECT_EQ(Q.size(), 3u);
  EXPECT_EQ(Q.peakDepth(), 3u);
  for (int I = 0; I < 3; ++I)
    Q.pop()();
  EXPECT_EQ(Ran, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Q.size(), 0u);
  EXPECT_EQ(Q.peakDepth(), 3u); // High-water mark survives the drain.
}

TEST(BoundedWorkQueueTest, TryPushShedsAtCapacity) {
  // Deterministic backpressure: no consumer exists, so capacity is hit
  // exactly.
  BoundedWorkQueue Q(2);
  EXPECT_TRUE(Q.tryPush([] {}));
  EXPECT_TRUE(Q.tryPush([] {}));
  EXPECT_FALSE(Q.tryPush([] {})); // Full: shed.
  (void)Q.pop()();
  EXPECT_TRUE(Q.tryPush([] {})); // A pop made room again.
}

TEST(BoundedWorkQueueTest, CloseRefusesProducersButDrainsConsumers) {
  BoundedWorkQueue Q(4);
  int Ran = 0;
  EXPECT_TRUE(Q.push([&Ran] { ++Ran; }));
  EXPECT_TRUE(Q.push([&Ran] { ++Ran; }));
  Q.close();
  EXPECT_TRUE(Q.closed());
  EXPECT_FALSE(Q.push([&Ran] { ++Ran; }));    // Refused.
  EXPECT_FALSE(Q.tryPush([&Ran] { ++Ran; })); // Refused.
  // The two accepted tasks still drain; then pop reports exhaustion.
  while (std::function<void()> T = Q.pop())
    T();
  EXPECT_EQ(Ran, 2);
  EXPECT_EQ(Q.pop(), nullptr); // Stays exhausted (no spurious tasks).
}

TEST(BoundedWorkQueueTest, MpmcStressConsumesEveryTaskExactlyOnce) {
  // 3 producers x 3 consumers through a tiny queue: every task must run
  // exactly once, with producers blocking at capacity (TSan covers the
  // handoff).
  BoundedWorkQueue Q(4);
  const int PerProducer = 64;
  std::atomic<int> Ran{0};
  std::vector<std::thread> Consumers;
  for (int C = 0; C < 3; ++C)
    Consumers.emplace_back([&Q] {
      while (std::function<void()> T = Q.pop())
        T();
    });
  std::vector<std::thread> Producers;
  for (int P = 0; P < 3; ++P)
    Producers.emplace_back([&Q, &Ran] {
      for (int I = 0; I < PerProducer; ++I)
        EXPECT_TRUE(Q.push([&Ran] { ++Ran; }));
    });
  for (std::thread &T : Producers)
    T.join();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();
  EXPECT_EQ(Ran.load(), 3 * PerProducer);
}

TEST(BoundedWorkQueueTest, PeakDepthIsMonotoneUnderMpmcStress) {
  // peakDepth() is a high-water mark: under concurrent producers,
  // consumers and samplers it must never appear to move backwards (each
  // thread's successive samples are non-decreasing) and must stay within
  // [deepest observed size, capacity].
  BoundedWorkQueue Q(16);
  const int PerProducer = 200;
  std::atomic<int> Ran{0};
  std::atomic<bool> Monotone{true};
  std::atomic<size_t> DeepestSeen{0};

  std::vector<std::thread> Consumers;
  for (int C = 0; C < 2; ++C)
    Consumers.emplace_back([&] {
      size_t LastPeak = 0;
      while (std::function<void()> T = Q.pop()) {
        T();
        const size_t Pk = Q.peakDepth();
        if (Pk < LastPeak)
          Monotone.store(false, std::memory_order_relaxed);
        LastPeak = Pk;
      }
    });
  std::vector<std::thread> Producers;
  for (int P = 0; P < 3; ++P)
    Producers.emplace_back([&] {
      size_t LastPeak = 0;
      for (int I = 0; I < PerProducer; ++I) {
        EXPECT_TRUE(Q.push([&Ran] { ++Ran; }));
        const size_t Sz = Q.size();
        size_t Prev = DeepestSeen.load(std::memory_order_relaxed);
        while (Sz > Prev &&
               !DeepestSeen.compare_exchange_weak(
                   Prev, Sz, std::memory_order_relaxed))
          ;
        const size_t Pk = Q.peakDepth();
        if (Pk < LastPeak)
          Monotone.store(false, std::memory_order_relaxed);
        LastPeak = Pk;
      }
    });
  for (std::thread &T : Producers)
    T.join();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();

  EXPECT_TRUE(Monotone.load());
  EXPECT_EQ(Ran.load(), 3 * PerProducer);
  EXPECT_GE(Q.peakDepth(), DeepestSeen.load());
  EXPECT_LE(Q.peakDepth(), Q.capacity());
  EXPECT_GE(Q.peakDepth(), 1u);
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelTokenTest, DefaultIsLiveAndCancelLatches) {
  support::CancelToken T;
  EXPECT_EQ(T.state(), support::CancelToken::State::Live);
  EXPECT_FALSE(T.stopRequested());
  T.cancel();
  EXPECT_EQ(T.state(), support::CancelToken::State::Cancelled);
  EXPECT_TRUE(T.stopRequested());
  T.cancel(); // Idempotent.
  EXPECT_EQ(T.state(), support::CancelToken::State::Cancelled);
}

TEST(CancelTokenTest, DeadlineLatchesExpired) {
  using Clock = std::chrono::steady_clock;
  support::CancelToken Past(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(Past.state(), support::CancelToken::State::Expired);
  support::CancelToken Future(Clock::now() + std::chrono::hours(1));
  EXPECT_EQ(Future.state(), support::CancelToken::State::Live);
  EXPECT_FALSE(Future.stopRequested());
}

TEST(CancelTokenTest, FirstLatchedReasonWins) {
  using Clock = std::chrono::steady_clock;
  // Cancelled before the deadline passes: stays Cancelled even after the
  // deadline is long gone.
  support::CancelToken T(Clock::now() + std::chrono::milliseconds(5));
  T.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(T.state(), support::CancelToken::State::Cancelled);
  // And the converse: an expired token ignores later cancel() calls.
  support::CancelToken U(Clock::now() - std::chrono::milliseconds(1));
  ASSERT_EQ(U.state(), support::CancelToken::State::Expired);
  U.cancel();
  EXPECT_EQ(U.state(), support::CancelToken::State::Expired);
}

TEST(CancelTokenTest, ChildInheritsParentState) {
  support::CancelToken Parent;
  support::CancelToken Child(&Parent);
  EXPECT_FALSE(Child.stopRequested());
  Parent.cancel();
  EXPECT_EQ(Child.state(), support::CancelToken::State::Cancelled);
  // A deadline child under a live parent fires on its own deadline.
  support::CancelToken Parent2;
  support::CancelToken Child2(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      &Parent2);
  EXPECT_EQ(Child2.state(), support::CancelToken::State::Expired);
  EXPECT_EQ(Parent2.state(), support::CancelToken::State::Live);
}

TEST(CancelTokenTest, NullHelperNeverStops) {
  EXPECT_FALSE(support::stopRequested(nullptr));
  support::CancelToken T;
  EXPECT_FALSE(support::stopRequested(&T));
  T.cancel();
  EXPECT_TRUE(support::stopRequested(&T));
}

//===----------------------------------------------------------------------===//
// FaultInjection
//===----------------------------------------------------------------------===//

/// Disarms the global injector on scope exit so a failing test cannot
/// poison the rest of the binary.
struct InjectorGuard {
  ~InjectorGuard() { support::FaultInjector::instance().disarm(); }
};

TEST(FaultInjectionTest, DisarmedNeverFires) {
  support::FaultInjector::instance().disarm();
  EXPECT_FALSE(support::faultHit("test.point"));
  EXPECT_NO_THROW(support::faultAt("test.point"));
  // Disarmed checks do not even count.
  EXPECT_TRUE(support::FaultInjector::instance().stats().empty());
}

TEST(FaultInjectionTest, DeterministicForSameSeed) {
  InjectorGuard G;
  auto Run = [] {
    support::FaultInjector::instance().arm(1234, 0.3);
    std::vector<bool> Fired;
    for (int I = 0; I < 200; ++I)
      Fired.push_back(support::faultHit("test.determinism"));
    return Fired;
  };
  const std::vector<bool> A = Run(), B = Run();
  EXPECT_EQ(A, B);
  // A rate of 0.3 over 200 checks fires at least once and not always.
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), true), 200);
  // A different seed produces a different firing pattern.
  support::FaultInjector::instance().arm(5678, 0.3);
  std::vector<bool> C;
  for (int I = 0; I < 200; ++I)
    C.push_back(support::faultHit("test.determinism"));
  EXPECT_NE(A, C);
}

TEST(FaultInjectionTest, RateExtremesAndPerPointOverride) {
  InjectorGuard G;
  support::FaultInjector::instance().arm(1, 0.0);
  support::FaultInjector::instance().armPoint("test.always", 1.0);
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(support::faultHit("test.always"));
    EXPECT_FALSE(support::faultHit("test.never"));
  }
  auto St = support::FaultInjector::instance().stats();
  EXPECT_EQ(St["test.always"].Checked, 50u);
  EXPECT_EQ(St["test.always"].Fired, 50u);
  EXPECT_EQ(St["test.never"].Checked, 50u);
  EXPECT_EQ(St["test.never"].Fired, 0u);
}

TEST(FaultInjectionTest, FailNextFiresExactlyN) {
  InjectorGuard G;
  support::FaultInjector::instance().arm(1, 0.0);
  support::FaultInjector::instance().failNext("test.next", 3);
  int Fired = 0;
  for (int I = 0; I < 10; ++I)
    Fired += support::faultHit("test.next") ? 1 : 0;
  EXPECT_EQ(Fired, 3);
  // faultAt throws the dedicated error type, tagged with the point name.
  support::FaultInjector::instance().failNext("test.throwing", 1);
  EXPECT_THROW(support::faultAt("test.throwing"),
               support::FaultInjectedError);
  EXPECT_NO_THROW(support::faultAt("test.throwing"));
}

//===----------------------------------------------------------------------===//
// parallelAllOf cancellation
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelAllOfShedsOnPreFiredToken) {
  ThreadPool Pool(4);
  support::CancelToken T;
  T.cancel();
  bool Ran = false;
  const bool Ok = Pool.parallelAllOf(
      0, 100,
      [&](int64_t, int64_t, unsigned, std::atomic<bool> &) {
        Ran = true;
        return true;
      },
      &T);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Ran); // Shed before any block ran.
}

TEST(ThreadPoolTest, ParallelAllOfStopsAtChunkBoundaryMidFlight) {
  ThreadPool Pool(2);
  support::CancelToken T;
  std::atomic<int> Blocks{0};
  // The first block to run fires the token; the reduction must fail even
  // though every executed body voted true.
  const bool Ok = Pool.parallelAllOf(
      0, 100,
      [&](int64_t, int64_t, unsigned, std::atomic<bool> &) {
        ++Blocks;
        T.cancel();
        return true;
      },
      &T);
  EXPECT_FALSE(Ok);
  EXPECT_GE(Blocks.load(), 1);
}

//===----------------------------------------------------------------------===//
// Queue shutdown ordering
//===----------------------------------------------------------------------===//

TEST(BoundedWorkQueueTest, CloseIsIdempotentAndRacesSafely) {
  // Satellite of the shutdown-ordering contract: concurrent close()
  // calls racing producers and consumers must neither lose an accepted
  // task, run one twice, nor wedge a consumer. Closers arrive mid-drain.
  for (int Round = 0; Round < 20; ++Round) {
    BoundedWorkQueue Q(8);
    std::atomic<int> Ran{0};
    std::atomic<int> Pushed{0};
    std::vector<std::thread> Consumers;
    for (int C = 0; C < 2; ++C)
      Consumers.emplace_back([&Q] {
        while (std::function<void()> T = Q.pop())
          T();
        // Once exhausted, pop stays exhausted for this consumer.
        EXPECT_EQ(Q.pop(), nullptr);
      });
    std::vector<std::thread> Producers;
    for (int P = 0; P < 2; ++P)
      Producers.emplace_back([&Q, &Ran, &Pushed] {
        for (int I = 0; I < 100; ++I)
          if (Q.tryPush([&Ran] { ++Ran; }))
            ++Pushed;
      });
    std::vector<std::thread> Closers;
    for (int K = 0; K < 3; ++K)
      Closers.emplace_back([&Q] { Q.close(); });
    for (std::thread &T : Closers)
      T.join();
    for (std::thread &T : Producers)
      T.join();
    for (std::thread &T : Consumers)
      T.join();
    EXPECT_TRUE(Q.closed());
    EXPECT_EQ(Ran.load(), Pushed.load()); // Exactly once each.
  }
}

TEST(ThreadPoolTest, SpawnedWorkersDrainQueueUntilClosed) {
  // The serving shape: every pool worker runs a long-running task that
  // pops and executes queue tasks until the queue is closed and empty,
  // including the 1-thread pool that must spawn a real worker instead of
  // inlining (an inline pool would run the drain loop on the caller).
  for (unsigned Threads : {1u, 3u}) {
    BoundedWorkQueue Q(4);
    ThreadPool Pool(Threads, ThreadPool::SingleThread::Spawn);
    for (unsigned W = 0; W != Threads; ++W)
      Pool.run([&Q] {
        while (std::function<void()> Task = Q.pop())
          Task();
      });
    std::atomic<int> Ran{0};
    for (int I = 0; I < 32; ++I)
      EXPECT_TRUE(Q.push([&Ran] { ++Ran; }));
    Q.close();
    Pool.wait(); // Drainers exit once the queue is closed and empty.
    EXPECT_EQ(Ran.load(), 32);
  }
}

//===----------------------------------------------------------------------===//
// Sync.h — annotated synchronization primitives
//===----------------------------------------------------------------------===//

TEST(SyncTest, MutexLockProvidesMutualExclusion) {
  // Two threads hammer a guarded counter through MutexLock; any lost
  // update (or data race under TSan) fails the invariant.
  support::Mutex M;
  int Counter = 0; // Guarded by M by protocol; asserted by the final sum.
  constexpr int PerThread = 20000;
  auto Bump = [&] {
    for (int I = 0; I < PerThread; ++I) {
      support::MutexLock L(M);
      ++Counter;
    }
  };
  std::thread A(Bump), B(Bump);
  A.join();
  B.join();
  support::MutexLock L(M);
  EXPECT_EQ(Counter, 2 * PerThread);
}

TEST(SyncTest, MutexLockUnlocksOnThrow) {
  // The scoped guard must release on the exception path: if it did not,
  // the second acquisition below would deadlock (and the ctest TIMEOUT
  // would flag it).
  support::Mutex M;
  EXPECT_THROW(
      {
        support::MutexLock L(M);
        throw std::runtime_error("unwind across the guard");
      },
      std::runtime_error);
  support::MutexLock L(M); // Re-acquirable: the throw released it.
  SUCCEED();
}

TEST(SyncTest, TryMutexLockReportsOwnership) {
  support::Mutex M;
  {
    support::TryMutexLock First(M);
    ASSERT_TRUE(First.owns()); // Uncontended try-lock must succeed.
    // A second try-lock while held must fail — from another thread
    // (try_lock on a mutex the same thread holds is UB on std::mutex).
    bool SecondOwns = true;
    std::thread T([&M, &SecondOwns] {
      support::TryMutexLock Second(M);
      SecondOwns = Second.owns();
    });
    T.join();
    EXPECT_FALSE(SecondOwns);
  }
  // First's destructor released it: now acquirable again.
  support::TryMutexLock Third(M);
  EXPECT_TRUE(Third.owns());
}

TEST(SyncTest, SharedMutexAllowsConcurrentReadersExcludesWriter) {
  support::SharedMutex SM;
  int Value = 0; // Guarded by SM by protocol.
  std::atomic<int> ReadersInside{0};
  std::atomic<int> MaxReadersInside{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 4; ++R)
    Readers.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < 200; ++I) {
        support::SharedLock L(SM);
        int Inside = ReadersInside.fetch_add(1) + 1;
        int Prev = MaxReadersInside.load();
        while (Inside > Prev &&
               !MaxReadersInside.compare_exchange_weak(Prev, Inside)) {
        }
        EXPECT_GE(Value, 0); // Reads are safe under the shared hold.
        ReadersInside.fetch_sub(1);
      }
    });
  std::thread Writer([&] {
    while (!Go.load())
      std::this_thread::yield();
    for (int I = 0; I < 50; ++I) {
      support::ExclusiveLock L(SM);
      // Writer exclusivity: no reader may be inside while we hold it.
      EXPECT_EQ(ReadersInside.load(), 0);
      ++Value;
    }
  });
  Go.store(true);
  for (std::thread &T : Readers)
    T.join();
  Writer.join();
  support::SharedLock L(SM);
  EXPECT_EQ(Value, 50);
  // With 4 readers iterating 200 times each, at least one overlap is
  // effectively certain; a shared mutex that serialized readers would
  // leave the high-water mark at 1.
  EXPECT_GE(MaxReadersInside.load(), 1);
}

TEST(SyncTest, CondVarRecheckLoopSeesNotifiedPredicate) {
  // The canonical wait shape the whole tree uses: explicit re-check
  // loop under the held mutex (predicate lambdas are opaque to the
  // thread-safety analysis, so Sync.h deliberately has no predicate
  // overload). Also exercises spurious-wakeup tolerance: notify_all
  // fires while the predicate is still false, and the loop must keep
  // waiting.
  support::Mutex M;
  support::CondVar CV;
  int Stage = 0; // Guarded by M.
  bool Woke = false;
  std::thread Waiter([&] {
    support::MutexLock L(M);
    while (Stage < 2)
      CV.wait(M);
    Woke = true;
  });
  {
    support::MutexLock L(M);
    Stage = 1;
  }
  CV.notify_all(); // Predicate still false: the waiter must re-sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    support::MutexLock L(M);
    EXPECT_FALSE(Woke); // Still parked: a half-true predicate held it.
    Stage = 2;
  }
  CV.notify_one();
  Waiter.join();
  support::MutexLock L(M);
  EXPECT_TRUE(Woke);
}

TEST(SyncTest, CondVarWaitReleasesMutexWhileParked) {
  // wait() must atomically release the mutex while sleeping — otherwise
  // the notifier below could never acquire it to flip the predicate and
  // this test would deadlock against the ctest TIMEOUT.
  support::Mutex M;
  support::CondVar CV;
  bool Ready = false;
  std::thread Waiter([&] {
    support::MutexLock L(M);
    while (!Ready)
      CV.wait(M);
  });
  {
    // Acquirable while the waiter is parked: proof the wait dropped it.
    support::MutexLock L(M);
    Ready = true;
  }
  CV.notify_one();
  Waiter.join();
  SUCCEED();
}

} // namespace
