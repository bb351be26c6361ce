//===- tests/serve_test.cpp - Serving-engine unit & parity tests ----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The serving contract: randomized requests submitted concurrently from
// several client threads, served by a multi-program engine, must produce
// bit-identical Memory and the same ExecStats classification as executing
// the same requests one-by-one through a lone session::Session. CI runs
// this suite under ThreadSanitizer (the program table, the bounded MPMC
// queue, the worker pool and the config lock are the surfaces).
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "suite/Suite.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>
#include <gtest/gtest.h>

using namespace halo;

namespace {

void expectMemoryEq(const rt::Memory &A, const rt::Memory &B,
                    const char *What) {
  ASSERT_EQ(A.arrays().size(), B.arrays().size()) << What;
  for (const auto &KV : A.arrays()) {
    auto It = B.arrays().find(KV.first);
    ASSERT_NE(It, B.arrays().end()) << What;
    ASSERT_EQ(KV.second.size(), It->second.size()) << What;
    if (!KV.second.empty())
      EXPECT_EQ(std::memcmp(KV.second.data(), It->second.data(),
                            KV.second.size() * sizeof(double)),
                0)
          << What;
  }
}

/// One served program: the four-loop pattern mix of session_test (an O(1)
/// symbolic-stride predicate, an O(N) monotonicity predicate, a hoistable
/// exact test and an injectivity reduction).
struct ServedProgram {
  suite::Benchmark B;
  suite::BenchBuilder BB{B};
  ir::DoLoop *Strided = nullptr, *Blocks = nullptr, *Irregular = nullptr,
             *Reduce = nullptr;
  sym::SymbolId XS, XB, XI, XR, IB, IDX, JDX, Q;
  int64_t N = 160;

  ServedProgram() {
    XS = BB.dataArray("XS", BB.Sym.mulConst(BB.s("N"), 4));
    XB = BB.dataArray("XB", BB.Sym.mulConst(BB.s("N"), 8));
    XI = BB.dataArray("XI", BB.Sym.mulConst(BB.s("N"), 2));
    XR = BB.dataArray("XR", BB.Sym.mulConst(BB.s("N"), 2));
    IB = BB.indexArray("IB");
    IDX = BB.indexArray("IDX");
    JDX = BB.indexArray("JDX");
    Q = BB.indexArray("Q");
    Strided = suite::makeSymbolicStrideLoop(BB, "strided", "i", XS, "s",
                                            BB.s("N"), 0);
    Blocks = suite::makeMonotonicBlockLoop(BB, "blocks", "i", XB, IB,
                                           BB.c(4), BB.s("N"), 0);
    Irregular = suite::makeIrregularLoop(BB, "irr", "i", XI, IDX, JDX,
                                         BB.s("N"), 0);
    Reduce = BB.loop("reduce", "i", BB.c(1), BB.s("N"), 1);
    Reduce->append(
        BB.reduce(XR, BB.Sym.arrayRef(Q, BB.sv(BB.Sym.symbol("i", 1)))));
  }

  std::vector<ir::DoLoop *> loops() {
    return {Strided, Blocks, Irregular, Reduce};
  }

  analysis::AnalyzerOptions optsFor(const ir::DoLoop *L) {
    analysis::AnalyzerOptions O;
    O.HoistableContext = (L == Irregular);
    return O;
  }

  /// Builds one request dataset deterministically from \p Seed. Seeds map
  /// to predicate-pass / predicate-fail / exact-test / speculation
  /// outcomes, so the randomized requests cover every governor path.
  void dataset(uint64_t Seed, rt::Memory &M, sym::Bindings &Bd) {
    Rng R(Seed * 2654435761u + 17);
    Bd.setScalar(BB.Sym.symbol("N"), N);
    M.alloc(XS, static_cast<size_t>(4 * N));
    M.alloc(XB, static_cast<size_t>(8 * N + 16));
    M.alloc(XI, static_cast<size_t>(2 * N));
    M.alloc(XR, static_cast<size_t>(2 * N));
    Bd.setScalar(BB.Sym.symbol("s"), R.nextInRange(1, 3));
    {
      bool Monotone = R.chance(2, 3);
      sym::ArrayBinding A;
      A.Lo = 1;
      for (int64_t K = 0; K < N; ++K)
        A.Vals.push_back(Monotone ? 1 + K * R.nextInRange(4, 5) : 1 + K * 2);
      Bd.setArray(IB, A);
    }
    {
      bool Disjoint = R.chance(1, 2);
      sym::ArrayBinding AI, AJ;
      AI.Lo = AJ.Lo = 1;
      for (int64_t K = 0; K < N; ++K) {
        AI.Vals.push_back(Disjoint ? K : R.nextInRange(0, N - 1));
        AJ.Vals.push_back(Disjoint ? N + K : R.nextInRange(0, N - 1));
      }
      Bd.setArray(IDX, AI);
      Bd.setArray(JDX, AJ);
    }
    {
      int Mode = static_cast<int>(R.nextBelow(3));
      sym::ArrayBinding AQ;
      if (Mode == 1) {
        AQ = suite::permutationArray(N, R.next());
      } else {
        AQ.Lo = 1;
        for (int64_t K = 0; K < N; ++K)
          AQ.Vals.push_back(Mode == 0 ? K : K / 2);
      }
      Bd.setArray(Q, AQ);
    }
  }
};

/// Registers both programs and prepares every loop (the warm-up phase).
void prepareAll(serve::Engine &E, std::vector<ServedProgram> &Progs,
                std::vector<serve::ProgramId> &Ids) {
  for (ServedProgram &P : Progs) {
    serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
    Ids.push_back(Id);
    for (ir::DoLoop *L : P.loops())
      E.prepare(Id, *L, P.optsFor(L));
  }
}

TEST(ServeEngineTest, ConcurrentSubmissionsMatchSequentialSession) {
  serve::EngineOptions EO;
  EO.Workers = 3;
  EO.QueueCapacity = 8; // Small on purpose: exercises push backpressure.
  EO.Session.Threads = 2;

  std::vector<ServedProgram> Progs(2);
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  // Request plan: (program, loop, seed) descriptors fixed up front so the
  // engine run and the sequential reference see identical datasets.
  struct Desc {
    size_t Prog;
    size_t Loop;
    uint64_t Seed;
  };
  const size_t NumRequests = 48;
  std::vector<Desc> Plan;
  for (size_t I = 0; I < NumRequests; ++I)
    Plan.push_back(Desc{I % Progs.size(), (I / 2) % 4, 1000 + I});

  struct Slot {
    rt::Memory M;
    sym::Bindings B;
    std::future<serve::Response> Fut;
  };
  std::vector<Slot> Slots(NumRequests);

  // 4 closed-loop clients, interleaved request ranges.
  const unsigned Clients = 4;
  std::vector<std::thread> Cs;
  for (unsigned C = 0; C < Clients; ++C)
    Cs.emplace_back([&, C] {
      for (size_t I = C; I < NumRequests; I += Clients) {
        const Desc &D = Plan[I];
        ServedProgram &P = Progs[D.Prog];
        P.dataset(D.Seed, Slots[I].M, Slots[I].B);
        serve::Request Req;
        Req.Program = Ids[D.Prog];
        Req.Loop = P.loops()[D.Loop];
        Req.M = &Slots[I].M;
        Req.B = &Slots[I].B;
        Slots[I].Fut = E.submit(Req);
      }
    });
  for (std::thread &T : Cs)
    T.join();
  E.drain();

  // Sequential reference: one lone session per program, same options as
  // the engine's sessions, requests replayed in plan order.
  std::vector<std::unique_ptr<session::Session>> Refs;
  for (ServedProgram &P : Progs) {
    Refs.push_back(std::make_unique<session::Session>(P.B.prog(), P.B.usr(),
                                                      EO.Session));
    for (ir::DoLoop *L : P.loops())
      Refs.back()->prepare(*L, P.optsFor(L));
  }
  for (size_t I = 0; I < NumRequests; ++I) {
    const Desc &D = Plan[I];
    ServedProgram &P = Progs[D.Prog];
    ir::DoLoop *L = P.loops()[D.Loop];

    ASSERT_TRUE(Slots[I].Fut.valid());
    serve::Response Resp = Slots[I].Fut.get();
    ASSERT_TRUE(Resp.OK) << Resp.Error;
    ASSERT_EQ(Resp.Stats.size(), 1u);

    rt::Memory MR;
    sym::Bindings BR;
    P.dataset(D.Seed, MR, BR);
    rt::ExecStats Ref = Refs[D.Prog]->run(*L, MR, BR);

    const rt::ExecStats &Got = Resp.Stats[0];
    EXPECT_EQ(Got.RanParallel, Ref.RanParallel) << L->getLabel();
    EXPECT_EQ(Got.UsedTLS, Ref.UsedTLS) << L->getLabel();
    EXPECT_EQ(Got.TLSSucceeded, Ref.TLSSucceeded) << L->getLabel();
    EXPECT_EQ(Got.UsedExactTest, Ref.UsedExactTest) << L->getLabel();
    EXPECT_EQ(Got.CascadeDepthUsed, Ref.CascadeDepthUsed) << L->getLabel();
    expectMemoryEq(Slots[I].M, MR, L->getLabel().c_str());
  }

  serve::ServeStats St = E.stats();
  EXPECT_EQ(St.Submitted, NumRequests);
  EXPECT_EQ(St.Rejected, 0u);
  EXPECT_EQ(St.Unroutable, 0u);
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Completed, NumRequests);
  EXPECT_EQ(T.Failed, 0u);
  EXPECT_EQ(T.Executions, NumRequests);
  EXPECT_TRUE(T.Exec.RanParallel); // Some dataset must have parallelized.
}

// Each registered program has exactly one session, holding all of its
// loops, and every request is served from it; stats() reports those
// sessions and the per-worker counters as one engine-wide row.
TEST(ServeEngineTest, EveryProgramHasOneSessionAndStatsOneRow) {
  serve::EngineOptions EO;
  EO.Workers = 2;
  std::vector<ServedProgram> Progs(3);
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  for (size_t PI = 0; PI < Progs.size(); ++PI)
    for (ir::DoLoop *L : Progs[PI].loops()) {
      rt::Memory M;
      sym::Bindings B;
      Progs[PI].dataset(3, M, B);
      serve::Request Req;
      Req.Program = Ids[PI];
      Req.Loop = L;
      Req.M = &M;
      Req.B = &B;
      serve::Response Resp = E.submit(Req).get();
      ASSERT_TRUE(Resp.OK) << Resp.Error;
    }

  serve::ServeStats St = E.stats();
  const serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Programs, 3u);
  EXPECT_EQ(T.PreparedLoops, 4u * 3u);
  EXPECT_EQ(T.Completed, 4u * 3u);
  EXPECT_EQ(T.Executions, 4u * 3u);
  ASSERT_EQ(St.Shards.size(), 1u);
  const serve::ShardStats &Row = St.Shards[0];
  EXPECT_EQ(Row.Completed, T.Completed);
  EXPECT_EQ(Row.Failed, T.Failed);
  EXPECT_EQ(Row.Executions, T.Executions);
  EXPECT_EQ(Row.Expired, T.Expired);
  EXPECT_EQ(Row.Cancelled, T.Cancelled);
  EXPECT_EQ(Row.Retried, T.Retried);
  EXPECT_EQ(Row.ExecErrors, T.ExecErrors);
  EXPECT_EQ(Row.BreakerOpen, T.BreakerOpen);
  EXPECT_EQ(Row.DegradedExecs, T.DegradedExecs);
  EXPECT_EQ(Row.Programs, T.Programs);
  EXPECT_EQ(Row.PreparedLoops, T.PreparedLoops);
  EXPECT_EQ(Row.CompiledPreds, T.CompiledPreds);
  EXPECT_EQ(Row.CompiledUSRs, T.CompiledUSRs);
  EXPECT_EQ(Row.PooledFrames, T.PooledFrames);
  EXPECT_EQ(Row.ExecContexts, T.ExecContexts);
  EXPECT_EQ(Row.PlansWarmStarted, T.PlansWarmStarted);
  EXPECT_EQ(Row.Exec.TotalSeconds, T.Exec.TotalSeconds);
}

TEST(ServeEngineTest, PreparingNewLoopsWhileServingIsExcluded) {
  // The config lock must make warm-up (which interns into the shared
  // contexts) mutually exclusive with request processing: clients hammer
  // one loop while the main thread prepares the remaining loops of the
  // same program. TSan verifies the exclusion.
  serve::EngineOptions EO;
  EO.Workers = 2;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
  E.prepare(Id, *P.Strided, P.optsFor(P.Strided));

  std::vector<std::unique_ptr<rt::Memory>> Ms;
  std::vector<std::unique_ptr<sym::Bindings>> Bs;
  for (int I = 0; I < 16; ++I) {
    Ms.push_back(std::make_unique<rt::Memory>());
    Bs.push_back(std::make_unique<sym::Bindings>());
    P.dataset(77 + I, *Ms.back(), *Bs.back());
  }

  std::vector<std::future<serve::Response>> Futs(16);
  std::thread Client([&] {
    for (int I = 0; I < 16; ++I) {
      serve::Request Req;
      Req.Program = Id;
      Req.Loop = P.Strided;
      Req.M = Ms[I].get();
      Req.B = Bs[I].get();
      Futs[I] = E.submit(Req);
    }
  });
  // Concurrent warm-up of more loops (analysis interns USRs/predicates).
  for (ir::DoLoop *L : {P.Blocks, P.Irregular, P.Reduce})
    E.prepare(Id, *L, P.optsFor(L));
  Client.join();
  E.drain();
  for (auto &F : Futs) {
    serve::Response Resp = F.get();
    EXPECT_TRUE(Resp.OK) << Resp.Error;
  }
}

TEST(ServeEngineTest, InvalidRequestsResolveAsErrors) {
  serve::EngineOptions EO;
  EO.Workers = 1;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
  E.prepare(Id, *P.Strided, P.optsFor(P.Strided));

  rt::Memory M;
  sym::Bindings B;
  P.dataset(5, M, B);

  // Unknown program id.
  serve::Request Req;
  Req.Program = 42;
  Req.Loop = P.Strided;
  Req.M = &M;
  Req.B = &B;
  serve::Response Resp = E.submit(Req).get();
  EXPECT_FALSE(Resp.OK);
  EXPECT_NE(Resp.Error.find("unknown program"), std::string::npos);

  // Null loop.
  Req.Program = Id;
  Req.Loop = nullptr;
  Resp = E.submit(Req).get();
  EXPECT_FALSE(Resp.OK);

  // Known program, loop never prepared.
  Req.Loop = P.Blocks;
  Resp = E.submit(Req).get();
  EXPECT_FALSE(Resp.OK);
  EXPECT_NE(Resp.Error.find("never prepared"), std::string::npos);

  // Prepared loop but no dataset.
  Req.Loop = P.Strided;
  Req.M = nullptr;
  Resp = E.submit(Req).get();
  EXPECT_FALSE(Resp.OK);

  serve::ServeStats St = E.stats();
  EXPECT_EQ(St.Unroutable, 2u); // Unknown program + null loop.
  EXPECT_EQ(St.totals().Failed, 2u); // Unprepared loop + null dataset.
  EXPECT_EQ(St.totals().Completed, 0u);
}

TEST(ServeEngineTest, FindLoopAddressesPreparedLoopsByLabel) {
  serve::EngineOptions EO;
  std::vector<ServedProgram> Progs(2);
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  EXPECT_EQ(E.findLoop(Ids[0], "strided"), Progs[0].Strided);
  EXPECT_EQ(E.findLoop(Ids[1], "strided"), Progs[1].Strided);
  EXPECT_EQ(E.findLoop(Ids[0], "irr"), Progs[0].Irregular);
  EXPECT_EQ(E.findLoop(Ids[0], "no-such-loop"), nullptr);
  EXPECT_EQ(E.findLoop(99, "strided"), nullptr);
}

TEST(ServeEngineTest, RepeatsRunAsOneBatchAndMatchRunBatch) {
  serve::EngineOptions EO;
  EO.Workers = 2;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  rt::Memory M, MR;
  sym::Bindings B, BR;
  P.dataset(9, M, B);
  P.dataset(9, MR, BR);

  serve::Request Req;
  Req.Program = Ids[0];
  Req.Loop = P.Blocks;
  Req.M = &M;
  Req.B = &B;
  Req.Repeats = 5;
  serve::Response Resp = E.submit(Req).get();
  ASSERT_TRUE(Resp.OK) << Resp.Error;
  ASSERT_EQ(Resp.Stats.size(), 5u);

  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  Ref.prepare(*P.Blocks, P.optsFor(P.Blocks));
  auto RefStats = Ref.runBatch(*P.Blocks, MR, BR, 5);
  ASSERT_EQ(RefStats.size(), 5u);
  expectMemoryEq(M, MR, "repeats");
  // Steady-state frame reuse holds inside the served batch too.
  for (size_t I = 1; I < 5; ++I)
    EXPECT_EQ(Resp.Stats[I].FrameBinds, RefStats[I].FrameBinds);

  EXPECT_EQ(E.stats().totals().Executions, 5u);
  EXPECT_EQ(E.stats().totals().Completed, 1u);
}

TEST(ServeEngineTest, DrainAndShutdownFulfillEveryAcceptedRequest) {
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;

  std::vector<std::unique_ptr<rt::Memory>> Ms;
  std::vector<std::unique_ptr<sym::Bindings>> Bs;
  std::vector<std::future<serve::Response>> Futs;
  {
    serve::EngineOptions EO;
    EO.Workers = 1;
    EO.QueueCapacity = 4;
    serve::Engine E(EO);
    prepareAll(E, Progs, Ids);
    for (int I = 0; I < 12; ++I) {
      Ms.push_back(std::make_unique<rt::Memory>());
      Bs.push_back(std::make_unique<sym::Bindings>());
      P.dataset(200 + I, *Ms.back(), *Bs.back());
      serve::Request Req;
      Req.Program = Ids[0];
      Req.Loop = P.loops()[I % 4];
      Req.M = Ms.back().get();
      Req.B = Bs.back().get();
      Futs.push_back(E.submit(Req));
    }
    E.drain();
    // After drain, every future must already be resolved.
    for (auto &F : Futs)
      EXPECT_EQ(F.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    EXPECT_EQ(E.stats().totals().Completed, 12u);
    // Destructor path: accepted-but-undrained requests (none here) would
    // still be served; the engine must shut down cleanly regardless.
  }
  for (auto &F : Futs)
    EXPECT_TRUE(F.get().OK);
}

TEST(ServeEngineTest, ManyClientsOneLoopMatchSequentialSession) {
  // The one-loop concurrency contract: every request targets ONE
  // prepared loop — one session — served by 4 workers at once, the
  // configuration an engine-wide execute lock would serialize. Aggregate results must stay bit-identical to a lone
  // sequential session. Runs once per loop kind so the concurrent
  // surface covers O(1) cascades, the O(N) parallel and-reduction, the
  // hoistable exact test (shared HOIST-USR memo under contention) and
  // the reduction path. TSan-covered in CI.
  serve::EngineOptions EO;
  EO.Workers = 4;
  EO.QueueCapacity = 16;

  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  for (ir::DoLoop *L : P.loops())
    Ref.prepare(*L, P.optsFor(L));

  const unsigned Clients = 4;
  const size_t PerClient = 6;
  const size_t NumRequests = Clients * PerClient;
  size_t TotalOk = 0;
  for (size_t LI = 0; LI < P.loops().size(); ++LI) {
    ir::DoLoop *L = P.loops()[LI];
    struct Slot {
      rt::Memory M;
      sym::Bindings B;
      std::future<serve::Response> Fut;
      uint64_t Seed = 0;
    };
    std::vector<Slot> Slots(NumRequests);
    // Seeds repeat (mod 4): concurrent workers race on identical
    // datasets, so HOIST-USR memo hits and context checkout happen under
    // genuine contention, not just distinct-input parallelism.
    for (size_t I = 0; I < NumRequests; ++I)
      Slots[I].Seed = 3000 + 16 * LI + (I % 4);

    std::vector<std::thread> Cs;
    for (unsigned C = 0; C < Clients; ++C)
      Cs.emplace_back([&, C] {
        for (size_t I = C; I < NumRequests; I += Clients) {
          P.dataset(Slots[I].Seed, Slots[I].M, Slots[I].B);
          serve::Request Req;
          Req.Program = Ids[0];
          Req.Loop = L;
          Req.M = &Slots[I].M;
          Req.B = &Slots[I].B;
          Slots[I].Fut = E.submit(Req);
        }
      });
    for (std::thread &T : Cs)
      T.join();
    E.drain();

    for (size_t I = 0; I < NumRequests; ++I) {
      ASSERT_TRUE(Slots[I].Fut.valid());
      serve::Response Resp = Slots[I].Fut.get();
      ASSERT_TRUE(Resp.OK) << L->getLabel() << ": " << Resp.Error;
      ASSERT_EQ(Resp.Stats.size(), 1u);
      ++TotalOk;

      rt::Memory MR;
      sym::Bindings BR;
      P.dataset(Slots[I].Seed, MR, BR);
      std::optional<rt::ExecStats> RefSt = Ref.runPrepared(*L, MR, BR);
      ASSERT_TRUE(RefSt.has_value()) << L->getLabel();

      const rt::ExecStats &Got = Resp.Stats[0];
      EXPECT_EQ(Got.RanParallel, RefSt->RanParallel) << L->getLabel();
      EXPECT_EQ(Got.UsedTLS, RefSt->UsedTLS) << L->getLabel();
      EXPECT_EQ(Got.TLSSucceeded, RefSt->TLSSucceeded) << L->getLabel();
      EXPECT_EQ(Got.UsedExactTest, RefSt->UsedExactTest) << L->getLabel();
      EXPECT_EQ(Got.CascadeDepthUsed, RefSt->CascadeDepthUsed)
          << L->getLabel();
      expectMemoryEq(Slots[I].M, MR, L->getLabel().c_str());
    }
  }
  serve::ServeStats St = E.stats();
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Completed, TotalOk);
  EXPECT_EQ(T.Failed, 0u);
  EXPECT_EQ(T.Executions, TotalOk);
}

#if defined(__linux__)
namespace {
double processCpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + 1e-9 * TS.tv_nsec;
}
} // namespace

TEST(ServeEngineTest, WorkersParkNotSpinDuringExclusivePhases) {
  // The writer-preference gate must park workers on a condition variable
  // while an exclusive phase is pending — the yield-spin it replaced
  // burned one full core per worker for the whole duration of a
  // prepare(). Process CPU time over a quiesced window is the observable:
  // spinning workers consume ~wall-clock x min(cores, workers); parked
  // workers consume (almost) nothing.
  serve::EngineOptions EO;
  EO.Workers = 3;
  EO.QueueCapacity = 8;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  std::vector<std::unique_ptr<rt::Memory>> Ms;
  std::vector<std::unique_ptr<sym::Bindings>> Bs;
  std::vector<std::future<serve::Response>> Futs;
  {
    serve::Engine::ExclusiveHold Hold = E.quiesce();
    // Workers pop these and hit the gate with requests in hand (the
    // exact spot the old code spun at).
    for (int I = 0; I < 5; ++I) {
      Ms.push_back(std::make_unique<rt::Memory>());
      Bs.push_back(std::make_unique<sym::Bindings>());
      P.dataset(400 + I, *Ms.back(), *Bs.back());
      serve::Request Req;
      Req.Program = Ids[0];
      Req.Loop = P.Strided;
      Req.M = Ms.back().get();
      Req.B = Bs.back().get();
      Futs.push_back(E.submit(Req));
    }
    // Let every worker reach the gate, then measure a quiet window.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double Cpu0 = processCpuSeconds();
    const auto Wall0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const double CpuBurn = processCpuSeconds() - Cpu0;
    const double Wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Wall0)
            .count();
    // Generous bound for CI noise: even ONE spinning worker on one core
    // would burn ~1.0x wall.
    EXPECT_LT(CpuBurn, 0.5 * Wall)
        << "workers appear to busy-wait during an exclusive phase";
  }
  // Releasing the hold must wake the parked workers and serve everything.
  E.drain();
  for (auto &F : Futs)
    EXPECT_TRUE(F.get().OK);
}
#endif // __linux__

TEST(ServeEngineTest, DuplicateLoopLabelsAreRejectedAtPrepare) {
  // The label registry is the engine's routing address space: two
  // different loops of one program behind one label would silently route
  // findLoop traffic to whichever prepared last. prepare() must throw.
  serve::EngineOptions EO;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
  E.prepare(Id, *P.Strided, P.optsFor(P.Strided));

  // A different loop under the already-registered label.
  ir::DoLoop *Dup = P.BB.loop("strided", "i", P.BB.c(1), P.BB.s("N"), 1);
  Dup->append(P.BB.reduce(
      P.XR, P.BB.Sym.arrayRef(P.Q, P.BB.sv(P.BB.Sym.symbol("i", 1)))));
  EXPECT_THROW(E.prepare(Id, *Dup), std::invalid_argument);

  // The registry still routes to the original loop, and re-preparing the
  // SAME loop under its own label stays legal (idempotent warm-up).
  EXPECT_EQ(E.findLoop(Id, "strided"), P.Strided);
  EXPECT_NO_THROW(E.prepare(Id, *P.Strided, P.optsFor(P.Strided)));

  // The engine must keep serving after the rejected prepare (the
  // exclusive section unwound cleanly).
  rt::Memory M;
  sym::Bindings B;
  P.dataset(7, M, B);
  serve::Request Req;
  Req.Program = Id;
  Req.Loop = P.Strided;
  Req.M = &M;
  Req.B = &B;
  EXPECT_TRUE(E.submit(Req).get().OK);
}

TEST(ServeEngineTest, RePrepareWhileServingKeepsServedPlansAlive) {
  // The deferred-reclaim contract: re-preparing a loop mid-traffic
  // retires the old plan instead of destroying it, so requests already
  // executing against it finish safely (TSan-covered; before the fix
  // this was a use-after-free on the plan's cascade stages).
  serve::EngineOptions EO;
  EO.Workers = 2;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
  E.prepare(Id, *P.Irregular, P.optsFor(P.Irregular));

  const int Rounds = 4, PerRound = 6;
  std::vector<std::unique_ptr<rt::Memory>> Ms;
  std::vector<std::unique_ptr<sym::Bindings>> Bs;
  std::vector<std::future<serve::Response>> Futs;
  std::vector<uint64_t> Seeds;
  for (int R = 0; R < Rounds; ++R) {
    for (int I = 0; I < PerRound; ++I) {
      uint64_t Seed = 9000 + static_cast<uint64_t>(R) * PerRound + I;
      Seeds.push_back(Seed);
      Ms.push_back(std::make_unique<rt::Memory>());
      Bs.push_back(std::make_unique<sym::Bindings>());
      P.dataset(Seed, *Ms.back(), *Bs.back());
      serve::Request Req;
      Req.Program = Id;
      Req.Loop = P.Irregular;
      Req.M = Ms.back().get();
      Req.B = Bs.back().get();
      Futs.push_back(E.submit(Req));
    }
    // Re-analysis races the in-flight requests above (the exclusive
    // section waits for executions, the retired plan outlives them).
    E.prepare(Id, *P.Irregular, P.optsFor(P.Irregular));
  }
  E.drain();

  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  Ref.prepare(*P.Irregular, P.optsFor(P.Irregular));
  for (size_t I = 0; I < Futs.size(); ++I) {
    serve::Response Resp = Futs[I].get();
    ASSERT_TRUE(Resp.OK) << Resp.Error;
    rt::Memory MR;
    sym::Bindings BR;
    P.dataset(Seeds[I], MR, BR);
    std::optional<rt::ExecStats> RefSt = Ref.runPrepared(*P.Irregular, MR, BR);
    ASSERT_TRUE(RefSt.has_value());
    expectMemoryEq(*Ms[I], MR, "re-prepare-while-serving");
  }
}

TEST(ServeEngineTest, PrepareStatsTrafficStormKeepsProgramTableConsistent) {
  // The program table (each entry a program's session and its loops'
  // breakers) is HALO_GUARDED_BY the config lock: addProgram() appends
  // to it and prepare() inserts breakers under the exclusive hold, while
  // requests, findLoop() and stats() read it under a shared hold. This
  // storm drives it from every direction at once: fresh programs
  // registered (the table grows, each entry with a new session) and
  // first-prepared mid-traffic, re-prepare of a served loop, stats()
  // snapshots walking the table, and live traffic. TSan in CI pins the
  // synchronization; the parity check pins results.
  serve::EngineOptions EO;
  EO.Workers = 3;
  EO.QueueCapacity = 32;

  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  // Fresh programs the operator thread registers and first-prepares
  // mid-traffic (each addProgram appends a table entry with a new
  // session).
  const int FreshPrograms = 4;
  std::vector<ServedProgram> Fresh(FreshPrograms);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Snapshots{0};

  // Stats threads: walk the program table while it grows.
  std::vector<std::thread> StatsTs;
  for (int T = 0; T < 2; ++T)
    StatsTs.emplace_back([&] {
      size_t LastPrograms = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        serve::ServeStats St = E.stats();
        const size_t NumPrograms = St.totals().Programs;
        // The table only ever grows (entries are never removed) — a torn
        // table walk would break this.
        EXPECT_GE(NumPrograms, LastPrograms);
        LastPrograms = NumPrograms;
        ++Snapshots;
      }
    });

  // Client threads: steady traffic against the pre-storm program.
  struct Slot {
    rt::Memory M;
    sym::Bindings B;
    std::future<serve::Response> Fut;
    uint64_t Seed = 0;
  };
  const unsigned Clients = 3;
  const size_t PerClient = 10;
  std::vector<Slot> Slots(Clients * PerClient);
  std::vector<std::thread> Cs;
  for (unsigned C = 0; C < Clients; ++C)
    Cs.emplace_back([&, C] {
      for (size_t I = C; I < Slots.size(); I += Clients) {
        Slots[I].Seed = 7700 + (I % 5);
        P.dataset(Slots[I].Seed, Slots[I].M, Slots[I].B);
        serve::Request Req;
        Req.Program = Ids[0];
        Req.Loop = P.Irregular;
        Req.M = &Slots[I].M;
        Req.B = &Slots[I].B;
        Slots[I].Fut = E.submit(Req);
      }
    });

  // Operator: register fresh programs (table growth) and first-prepare
  // them, interleaved with re-prepares of the served loop.
  std::vector<serve::ProgramId> FreshIds;
  for (int F = 0; F < FreshPrograms; ++F) {
    serve::ProgramId Id = E.addProgram(Fresh[F].B.prog(), Fresh[F].B.usr());
    FreshIds.push_back(Id);
    E.prepare(Id, *Fresh[F].Strided, Fresh[F].optsFor(Fresh[F].Strided));
    E.prepare(Ids[0], *P.Irregular, P.optsFor(P.Irregular));
  }

  for (std::thread &T : Cs)
    T.join();
  E.drain();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : StatsTs)
    T.join();
  EXPECT_GT(Snapshots.load(), 0u);

  // Fresh programs must be fully served after their mid-storm
  // registration.
  for (int F = 0; F < FreshPrograms; ++F) {
    rt::Memory M;
    sym::Bindings B;
    Fresh[F].dataset(7600 + F, M, B);
    serve::Request Req;
    Req.Program = FreshIds[F];
    Req.Loop = Fresh[F].Strided;
    Req.M = &M;
    Req.B = &B;
    serve::Response Resp = E.submit(Req).get();
    EXPECT_TRUE(Resp.OK) << Resp.Error;
  }

  // And the storm traffic stayed exact: parity against a lone session.
  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  Ref.prepare(*P.Irregular, P.optsFor(P.Irregular));
  for (Slot &S : Slots) {
    ASSERT_TRUE(S.Fut.valid());
    serve::Response Resp = S.Fut.get();
    ASSERT_TRUE(Resp.OK) << Resp.Error;
    rt::Memory MR;
    sym::Bindings BR;
    P.dataset(S.Seed, MR, BR);
    ASSERT_TRUE(Ref.runPrepared(*P.Irregular, MR, BR).has_value());
    expectMemoryEq(S.M, MR, "prepare-stats-traffic-storm");
  }

  EXPECT_EQ(E.stats().totals().Programs, 1u + FreshPrograms);
}

TEST(ServeEngineTest, TrySubmitAcceptsWithRoomAndCountsSheds) {
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::EngineOptions EO;
  EO.Workers = 1;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  rt::Memory M;
  sym::Bindings B;
  P.dataset(3, M, B);
  serve::Request Req;
  Req.Program = Ids[0];
  Req.Loop = P.Strided;
  Req.M = &M;
  Req.B = &B;
  std::future<serve::Response> Fut;
  ASSERT_TRUE(E.trySubmit(Req, Fut));
  ASSERT_TRUE(Fut.valid());
  EXPECT_TRUE(Fut.get().OK);
  E.drain();
  EXPECT_EQ(E.stats().Submitted, 1u);
  EXPECT_EQ(E.stats().Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// Robustness: deadlines, cancellation, retries, circuit breaker, chaos
//===----------------------------------------------------------------------===//

/// Disarms the global fault injector on scope exit so a failing test
/// cannot poison the rest of the binary.
struct InjectorGuard {
  ~InjectorGuard() { support::FaultInjector::instance().disarm(); }
};

/// Every response must be internally consistent: OK mirrors the status,
/// failures carry a reason and never a partial success payload, and the
/// status is a named member of the taxonomy.
void expectClassified(const serve::Response &R) {
  const bool OkStatus =
      R.St == serve::Status::Ok || R.St == serve::Status::DegradedOk;
  EXPECT_EQ(R.OK, OkStatus) << serve::statusName(R.St);
  if (!R.OK) {
    EXPECT_FALSE(R.Error.empty()) << serve::statusName(R.St);
    EXPECT_TRUE(R.Stats.empty()) << serve::statusName(R.St);
  }
  EXPECT_STRNE(serve::statusName(R.St), "?");
}

TEST(ServeEngineTest, DeadlinesAndCancellationShedWithoutSideEffects) {
  serve::EngineOptions EO;
  EO.Workers = 1;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  // Already-expired deadline: shed at dequeue, memory untouched.
  rt::Memory M, MTwin;
  sym::Bindings B, BTwin;
  P.dataset(11, M, B);
  P.dataset(11, MTwin, BTwin); // Never executed: the untouched baseline.
  serve::Request Req;
  Req.Program = Ids[0];
  Req.Loop = P.Strided;
  Req.M = &M;
  Req.B = &B;
  Req.Deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  serve::Response Resp = E.submit(Req).get();
  expectClassified(Resp);
  EXPECT_EQ(Resp.St, serve::Status::Expired);
  EXPECT_FALSE(Resp.OK);
  expectMemoryEq(M, MTwin, "expired request must not touch memory");

  // Pre-cancelled caller token: shed at dequeue as Cancelled.
  support::CancelToken Tok;
  Tok.cancel();
  Req.Deadline = {};
  Req.Cancel = &Tok;
  Resp = E.submit(Req).get();
  expectClassified(Resp);
  EXPECT_EQ(Resp.St, serve::Status::Cancelled);
  expectMemoryEq(M, MTwin, "cancelled request must not touch memory");

  // Cancelled-then-expired classifies by the first latched reason.
  support::CancelToken Tok2;
  Tok2.cancel();
  Req.Deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Req.Cancel = &Tok2;
  Resp = E.submit(Req).get();
  EXPECT_EQ(Resp.St, serve::Status::Cancelled);

  // A generous deadline serves normally.
  Req.Deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  Req.Cancel = nullptr;
  Resp = E.submit(Req).get();
  expectClassified(Resp);
  EXPECT_EQ(Resp.St, serve::Status::Ok);

  serve::ServeStats St = E.stats();
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Expired, 1u);
  EXPECT_EQ(T.Cancelled, 2u);
  EXPECT_EQ(T.Completed, 1u);
  EXPECT_EQ(St.Expired, 1u); // Engine-wide mirrors of the stats row.
  EXPECT_EQ(St.Cancelled, 2u);
}

TEST(ServeEngineTest, TransientFaultsRetryWithBackoffThenClassify) {
  InjectorGuard G;
  serve::EngineOptions EO;
  EO.Workers = 1;
  EO.MaxRetries = 3;
  EO.RetryBackoff = std::chrono::microseconds(1); // Fast test.
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  // Two injected transient failures, then success: the request recovers
  // and reports the retries it consumed.
  support::FaultInjector::instance().arm(7, 0.0);
  support::FaultInjector::instance().failNext("serve.process.transient", 2);
  rt::Memory M, MR;
  sym::Bindings B, BR;
  P.dataset(21, M, B);
  P.dataset(21, MR, BR);
  serve::Request Req;
  Req.Program = Ids[0];
  Req.Loop = P.Blocks;
  Req.M = &M;
  Req.B = &B;
  serve::Response Resp = E.submit(Req).get();
  expectClassified(Resp);
  ASSERT_EQ(Resp.St, serve::Status::Ok) << Resp.Error;
  EXPECT_EQ(Resp.Retries, 2u);

  // The recovered result is bit-identical to an unfaulted session.
  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  Ref.prepare(*P.Blocks, P.optsFor(P.Blocks));
  ASSERT_TRUE(Ref.runPrepared(*P.Blocks, MR, BR).has_value());
  expectMemoryEq(M, MR, "retried request");

  // A persistent transient fault exhausts the budget and classifies
  // ExecError (after exactly MaxRetries retries).
  support::FaultInjector::instance().armPoint("serve.process.transient",
                                              1.0);
  Resp = E.submit(Req).get();
  expectClassified(Resp);
  EXPECT_EQ(Resp.St, serve::Status::ExecError);
  EXPECT_EQ(Resp.Retries, EO.MaxRetries);
  EXPECT_NE(Resp.Error.find("transient"), std::string::npos);

  support::FaultInjector::instance().disarm();
  serve::ServeStats St = E.stats();
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Retried, 2u + EO.MaxRetries);
  EXPECT_EQ(St.Retried, T.Retried);
  EXPECT_EQ(T.ExecErrors, 1u);
  EXPECT_EQ(T.Completed, 1u);
}

TEST(ServeEngineTest, BreakerOpensDegradesProbesAndRecovers) {
  InjectorGuard G;
  serve::EngineOptions EO;
  EO.Workers = 1; // Deterministic request ordering for the state walk.
  EO.BreakerThreshold = 2;
  EO.BreakerCooldown = 3;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  Ref.prepare(*P.Strided, P.optsFor(P.Strided));

  // Ok results are collected and verified after disarm (the reference
  // session shares the global injector, so it cannot replay while the
  // rt.exec point is armed).
  std::vector<std::pair<uint64_t, std::unique_ptr<rt::Memory>>> OkResults;
  auto Serve = [&](uint64_t Seed) {
    auto M = std::make_unique<rt::Memory>();
    sym::Bindings B;
    P.dataset(Seed, *M, B);
    serve::Request Req;
    Req.Program = Ids[0];
    Req.Loop = P.Strided;
    Req.M = M.get();
    Req.B = &B;
    serve::Response Resp = E.submit(Req).get();
    expectClassified(Resp);
    if (Resp.OK)
      OkResults.emplace_back(Seed, std::move(M));
    return Resp.St;
  };

  // Every normal-tier execution of this loop now fails.
  support::FaultInjector::instance().arm(3, 0.0);
  support::FaultInjector::instance().armPoint("rt.exec", 1.0);

  // Closed: two ExecErrors trip the breaker (threshold 2)...
  EXPECT_EQ(Serve(500), serve::Status::ExecError);
  EXPECT_EQ(Serve(501), serve::Status::ExecError);
  // ...open: the sequential tier serves (exactly) until the cooldown...
  EXPECT_EQ(Serve(502), serve::Status::DegradedOk);
  EXPECT_EQ(Serve(503), serve::Status::DegradedOk);
  // ...half-open: the cooldown-crossing request probes the (still
  // faulted) normal tier and re-opens...
  EXPECT_EQ(Serve(504), serve::Status::ExecError);
  EXPECT_EQ(Serve(505), serve::Status::DegradedOk);
  EXPECT_EQ(Serve(506), serve::Status::DegradedOk);
  // ...the fault clears: the next probe succeeds and closes the breaker.
  support::FaultInjector::instance().disarm();
  EXPECT_EQ(Serve(507), serve::Status::Ok);
  EXPECT_EQ(Serve(508), serve::Status::Ok); // Normal tier again.

  // Both tiers must have produced exact results.
  for (auto &[Seed, M] : OkResults) {
    rt::Memory MR;
    sym::Bindings BR;
    P.dataset(Seed, MR, BR);
    ASSERT_TRUE(Ref.runPrepared(*P.Strided, MR, BR).has_value());
    expectMemoryEq(*M, MR, "breaker-tier result");
  }

  serve::ServeStats St = E.stats();
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.ExecErrors, 3u);
  EXPECT_EQ(T.DegradedExecs, 4u);
  EXPECT_EQ(T.BreakerOpen, 2u); // Initial trip + the failed probe.
  EXPECT_EQ(T.Completed, 6u);   // 4 degraded + 2 normal.
  EXPECT_EQ(T.Executions, 2u);  // Normal-tier executions only.
  EXPECT_EQ(St.BreakerOpen, 2u);
  EXPECT_EQ(St.DegradedExecs, 4u);

  // Re-preparing the loop resets its breaker (fresh plan, fresh health).
  E.prepare(Ids[0], *P.Strided, P.optsFor(P.Strided));
  EXPECT_EQ(Serve(509), serve::Status::Ok);
}

TEST(ServeEngineTest, PrepareSurvivesInjectedCompileFaults) {
  InjectorGuard G;
  serve::EngineOptions EO;
  EO.Workers = 1;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(P.B.prog(), P.B.usr());
  E.prepare(Id, *P.Strided, P.optsFor(P.Strided));

  // A compile-cache fault unwinds prepare() cleanly (exclusive section
  // released, registry untouched) and a retry succeeds.
  support::FaultInjector::instance().arm(9, 0.0);
  support::FaultInjector::instance().failNext("rt.compile.pred", 1);
  EXPECT_THROW(E.prepare(Id, *P.Blocks, P.optsFor(P.Blocks)),
               support::FaultInjectedError);
  EXPECT_EQ(E.findLoop(Id, "blocks"), nullptr);
  EXPECT_NO_THROW(E.prepare(Id, *P.Blocks, P.optsFor(P.Blocks)));

  // Same through the USR-compile warm-up path (hoistable plan).
  support::FaultInjector::instance().failNext("rt.compile.usr", 1);
  EXPECT_THROW(E.prepare(Id, *P.Irregular, P.optsFor(P.Irregular)),
               support::FaultInjectedError);
  EXPECT_NO_THROW(E.prepare(Id, *P.Irregular, P.optsFor(P.Irregular)));
  support::FaultInjector::instance().disarm();

  // The engine serves every recovered loop normally.
  for (ir::DoLoop *L : {P.Strided, P.Blocks, P.Irregular}) {
    rt::Memory M;
    sym::Bindings B;
    P.dataset(31, M, B);
    serve::Request Req;
    Req.Program = Id;
    Req.Loop = L;
    Req.M = &M;
    Req.B = &B;
    serve::Response Resp = E.submit(Req).get();
    EXPECT_EQ(Resp.St, serve::Status::Ok) << Resp.Error;
  }
}

TEST(ServeEngineTest, ShutdownRacesDrainAndStaysIdempotent) {
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::EngineOptions EO;
  EO.Workers = 2;
  EO.QueueCapacity = 4;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  std::vector<std::unique_ptr<rt::Memory>> Ms;
  std::vector<std::unique_ptr<sym::Bindings>> Bs;
  std::vector<std::future<serve::Response>> Futs;
  std::mutex FutM;
  std::thread Client([&] {
    for (int I = 0; I < 16; ++I) {
      auto M = std::make_unique<rt::Memory>();
      auto B = std::make_unique<sym::Bindings>();
      P.dataset(600 + I, *M, *B);
      serve::Request Req;
      Req.Program = Ids[0];
      Req.Loop = P.loops()[I % 4];
      Req.M = M.get();
      Req.B = B.get();
      std::future<serve::Response> F = E.submit(Req);
      std::lock_guard<std::mutex> L(FutM);
      Ms.push_back(std::move(M));
      Bs.push_back(std::move(B));
      Futs.push_back(std::move(F));
    }
  });
  // shutdown() races drain(), a second shutdown(), and the client above.
  std::thread D([&] { E.drain(); });
  std::thread S1([&] { E.shutdown(); });
  std::thread S2([&] { E.shutdown(); });
  Client.join();
  D.join();
  S1.join();
  S2.join();

  // Every future resolved: served if accepted before the close won the
  // race, Rejected ("engine is shut down") otherwise — never abandoned.
  for (auto &F : Futs) {
    ASSERT_TRUE(F.valid());
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    serve::Response Resp = F.get();
    expectClassified(Resp);
    if (!Resp.OK) {
      EXPECT_EQ(Resp.St, serve::Status::Rejected);
      EXPECT_NE(Resp.Error.find("shut down"), std::string::npos);
    }
  }
  // Still idempotent after the races, and new submits are refused.
  E.shutdown();
  rt::Memory M;
  sym::Bindings B;
  P.dataset(777, M, B);
  serve::Request Req;
  Req.Program = Ids[0];
  Req.Loop = P.Strided;
  Req.M = &M;
  Req.B = &B;
  serve::Response Resp = E.submit(Req).get();
  EXPECT_EQ(Resp.St, serve::Status::Rejected);
}

TEST(ServeEngineTest, ChaosEveryFutureResolvesClassifiedAndExact) {
  // The chaos suite: seeded faults at every serving-plane injection
  // point, concurrent clients, random deadlines and cancellations. Pins:
  // no abandoned future, no dead worker, every response classified, Ok
  // results bit-identical to a lone sequential session, stats coherent,
  // and the engine healthy again once disarmed.
  InjectorGuard G;
  serve::EngineOptions EO;
  EO.Workers = 3;
  EO.QueueCapacity = 8;
  EO.MaxRetries = 3;
  EO.RetryBackoff = std::chrono::microseconds(1);
  EO.BreakerThreshold = 3;
  EO.BreakerCooldown = 4;
  std::vector<ServedProgram> Progs(1);
  ServedProgram &P = Progs[0];
  std::vector<serve::ProgramId> Ids;
  serve::Engine E(EO);
  prepareAll(E, Progs, Ids);

  const uint64_t ChaosSeed = 0xC4A05; // Logged so a failure replays.
  support::FaultInjector::instance().arm(ChaosSeed, 0.0);
  support::FaultInjector::instance().armPoint("queue.push", 0.03);
  support::FaultInjector::instance().armPoint("serve.worker.task", 0.05);
  support::FaultInjector::instance().armPoint("serve.process.transient",
                                              0.15);
  support::FaultInjector::instance().armPoint("rt.exec", 0.05);

  const unsigned Clients = 3;
  const size_t NumRequests = 48;
  struct Slot {
    rt::Memory M;
    sym::Bindings B;
    std::future<serve::Response> Fut;
    std::unique_ptr<support::CancelToken> Tok;
    uint64_t Seed = 0;
    size_t Loop = 0;
  };
  std::vector<Slot> Slots(NumRequests);
  for (size_t I = 0; I < NumRequests; ++I) {
    Slots[I].Seed = 7000 + I;
    Slots[I].Loop = I % 4;
  }

  std::vector<std::thread> Cs;
  for (unsigned C = 0; C < Clients; ++C)
    Cs.emplace_back([&, C] {
      Rng R(100 + C);
      for (size_t I = C; I < NumRequests; I += Clients) {
        P.dataset(Slots[I].Seed, Slots[I].M, Slots[I].B);
        serve::Request Req;
        Req.Program = Ids[0];
        Req.Loop = P.loops()[Slots[I].Loop];
        Req.M = &Slots[I].M;
        Req.B = &Slots[I].B;
        if (R.chance(1, 6)) // Some deadlines land already expired.
          Req.Deadline = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(
                             R.nextInRange(-1000, 2000));
        if (R.chance(1, 6)) {
          Slots[I].Tok = std::make_unique<support::CancelToken>();
          Req.Cancel = Slots[I].Tok.get();
        }
        Slots[I].Fut = E.submit(Req);
        if (Slots[I].Tok && R.chance(1, 2))
          Slots[I].Tok->cancel(); // Races the in-flight execution.
      }
    });
  for (std::thread &T : Cs)
    T.join();
  E.drain();
  // Chaos over: disarm before verification (the reference session below
  // shares the global injector and must replay unfaulted).
  support::FaultInjector::instance().disarm();

  // Zero abandoned futures; every outcome classified; Ok results exact.
  session::Session Ref(P.B.prog(), P.B.usr(), EO.Session);
  for (ir::DoLoop *L : P.loops())
    Ref.prepare(*L, P.optsFor(L));
  size_t OkResponses = 0, RejectedResponses = 0;
  for (Slot &S : Slots) {
    ASSERT_TRUE(S.Fut.valid());
    ASSERT_EQ(S.Fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "abandoned future (chaos seed " << ChaosSeed << ")";
    serve::Response Resp = S.Fut.get();
    expectClassified(Resp);
    if (Resp.OK) {
      ++OkResponses;
      rt::Memory MR;
      sym::Bindings BR;
      P.dataset(S.Seed, MR, BR);
      ir::DoLoop *L = P.loops()[S.Loop];
      ASSERT_TRUE(Ref.runPrepared(*L, MR, BR).has_value());
      expectMemoryEq(S.M, MR, "chaos Ok response");
    } else if (Resp.St == serve::Status::Rejected) {
      ++RejectedResponses;
    }
  }

  // Stats coherence: every accepted request landed in exactly one
  // outcome bucket; queue-push faults surfaced as rejections.
  serve::ServeStats St = E.stats();
  serve::ShardStats T = St.totals();
  EXPECT_EQ(T.Completed, OkResponses);
  EXPECT_EQ(St.Rejected, RejectedResponses);
  EXPECT_EQ(St.Submitted + St.Rejected, NumRequests);
  EXPECT_EQ(T.Completed + T.Failed + T.Expired + T.Cancelled,
            St.Submitted);
  EXPECT_EQ(St.Expired, T.Expired);
  EXPECT_EQ(St.Cancelled, T.Cancelled);
  EXPECT_EQ(St.Retried, T.Retried);
  EXPECT_EQ(St.DegradedExecs, T.DegradedExecs);

  // Disarmed, the engine is healthy: no worker died, every loop serves
  // Ok (requests would hang or fail here if the chaos run wedged a
  // worker, leaked the gate, or poisoned a cache with a partial result).
  for (size_t LI = 0; LI < P.loops().size(); ++LI) {
    rt::Memory M, MR;
    sym::Bindings B, BR;
    P.dataset(9000 + LI, M, B);
    P.dataset(9000 + LI, MR, BR);
    serve::Request Req;
    Req.Program = Ids[0];
    Req.Loop = P.loops()[LI];
    Req.M = &M;
    Req.B = &B;
    serve::Response Resp = E.submit(Req).get();
    expectClassified(Resp);
    ASSERT_TRUE(Resp.OK) << Resp.Error;
    ASSERT_TRUE(
        Ref.runPrepared(*P.loops()[LI], MR, BR).has_value());
    expectMemoryEq(M, MR, "post-chaos health check");
  }
}

} // namespace
