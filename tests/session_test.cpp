//===- tests/session_test.cpp - Session layer unit & parity tests ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The analyze-once / execute-many contract: Session::run against a cached
// plan (pre-sorted compiled cascades + pooled frames, 2nd..Nth execution)
// must produce bit-identical Memory/Bindings and the same ExecStats
// classification as a fresh session (fresh analysis, fresh plan, fresh
// HOIST cache) for every single execution.
//
//===----------------------------------------------------------------------===//

#include "session/Session.h"

#include "support/Rng.h"
#include "suite/Suite.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <gtest/gtest.h>

using namespace halo;

namespace {

/// Bitwise memory equality (doubles compared as bytes: "bit-identical").
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

void expectStatsEq(const rt::ExecStats &S, const rt::ExecStats &R,
                   const char *What) {
  EXPECT_EQ(S.RanParallel, R.RanParallel) << What;
  EXPECT_EQ(S.UsedTLS, R.UsedTLS) << What;
  EXPECT_EQ(S.TLSSucceeded, R.TLSSucceeded) << What;
  EXPECT_EQ(S.UsedExactTest, R.UsedExactTest) << What;
  EXPECT_EQ(S.CascadeDepthUsed, R.CascadeDepthUsed) << What;
}

/// Reference execution: a fresh session per call, so every reference
/// execution re-analyzes \p L under \p Opts and runs it with a fresh plan
/// and a fresh HOIST cache — nothing carries over between executions.
rt::ExecStats freshRun(suite::Benchmark &B, const ir::DoLoop &L,
                       const analysis::AnalyzerOptions &Opts,
                       unsigned Threads, rt::Memory &M, sym::Bindings &Bd) {
  session::SessionOptions SO;
  SO.Threads = Threads;
  session::Session S(B.prog(), B.usr(), SO);
  S.prepare(L, Opts);
  return S.run(L, M, Bd);
}

/// The randomized multi-loop program: a symbolically-strided write loop
/// (O(1) predicate), a monotone block-write loop (O(N) predicate over an
/// index array), an irregular subscripted-subscript loop (hoistable exact
/// test), and a subscripted reduction (RRED injectivity).
struct SessionFixture : ::testing::Test {
  suite::Benchmark B;
  suite::BenchBuilder BB{B};
  ir::DoLoop *Strided = nullptr, *Blocks = nullptr, *Irregular = nullptr,
             *Reduce = nullptr;
  sym::SymbolId XS, XB, XI, XR, IB, IDX, JDX, Q;
  int64_t N = 200;

  SessionFixture() {
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
    Reduce->append(BB.reduce(
        XR, BB.Sym.arrayRef(Q, BB.sv(BB.Sym.symbol("i", 1)))));
  }

  analysis::AnalyzerOptions optsFor(const ir::DoLoop *L) {
    analysis::AnalyzerOptions O;
    O.HoistableContext = (L == Irregular);
    return O;
  }

  /// freshRun() of \p L under its fixture options.
  rt::ExecStats reference(const ir::DoLoop *L, unsigned Threads,
                          rt::Memory &M, sym::Bindings &Bd) {
    return freshRun(B, *L, optsFor(L), Threads, M, Bd);
  }

  /// Applies one randomized dataset mutation identically to both worlds.
  /// Sometimes leaves the bindings untouched so steady-state frame reuse
  /// is exercised; sometimes flips data so predicates pass/fail and the
  /// session must rebind.
  void mutate(Rng &R, sym::Bindings &BS, sym::Bindings &BR, rt::Memory &MS,
              rt::Memory &MR, bool First) {
    if (First) {
      for (sym::Bindings *Bd : {&BS, &BR})
        Bd->setScalar(BB.Sym.symbol("N"), N);
      for (rt::Memory *M : {&MS, &MR}) {
        M->alloc(XS, static_cast<size_t>(4 * N));
        M->alloc(XB, static_cast<size_t>(8 * N + 16));
        M->alloc(XI, static_cast<size_t>(2 * N));
        M->alloc(XR, static_cast<size_t>(2 * N));
      }
    }
    if (First || R.chance(1, 2)) {
      int64_t S = R.nextInRange(1, 3);
      for (sym::Bindings *Bd : {&BS, &BR})
        Bd->setScalar(BB.Sym.symbol("s"), S);
    }
    if (First || R.chance(1, 2)) {
      // Monotone with gaps >= 4 (predicate passes) or overlapping
      // (predicate fails -> LRPD speculation -> conflict -> sequential).
      bool Monotone = R.chance(2, 3);
      sym::ArrayBinding A;
      A.Lo = 1;
      for (int64_t K = 0; K < N; ++K)
        A.Vals.push_back(Monotone ? 1 + K * R.nextInRange(4, 5)
                                  : 1 + K * 2);
      BS.setArray(IB, A);
      BR.setArray(IB, A);
    }
    if (First || R.chance(1, 3)) {
      // Irregular subscripts: disjoint (exact test proves independence)
      // or colliding.
      bool Disjoint = R.chance(1, 2);
      sym::ArrayBinding AI, AJ;
      AI.Lo = AJ.Lo = 1;
      for (int64_t K = 0; K < N; ++K) {
        AI.Vals.push_back(Disjoint ? K : R.nextInRange(0, N - 1));
        AJ.Vals.push_back(Disjoint ? N + K : R.nextInRange(0, N - 1));
      }
      BS.setArray(IDX, AI);
      BR.setArray(IDX, AI);
      BS.setArray(JDX, AJ);
      BR.setArray(JDX, AJ);
    }
    if (First || R.chance(1, 3)) {
      // Reduction targets: monotone ramp (injective -> direct updates)
      // or a permutation (injective but not provably so -> private
      // copies) or colliding.
      int Mode = static_cast<int>(R.nextBelow(3));
      sym::ArrayBinding AQ;
      if (Mode == 1) {
        AQ = suite::permutationArray(N, R.next());
      } else {
        AQ.Lo = 1;
        for (int64_t K = 0; K < N; ++K)
          AQ.Vals.push_back(Mode == 0 ? K : K / 2);
      }
      BS.setArray(Q, AQ);
      BR.setArray(Q, AQ);
    }
  }
};

TEST_F(SessionFixture, CachedPlansMatchFreshSessionPerExecution) {
  const unsigned Threads = 2;
  session::SessionOptions SO;
  SO.Threads = Threads;
  session::Session S(B.prog(), B.usr(), SO);
  for (ir::DoLoop *L : {Strided, Blocks, Irregular, Reduce})
    S.prepare(*L, optsFor(L));

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(0xC0FFEE);
  for (int E = 0; E < 8; ++E) {
    mutate(R, BS, BR, MS, MR, E == 0);
    for (ir::DoLoop *L : {Strided, Blocks, Irregular, Reduce}) {
      rt::ExecStats St = S.run(*L, MS, BS);

      // Reference: every execution re-analyzes and re-executes from
      // scratch (fresh session, fresh plan, fresh HOIST cache).
      rt::ExecStats Rs = reference(L, Threads, MR, BR);

      expectStatsEq(St, Rs, L->getLabel().c_str());
      expectMemoryEq(MS, MR, L->getLabel().c_str());
      // Scalars the executions may update must agree too.
      EXPECT_EQ(BS.scalar(BB.Sym.symbol("s")), BR.scalar(BB.Sym.symbol("s")));
      EXPECT_EQ(BS.scalar(BB.Sym.symbol("N")), BR.scalar(BB.Sym.symbol("N")));
    }
  }
  EXPECT_EQ(S.numPreparedLoops(), 4u);
  EXPECT_GT(S.numCompiledPreds(), 0u);
}

TEST_F(SessionFixture, SteadyStateSkipsFrameRebindsAndStaysExact) {
  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session S(B.prog(), B.usr(), SO);

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(7);
  mutate(R, BS, BR, MS, MR, true);

  // Execution 1 binds every stage frame; 2..N with untouched bindings
  // must skip every re-bind and still match a fresh session bit-for-bit.
  rt::ExecStats First = S.run(*Blocks, MS, BS);
  EXPECT_GT(First.FrameBinds, 0u);
  reference(Blocks, 1, MR, BR);
  for (int E = 0; E < 5; ++E) {
    rt::ExecStats St = S.run(*Blocks, MS, BS);
    EXPECT_EQ(St.FrameBinds, 0u);
    EXPECT_GT(St.FrameRebindsSkipped, 0u);
    reference(Blocks, 1, MR, BR);
    expectMemoryEq(MS, MR, "steady state");
  }

  // Mutating the bindings must force a full re-bind (and stay exact).
  BS.setScalar(BB.Sym.symbol("s"), 2);
  BR.setScalar(BB.Sym.symbol("s"), 2);
  rt::ExecStats Rebound = S.run(*Blocks, MS, BS);
  EXPECT_GT(Rebound.FrameBinds, 0u);
}

TEST_F(SessionFixture, MultiThreadedCascadeThroughSessionMatchesReference) {
  // N large enough that the root LoopAll range clears the
  // MinParallelIters * numThreads threshold of the chunked parallel
  // and-reduction (4096 * 4), so parallelAllOf really runs fanned out.
  N = 20000;
  const unsigned Threads = 4;
  session::SessionOptions SO;
  SO.Threads = Threads;
  session::Session S(B.prog(), B.usr(), SO);

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(42);
  mutate(R, BS, BR, MS, MR, true);
  // Force the monotone dataset so the O(N) predicate passes and the loop
  // runs parallel through the session on every execution.
  sym::ArrayBinding A;
  A.Lo = 1;
  for (int64_t K = 0; K < N; ++K)
    A.Vals.push_back(1 + K * 4);
  BS.setArray(IB, A);
  BR.setArray(IB, A);

  for (int E = 0; E < 3; ++E) {
    rt::ExecStats St = S.run(*Blocks, MS, BS);
    EXPECT_TRUE(St.RanParallel);
    EXPECT_FALSE(St.UsedTLS);
    rt::ExecStats Rs = reference(Blocks, Threads, MR, BR);
    expectStatsEq(St, Rs, "parallel blocks");
    expectMemoryEq(MS, MR, "parallel blocks");
  }
}

TEST_F(SessionFixture, RunPreparedRefusesUnknownLoops) {
  // The serve layer's "unknown loop id" error path: runPrepared must
  // refuse (and leave the plan cache untouched) rather than silently
  // analyzing — analysis would mutate the shared contexts, which the
  // concurrent serving contract forbids outside warm-up.
  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session S(B.prog(), B.usr(), SO);
  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(11);
  mutate(R, BS, BR, MS, MR, true);

  EXPECT_FALSE(S.isPrepared(*Strided));
  EXPECT_EQ(S.runPrepared(*Strided, MS, BS), std::nullopt);
  EXPECT_EQ(S.numPreparedLoops(), 0u);
  EXPECT_EQ(S.findPreparedLoop("strided"), nullptr);

  S.prepare(*Strided, optsFor(Strided));
  EXPECT_TRUE(S.isPrepared(*Strided));
  EXPECT_EQ(S.findPreparedLoop("strided"), Strided);
  auto St = S.runPrepared(*Strided, MS, BS);
  ASSERT_TRUE(St.has_value());
  // Parity with the auto-preparing run() path.
  session::Session S2(B.prog(), B.usr(), SO);
  rt::ExecStats Rs = S2.run(*Strided, MR, BR);
  expectStatsEq(*St, Rs, "runPrepared");
  expectMemoryEq(MS, MR, "runPrepared");
  // Other loops remain unknown.
  EXPECT_EQ(S.runPrepared(*Blocks, MS, BS), std::nullopt);
}

TEST_F(SessionFixture, RunBatchRebindingBetweenElementsStaysExact) {
  // The batch error path beyond the pinned happy path: a caller that
  // rebinds data between batch elements (the per-request refresh shape)
  // must invalidate the pooled frames (stamp mismatch -> full re-bind)
  // and stay bit-identical to a fresh session per element.
  session::SessionOptions SO;
  SO.Threads = 2;
  session::Session S(B.prog(), B.usr(), SO);
  S.prepare(*Blocks, optsFor(Blocks));

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(21);
  mutate(R, BS, BR, MS, MR, true);

  auto rebind = [&](unsigned E, sym::Bindings &Bd) {
    // Alternate between passing (monotone, gaps >= 4) and failing
    // (overlapping) datasets for the O(N) monotonicity predicate.
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t K = 0; K < N; ++K)
      A.Vals.push_back(E % 2 == 0 ? 1 + K * 4 : 1 + K * 2);
    Bd.setArray(IB, A);
  };

  auto Stats = S.runBatch(
      *Blocks, MS, BS, 6,
      [&](unsigned E, rt::Memory &, sym::Bindings &Bd) { rebind(E, Bd); });
  ASSERT_EQ(Stats.size(), 6u);

  for (unsigned E = 0; E < 6; ++E) {
    rebind(E, BR);
    rt::ExecStats Rs = reference(Blocks, 2, MR, BR);
    expectStatsEq(Stats[E], Rs, "rebinding batch");
    // Every element re-bound: the mutation bumped the bindings stamp, so
    // no element may serve stale frame contents.
    EXPECT_GT(Stats[E].FrameBinds, 0u) << "element " << E;
  }
  expectMemoryEq(MS, MR, "rebinding batch");

  // Degenerate batches: zero repeats execute nothing.
  EXPECT_TRUE(S.runBatch(*Blocks, MS, BS, 0).empty());
  EXPECT_EQ(S.prepare(*Blocks).Executions, 6u);
}

TEST_F(SessionFixture, RunBatchReportsEveryExecution) {
  session::SessionOptions SO;
  SO.Threads = 2;
  session::Session S(B.prog(), B.usr(), SO);
  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(3);
  mutate(R, BS, BR, MS, MR, true);

  auto Stats = S.runBatch(*Strided, MS, BS, 5);
  ASSERT_EQ(Stats.size(), 5u);
  EXPECT_EQ(S.prepare(*Strided).Executions, 5u);
  // Batch executions after the first reuse the pooled frames.
  for (size_t E = 1; E < Stats.size(); ++E)
    EXPECT_GT(Stats[E].FrameRebindsSkipped, 0u);

  for (int E = 0; E < 5; ++E)
    reference(Strided, 2, MR, BR);
  expectMemoryEq(MS, MR, "batch");
}

TEST_F(SessionFixture, EveryEvalTierSessionMatchesBlockTier) {
  // A session on each evaluation tier must agree with the default
  // block-tier session on every dataset (the A/B harness contract), and
  // fill only its own counter columns.
  for (rt::EvalTier Tier : rt::AllEvalTiers) {
    SCOPED_TRACE(rt::evalTierName(Tier));
    session::SessionOptions SO;
    SO.Threads = 2;
    session::Session SC(B.prog(), B.usr(), SO);
    SO.Tier = Tier;
    session::Session ST(B.prog(), B.usr(), SO);

    rt::Memory MS, MR;
    sym::Bindings BS, BR;
    Rng R(99);
    uint64_t TierScalarEvals = 0;
    for (int E = 0; E < 6; ++E) {
      mutate(R, BS, BR, MS, MR, E == 0);
      for (ir::DoLoop *L : {Strided, Blocks, Reduce}) {
        rt::ExecStats A = SC.run(*L, MS, BS);
        rt::ExecStats I = ST.run(*L, MR, BR);
        // (CascadeDepthUsed is excluded: the compiled tiers re-order
        // same-outcome stages cheapest-first, the interpreter keeps
        // cascade order.)
        EXPECT_EQ(A.RanParallel, I.RanParallel) << L->getLabel();
        EXPECT_EQ(A.UsedTLS, I.UsedTLS) << L->getLabel();
        EXPECT_EQ(A.TLSSucceeded, I.TLSSucceeded) << L->getLabel();
        expectMemoryEq(MS, MR, L->getLabel().c_str());
        EXPECT_EQ(A.InterpPredEvals, 0u) << "session fell back to interp";
        if (Tier == rt::EvalTier::Interpreted) {
          EXPECT_EQ(I.CompiledPredEvals, 0u) << "oracle ran compiled stages";
          EXPECT_EQ(I.BlockEvals + I.ScalarEvals, 0u)
              << "oracle ran bytecode dispatches";
        } else {
          EXPECT_EQ(I.InterpPredEvals, 0u) << "session fell back to interp";
        }
        if (Tier == rt::EvalTier::Scalar)
          EXPECT_EQ(I.BlockEvals, 0u) << "scalar tier ran block sweeps";
        TierScalarEvals += I.ScalarEvals;
      }
    }
    if (Tier == rt::EvalTier::Scalar)
      EXPECT_GT(TierScalarEvals, 0u) << "scalar tier never dispatched";
  }
}

TEST_F(SessionFixture, CompiledUSREngineMatchesInterpreterSessions) {
  // HOIST-USR answers must be identical on the block tier (compiled
  // interval-run USR engine) and on the interpreted tier (reference
  // evalUSREmpty): same Memory bits, same exact-test outcomes,
  // and the governor-counted compiled/interpreted USR split symmetric
  // (both sessions see the same dataset sequence, so their HOIST caches
  // miss on exactly the same executions).
  session::SessionOptions SO;
  SO.Threads = 2;
  session::Session SC(B.prog(), B.usr(), SO); // Compiled interval runs.
  SO.Tier = rt::EvalTier::Interpreted;
  session::Session SI(B.prog(), B.usr(), SO); // Interpreter exact tests.
  SC.prepare(*Irregular, optsFor(Irregular));
  SI.prepare(*Irregular, optsFor(Irregular));
  EXPECT_GT(SC.numCompiledUSRs(), 0u); // Plan-time warmup lowered them.
  EXPECT_EQ(SI.numCompiledUSRs(), 0u);

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(1234);
  uint64_t CompiledEvals = 0, InterpEvals = 0;
  for (int E = 0; E < 8; ++E) {
    mutate(R, BS, BR, MS, MR, E == 0);
    rt::ExecStats A = SC.run(*Irregular, MS, BS);
    rt::ExecStats I = SI.run(*Irregular, MR, BR);
    EXPECT_EQ(A.UsedExactTest, I.UsedExactTest);
    EXPECT_EQ(A.RanParallel, I.RanParallel);
    EXPECT_EQ(A.UsedTLS, I.UsedTLS);
    expectMemoryEq(MS, MR, "hoist-usr A/B");
    EXPECT_EQ(A.InterpUSREvals, 0u) << "compiled session fell back";
    EXPECT_EQ(I.CompiledUSREvals, 0u) << "oracle ran the compiled engine";
    CompiledEvals += A.CompiledUSREvals;
    InterpEvals += I.InterpUSREvals;
  }
  EXPECT_GT(CompiledEvals, 0u);
  EXPECT_EQ(CompiledEvals, InterpEvals);
}

TEST_F(SessionFixture, DuplicatePreparedLabelThrows) {
  // Labels are the serving layer's loop ids; a second prepared loop with
  // the same label would shadow the first in findPreparedLoop and every
  // label-routed request. prepare() must fail loudly instead.
  session::Session S(B.prog(), B.usr());
  S.prepare(*Strided, optsFor(Strided));

  ir::DoLoop *Dup = BB.loop("strided", "i", BB.c(1), BB.s("N"), 1);
  Dup->append(
      BB.reduce(XR, BB.Sym.arrayRef(Q, BB.sv(BB.Sym.symbol("i", 1)))));
  EXPECT_THROW(S.prepare(*Dup), std::invalid_argument);
  EXPECT_THROW(S.prepare(*Dup, optsFor(Dup)), std::invalid_argument);
  EXPECT_FALSE(S.isPrepared(*Dup));

  // Re-preparing the SAME loop under its own label stays legal, and the
  // label still resolves to the original loop.
  EXPECT_NO_THROW(S.prepare(*Strided, optsFor(Strided)));
  EXPECT_EQ(S.findPreparedLoop("strided"), Strided);
}

TEST_F(SessionFixture, RePrepareRetiresOldPlanUntilNextExclusivePhase) {
  // The deferred-reclaim lifetime contract (see Session.h): a re-prepare
  // retires the old PreparedLoop instead of destroying it, so references
  // returned by the earlier prepare() survive the re-prepare itself.
  session::Session S(B.prog(), B.usr());
  const session::PreparedLoop &P1 = S.prepare(*Strided, optsFor(Strided));
  const analysis::LoopPlan *OldPlan = &P1.Plan;

  const session::PreparedLoop &P2 = S.prepare(*Strided, optsFor(Strided));
  EXPECT_NE(&P2, &P1); // Fresh plan; the old one retired, not recycled.
  EXPECT_EQ(S.numRetiredPlans(), 1u);
  // The retired plan is still alive and readable through the old
  // reference (before the fix this was a use-after-free).
  EXPECT_EQ(OldPlan->Loop, Strided);

  // The next exclusive phase sweeps it (nothing is in flight).
  S.prepare(*Blocks, optsFor(Blocks));
  EXPECT_EQ(S.numRetiredPlans(), 0u);

  // invalidate() retires the same way: the plan survives the call that
  // dropped it and disappears at the next exclusive phase.
  const session::PreparedLoop &P3 = S.prepare(*Strided, optsFor(Strided));
  const analysis::LoopPlan *DroppedPlan = &P3.Plan;
  S.invalidate(*Strided); // Sweeps P2's retired plan, then retires P3's.
  EXPECT_FALSE(S.isPrepared(*Strided));
  EXPECT_EQ(S.numRetiredPlans(), 1u);
  EXPECT_EQ(DroppedPlan->Loop, Strided);
  S.invalidate(*Blocks); // Sweeps P3's plan, retires the Blocks plan.
  EXPECT_EQ(S.numRetiredPlans(), 1u);

  // The session still executes correctly against re-prepared plans.
  S.prepare(*Strided, optsFor(Strided));
  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  Rng R(11);
  mutate(R, BS, BR, MS, MR, true);
  std::optional<rt::ExecStats> St = S.runPrepared(*Strided, MS, BS);
  ASSERT_TRUE(St.has_value());
  rt::ExecStats Rs = reference(Strided, 2, MR, BR);
  expectStatsEq(*St, Rs, "post-retire");
  expectMemoryEq(MS, MR, "post-retire");
}

TEST(SessionHoistCacheTest, VerifiedHitsStayCorrectAcrossDatasets) {
  // The HOIST-USR cache must serve hits only for identical relevant
  // inputs (verified, collision-safe) and re-evaluate otherwise:
  // alternating datasets through one session must match a fresh session
  // every time.
  suite::Benchmark B;
  suite::BenchBuilder BB(B);
  const int64_t N = 64;
  sym::SymbolId XI = BB.dataArray("XI", BB.Sym.mulConst(BB.s("N"), 4));
  sym::SymbolId IDX = BB.indexArray("IDX");
  sym::SymbolId JDX = BB.indexArray("JDX");
  ir::DoLoop *L =
      suite::makeIrregularLoop(BB, "irr", "i", XI, IDX, JDX, BB.s("N"), 0);

  analysis::AnalyzerOptions Opts;
  Opts.HoistableContext = true;
  session::SessionOptions SO;
  SO.Threads = 2;
  session::Session S(B.prog(), B.usr(), SO);
  S.prepare(*L, Opts);

  auto dataset = [&](int Which, sym::Bindings &Bd) {
    sym::ArrayBinding AI, AJ;
    AI.Lo = AJ.Lo = 1;
    for (int64_t K = 0; K < N; ++K) {
      AI.Vals.push_back(K);
      AJ.Vals.push_back(Which == 0 ? N + K : 2 * N + K);
    }
    Bd.setScalar(BB.Sym.symbol("N"), N);
    Bd.setArray(IDX, AI);
    Bd.setArray(JDX, AJ);
  };

  rt::Memory MS, MR;
  sym::Bindings BS, BR;
  for (rt::Memory *M : {&MS, &MR})
    M->alloc(XI, static_cast<size_t>(4 * N));
  size_t SizeAfterBothDatasets = 0;
  for (int E = 0; E < 6; ++E) {
    dataset(E % 2, BS);
    dataset(E % 2, BR);
    rt::ExecStats St = S.run(*L, MS, BS);
    EXPECT_TRUE(St.UsedExactTest);
    rt::ExecStats Rs = freshRun(B, *L, Opts, 2, MR, BR);
    expectStatsEq(St, Rs, "hoist");
    expectMemoryEq(MS, MR, "hoist");
    if (E == 1)
      SizeAfterBothDatasets = S.hoistCache().size();
  }
  // Repeats of the two datasets are pure hits: no new entries, and the
  // verification hash never fired (no collisions).
  EXPECT_GT(S.hoistCache().size(), 0u);
  EXPECT_EQ(S.hoistCache().size(), SizeAfterBothDatasets);
  EXPECT_EQ(S.hoistCache().collisions(), 0u);
}

TEST_F(SessionFixture, RunPreparedShedsPreFiredTokensWithoutSideEffects) {
  // A token that fired before the execution starts must shed it
  // entirely: no Executions bump, no memory mutation, and an ExecStats
  // record carrying the abort reason (never an exception or garbage
  // classification).
  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session S(B.prog(), B.usr(), SO);
  const session::PreparedLoop &PL = S.prepare(*Strided, optsFor(Strided));

  rt::Memory MS, MR; // MR = untouched twin of MS.
  sym::Bindings BS, BR;
  Rng R(42);
  mutate(R, BS, BR, MS, MR, true);
  const uint64_t Before = PL.Executions.load();

  support::CancelToken Cancelled;
  Cancelled.cancel();
  std::optional<rt::ExecStats> StC =
      S.runPrepared(*Strided, MS, BS, &Cancelled);
  ASSERT_TRUE(StC.has_value());
  EXPECT_EQ(StC->Aborted, rt::ExecStats::AbortReason::Cancelled);

  support::CancelToken Expired(std::chrono::steady_clock::now() -
                               std::chrono::milliseconds(1));
  std::optional<rt::ExecStats> StE =
      S.runPrepared(*Strided, MS, BS, &Expired);
  ASSERT_TRUE(StE.has_value());
  EXPECT_EQ(StE->Aborted, rt::ExecStats::AbortReason::Expired);

  // Neither shed execution counted or wrote anything.
  EXPECT_EQ(PL.Executions.load(), Before);
  expectMemoryEq(MS, MR, "shed executions must not touch memory");

  // A live token runs normally and counts.
  support::CancelToken Live;
  std::optional<rt::ExecStats> StL = S.runPrepared(*Strided, MS, BS, &Live);
  ASSERT_TRUE(StL.has_value());
  EXPECT_EQ(StL->Aborted, rt::ExecStats::AbortReason::None);
  EXPECT_EQ(PL.Executions.load(), Before + 1);
}

} // namespace
