//===- tests/rt_test.cpp - Runtime executor unit tests --------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/Executor.h"
#include "session/Session.h"

#include <cstring>
#include <functional>
#include <gtest/gtest.h>

using namespace halo;
using namespace halo::rt;
using namespace halo::ir;

namespace {

class RtTest : public ::testing::Test {
protected:
  RtTest() : P(Sym), U(Sym, P), Prog(Sym, P) {
    Main = Prog.makeSubroutine("main");
  }
  sym::Context Sym;
  pdag::PredContext P;
  usr::USRContext U;
  Program Prog;
  Subroutine *Main;

  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }

  /// DO i = 1..N: X[i-1] = f(Y[i-1]) — trivially parallel.
  DoLoop *parLoop(sym::SymbolId X, sym::SymbolId Y) {
    sym::SymbolId I = Sym.symbol("i", 1);
    DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
    const sym::Expr *Off = Sym.addConst(Sym.symRef(I), -1);
    L->append(Prog.make<AssignStmt>(ArrayAccess{X, Off},
                                    std::vector<ArrayAccess>{{Y, Off}},
                                    false, 0));
    return L;
  }

  analysis::LoopPlan planFor(DoLoop *L, sym::Bindings *Probe = nullptr) {
    analysis::AnalyzerOptions Opts;
    Opts.Probe = Probe;
    analysis::HybridAnalyzer A(U, Prog, Opts);
    return A.analyze(*L);
  }

  /// Runs the governor on \p Plan with freshly built plan-time artifacts
  /// (compiled cascades and body, frames, HOIST-USR memo, compiled-USR
  /// cache).
  ExecStats runPlan(const analysis::LoopPlan &Plan, Memory &M,
                    sym::Bindings &B, ThreadPool &Pool,
                    EvalTier Tier = EvalTier::Block) {
    PredCompileCache Preds(Sym);
    USRCompileCache Usrs(Sym, Preds);
    PlanCascades Pre = PlanCascades::build(Plan, Preds);
    std::unique_ptr<const CompiledBody> Body =
        CompiledBody::compile(*Plan.Loop, Sym);
    ExecContext Ctx;
    HoistCache Hoist;
    return runPlanned(Plan, Pre, Body.get(), M, B, Pool, Ctx, Hoist, Usrs,
                      Tier);
  }
  /// Declares indirectLoop's data array X and index arrays IDX, JDX.
  void declareIndirect() {
    Main->declareArray(ArrayDecl{Sym.symbol("X", 0, true), nullptr, false});
    Main->declareArray(ArrayDecl{Sym.symbol("IDX", 0, true), nullptr, true});
    Main->declareArray(ArrayDecl{Sym.symbol("JDX", 0, true), nullptr, true});
  }

  /// DO i = 1..N: X[IDX(i)] = f(X[JDX(i)]), or with \p Reduction the
  /// read-free update X[IDX(i)] += f().
  DoLoop *indirectLoop(const std::string &Label, bool Reduction) {
    sym::SymbolId X = Sym.symbol("X", 0, true);
    sym::SymbolId IDX = Sym.symbol("IDX", 0, true);
    sym::SymbolId JDX = Sym.symbol("JDX", 0, true);
    sym::SymbolId I = Sym.symbol("i", 1);
    DoLoop *L = Prog.make<DoLoop>(Label, I, c(1), s("N"), 1);
    std::vector<ArrayAccess> Reads;
    if (!Reduction)
      Reads.push_back({X, Sym.arrayRef(JDX, Sym.symRef(I))});
    L->append(Prog.make<AssignStmt>(
        ArrayAccess{X, Sym.arrayRef(IDX, Sym.symRef(I))}, Reads, Reduction,
        0));
    return L;
  }

  /// Binds indirectLoop's inputs: N = |Idx|, the 1-based index arrays,
  /// and X with 2N+2 distinct values.
  void bindIndirect(Memory &M, sym::Bindings &B,
                    const std::vector<int64_t> &Idx,
                    const std::vector<int64_t> &Jdx) {
    B.setScalar(Sym.symbol("N"), static_cast<int64_t>(Idx.size()));
    sym::ArrayBinding IV, JV;
    IV.Lo = JV.Lo = 1;
    IV.Vals = Idx;
    JV.Vals = Jdx.empty() ? Idx : Jdx;
    B.setArray(Sym.symbol("IDX", 0, true), IV);
    B.setArray(Sym.symbol("JDX", 0, true), JV);
    auto &XV = M.alloc(Sym.symbol("X", 0, true), 2 * Idx.size() + 2);
    for (size_t K = 0; K < XV.size(); ++K)
      XV[K] = static_cast<double>(K) + 0.25;
  }

  /// A copy of \p Plan whose every runtime test fails and that carries no
  /// exact-test USRs, so the governor must speculate.
  static analysis::LoopPlan forceSpeculation(analysis::LoopPlan Plan) {
    Plan.Class = analysis::LoopClass::TLS;
    Plan.RuntimeTestsEnabled = true;
    for (analysis::ArrayPlan &AP : Plan.Arrays) {
      for (analysis::TestCascade *C :
           {&AP.Flow, &AP.Output, &AP.Priv, &AP.Slv, &AP.RRed,
            &AP.ExtRedFlow})
        *C = analysis::TestCascade{};
      AP.FlowUSR = AP.OutputUSR = AP.ExtRedUSR = nullptr;
    }
    return Plan;
  }

  static bool bitIdentical(Memory &A, Memory &B, sym::SymbolId Arr) {
    const std::vector<double> &VA = *A.find(Arr), &VB = *B.find(Arr);
    return VA.size() == VB.size() &&
           std::memcmp(VA.data(), VB.data(), VA.size() * sizeof(double)) ==
               0;
  }
};

TEST_F(RtTest, ThreadPoolParallelForCoversRange) {
  ThreadPool Pool(4);
  std::vector<int> Hits(100, 0);
  Pool.parallelFor(0, 100, [&](int64_t I) { Hits[I]++; });
  for (int H : Hits)
    EXPECT_EQ(H, 1);
}

TEST_F(RtTest, ThreadPoolEmptyRange) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(5, 5, [&](int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST_F(RtTest, ThreadPoolSingleThreadInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  int64_t Sum = 0;
  Pool.parallelFor(0, 10, [&](int64_t I) { Sum += I; }); // No races: inline.
  EXPECT_EQ(Sum, 45);
}

TEST_F(RtTest, SequentialExecutionWritesExpectedValues) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId Y = Sym.symbol("Y", 0, true);
  Main->declareArray(ArrayDecl{X, Sym.mulConst(s("N"), 1), false});
  DoLoop *L = parLoop(X, Y);
  Memory M;
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 8);
  M.alloc(X, 8);
  auto &YV = M.alloc(Y, 8);
  for (int I = 0; I < 8; ++I)
    YV[I] = I;
  interpSequential(*L, M, B);
  // X[i] = 1.0 + 0.5 * Y[i].
  for (int I = 0; I < 8; ++I)
    EXPECT_DOUBLE_EQ((*M.find(X))[I], 1.0 + 0.5 * I);
}

TEST_F(RtTest, PlannedParallelMatchesSequentialOnStaticPar) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId Y = Sym.symbol("Y", 0, true);
  DoLoop *L = parLoop(X, Y);
  analysis::LoopPlan Plan = planFor(L);
  EXPECT_EQ(Plan.Class, analysis::LoopClass::StaticPar);

  Memory M;
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 1000);
  M.alloc(X, 1000);
  auto &YV = M.alloc(Y, 1000);
  for (int I = 0; I < 1000; ++I)
    YV[I] = I * 0.25;
  ThreadPool Pool(4);
  ExecStats S = runPlan(Plan, M, B, Pool);
  EXPECT_TRUE(S.RanParallel);
  EXPECT_FALSE(S.UsedTLS);
  for (int I = 0; I < 1000; ++I)
    EXPECT_DOUBLE_EQ((*M.find(X))[I], 1.0 + 0.5 * (I * 0.25));
}

TEST_F(RtTest, SpeculationDetectsGenuineConflicts) {
  // X[IDX(i)] = f(X[JDX(i)]) with colliding IDX: the LRPD run must
  // detect the conflict and fall back to sequential semantics.
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId IDX = Sym.symbol("IDX", 0, true);
  sym::SymbolId JDX = Sym.symbol("JDX", 0, true);
  Main->declareArray(ArrayDecl{X, nullptr, false});
  Main->declareArray(ArrayDecl{IDX, nullptr, true});
  Main->declareArray(ArrayDecl{JDX, nullptr, true});
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("irr", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.arrayRef(IDX, Sym.symRef(I))},
      std::vector<ArrayAccess>{{X, Sym.arrayRef(JDX, Sym.symRef(I))}},
      false, 0));

  auto Setup = [&](Memory &M, sym::Bindings &B, bool Conflict) {
    int64_t N = 64;
    B.setScalar(Sym.symbol("N"), N);
    sym::ArrayBinding IV, JV;
    IV.Lo = JV.Lo = 1;
    for (int64_t K = 0; K < N; ++K) {
      // Conflicting: all writes hit slot 0 and iteration i reads what
      // iteration i-1 wrote. Clean: disjoint odd/even split.
      IV.Vals.push_back(Conflict ? 0 : 2 * K);
      JV.Vals.push_back(Conflict ? 0 : 2 * K + 1);
    }
    B.setArray(IDX, IV);
    B.setArray(JDX, JV);
    auto &XV = M.alloc(X, 130);
    for (size_t K = 0; K < XV.size(); ++K)
      XV[K] = static_cast<double>(K);
  };

  for (bool Conflict : {false, true}) {
    Memory SeqM, ParM;
    sym::Bindings SeqB, ParB;
    Setup(SeqM, SeqB, Conflict);
    Setup(ParM, ParB, Conflict);
    analysis::LoopPlan Plan = planFor(L, &ParB);
    interpSequential(*L, SeqM, SeqB);
    ThreadPool Pool(4);
    ExecStats S = runPlan(Plan, ParM, ParB, Pool);
    SCOPED_TRACE(Conflict ? "conflicting" : "clean");
    if (Conflict) {
      // Misspeculation must not corrupt state: results match sequential.
      EXPECT_TRUE(S.UsedTLS || !S.RanParallel);
      EXPECT_FALSE(S.TLSSucceeded);
    } else {
      EXPECT_TRUE(S.RanParallel);
    }
    for (size_t K = 0; K < 130; ++K)
      EXPECT_DOUBLE_EQ((*SeqM.find(X))[K], (*ParM.find(X))[K]);
  }
}

TEST_F(RtTest, SpeculationCatchesFlowFromEarlierWorkerBlock) {
  // Iteration 1 (worker block 0) reads and writes X[0]; the first
  // iteration of block 1 only reads X[0]. Sequential order makes that
  // read see iteration 1's write, so speculation must fail however the
  // two blocks interleave. A single last-reader shadow misses this when
  // block 1 reads first and iteration 1's own read then overwrites it.
  const int64_t N = 8;
  sym::SymbolId X = Sym.symbol("X", 0, true);
  declareIndirect();
  DoLoop *L = indirectLoop("cross_block_flow", /*Reduction=*/false);
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    const int64_t Reader = 1 + N / Threads; // First iteration of block 1.
    std::vector<int64_t> Idx, Jdx;
    for (int64_t I = 1; I <= N; ++I) {
      Idx.push_back(I - 1);
      Jdx.push_back(I == 1 || I == Reader ? 0 : N + I);
    }
    Memory SeqM;
    sym::Bindings SeqB;
    bindIndirect(SeqM, SeqB, Idx, Jdx);
    interpSequential(*L, SeqM, SeqB);

    session::SessionOptions SO;
    SO.Threads = Threads;
    session::Session S(Prog, U, SO);
    S.prepare(*L);
    for (int Rep = 0; Rep < 200; ++Rep) {
      Memory M;
      sym::Bindings B;
      bindIndirect(M, B, Idx, Jdx);
      ExecStats St = S.run(*L, M, B);
      ASSERT_TRUE(St.UsedTLS) << "rep " << Rep;
      ASSERT_FALSE(St.TLSSucceeded) << "rep " << Rep;
      ASSERT_TRUE(bitIdentical(SeqM, M, X)) << "rep " << Rep;
    }

    // The post-join verdict, scheduling taken out: run block 1 before
    // block 0 on worker-private views, then check across them.
    Memory M;
    sym::Bindings B;
    bindIndirect(M, B, Idx, Jdx);
    std::vector<PrivateArray> Views(2);
    for (PrivateArray &P : Views) {
      P.Buf = *M.find(X);
      P.LastIter.assign(P.Buf.size(), -1);
      P.ExposedRead.assign(P.Buf.size(), 0);
    }
    auto RunBlock = [&](unsigned T, int64_t BLo, int64_t BHi) {
      ExecState St(M, B);
      St.Speculative = true;
      St.Private[X] = &Views[T];
      for (int64_t I = BLo; I < BHi; ++I) {
        St.CurrentIter = I;
        St.B.setScalar(L->getVar(), I);
        for (const Stmt *C : L->getBody())
          interpStmt(C, St);
      }
      EXPECT_FALSE(St.Conflict) << "no flow inside block " << T;
    };
    RunBlock(1, Reader, std::min(N + 1, Reader + N / Threads));
    RunBlock(0, 1, Reader);
    EXPECT_TRUE(flowAcrossWorkers(Views));
    EXPECT_EQ(Views[1].ExposedRead[0], 1);
    EXPECT_EQ(Views[0].LastIter[0], 1);
  }
}

TEST_F(RtTest, SpeculationVerdictIsFlowDependenceAtEveryThreadCount) {
  // The verdict is "no cross-iteration flow dependence": anti and output
  // dependences commit through the buffered views and the ordered merge,
  // a flow dependence (a reduction update counts as a read plus a write)
  // falls back to sequential. It must not depend on the thread count.
  const int64_t N = 12;
  sym::SymbolId X = Sym.symbol("X", 0, true);
  declareIndirect();
  DoLoop *Plain = indirectLoop("plain", /*Reduction=*/false);
  DoLoop *Red = indirectLoop("red", /*Reduction=*/true);
  analysis::LoopPlan PlainPlan = forceSpeculation(planFor(Plain));
  analysis::LoopPlan RedPlan = forceSpeculation(planFor(Red));

  struct Case {
    const char *Name;
    bool Reduction;
    bool Succeeds;
    std::function<int64_t(int64_t)> Idx, Jdx;
  };
  const std::vector<Case> Cases = {
      // Iteration i reads X[i], which only iteration i+1 writes.
      {"anti-only", false, true, [](int64_t I) { return I - 1; },
       [](int64_t I) { return I; }},
      // Three iterations write each element; reads hit unwritten ones.
      {"output-only", false, true, [](int64_t I) { return (I - 1) / 3; },
       [N](int64_t I) { return N + I; }},
      // Iteration 2 reads what iteration 1 wrote (block 0 at any count).
      {"flow-in-block", false, false, [](int64_t I) { return I - 1; },
       [N](int64_t I) { return I == 2 ? 0 : N + I; }},
      // Iteration N (the last block) reads what iteration 1 wrote.
      {"flow-across-blocks", false, false, [](int64_t I) { return I - 1; },
       [N](int64_t I) { return I == N ? 0 : N + I; }},
      // Iterations 1 and N both update X[0].
      {"two-reductions-one-element", true, false,
       [N](int64_t I) { return I == N ? 0 : I - 1; }, nullptr},
      {"injective-reduction", true, true, [](int64_t I) { return I - 1; },
       nullptr},
  };
  for (const Case &K : Cases) {
    std::vector<int64_t> Idx, Jdx;
    for (int64_t I = 1; I <= N; ++I) {
      Idx.push_back(K.Idx(I));
      if (K.Jdx)
        Jdx.push_back(K.Jdx(I));
    }
    Memory SeqM;
    sym::Bindings SeqB;
    bindIndirect(SeqM, SeqB, Idx, Jdx);
    interpSequential(K.Reduction ? *Red : *Plain, SeqM, SeqB);
    for (unsigned Threads : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(std::string(K.Name) + " threads=" +
                   std::to_string(Threads));
      Memory M;
      sym::Bindings B;
      bindIndirect(M, B, Idx, Jdx);
      ThreadPool Pool(Threads);
      ExecStats St = runPlan(K.Reduction ? RedPlan : PlainPlan, M, B, Pool);
      EXPECT_TRUE(St.UsedTLS);
      EXPECT_EQ(St.TLSSucceeded, K.Succeeds);
      EXPECT_EQ(St.RanParallel, K.Succeeds);
      EXPECT_TRUE(bitIdentical(SeqM, M, X));
    }
  }
}

TEST_F(RtTest, HoistCacheMemoizesExactTests) {
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  const usr::USR *S =
      U.recur(I, c(1), s("N"),
              U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2)));
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 50);
  sym::ArrayBinding A;
  A.Lo = 1;
  for (int K = 0; K < 50; ++K)
    A.Vals.push_back(K * 3);
  B.setArray(IB, A);

  HoistCache Cache;
  bool Hit = false;
  auto V1 = Cache.emptiness(S, B, Sym, Hit);
  ASSERT_TRUE(V1.has_value());
  EXPECT_FALSE(Hit);
  EXPECT_FALSE(*V1); // The set is nonempty.
  auto V2 = Cache.emptiness(S, B, Sym, Hit);
  EXPECT_TRUE(Hit); // Second evaluation is a cache hit.
  EXPECT_EQ(*V1, *V2);
  // Different data invalidates the key.
  A.Vals[0] = 999;
  B.setArray(IB, A);
  auto V3 = Cache.emptiness(S, B, Sym, Hit);
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(V3.has_value());
}

TEST_F(RtTest, ComputeBoundsMatchesBruteForce) {
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  const usr::USR *S =
      U.recur(I, c(1), s("N"),
              U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(3)));
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 40);
  sym::ArrayBinding A;
  A.Lo = 1;
  int64_t Min = 1 << 30, Max = -1;
  for (int K = 0; K < 40; ++K) {
    int64_t V = (K * 37) % 101;
    A.Vals.push_back(V);
    Min = std::min(Min, V);
    Max = std::max(Max, V + 2);
  }
  B.setArray(IB, A);
  ThreadPool Pool(4);
  int64_t Lo = 0, Hi = -1;
  ASSERT_TRUE(interpBounds(S, B, Pool, Lo, Hi));
  EXPECT_EQ(Lo, Min);
  EXPECT_EQ(Hi, Max);
}

TEST_F(RtTest, CivSliceComputesPrefixValues) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId NSP = Sym.symbol("NSP", 0, true);
  sym::SymbolId Civ = Sym.symbol("civ", 1);
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 2);
  DoLoop *L = Prog.make<DoLoop>("civ", I, c(1), s("N"), 1);
  DoLoop *Inner = Prog.make<DoLoop>("civ_j", J, c(1),
                                    Sym.arrayRef(NSP, Sym.symRef(I)), 2);
  Inner->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.addConst(Sym.add(Sym.symRef(Civ), Sym.symRef(J)),
                                  -1)},
      std::vector<ArrayAccess>{}, false, 0));
  L->append(Inner);
  L->append(Prog.make<CivIncrStmt>(Civ, Sym.arrayRef(NSP, Sym.symRef(I))));

  summary::SummaryBuilder SB(U, Prog);
  summary::CivPlan Plan;
  (void)SB.summarizeIteration(*L, Plan);
  ASSERT_EQ(Plan.Civs.size(), 1u);

  Memory M;
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 4);
  B.setScalar(Civ, 0);
  sym::ArrayBinding NV;
  NV.Lo = 1;
  NV.Vals = {3, 1, 0, 5};
  B.setArray(NSP, NV);
  interpCivSlice(*L, Plan, M, B);
  const sym::ArrayBinding *Pre = B.array(Plan.Civs[0].EntryArr);
  ASSERT_NE(Pre, nullptr);
  // Prefix sums: 0, 3, 4, 4, 9 (the last entry is the final value).
  EXPECT_EQ(Pre->Vals, (std::vector<int64_t>{0, 3, 4, 4, 9}));
}

TEST_F(RtTest, ReductionPrivateCopiesMatchDirect) {
  // A pure reduction loop: parallel private-copy merge must equal
  // sequential accumulation (up to FP tolerance).
  sym::SymbolId A = Sym.symbol("A", 0, true);
  sym::SymbolId QQ = Sym.symbol("Q", 0, true);
  Main->declareArray(ArrayDecl{A, nullptr, false});
  Main->declareArray(ArrayDecl{QQ, nullptr, true});
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("red", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{A, Sym.arrayRef(QQ, Sym.symRef(I))},
      std::vector<ArrayAccess>{}, true, 0));

  auto Setup = [&](Memory &M, sym::Bindings &B) {
    int64_t N = 500;
    B.setScalar(Sym.symbol("N"), N);
    sym::ArrayBinding QV;
    QV.Lo = 1;
    for (int64_t K = 0; K < N; ++K)
      QV.Vals.push_back(K % 7); // Heavy collisions.
    B.setArray(QQ, QV);
    M.alloc(A, 8);
  };
  Memory SeqM, ParM;
  sym::Bindings SeqB, ParB;
  Setup(SeqM, SeqB);
  Setup(ParM, ParB);
  analysis::LoopPlan Plan = planFor(L, &ParB);
  interpSequential(*L, SeqM, SeqB);
  ThreadPool Pool(4);
  ExecStats S = runPlan(Plan, ParM, ParB, Pool);
  EXPECT_TRUE(S.RanParallel);
  for (int K = 0; K < 8; ++K)
    EXPECT_NEAR((*SeqM.find(A))[K], (*ParM.find(A))[K], 1e-9);
}

TEST_F(RtTest, ReductionBuffersCoverOnlyTheBoundsCompSpan) {
  // A(Q(i) + 10) += f() on an assumed-size A of 64 elements with Q(i) in
  // 0..6: BOUNDS-COMP finds [10, 16], so each worker's private buffer
  // holds BH - BL + 1 = 7 elements instead of 64. Memory must be
  // bit-identical to a whole-array run on both body engines.
  sym::SymbolId A = Sym.symbol("A", 0, true);
  sym::SymbolId QQ = Sym.symbol("Q", 0, true);
  Main->declareArray(ArrayDecl{A, nullptr, false});
  Main->declareArray(ArrayDecl{QQ, nullptr, true});
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("red_span", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{A, Sym.addConst(Sym.arrayRef(QQ, Sym.symRef(I)), 10)},
      std::vector<ArrayAccess>{}, true, 0));
  auto Setup = [&](Memory &M, sym::Bindings &B) {
    int64_t N = 300;
    B.setScalar(Sym.symbol("N"), N);
    sym::ArrayBinding QV;
    QV.Lo = 1;
    for (int64_t K = 0; K < N; ++K)
      QV.Vals.push_back(K % 7);
    B.setArray(QQ, QV);
    auto &AV = M.alloc(A, 64);
    for (size_t K = 0; K < AV.size(); ++K)
      AV[K] = static_cast<double>(K) + 0.25;
  };
  sym::Bindings Probe;
  {
    Memory PM;
    Setup(PM, Probe);
  }
  const analysis::LoopPlan Plan = planFor(L, &Probe);
  ASSERT_EQ(Plan.Arrays.size(), 1u);
  ASSERT_TRUE(Plan.Arrays[0].NeedsBoundsComp);
  analysis::LoopPlan Whole = Plan;
  Whole.Arrays[0].BoundsUSR = nullptr;
  ThreadPool Pool(4);
  for (EvalTier Tier : AllEvalTiers) {
    Memory MS, MW;
    sym::Bindings BS, BW;
    Setup(MS, BS);
    Setup(MW, BW);
    ExecStats Span = runPlan(Plan, MS, BS, Pool, Tier);
    ExecStats Full = runPlan(Whole, MW, BW, Pool, Tier);
    ASSERT_TRUE(Span.RanParallel) << evalTierName(Tier);
    EXPECT_EQ(Span.ReductionSpanElems, 7u) << evalTierName(Tier);
    EXPECT_EQ(Full.ReductionSpanElems, 64u) << evalTierName(Tier);
    EXPECT_TRUE(bitIdentical(MS, MW, A)) << evalTierName(Tier);
    Memory MSeq;
    sym::Bindings BSeq;
    Setup(MSeq, BSeq);
    interpSequential(*L, MSeq, BSeq);
    for (int K = 0; K < 64; ++K)
      EXPECT_NEAR((*MSeq.find(A))[K], (*MS.find(A))[K], 1e-9) << K;
  }
}

TEST_F(RtTest, CallSiteAliasingResolvesNestedOffsets) {
  // main calls work(X + 10) which calls inner(formal + 5): stores land at
  // base offset 15.
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId F1 = Sym.symbol("F1", 0, true);
  sym::SymbolId F2 = Sym.symbol("F2", 0, true);
  Subroutine *InnerS = Prog.makeSubroutine("inner");
  {
    sym::SymbolId J = Sym.symbol("j_in", 0);
    DoLoop *D = Prog.make<DoLoop>("d", J, c(1), c(4), 1);
    D->append(Prog.make<AssignStmt>(
        ArrayAccess{F2, Sym.addConst(Sym.symRef(J), -1)},
        std::vector<ArrayAccess>{}, false, 0));
    InnerS->append(D);
  }
  Subroutine *Work = Prog.makeSubroutine("work");
  Work->append(Prog.make<CallStmt>(
      InnerS, std::vector<CallStmt::ArrayArg>{{F2, F1, c(5)}},
      std::vector<CallStmt::ScalarArg>{}));
  Memory M;
  M.alloc(X, 32);
  ExecState St(M, sym::Bindings());
  interpStmt(Prog.make<CallStmt>(
                 Work, std::vector<CallStmt::ArrayArg>{{F1, X, c(10)}},
                 std::vector<CallStmt::ScalarArg>{}),
             St);
  for (int K = 0; K < 32; ++K) {
    if (K >= 15 && K < 19)
      EXPECT_NE((*M.find(X))[K], 0.0) << K;
    else
      EXPECT_EQ((*M.find(X))[K], 0.0) << K;
  }
}

} // namespace
