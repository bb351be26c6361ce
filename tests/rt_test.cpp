//===- tests/rt_test.cpp - Runtime executor unit tests --------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/Executor.h"

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
  /// (compiled cascades, frames, HOIST-USR memo, compiled-USR cache).
  ExecStats runPlan(const analysis::LoopPlan &Plan, Memory &M,
                    sym::Bindings &B, ThreadPool &Pool) {
    PredCompileCache Preds(Sym);
    USRCompileCache Usrs(Sym, Preds);
    PlanCascades Pre = PlanCascades::build(Plan, Preds);
    ExecContext Ctx;
    HoistCache Hoist;
    return runPlanned(Plan, Pre, M, B, Pool, Ctx, Hoist, Usrs,
                      EvalTier::Block);
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
  sym::Bindings B;
  M.alloc(X, 32);
  std::vector<const Stmt *> Stmts{Prog.make<CallStmt>(
      Work, std::vector<CallStmt::ArrayArg>{{F1, X, c(10)}},
      std::vector<CallStmt::ScalarArg>{})};
  interpStmts(Stmts, M, B);
  for (int K = 0; K < 32; ++K) {
    if (K >= 15 && K < 19)
      EXPECT_NE((*M.find(X))[K], 0.0) << K;
    else
      EXPECT_EQ((*M.find(X))[K], 0.0) << K;
  }
}

} // namespace
