//===- tests/body_compile_test.cpp - Compiled-body parity tests -----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The compiled loop body (rt/BodyCode.h) against the reference
// interpreter (EvalTier::Interpreted): on every suite loop at Scale 1 and
// 2 — sequential, planned at 1 and 4 threads, and a forced-speculation
// plan copy — memory (reduction targets included: both engines share the
// block partition and merge order) and the final scalar bindings must be
// bit-identical. Directed cases pin the inlining and save/restore rules
// and the lowering-guard demotion.
//
//===----------------------------------------------------------------------===//

#include "rt/BodyCode.h"
#include "rt/Executor.h"
#include "session/Session.h"
#include "suite/Suite.h"

#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <string>

using namespace halo;
using namespace halo::ir;

namespace {

/// Bitwise memory equality (doubles compared as bytes).
void expectMemoryEq(const rt::Memory &A, const rt::Memory &B,
                    const std::string &What) {
  ASSERT_EQ(A.arrays().size(), B.arrays().size()) << What;
  for (const auto &KV : A.arrays()) {
    auto It = B.arrays().find(KV.first);
    ASSERT_NE(It, B.arrays().end()) << What;
    ASSERT_EQ(KV.second.size(), It->second.size()) << What;
    if (!KV.second.empty())
      EXPECT_EQ(std::memcmp(KV.second.data(), It->second.data(),
                            KV.second.size() * sizeof(double)),
                0)
          << What << ": array " << KV.first;
  }
}

/// Every scalar symbol of \p Ctx is bound identically in \p A and \p B.
void expectScalarsEq(const sym::Context &Ctx, const sym::Bindings &A,
                     const sym::Bindings &B, const std::string &What) {
  for (size_t Id = 0; Id < Ctx.numSymbols(); ++Id) {
    const auto S = static_cast<sym::SymbolId>(Id);
    if (Ctx.symbolInfo(S).IsArray)
      continue;
    EXPECT_EQ(A.scalar(S), B.scalar(S))
        << What << ": scalar " << Ctx.symbolInfo(S).Name;
  }
}

/// The tier split: an interpreted run never uses the compiled body, and a
/// compiled run of a lowered body never uses the interpreter.
void expectBodySplit(const rt::ExecStats &Interp, const rt::ExecStats &Comp,
                     const std::string &What) {
  EXPECT_EQ(Interp.CompiledBodyRuns, 0u) << What;
  EXPECT_EQ(Comp.InterpBodyRuns, 0u) << What;
  EXPECT_EQ(Comp.GuardDemotions, Interp.GuardDemotions) << What;
  EXPECT_EQ(Interp.InterpBodyRuns, Comp.CompiledBodyRuns) << What;
  EXPECT_EQ(Interp.ReductionSpanElems, Comp.ReductionSpanElems) << What;
}

/// A copy of \p Plan whose every runtime test fails and that carries no
/// exact-test USRs, so the governor must speculate.
analysis::LoopPlan forceSpeculation(analysis::LoopPlan Plan) {
  Plan.Class = analysis::LoopClass::TLS;
  Plan.RuntimeTestsEnabled = true;
  for (analysis::ArrayPlan &AP : Plan.Arrays) {
    for (analysis::TestCascade *C : {&AP.Flow, &AP.Output, &AP.Priv, &AP.Slv,
                                     &AP.RRed, &AP.ExtRedFlow})
      *C = analysis::TestCascade{};
    AP.FlowUSR = AP.OutputUSR = AP.ExtRedUSR = nullptr;
  }
  return Plan;
}

/// Runs \p Plan through the governor with fresh plan-time artifacts on
/// \p Tier (the compiled tiers get \p Body).
rt::ExecStats runGovernor(const analysis::LoopPlan &Plan,
                          const rt::CompiledBody *Body,
                          const sym::Context &Sym, unsigned Threads,
                          rt::EvalTier Tier, rt::Memory &M, sym::Bindings &B) {
  rt::PredCompileCache Preds(Sym);
  rt::USRCompileCache Usrs(Sym, Preds);
  rt::PlanCascades Pre = rt::PlanCascades::build(Plan, Preds);
  ThreadPool Pool(Threads);
  rt::ExecContext Ctx;
  rt::HoistCache Hoist;
  return rt::runPlanned(Plan, Pre, Tier == rt::EvalTier::Interpreted
                                       ? nullptr
                                       : Body,
                        M, B, Pool, Ctx, Hoist, Usrs, Tier);
}

using SetupFn = std::function<void(rt::Memory &, sym::Bindings &)>;

/// Sessions on both body engines at 1 and 4 threads, preparing with the
/// default analyzer options.
struct EnginePairs {
  EnginePairs(Program &Prog, usr::USRContext &U) {
    for (unsigned K = 0; K < 2; ++K) {
      session::SessionOptions SO;
      SO.Threads = K == 0 ? 1 : 4;
      SO.Tier = rt::EvalTier::Interpreted;
      Interp[K] = std::make_unique<session::Session>(Prog, U, SO);
      SO.Tier = rt::EvalTier::Block;
      Comp[K] = std::make_unique<session::Session>(Prog, U, SO);
    }
  }
  std::unique_ptr<session::Session> Interp[2], Comp[2];
};

/// Compares the two body engines on \p Loop under \p Setup: sequential,
/// planned at 1 and 4 threads, and forced speculation at 1 and 4 threads.
void expectEnginesAgree(EnginePairs &E, const DoLoop &Loop,
                        const sym::Context &Sym, const SetupFn &Setup,
                        const std::string &What) {
  {
    rt::Memory MI, MC;
    sym::Bindings BI, BC;
    Setup(MI, BI);
    Setup(MC, BC);
    rt::ExecStats SI = E.Interp[0]->runSequential(Loop, MI, BI);
    rt::ExecStats SC = E.Comp[0]->runSequential(Loop, MC, BC);
    const std::string W = What + " sequential";
    expectMemoryEq(MI, MC, W);
    expectScalarsEq(Sym, BI, BC, W);
    expectBodySplit(SI, SC, W);
    EXPECT_EQ(SI.InterpBodyRuns, 1u) << W;
  }
  for (unsigned K = 0; K < 2; ++K) {
    rt::Memory MI, MC;
    sym::Bindings BI, BC;
    Setup(MI, BI);
    Setup(MC, BC);
    E.Interp[K]->prepare(Loop);
    E.Comp[K]->prepare(Loop);
    std::optional<rt::ExecStats> SI = E.Interp[K]->runPrepared(Loop, MI, BI);
    std::optional<rt::ExecStats> SC = E.Comp[K]->runPrepared(Loop, MC, BC);
    const std::string W = What + " planned, threads=" +
                          std::to_string(E.Comp[K]->options().Threads);
    ASSERT_TRUE(SI && SC) << W;
    expectMemoryEq(MI, MC, W);
    expectScalarsEq(Sym, BI, BC, W);
    expectBodySplit(*SI, *SC, W);
    EXPECT_EQ(SI->RanParallel, SC->RanParallel) << W;
    EXPECT_EQ(SI->TLSSucceeded, SC->TLSSucceeded) << W;
  }
  const session::PreparedLoop &PL = E.Comp[0]->prepare(Loop);
  const analysis::LoopPlan Spec = forceSpeculation(PL.Plan);
  for (unsigned Threads : {1u, 4u}) {
    rt::Memory MI, MC;
    sym::Bindings BI, BC;
    Setup(MI, BI);
    Setup(MC, BC);
    rt::ExecStats SI = runGovernor(Spec, nullptr, Sym, Threads,
                                   rt::EvalTier::Interpreted, MI, BI);
    rt::ExecStats SC = runGovernor(Spec, PL.Body.get(), Sym, Threads,
                                   rt::EvalTier::Block, MC, BC);
    const std::string W =
        What + " forced speculation, threads=" + std::to_string(Threads);
    expectMemoryEq(MI, MC, W);
    expectScalarsEq(Sym, BI, BC, W);
    expectBodySplit(SI, SC, W);
    EXPECT_EQ(SI.TLSSucceeded, SC.TLSSucceeded) << W;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The suite
//===----------------------------------------------------------------------===//

TEST(BodyCompileParity, EverySuiteLoopMatchesTheInterpreter) {
  auto Suite = suite::buildAllBenchmarks();
  size_t Loops = 0, Lowered = 0;
  for (auto &Bm : Suite) {
    EnginePairs E(Bm->prog(), Bm->usr());
    for (const suite::LoopSpec &LS : Bm->Loops) {
      ++Loops;
      Lowered += E.Comp[0]->prepare(*LS.Loop).Body->lowered();
      for (int64_t Scale : {1, 2})
        expectEnginesAgree(
            E, *LS.Loop, Bm->sym(),
            [&](rt::Memory &M, sym::Bindings &B) { Bm->Setup(M, B, Scale); },
            Bm->Name + "/" + LS.Name + " scale " + std::to_string(Scale));
    }
  }
  EXPECT_EQ(Loops, 87u);
  EXPECT_EQ(Lowered, Loops) << "every suite body lowers";
}

//===----------------------------------------------------------------------===//
// Directed cases
//===----------------------------------------------------------------------===//

namespace {

class BodyCompileTest : public ::testing::Test {
protected:
  BodyCompileTest() : P(Sym), U(Sym, P), Prog(Sym, P) {
    Main = Prog.makeSubroutine("main");
  }
  sym::Context Sym;
  pdag::PredContext P;
  usr::USRContext U;
  Program Prog;
  Subroutine *Main;

  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(sym::SymbolId S) { return Sym.symRef(S); }
  sym::SymbolId data(const std::string &N) {
    sym::SymbolId A = Sym.symbol(N, 0, true);
    Main->declareArray(ArrayDecl{A, nullptr, false});
    return A;
  }
  AssignStmt *write(sym::SymbolId A, const sym::Expr *Off,
                    std::vector<ArrayAccess> Reads = {},
                    bool Reduction = false) {
    return Prog.make<AssignStmt>(ArrayAccess{A, Off}, std::move(Reads),
                                 Reduction, 0);
  }
  void agree(const DoLoop &L, const SetupFn &Setup, const std::string &What) {
    EnginePairs E(Prog, U);
    expectEnginesAgree(E, L, Sym, Setup, What);
  }
};

} // namespace

TEST_F(BodyCompileTest, NestedCallsResolveArrayOffsetChains) {
  // DO i: CALL work(F1 = X + 2i, k = i), where work calls
  // inner(F2 = F1 + k + 1) and inner reads and writes F2 at j-1.
  sym::SymbolId X = data("X");
  sym::SymbolId F1 = Sym.symbol("F1", 0, true);
  sym::SymbolId F2 = Sym.symbol("F2", 0, true);
  sym::SymbolId K = Sym.symbol("k", 0);
  sym::SymbolId J = Sym.symbol("j", 2);
  sym::SymbolId I = Sym.symbol("i", 1);
  Subroutine *Inner = Prog.makeSubroutine("inner");
  {
    DoLoop *D = Prog.make<DoLoop>("d", J, c(1), c(3), 2);
    const sym::Expr *Off = Sym.addConst(s(J), -1);
    D->append(write(F2, Off, {{F2, Off}, {F1, c(0)}}));
    Inner->append(D);
  }
  Subroutine *Work = Prog.makeSubroutine("work");
  Work->append(Prog.make<CallStmt>(
      Inner,
      std::vector<CallStmt::ArrayArg>{{F2, F1, Sym.addConst(s(K), 1)}},
      std::vector<CallStmt::ScalarArg>{}));
  Work->append(write(F1, c(0), {{F1, c(1)}}));
  DoLoop *L = Prog.make<DoLoop>("nested_calls", I, c(1), c(20), 1);
  L->append(Prog.make<CallStmt>(
      Work, std::vector<CallStmt::ArrayArg>{{F1, X, Sym.mulConst(s(I), 2)}},
      std::vector<CallStmt::ScalarArg>{{K, s(I)}}));
  ASSERT_TRUE(rt::CompiledBody::compile(*L, Sym)->lowered());
  agree(*L,
        [&](rt::Memory &M, sym::Bindings &) {
          auto &V = M.alloc(X, 80);
          for (size_t E = 0; E < V.size(); ++E)
            V[E] = 0.5 * static_cast<double>(E);
        },
        "nested calls");
}

TEST_F(BodyCompileTest, UnboundFormalScalarKeepsCalleeValue) {
  // k is unbound before the loop, so the first call leaves its value (4)
  // bound (interpStmt restores only bound formals) and every later call
  // restores that 4. m is bound before and comes back restored.
  sym::SymbolId X = data("X");
  sym::SymbolId K = Sym.symbol("k", 0);
  sym::SymbolId Mf = Sym.symbol("m", 0);
  sym::SymbolId I = Sym.symbol("i", 1);
  Subroutine *Callee = Prog.makeSubroutine("callee");
  Callee->append(write(X, Sym.add(s(K), s(Mf))));
  DoLoop *L = Prog.make<DoLoop>("formals", I, c(1), c(10), 1);
  L->append(Prog.make<CallStmt>(
      Callee, std::vector<CallStmt::ArrayArg>{},
      std::vector<CallStmt::ScalarArg>{{K, Sym.addConst(s(I), 3)},
                                       {Mf, s(I)}}));
  SetupFn Setup = [&](rt::Memory &M, sym::Bindings &B) {
    M.alloc(X, 32);
    B.setScalar(Mf, 100);
  };
  agree(*L, Setup, "formal scalars");
  rt::Memory M;
  sym::Bindings B;
  Setup(M, B);
  rt::interpSequential(*L, M, B);
  EXPECT_EQ(B.scalar(K), std::optional<int64_t>(4));
  EXPECT_EQ(B.scalar(Mf), std::optional<int64_t>(100));
}

TEST_F(BodyCompileTest, LoopVariablesRestoredOrLeftAtLastValue) {
  // The inner variable j is bound before the loop and comes back
  // restored; the outer variable i is unbound and is left at its last
  // value. j2 is unbound until its first non-empty loop (i = 2) leaves it
  // at 2; from then on every loop over j2 restores that 2.
  sym::SymbolId X = data("X");
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 2);
  sym::SymbolId J2 = Sym.symbol("j2", 2);
  DoLoop *L = Prog.make<DoLoop>("vars", I, c(1), c(6), 1);
  DoLoop *In = Prog.make<DoLoop>("in", J, c(1), c(3), 2);
  In->append(write(X, Sym.add(s(I), s(J))));
  L->append(In);
  DoLoop *In2 = Prog.make<DoLoop>("in2", J2, c(2), s(I), 2);
  In2->append(write(X, s(J2), {{X, Sym.addConst(s(J2), -1)}}));
  L->append(In2);
  SetupFn Setup = [&](rt::Memory &M, sym::Bindings &B) {
    M.alloc(X, 16);
    B.setScalar(J, -7);
  };
  agree(*L, Setup, "loop variables");
  rt::Memory M;
  sym::Bindings B;
  Setup(M, B);
  std::unique_ptr<const rt::CompiledBody> Body =
      rt::CompiledBody::compile(*L, Sym);
  rt::BodyFrame F;
  Body->runSequential(F, M, B);
  EXPECT_EQ(B.scalar(I), std::optional<int64_t>(6));
  EXPECT_EQ(B.scalar(J), std::optional<int64_t>(-7));
  EXPECT_EQ(B.scalar(J2), std::optional<int64_t>(2));
}

TEST_F(BodyCompileTest, ZeroTripLoops) {
  // The outer loop runs N times (N = 0 and N = 3); the inner one runs
  // zero times when its bound comes out below 1.
  sym::SymbolId X = data("X");
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 2);
  sym::SymbolId N = Sym.symbol("N", 0);
  DoLoop *L = Prog.make<DoLoop>("zero", I, c(1), s(N), 1);
  DoLoop *In = Prog.make<DoLoop>("in", J, c(1), Sym.addConst(s(I), -2), 2);
  In->append(write(X, s(J), {{X, s(I)}}));
  L->append(In);
  L->append(write(X, s(I)));
  for (int64_t Trip : {0, 3})
    agree(*L,
          [&](rt::Memory &M, sym::Bindings &B) {
            M.alloc(X, 8);
            B.setScalar(N, Trip);
          },
          "zero trip, N=" + std::to_string(Trip));
}

TEST_F(BodyCompileTest, CivIncrementsUnderIf) {
  // civ += 2 under `i % 3 == 0 or i >= 7`, civ += i under `not 2 | i`,
  // each followed by a CIV-relative write.
  sym::SymbolId X = data("X");
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId Civ = Sym.symbol("civ", 1);
  DoLoop *L = Prog.make<DoLoop>("civ_if", I, c(1), c(12), 1);
  IfStmt *If1 = Prog.make<IfStmt>(
      P.or2(P.divides(c(3), s(I)), P.ge0(Sym.addConst(s(I), -7))));
  If1->appendThen(Prog.make<CivIncrStmt>(Civ, c(2)));
  L->append(If1);
  L->append(write(X, s(Civ)));
  IfStmt *If2 = Prog.make<IfStmt>(P.divides(c(2), s(I), true));
  If2->appendThen(Prog.make<CivIncrStmt>(Civ, s(I)));
  If2->appendElse(write(X, Sym.addConst(s(Civ), 1), {{X, s(Civ)}}));
  L->append(If2);
  ASSERT_TRUE(rt::CompiledBody::compile(*L, Sym)->lowered());
  agree(*L,
        [&](rt::Memory &M, sym::Bindings &B) {
          M.alloc(X, 128);
          B.setScalar(Civ, 0);
        },
        "CIV under If");
}

TEST_F(BodyCompileTest, SpeculativeStoreWithoutPrivateViewConflicts) {
  // Forced speculation with Y marked read-only in the plan copy: Y gets
  // no private view, so its store is a conflict and the loop reruns
  // sequentially on both engines.
  sym::SymbolId X = data("X");
  sym::SymbolId Y = data("Y");
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("spec_noview", I, c(1), c(16), 1);
  L->append(write(X, s(I)));
  L->append(write(Y, s(I), {{X, s(I)}}));
  analysis::HybridAnalyzer A(U, Prog, analysis::AnalyzerOptions());
  analysis::LoopPlan Spec = forceSpeculation(A.analyze(*L));
  for (analysis::ArrayPlan &AP : Spec.Arrays)
    if (AP.Array == Y)
      AP.ReadOnly = true;
  std::unique_ptr<const rt::CompiledBody> Body =
      rt::CompiledBody::compile(*L, Sym);
  SetupFn Setup = [&](rt::Memory &M, sym::Bindings &) {
    M.alloc(X, 20);
    M.alloc(Y, 20);
  };
  rt::Memory MS;
  sym::Bindings BS;
  Setup(MS, BS);
  rt::interpSequential(*L, MS, BS);
  for (unsigned Threads : {1u, 4u}) {
    rt::Memory MI, MC;
    sym::Bindings BI, BC;
    Setup(MI, BI);
    Setup(MC, BC);
    rt::ExecStats SI = runGovernor(Spec, nullptr, Sym, Threads,
                                   rt::EvalTier::Interpreted, MI, BI);
    rt::ExecStats SC = runGovernor(Spec, Body.get(), Sym, Threads,
                                   rt::EvalTier::Block, MC, BC);
    const std::string W = "threads=" + std::to_string(Threads);
    EXPECT_TRUE(SC.UsedTLS) << W;
    EXPECT_FALSE(SC.TLSSucceeded) << W;
    EXPECT_FALSE(SI.TLSSucceeded) << W;
    EXPECT_FALSE(SC.RanParallel) << W;
    expectMemoryEq(MS, MC, W);
    expectMemoryEq(MI, MC, W);
    expectBodySplit(SI, SC, W);
    // The misspeculated blocks and the sequential rerun.
    EXPECT_GE(SC.CompiledBodyRuns, 2u) << W;
  }
}

TEST_F(BodyCompileTest, DeepSubscriptDemotesToInterpreter) {
  // A 301-deep subscript passes validation (cap 1024) but not lowering
  // (cap 200): the body demotes, runs on the interpreter, and every such
  // run counts as a guard demotion.
  sym::SymbolId X = data("X");
  sym::SymbolId I = Sym.symbol("i", 1);
  const sym::Expr *E = s(I);
  for (int K = 0; K < 150; ++K)
    E = Sym.min(Sym.addConst(E, 1), c(1 << 20));
  ASSERT_EQ(pdag::exprNestDepth(E, 1000), 301u);
  DoLoop *L = Prog.make<DoLoop>("deep", I, c(1), c(8), 1);
  L->append(write(X, E, {{X, s(I)}}));
  EXPECT_FALSE(rt::CompiledBody::compile(*L, Sym)->lowered());
  SetupFn Setup = [&](rt::Memory &M, sym::Bindings &) { M.alloc(X, 200); };

  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session S(Prog, U, SO);
  rt::Memory MS, MP, MR;
  sym::Bindings BS, BP, BR;
  Setup(MS, BS);
  Setup(MP, BP);
  Setup(MR, BR);
  rt::interpSequential(*L, MR, BR);
  rt::ExecStats Seq = S.runSequential(*L, MS, BS);
  EXPECT_EQ(Seq.CompiledBodyRuns, 0u);
  EXPECT_EQ(Seq.InterpBodyRuns, 1u);
  EXPECT_EQ(Seq.GuardDemotions, 1u);
  rt::ExecStats Run = S.run(*L, MP, BP);
  EXPECT_EQ(Run.CompiledBodyRuns, 0u);
  EXPECT_GE(Run.InterpBodyRuns, 1u);
  EXPECT_GE(Run.GuardDemotions, Run.InterpBodyRuns);
  expectMemoryEq(MR, MS, "demoted sequential");
  expectMemoryEq(MR, MP, "demoted planned");
}
