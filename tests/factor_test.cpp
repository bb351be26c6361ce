//===- tests/factor_test.cpp - Factorization algorithm tests --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Recomputes the paper's worked examples (Fig. 4, Fig. 3) and checks the
// soundness invariant F(S) ==> S = empty.
//
//===----------------------------------------------------------------------===//

#include "factor/Factor.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "usr/USREval.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::factor;
using namespace halo::usr;
using pdag::Pred;

namespace {

class FactorTest : public ::testing::Test {
protected:
  FactorTest() : P(Sym), U(Sym, P), F(U) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;
  Factorizer F;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }

  bool holds(const Pred *Pr, sym::Bindings &B) {
    auto V = pdag::tryEvalPred(Pr, B);
    return V.value_or(false);
  }
};

TEST_F(FactorTest, EmptyIsTriviallyTrue) {
  EXPECT_TRUE(F.factor(U.empty())->isTrue());
}

TEST_F(FactorTest, PointLeafIsNeverEmpty) {
  EXPECT_TRUE(F.factor(U.leaf(lmad::LMAD::makePoint(c(3))))->isFalse());
}

TEST_F(FactorTest, SymbolicIntervalEmptyWhenLengthNonPositive) {
  // [0 .. NS-1] is empty iff NS <= 0.
  const Pred *Pr = F.factor(U.interval(c(0), s("NS")));
  EXPECT_EQ(Pr, P.le(s("NS"), c(0)));
}

TEST_F(FactorTest, SubtractionUsesInclusion) {
  // Fig. 4, term S1: [0,NS-1] - [0,16NP-1] empty <== NS <= 16*NP
  // (or the minuend itself empty: NS <= 0, subsumed by NS <= 16NP when
  // NP >= 0; both disjuncts may appear).
  const USR *S = U.subtract(U.interval(c(0), s("NS")),
                            U.interval(c(0), Sym.mulConst(s("NP"), 16)));
  const Pred *Pr = F.factor(S);
  sym::Bindings B;
  B.setScalar(Sym.symbol("NS"), 16);
  B.setScalar(Sym.symbol("NP"), 1);
  EXPECT_TRUE(holds(Pr, B)); // 16 <= 16.
  B.setScalar(Sym.symbol("NS"), 17);
  EXPECT_FALSE(holds(Pr, B)); // 17 > 16: the difference is nonempty.
}

TEST_F(FactorTest, PaperFig4GatedUnion) {
  // A = (SYM != 1) # ([0,NS-1] - [0,16NP-1]);  B = (SYM == 1) # [0,NS-1].
  // F(A u B) must hold exactly when SYM != 1 and NS <= 16NP (modulo the
  // degenerate NS <= 0 case our algebra additionally catches).
  const Pred *G1 = P.ne(s("SYM"), c(1));
  const Pred *G2 = P.eq(s("SYM"), c(1));
  const USR *S1 = U.subtract(U.interval(c(0), s("NS")),
                             U.interval(c(0), Sym.mulConst(s("NP"), 16)));
  const USR *A = U.gate(G1, S1);
  const USR *B = U.gate(G2, U.interval(c(0), s("NS")));
  const Pred *Pr = pdag::simplify(P, F.factor(U.union2(A, B)));

  auto Check = [&](int64_t SYM, int64_t NS, int64_t NP, bool Expect) {
    sym::Bindings Bd;
    Bd.setScalar(Sym.symbol("SYM"), SYM);
    Bd.setScalar(Sym.symbol("NS"), NS);
    Bd.setScalar(Sym.symbol("NP"), NP);
    EXPECT_EQ(holds(Pr, Bd), Expect)
        << "SYM=" << SYM << " NS=" << NS << " NP=" << NP
        << "\npred: " << Pr->toString(Sym);
  };
  Check(0, 16, 1, true);  // SYM != 1, NS <= 16NP: independent.
  Check(0, 17, 1, false); // Writes do not cover reads.
  Check(1, 16, 1, false); // SYM == 1: no writes at all, reads exposed.
  Check(1, 0, 1, true);   // Degenerate: no reads either (NS <= 0).
}

TEST_F(FactorTest, IntersectionViaDisjointness) {
  // [0,a-1] n [a, a+b-1] is always empty (adjacent intervals).
  const USR *A = U.interval(c(0), s("a"));
  const USR *B = U.interval(s("a"), s("b"));
  EXPECT_TRUE(F.factor(U.intersect(A, B))->isTrue());
}

TEST_F(FactorTest, GateWithoutComplementFallsBackToChild) {
  // Gates whose negation is not representable still yield F(child).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *LoopGate = P.loopAll(
      I, c(1), s("N"), P.ge0(Sym.arrayRef(IB, Sym.symRef(I))));
  ASSERT_EQ(P.tryNot(LoopGate), nullptr);
  const USR *S = U.gate(LoopGate, U.interval(c(0), s("NS")));
  const Pred *Pr = F.factor(S);
  // Sufficient condition survives: NS <= 0.
  sym::Bindings B;
  B.setScalar(Sym.symbol("NS"), 0);
  EXPECT_TRUE(holds(Pr, B));
}

TEST_F(FactorTest, RecurrenceOfReadsCoveredByWrites) {
  // The SOLVH XE pattern, loop-level: U_i (RW_i) with
  // RW_i = [0,NS-1] - [0,16NP-1] gated by SYM != 1 — invariant body, so
  // the recurrence folds and factorization gives the Fig. 4 predicate.
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *G1 = P.ne(s("SYM"), c(1));
  const Pred *G2 = P.eq(s("SYM"), c(1));
  const USR *RWi = U.union2(
      U.gate(G1, U.subtract(U.interval(c(0), s("NS")),
                            U.interval(c(0), Sym.mulConst(s("NP"), 16)))),
      U.gate(G2, U.interval(c(0), s("NS"))));
  const USR *Loop = U.recur(I, c(1), s("N"), RWi);
  const Pred *Pr = F.factor(Loop);
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 10);
  B.setScalar(Sym.symbol("SYM"), 0);
  B.setScalar(Sym.symbol("NS"), 32);
  B.setScalar(Sym.symbol("NP"), 2);
  EXPECT_TRUE(holds(Pr, B));
  B.setScalar(Sym.symbol("NS"), 33);
  EXPECT_FALSE(holds(Pr, B));
}

TEST_F(FactorTest, MonotonicityRuleFiresOnOutputIndependencePattern) {
  // Fig. 3(b): U_{i=1..N} (WF_i n U_{k=1..i-1} WF_k) with
  // WF_i = [32*(IB(i)-1) .. 32*(IB(i)+IA(i)-2)+NS-1].
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  sym::SymbolId IA = Sym.symbol("IA", 0, true);

  auto WF = [&](sym::SymbolId V) {
    const sym::Expr *Base = Sym.mulConst(
        Sym.addConst(Sym.arrayRef(IB, Sym.symRef(V)), -1), 32);
    const sym::Expr *Len = Sym.add(
        Sym.mulConst(Sym.addConst(Sym.arrayRef(IA, Sym.symRef(V)), -1), 32),
        s("NS"));
    return U.interval(Base, Len);
  };
  const USR *Prev = U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
  const USR *OInd = U.recur(I, c(1), s("N"), U.intersect(WF(I), Prev));

  const Pred *Pr = F.factor(OInd);
  EXPECT_GE(F.stats().MonotonicityRule, 1u);

  // Paper's runtime predicate: AND_{i=1..N-1} NS <= 32*(IB(i+1)-IA(i)-IB(i)+1).
  // Check behavior: monotonically spaced IB with gaps >= the row size.
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 4);
  B.setScalar(Sym.symbol("NS"), 32);
  sym::ArrayBinding BIB, BIA;
  BIB.Lo = BIA.Lo = 1;
  BIA.Vals = {2, 2, 2, 2};          // IA(i) = 2 blocks per iteration.
  BIB.Vals = {1, 4, 7, 10};         // Next base right after prior extent.
  sym::ArrayBinding BIBCopy = BIB;
  B.setArray(IB, BIB);
  B.setArray(IA, BIA);
  EXPECT_TRUE(holds(Pr, B)) << Pr->toString(Sym);

  BIBCopy.Vals = {1, 2, 7, 10}; // Overlap between iterations 1 and 2.
  B.setArray(IB, BIBCopy);
  EXPECT_FALSE(holds(Pr, B));
}

TEST_F(FactorTest, MonotonicityPredicateIsLinearCost) {
  // The extracted predicate must be O(N): one loop node, not the O(N^2)
  // nested pairwise test.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  auto WF = [&](sym::SymbolId V) {
    return U.interval(Sym.arrayRef(IB, Sym.symRef(V)), c(4));
  };
  const USR *Prev = U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
  const USR *OInd = U.recur(I, c(1), s("N"), U.intersect(WF(I), Prev));
  const Pred *Pr = F.factor(OInd);
  auto Stages = pdag::buildCascade(P, Pr);
  ASSERT_FALSE(Stages.empty());
  bool HasLinearStage = false;
  for (const auto &St : Stages)
    if (St.Depth <= 1 && !St.P->isFalse())
      HasLinearStage = true;
  EXPECT_TRUE(HasLinearStage);
}

TEST_F(FactorTest, FillsArrayRuleProvesInclusion) {
  // S subset-of U where U = whole array [0 .. 16NP-1] and S is an opaque
  // recurrence over an index array (rule 5).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  F.setArraySize(Sym.mulConst(s("NP"), 16));
  const USR *S =
      U.recur(I, c(1), s("N"),
              U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(1)));
  const USR *Whole = U.interval(c(0), Sym.mulConst(s("NP"), 16));
  const Pred *Pr = F.included(S, Whole);
  EXPECT_TRUE(Pr->isTrue());
  EXPECT_GE(F.stats().FillsArrayRule, 1u);
}

TEST_F(FactorTest, IncludedRecurrencesSameRangeUsesRule3) {
  // U_i [i, i+3] subset-of U_i [i, i+7] via per-iteration inclusion.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  // Use index arrays so the recurrences stay irreducible.
  const USR *A =
      U.recur(I, c(1), s("N"),
              U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4)));
  const USR *B =
      U.recur(J, c(1), s("N"),
              U.interval(Sym.arrayRef(IB, Sym.symRef(J)), c(8)));
  const Pred *Pr = F.included(A, B);
  EXPECT_FALSE(Pr->isFalse());
  sym::Bindings Bd;
  Bd.setScalar(Sym.symbol("N"), 3);
  sym::ArrayBinding AB;
  AB.Lo = 1;
  AB.Vals = {5, 50, 500};
  Bd.setArray(IB, AB);
  EXPECT_TRUE(holds(Pr, Bd));
}

TEST_F(FactorTest, DisjointRecurrencesViaInvariantOverestimate) {
  // Rule (1): U_i [2i, 2i+1] vs U_j [2N+2j, ...]: the invariant
  // overestimates [2, 2N+1] and [2N+2, 4N+2] are disjoint.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 1);
  sym::SymbolId X = Sym.symbol("X", 0, true);
  const Pred *GI = P.ne(Sym.arrayRef(X, Sym.symRef(I)), c(0));
  const Pred *GJ = P.ne(Sym.arrayRef(X, Sym.symRef(J)), c(0));
  // Gates are loop-variant: rule (1) filters them out when widening.
  const USR *A = U.recur(
      I, c(1), s("N"),
      U.gate(GI, U.interval(Sym.mulConst(Sym.symRef(I), 2), c(2))));
  const USR *B = U.recur(
      J, c(1), s("N"),
      U.gate(GJ, U.interval(Sym.add(Sym.mulConst(s("N"), 2),
                                    Sym.mulConst(Sym.symRef(J), 2)),
                            c(2))));
  const Pred *Pr = F.disjoint(A, B);
  EXPECT_GE(F.stats().InvariantOverRule, 1u);
  sym::Bindings Bd;
  Bd.setScalar(Sym.symbol("N"), 6);
  EXPECT_TRUE(holds(Pr, Bd));
}

TEST_F(FactorTest, SharingLadderDisjointInLinearTime) {
  // Level i is the union of two differently gated copies of level i-1: the
  // USR DAG grows by a few nodes per level but has 2^40 root-to-leaf paths.
  // Every DISJOINT step starts from shallowEmptyPred of its operands, which
  // walks each path unless it is memoized per node; without the memo this
  // test would hang. LMAD approximation is off, so the LMAD-set memos play
  // no part.
  constexpr int Levels = 40;
  const USR *Other = U.interval(s("b"), s("m"));
  const USR *L = U.interval(s("a"), s("n"));
  for (int I = 1; I <= Levels; ++I)
    L = U.union2(U.gate(P.ge(s("x"), c(I)), L), U.gate(P.ge(s("y"), c(I)), L));
  ASSERT_EQ(L->getKind(), USRKind::Union);

  FactorOptions Opts;
  Opts.LmadApproximation = false;
  Factorizer G(U, Opts);
  const size_t Before = P.numPreds();
  const Pred *D = G.disjoint(L, Other);
  EXPECT_FALSE(D->isFalse());
  // Linear growth: a bounded number of new predicate nodes per level.
  EXPECT_LT(P.numPreds() - Before, size_t(50 * Levels));
}

TEST_F(FactorTest, AblationMonotonicityOff) {
  FactorOptions Opts;
  Opts.Monotonicity = false;
  Factorizer F2(U, Opts);
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  auto WF = [&](sym::SymbolId V) {
    return U.interval(Sym.arrayRef(IB, Sym.symRef(V)), c(4));
  };
  const USR *Prev = U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
  const USR *OInd = U.recur(I, c(1), s("N"), U.intersect(WF(I), Prev));
  (void)F2.factor(OInd);
  EXPECT_EQ(F2.stats().MonotonicityRule, 0u);
}

} // namespace
