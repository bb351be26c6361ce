//===- tests/pdag_pred_test.cpp - PDAG construction unit tests ------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/Pred.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::pdag;

namespace {

class PdagPredTest : public ::testing::Test {
protected:
  PdagPredTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(PdagPredTest, ConstantComparisonsFold) {
  EXPECT_TRUE(P.ge0(c(0))->isTrue());
  EXPECT_TRUE(P.ge0(c(-1))->isFalse());
  EXPECT_TRUE(P.le(c(3), c(5))->isTrue());
  EXPECT_TRUE(P.lt(c(5), c(5))->isFalse());
  EXPECT_TRUE(P.eq(c(4), c(4))->isTrue());
  EXPECT_TRUE(P.ne(c(4), c(4))->isFalse());
}

TEST_F(PdagPredTest, ComparisonLeavesAreInterned) {
  EXPECT_EQ(P.le(s("a"), s("b")), P.le(s("a"), s("b")));
  EXPECT_EQ(P.le(s("a"), s("b")), P.ge(s("b"), s("a")));
  EXPECT_EQ(P.lt(s("a"), s("b")), P.gt(s("b"), s("a")));
}

TEST_F(PdagPredTest, IntegerTighteningNormalizesGE) {
  // 2n - 3 >= 0  <=>  n - 2 >= 0 for integers.
  const Pred *A = P.ge0(Sym.addConst(Sym.mulConst(s("n"), 2), -3));
  const Pred *B = P.ge0(Sym.addConst(s("n"), -2));
  EXPECT_EQ(A, B);
}

TEST_F(PdagPredTest, InfeasibleCongruenceFolds) {
  // 2n + 1 == 0 has no integer solution.
  const sym::Expr *E = Sym.addConst(Sym.mulConst(s("n"), 2), 1);
  EXPECT_TRUE(P.eq0(E)->isFalse());
  EXPECT_TRUE(P.ne0(E)->isTrue());
}

TEST_F(PdagPredTest, EqualitySignNormalized) {
  // a - b == 0 and b - a == 0 are the same leaf.
  EXPECT_EQ(P.eq(s("a"), s("b")), P.eq(s("b"), s("a")));
  EXPECT_EQ(P.ne(s("a"), s("b")), P.ne(s("b"), s("a")));
}

TEST_F(PdagPredTest, DividesFolding) {
  EXPECT_TRUE(P.divides(c(1), s("n"))->isTrue());
  EXPECT_TRUE(P.divides(c(4), c(12))->isTrue());
  EXPECT_TRUE(P.divides(c(4), c(13))->isFalse());
  EXPECT_TRUE(P.divides(c(8), Sym.mulConst(s("n"), 32))->isTrue());
  // gcd interleave test from Sec. 3.2: 1 divides everything.
  EXPECT_TRUE(P.divides(c(1), Sym.sub(s("a"), s("b")), /*Neg=*/true)
                  ->isFalse());
}

TEST_F(PdagPredTest, DividesCanonicalizesModDivisor) {
  // 4 | (8n + 5m + 4) == 4 | (5m) == 4 | m  (coeff reduced mod 4)...
  // canonically both sides reduce coefficients modulo the divisor.
  const Pred *A = P.divides(
      c(4), Sym.add(Sym.mulConst(s("n"), 8),
                    Sym.addConst(Sym.mulConst(s("m"), 5), 4)));
  const Pred *B = P.divides(c(4), s("m"));
  EXPECT_EQ(A, B);
}

TEST_F(PdagPredTest, AndOrConstantFolding) {
  const Pred *L = P.le(s("a"), s("b"));
  EXPECT_EQ(P.and2(L, P.getTrue()), L);
  EXPECT_TRUE(P.and2(L, P.getFalse())->isFalse());
  EXPECT_TRUE(P.or2(L, P.getTrue())->isTrue());
  EXPECT_EQ(P.or2(L, P.getFalse()), L);
}

TEST_F(PdagPredTest, AndOrFlattenSortDedup) {
  const Pred *A = P.le(s("a"), s("b"));
  const Pred *B = P.le(s("c"), s("d"));
  const Pred *C = P.le(s("e"), s("f"));
  EXPECT_EQ(P.and2(P.and2(A, B), C), P.and2(A, P.and2(B, C)));
  EXPECT_EQ(P.and2(A, A), A);
  EXPECT_EQ(P.or2(B, P.or2(A, B)), P.or2(A, B));
}

TEST_F(PdagPredTest, ComplementaryLiteralsFold) {
  const Pred *L = P.ge(s("a"), s("b"));
  const Pred *NL = P.tryNot(L);
  ASSERT_NE(NL, nullptr);
  EXPECT_TRUE(P.and2(L, NL)->isFalse());
  EXPECT_TRUE(P.or2(L, NL)->isTrue());
  // The paper's mutually exclusive gates: SYM.NE.1 vs SYM.EQ.1.
  const Pred *G1 = P.ne(s("SYM"), c(1));
  const Pred *G2 = P.eq(s("SYM"), c(1));
  EXPECT_TRUE(P.and2(G1, G2)->isFalse());
  EXPECT_TRUE(P.or2(G1, G2)->isTrue());
}

TEST_F(PdagPredTest, AbsorptionDropsRedundantDisjunct) {
  const Pred *A = P.le(s("a"), s("b"));
  const Pred *B = P.le(s("c"), s("d"));
  // A and (A or B) == A.
  EXPECT_EQ(P.and2(A, P.or2(A, B)), A);
  // A or (A and B) == A.
  EXPECT_EQ(P.or2(A, P.and2(A, B)), A);
}

TEST_F(PdagPredTest, NegationRoundTrips) {
  const Pred *L = P.lt(s("a"), s("b"));
  const Pred *NL = P.tryNot(L);
  ASSERT_NE(NL, nullptr);
  EXPECT_EQ(NL, P.ge(s("a"), s("b")));
  EXPECT_EQ(P.tryNot(NL), L);
  EXPECT_EQ(P.tryNot(P.eq(s("a"), c(0))), P.ne(s("a"), c(0)));
}

TEST_F(PdagPredTest, LeafNegationIsCachedWithoutNewNodes) {
  const Pred *Leaves[] = {P.ge0(Sym.add(s("x"), s("y"))), P.ne0(s("x")),
                          P.divides(c(4), s("x"))};
  for (const Pred *L : Leaves) {
    const Pred *N = P.tryNot(L);
    ASSERT_NE(N, nullptr);
    const size_t Preds = P.numPreds(), Exprs = Sym.numExprs();
    EXPECT_EQ(P.tryNot(L), N);
    EXPECT_EQ(P.numPreds(), Preds);
    EXPECT_EQ(Sym.numExprs(), Exprs);
  }
  // z >= 0 and z < 0 still folds, both when makeNary is the first to
  // negate the leaves and when their negations are already cached.
  const Pred *GE = P.ge0(s("z"));
  const Pred *LT = P.lt(s("z"), c(0));
  EXPECT_TRUE(P.and2(GE, LT)->isFalse());
  EXPECT_TRUE(P.and2(LT, GE)->isFalse());
  EXPECT_EQ(P.tryNot(GE), LT);
  EXPECT_EQ(P.tryNot(LT), GE);
  EXPECT_TRUE(P.or2(LT, GE)->isTrue());
}

TEST_F(PdagPredTest, DeMorganOnNary) {
  const Pred *A = P.le(s("a"), s("b"));
  const Pred *B = P.eq(s("c"), c(0));
  const Pred *N = P.tryNot(P.and2(A, B));
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N, P.or2(P.tryNot(A), P.tryNot(B)));
}

TEST_F(PdagPredTest, LoopAllInvariantBodyFolds) {
  // ALL(i=1..N: a <= b) == (1 > N) or (a <= b).
  sym::SymbolId I = Sym.symbol("i", /*DefLevel=*/1);
  const Pred *Body = P.le(s("a"), s("b"));
  const Pred *L = P.loopAll(I, c(1), s("N"), Body);
  EXPECT_EQ(L, P.or2(P.gt(c(1), s("N")), Body));
  EXPECT_EQ(L->loopDepth(), 0);
}

TEST_F(PdagPredTest, LoopAllEmptyConstantRangeIsTrue) {
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *Body = P.le(Sym.symRef(I), s("b"));
  EXPECT_TRUE(P.loopAll(I, c(5), c(2), Body)->isTrue());
}

TEST_F(PdagPredTest, LoopAllUnrollsSmallConstantRanges) {
  // ALL(i=1..3: i <= b) == (1<=b and 2<=b and 3<=b) == 3 <= b.
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *Body = P.le(Sym.symRef(I), s("b"));
  const Pred *L = P.loopAll(I, c(1), c(3), Body);
  EXPECT_EQ(L, P.andN({P.le(c(1), s("b")), P.le(c(2), s("b")),
                       P.le(c(3), s("b"))}));
}

TEST_F(PdagPredTest, LoopAllIrreducibleKeepsDepth) {
  sym::SymbolId I = Sym.symbol("i", 1);
  // The paper's Fig. 3(b) predicate shape: a genuine O(N) loop node.
  sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const Pred *Body =
      P.le(s("NS"), Sym.mulConst(Sym.arrayRef(IB, Sym.symRef(I)), 32));
  const Pred *L = P.loopAll(I, c(1), Sym.addConst(s("N"), -1), Body);
  ASSERT_TRUE(isa<LoopAllPred>(L));
  EXPECT_EQ(L->loopDepth(), 1);
  EXPECT_FALSE(L->dependsOn(I));
  EXPECT_TRUE(L->dependsOn(IB));
}

TEST_F(PdagPredTest, SubstituteIntoLoopBoundsAndBody) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  // ALL(k=1..i-1: k <= m), substitute i := 4 => unrolled conjunction.
  const Pred *L = P.loopAll(K, c(1), Sym.addConst(Sym.symRef(I), -1),
                            P.le(Sym.symRef(K), s("m")));
  std::map<sym::SymbolId, const sym::Expr *> M{{I, c(4)}};
  const Pred *Sub = P.substitute(L, M);
  EXPECT_EQ(Sub, P.andN({P.le(c(1), s("m")), P.le(c(2), s("m")),
                         P.le(c(3), s("m"))}));
}

TEST_F(PdagPredTest, SubstituteAvoidsCapture) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  // ALL(k=1..N: k + i <= IB(k)) with i := k (outer k!) must not capture.
  const Pred *Body = P.le(Sym.add(Sym.symRef(K), Sym.symRef(I)),
                          Sym.arrayRef(IB, Sym.symRef(K)));
  const Pred *L = P.loopAll(K, c(1), s("N"), Body);
  std::map<sym::SymbolId, const sym::Expr *> M{{I, Sym.symRef(K)}};
  const Pred *Sub = P.substitute(L, M);
  const auto *SL = dyn_cast<LoopAllPred>(Sub);
  ASSERT_NE(SL, nullptr);
  // The bound variable was renamed; the free k is now inside the body.
  EXPECT_NE(SL->getVar(), K);
  EXPECT_TRUE(SL->getBody()->dependsOn(K));
}

TEST_F(PdagPredTest, CallSiteWraps) {
  const Pred *B = P.le(s("a"), s("b"));
  const Pred *CS = P.callSite("geteu", B);
  ASSERT_TRUE(isa<CallSitePred>(CS));
  EXPECT_EQ(cast<CallSitePred>(CS)->getCallee(), "geteu");
  EXPECT_EQ(P.tryNot(CS), nullptr);
}

TEST_F(PdagPredTest, PrintingIsReadable) {
  const Pred *Pr = P.and2(P.ne(s("SYM"), c(1)),
                          P.le(s("NS"), Sym.mulConst(s("NP"), 16)));
  std::string Str = Pr->toString(Sym);
  EXPECT_NE(Str.find("and"), std::string::npos);
  EXPECT_NE(Str.find("SYM"), std::string::npos);
}

} // namespace
