//===- tests/pdag_pred_test.cpp - PDAG construction unit tests ------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/Pred.h"

#include "pdag/PredCompile.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

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

TEST_F(PdagPredTest, AbsorptionSurvivesIdCollisionsModulo64) {
  // makeNary screens membership with a 64-bit mask of the IDs modulo 64.
  // Leaves 64 IDs apart share a mask bit: the mask must neither hide a
  // sibling (absorption fires) nor stand in for one (no false absorption).
  std::vector<const Pred *> Leaves;
  for (int K = 0; K < 200; ++K)
    Leaves.push_back(P.le(Sym.addConst(s("x"), K), s("y")));
  const Pred *A = Leaves[0];
  const Pred *Twin = nullptr; // Same ID modulo 64 as A.
  for (const Pred *L : Leaves)
    if (L != A && L->getId() % 64 == A->getId() % 64) {
      Twin = L;
      break;
    }
  ASSERT_NE(Twin, nullptr);
  const Pred *B = P.le(s("c"), s("d"));
  // A and Twin and (A or B) == A and Twin.
  EXPECT_EQ(P.andN({A, Twin, P.or2(A, B)}), P.and2(A, Twin));
  // A or Twin or (Twin and B) == A or Twin.
  EXPECT_EQ(P.orN({A, Twin, P.and2(Twin, B)}), P.or2(A, Twin));
  // A and (Twin or B): Twin shares A's bit but is no sibling, so nothing
  // is absorbed.
  const Pred *Kept = P.and2(A, P.or2(Twin, B));
  const auto *N = dyn_cast<NaryPred>(Kept);
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->getChildren().size(), 2u);
  EXPECT_TRUE(N->isAnd());
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

//===----------------------------------------------------------------------===//
// Nesting depth stored on the node
//===----------------------------------------------------------------------===//

/// True when \p T has \p N bytes on a 64-bit target.
template <typename T> constexpr bool sizeIs(size_t N) {
  return sizeof(void *) != 8 || sizeof(T) == N;
}
// The loop depth and the nesting depth share the four bytes after Id: no
// predicate node grows.
static_assert(sizeIs<Pred>(48), "Pred grew");
static_assert(sizeIs<CmpPred>(56), "CmpPred grew");
static_assert(sizeIs<DividesPred>(64), "DividesPred grew");
static_assert(sizeIs<NaryPred>(72), "NaryPred grew");
static_assert(sizeIs<LoopAllPred>(80), "LoopAllPred grew");
static_assert(sizeIs<CallSitePred>(88), "CallSitePred grew");

/// Reference nesting depth: a recursive walk over the child predicates,
/// memoized per node and saturated like the stored field.
unsigned refDepth(const Pred *P,
                  std::unordered_map<const Pred *, unsigned> &Memo) {
  if (auto It = Memo.find(P); It != Memo.end())
    return It->second;
  unsigned D = 0;
  if (const auto *N = dyn_cast<NaryPred>(P))
    for (const Pred *C : N->getChildren())
      D = std::max(D, refDepth(C, Memo));
  else if (const auto *L = dyn_cast<LoopAllPred>(P))
    D = refDepth(L->getBody(), Memo);
  else if (const auto *S = dyn_cast<CallSitePred>(P))
    D = refDepth(S->getBody(), Memo);
  D = std::min(D + 1, sym::MaxNestDepth);
  Memo.emplace(P, D);
  return D;
}

/// Checks every node of \p Ctx against the reference walk; returns the
/// number of nodes checked.
size_t expectDepthsMatchReference(const PredContext &Ctx) {
  std::unordered_map<const Pred *, unsigned> Memo;
  for (uint32_t Id = 0; Id < Ctx.numPreds(); ++Id) {
    const Pred *P = Ctx.node(Id);
    EXPECT_EQ(P->nestDepth(), refDepth(P, Memo))
        << P->toString(Ctx.symCtx());
  }
  return Ctx.numPreds();
}

TEST_F(PdagPredTest, NestDepthMatchesReferenceOnRandomNodes) {
  Rng R(27);
  const sym::SymbolId I = Sym.symbol("i", 1);
  const sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const sym::Expr *Idx = Sym.arrayRef(IB, Sym.symRef(I));
  std::vector<const sym::Expr *> Es{s("a"), s("b"), Idx,
                                    Sym.addConst(Idx, 1), c(4)};
  auto PickE = [&] { return Es[R.nextBelow(Es.size())]; };
  std::vector<const Pred *> Pool;
  for (int K = 0; K < 6; ++K)
    Pool.push_back(P.le(PickE(), Sym.addConst(PickE(), K)));
  auto Pick = [&] { return Pool[R.nextBelow(Pool.size())]; };
  for (int Step = 0; Step < 600; ++Step) {
    const Pred *Q = nullptr;
    switch (R.nextBelow(7)) {
    case 0:
      Q = P.and2(Pick(), Pick());
      break;
    case 1:
      Q = P.or2(Pick(), Pick());
      break;
    case 2:
      Q = P.loopAll(I, c(1), s("n"), P.and2(Pick(), P.ge0(Idx)));
      break;
    case 3:
      Q = P.callSite("f", Pick());
      break;
    case 4:
      Q = P.divides(c(2 + static_cast<int64_t>(R.nextBelow(3))), PickE(),
                    R.chance(1, 2));
      break;
    case 5:
      Q = P.ne(PickE(), PickE());
      break;
    default:
      Q = P.andN({Pick(), Pick(), P.or2(Pick(), Pick())});
      break;
    }
    Pool.push_back(Q);
  }
  EXPECT_GT(expectDepthsMatchReference(P), 300u);
  unsigned Deepest = 0;
  for (const Pred *Q : Pool)
    Deepest = std::max(Deepest, Q->nestDepth());
  EXPECT_GT(Deepest, 5u) << "the random DAG should nest";
}

TEST(PredNestDepthSuite, EveryNodeMatchesReferenceWalk) {
  // Every predicate of every suite program, after cold analysis of all of
  // its loops (factorization, simplification, cascades).
  auto Suite = suite::buildAllBenchmarks();
  size_t Checked = 0;
  for (const auto &B : Suite) {
    SCOPED_TRACE(B->Name);
    session::SessionOptions SO;
    SO.Threads = 1;
    session::Session S(B->prog(), B->usr(), SO);
    for (const suite::LoopSpec &LS : B->Loops)
      S.prepare(*LS.Loop);
    Checked += expectDepthsMatchReference(B->usr().predCtx());
  }
  EXPECT_GT(Checked, 10000u);
}

TEST_F(PdagPredTest, NestDepthSaturates) {
  const Pred *Q = P.ge0(s("a"));
  EXPECT_EQ(Q->nestDepth(), 1u);
  for (unsigned K = 1; K <= sym::MaxNestDepth + 100; ++K) {
    Q = P.callSite("f", Q);
    ASSERT_EQ(Q->nestDepth(), std::min(1 + K, sym::MaxNestDepth)) << K;
  }
  EXPECT_EQ(Q->loopDepth(), 0);
}

/// A predicate of nesting depth exactly \p Depth: a comparison leaf
/// under Depth - 1 call sites.
const Pred *predOfDepth(PredContext &P, unsigned Depth) {
  const Pred *Q = P.ge0(P.symCtx().symRef("a"));
  while (Q->nestDepth() < Depth)
    Q = P.callSite("f", Q);
  return Q;
}

/// An expression of nesting depth exactly \p Depth >= 1 over i.
const sym::Expr *exprOfDepth(sym::Context &Sym, unsigned Depth) {
  const sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const sym::Expr *I = Sym.symRef(Sym.symbol("i", 1));
  // Depth 1 (i) or 2 (IB(i)), then two levels per Add+Min wrap.
  const sym::Expr *E = Depth % 2 ? I : Sym.arrayRef(IB, I);
  while (E->nestDepth() < Depth)
    E = Sym.min(Sym.addConst(E, 1), Sym.intConst(1 << 20));
  return E;
}

TEST_F(PdagPredTest, LoweringCapAdmitsExactlyMaxNestDepth) {
  const unsigned Cap = LoweringMaxNestDepth;
  // Predicate nesting.
  ASSERT_EQ(predOfDepth(P, Cap)->nestDepth(), Cap);
  EXPECT_NE(CompiledPred::compile(predOfDepth(P, Cap), Sym), nullptr);
  EXPECT_EQ(CompiledPred::compile(predOfDepth(P, Cap + 1), Sym), nullptr);
  // A leaf expression.
  for (unsigned D : {Cap, Cap + 1}) {
    const sym::Expr *E = exprOfDepth(Sym, D);
    ASSERT_EQ(E->nestDepth(), D);
    const Pred *Leaf = P.ge0(E);
    ASSERT_EQ(cast<CmpPred>(Leaf)->getExpr(), E);
    EXPECT_EQ(CompiledPred::compile(Leaf, Sym) != nullptr, D <= Cap) << D;
    // And as a LoopAll bound, under a shallow body.
    const sym::SymbolId J = Sym.symbol("j", 1);
    const Pred *L = P.loopAll(
        J, c(1), E, P.ge0(Sym.arrayRef(Sym.symbol("IB", 0, true),
                                       Sym.symRef(J))));
    ASSERT_TRUE(isa<LoopAllPred>(L));
    EXPECT_EQ(CompiledPred::compile(L, Sym) != nullptr, D <= Cap) << D;
  }
}

} // namespace
