//===- tests/usr_test.cpp - USR language unit tests -----------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "usr/USREval.h"
#include "usr/USR.h"

#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Rng.h"
#include "usr/USRCompile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

using namespace halo;
using namespace halo::usr;

namespace {

class UsrTest : public ::testing::Test {
protected:
  UsrTest() : P(Sym), U(Sym, P) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }

  std::vector<int64_t> evalPts(const USR *S, sym::Bindings &B) {
    auto V = evalUSR(S, B);
    EXPECT_TRUE(V.has_value());
    return V.value_or(std::vector<int64_t>{});
  }
};

// Hash-consing is probe-first: building a node that already exists, of any
// kind in any of the three contexts, returns the existing pointer and
// creates no node anywhere (no intermediate expression or predicate
// either), so node IDs and creation order depend only on what is new.
TEST_F(UsrTest, RebuildingAnyNodeKindCreatesNothing) {
  const sym::SymbolId I = Sym.symbol("i", 1);
  const sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const sym::Expr *Ii = Sym.symRef(I);
  auto Exprs = [&] {
    return std::vector<const sym::Expr *>{
        c(7),
        s("n"),
        Sym.arrayRef(IB, Ii),
        Sym.min(s("n"), s("m")),
        Sym.max(s("n"), s("m")),
        Sym.floorDiv(s("n"), 4),
        Sym.mod(s("n"), 4),
        Sym.mul(s("n"), s("m")),
        Sym.add(Sym.mulConst(s("n"), 3), c(1)),
    };
  };
  const pdag::Pred *Body = P.ge0(Sym.sub(Sym.arrayRef(IB, Ii), s("n")));
  auto Preds = [&] {
    return std::vector<const pdag::Pred *>{
        P.ge0(s("n")),
        P.eq(s("n"), s("m")),
        P.ne(s("n"), s("m")),
        P.divides(c(4), s("n")),
        P.divides(s("k"), s("n"), /*Neg=*/true),
        P.and2(P.ge0(s("n")), P.ge0(s("m"))),
        P.or2(P.ge0(s("n")), P.ge0(s("m"))),
        P.loopAll(I, c(1), s("N"), Body),
        P.callSite("f", Body),
    };
  };
  const USR *A = U.interval(s("a"), s("n"));
  const USR *B = U.interval(s("b"), s("m"));
  auto Usrs = [&] {
    return std::vector<const USR *>{
        U.empty(),
        U.interval(s("a"), c(4)),
        U.union2(U.gate(P.ge0(s("n")), A), U.gate(P.ge0(s("m")), B)),
        U.intersect(A, B),
        U.subtract(A, B),
        U.gate(P.ge0(s("n")), A),
        U.callSite("f", A),
        U.recur(I, c(1), s("N"), U.interval(Sym.arrayRef(IB, Ii), c(4))),
    };
  };

  const auto E1 = Exprs();
  const auto P1 = Preds();
  const auto U1 = Usrs();
  std::set<sym::ExprKind> EKinds;
  for (const sym::Expr *E : E1)
    EKinds.insert(E->getKind());
  EXPECT_EQ(EKinds.size(), 9u) << "every expression kind is covered";
  std::set<pdag::PredKind> PKinds;
  for (const pdag::Pred *Q : P1)
    PKinds.insert(Q->getKind());
  EXPECT_EQ(PKinds.size(), 6u) << "every non-constant predicate kind";
  std::set<USRKind> UKinds;
  for (const USR *X : U1)
    UKinds.insert(X->getKind());
  EXPECT_EQ(UKinds.size(), 8u) << "every USR kind is covered";

  const size_t NumExprs = Sym.numExprs(), NumPreds = P.numPreds(),
               NumUsrs = U.numNodes();
  EXPECT_EQ(Exprs(), E1);
  EXPECT_EQ(Preds(), P1);
  EXPECT_EQ(Usrs(), U1);
  EXPECT_EQ(Sym.numExprs(), NumExprs);
  EXPECT_EQ(P.numPreds(), NumPreds);
  EXPECT_EQ(U.numNodes(), NumUsrs);
}

TEST_F(UsrTest, EmptyFolding) {
  const USR *E = U.empty();
  const USR *L = U.interval(c(0), c(10));
  EXPECT_EQ(U.union2(E, L), L);
  EXPECT_EQ(U.intersect(E, L), E);
  EXPECT_EQ(U.subtract(L, E), L);
  EXPECT_EQ(U.subtract(E, L), E);
  EXPECT_EQ(U.subtract(L, L), E);
  EXPECT_EQ(U.intersect(L, L), L);
}

TEST_F(UsrTest, IntervalWithNonPositiveLengthIsEmpty) {
  EXPECT_TRUE(U.interval(c(5), c(0))->isEmptySet());
  EXPECT_TRUE(U.interval(c(5), c(-3))->isEmptySet());
}

TEST_F(UsrTest, UnionFlattensAndMergesLeaves) {
  const USR *A = U.interval(c(0), c(4));
  const USR *B = U.interval(c(10), c(4));
  const USR *C = U.interval(c(20), c(4));
  const USR *AB = U.union2(A, B);
  const USR *All = U.union2(AB, C);
  // All three LMADs merge into one leaf node.
  ASSERT_TRUE(isa<LeafUSR>(All));
  EXPECT_EQ(cast<LeafUSR>(All)->getLMADs().size(), 3u);
}

TEST_F(UsrTest, GateFolding) {
  const USR *L = U.interval(c(0), c(4));
  EXPECT_EQ(U.gate(P.getTrue(), L), L);
  EXPECT_TRUE(U.gate(P.getFalse(), L)->isEmptySet());
  // Nested gates conjoin.
  const pdag::Pred *G1 = P.ne(s("SYM"), c(1));
  const pdag::Pred *G2 = P.gt(s("NP"), c(0));
  const USR *Nested = U.gate(G1, U.gate(G2, L));
  ASSERT_TRUE(isa<GateUSR>(Nested));
  EXPECT_EQ(cast<GateUSR>(Nested)->getGate(), P.and2(G1, G2));
}

TEST_F(UsrTest, SameGateUnionMerges) {
  const pdag::Pred *G = P.ne(s("SYM"), c(1));
  const USR *A = U.gate(G, U.interval(c(0), c(4)));
  const USR *B = U.gate(G, U.interval(c(100), c(4)));
  const USR *Un = U.union2(A, B);
  ASSERT_TRUE(isa<GateUSR>(Un));
  EXPECT_EQ(cast<GateUSR>(Un)->getGate(), G);
}

TEST_F(UsrTest, SubtractReassociates) {
  // (A - B) - C  ==>  A - (B u C)  (Fig. 8a, applied in the constructor).
  const USR *A = U.interval(c(0), s("n"));
  const USR *B = U.interval(c(0), c(3));
  const USR *C = U.interval(c(5), c(3));
  const USR *S = U.subtract(U.subtract(A, B), C);
  const auto *Bin = dyn_cast<BinaryUSR>(S);
  ASSERT_NE(Bin, nullptr);
  EXPECT_EQ(Bin->getLHS(), A);
  EXPECT_EQ(Bin->getRHS(), U.union2(B, C));
}

TEST_F(UsrTest, GatePullsOutOfSubtractLHS) {
  const pdag::Pred *G = P.ne(s("SYM"), c(1));
  const USR *A = U.interval(c(0), s("n"));
  const USR *B = U.interval(c(0), c(3));
  const USR *S = U.subtract(U.gate(G, A), B);
  ASSERT_TRUE(isa<GateUSR>(S));
  EXPECT_EQ(cast<GateUSR>(S)->getChild(), U.subtract(A, B));
}

TEST_F(UsrTest, RecurAggregatesAffineLeaf) {
  // U_{i=1..N} [32(i-1), 32(i-1)+NS-1] folds to a gated 2-dim leaf.
  sym::SymbolId I = Sym.symbol("i", 1);
  const USR *Body = U.interval(Sym.mulConst(Sym.addConst(Sym.symRef(I), -1), 32),
                               s("NS"));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  // Shape: gate(1 <= N) # leaf with a new [32]-stride dimension.
  const auto *G = dyn_cast<GateUSR>(R);
  ASSERT_NE(G, nullptr);
  const auto *L = dyn_cast<LeafUSR>(G->getChild());
  ASSERT_NE(L, nullptr);
  ASSERT_EQ(L->getLMADs().size(), 1u);
  EXPECT_EQ(L->getLMADs()[0].rank(), 2u);
  EXPECT_EQ(L->getLMADs()[0].dims()[1].Stride, c(32));
}

TEST_F(UsrTest, RecurInvariantBodyGates) {
  sym::SymbolId I = Sym.symbol("i", 1);
  const USR *Body = U.interval(c(0), s("NS"));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  EXPECT_EQ(R, U.gate(P.le(c(1), s("N")), Body));
}

TEST_F(UsrTest, RecurIndexArrayBodyStaysIrreducible) {
  // Offset IB(i): aggregation fails, an irreducible node remains.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  EXPECT_TRUE(isa<RecurUSR>(R));
}

TEST_F(UsrTest, RecurUnrollsSmallConstantRange) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), c(3), Body);
  // Unrolled to a leaf set of 3 intervals (IB(1), IB(2), IB(3)).
  ASSERT_TRUE(isa<LeafUSR>(R));
  EXPECT_EQ(cast<LeafUSR>(R)->getLMADs().size(), 3u);
}

//===----------------------------------------------------------------------===//
// Evaluation semantics
//===----------------------------------------------------------------------===//

TEST_F(UsrTest, EvalSetAlgebra) {
  sym::Bindings B;
  const USR *A = U.interval(c(0), c(6));  // {0..5}
  const USR *C = U.interval(c(4), c(4));  // {4..7}
  EXPECT_EQ(evalPts(U.union2(A, C), B),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(evalPts(U.intersect(A, C), B), (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(evalPts(U.subtract(A, C), B),
            (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(UsrTest, EvalGate) {
  sym::Bindings B;
  const USR *A = U.interval(c(0), c(3));
  const USR *G = U.gate(P.ne(s("SYM"), c(1)), A);
  B.setScalar(Sym.symbol("SYM"), 0);
  EXPECT_EQ(evalPts(G, B).size(), 3u);
  B.setScalar(Sym.symbol("SYM"), 1);
  EXPECT_TRUE(evalPts(G, B).empty());
}

TEST_F(UsrTest, EvalRecurWithIndexArray) {
  // U_{i=1..3} [IB(i), IB(i)+1].
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 3);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {10, 20, 21};
  B.setArray(IB, A);
  EXPECT_EQ(evalPts(R, B), (std::vector<int64_t>{10, 11, 20, 21, 22}));
}

TEST_F(UsrTest, EvalPartialRecurrenceTriangle) {
  // U_{k=1..i-1} {k} under i = 4 gives {1,2,3}.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(K)), c(1));
  const USR *R = U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), Body);
  sym::Bindings B;
  B.setScalar(I, 4);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {1, 2, 3, 4};
  B.setArray(IB, A);
  EXPECT_EQ(evalPts(R, B), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(UsrTest, EvalEmptyRangeRecur) {
  sym::SymbolId K = Sym.symbol("k", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(K)), c(1));
  const USR *R = U.recur(K, c(1), c(0), Body);
  sym::Bindings B;
  EXPECT_TRUE(evalPts(R, B).empty());
}

TEST_F(UsrTest, EvalFailsOnUnbound) {
  sym::Bindings B;
  const USR *A = U.interval(s("unbound"), c(3));
  EXPECT_FALSE(evalUSR(A, B).has_value());
}

TEST_F(UsrTest, SubstituteRebindsRecurrenceCorrectly) {
  // Substituting the outer variable inside a partial recurrence: the
  // paper's Eq. 2 construction (WF_k from WF_i).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *WFi = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  std::map<sym::SymbolId, const sym::Expr *> M{{I, Sym.symRef(K)}};
  const USR *WFk = U.substitute(WFi, M);
  EXPECT_TRUE(WFk->dependsOn(K));
  EXPECT_FALSE(WFk->dependsOn(I));
}

TEST_F(UsrTest, PrintingIsReadable) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  std::string Str = R->toString(Sym);
  EXPECT_NE(Str.find("U(i=1..N:"), std::string::npos);
  EXPECT_NE(Str.find("IB(i)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Nesting depth stored on the node
//===----------------------------------------------------------------------===//

/// True when \p T has \p N bytes on a 64-bit target.
template <typename T> constexpr bool sizeIs(size_t N) {
  return sizeof(void *) != 8 || sizeof(T) == N;
}
// The depth fills the padding after Kind: no USR node grows.
static_assert(sizeIs<USR>(40), "USR grew");
static_assert(sizeIs<EmptyUSR>(40), "EmptyUSR grew");
static_assert(sizeIs<LeafUSR>(64), "LeafUSR grew");
static_assert(sizeIs<UnionUSR>(64), "UnionUSR grew");
static_assert(sizeIs<BinaryUSR>(56), "BinaryUSR grew");
static_assert(sizeIs<GateUSR>(56), "GateUSR grew");
static_assert(sizeIs<CallSiteUSR>(80), "CallSiteUSR grew");
static_assert(sizeIs<RecurUSR>(72), "RecurUSR grew");

/// Reference nesting depth: a recursive walk over the child USRs,
/// memoized per node and saturated like the stored field.
unsigned refDepth(const USR *S,
                  std::unordered_map<const USR *, unsigned> &Memo) {
  if (auto It = Memo.find(S); It != Memo.end())
    return It->second;
  unsigned D = 0;
  auto Visit = [&](const USR *C) { D = std::max(D, refDepth(C, Memo)); };
  if (const auto *Un = dyn_cast<UnionUSR>(S)) {
    for (const USR *C : Un->getChildren())
      Visit(C);
  } else if (const auto *B = dyn_cast<BinaryUSR>(S)) {
    Visit(B->getLHS());
    Visit(B->getRHS());
  } else if (const auto *G = dyn_cast<GateUSR>(S)) {
    Visit(G->getChild());
  } else if (const auto *C = dyn_cast<CallSiteUSR>(S)) {
    Visit(C->getChild());
  } else if (const auto *R = dyn_cast<RecurUSR>(S)) {
    Visit(R->getBody());
  }
  D = std::min(D + 1, sym::MaxNestDepth);
  Memo.emplace(S, D);
  return D;
}

/// Checks every node of \p Ctx against the reference walk; returns the
/// number of nodes checked.
size_t expectDepthsMatchReference(USRContext &Ctx) {
  std::unordered_map<const USR *, unsigned> Memo;
  for (uint32_t Id = 0; Id < Ctx.numNodes(); ++Id) {
    const USR *S = Ctx.node(Id);
    EXPECT_EQ(S->nestDepth(), refDepth(S, Memo))
        << S->toString(Ctx.symCtx());
  }
  return Ctx.numNodes();
}

TEST_F(UsrTest, NestDepthMatchesReferenceOnRandomNodes) {
  Rng R(27);
  const sym::SymbolId I = Sym.symbol("i", 1);
  const sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const sym::Expr *Idx = Sym.arrayRef(IB, Sym.symRef(I));
  std::vector<const USR *> Pool;
  for (int K = 0; K < 6; ++K)
    Pool.push_back(U.interval(Sym.addConst(s(K % 2 ? "a" : "b"), K), c(4)));
  auto Pick = [&] { return Pool[R.nextBelow(Pool.size())]; };
  for (int Step = 0; Step < 600; ++Step) {
    const USR *S = nullptr;
    switch (R.nextBelow(6)) {
    case 0:
      S = U.union2(Pick(), Pick());
      break;
    case 1:
      S = U.intersect(Pick(), Pick());
      break;
    case 2:
      S = U.subtract(Pick(), Pick());
      break;
    case 3:
      S = U.gate(P.ge0(Sym.addConst(s("n"), Step % 7)), Pick());
      break;
    case 4:
      S = U.callSite("f", Pick());
      break;
    default:
      // An index-array body stays an irreducible recurrence.
      S = U.recur(I, c(1), s("n"), U.union2(Pick(), U.interval(Idx, c(2))));
      break;
    }
    Pool.push_back(S);
  }
  EXPECT_GT(expectDepthsMatchReference(U), 300u);
  unsigned Deepest = 0;
  for (const USR *S : Pool)
    Deepest = std::max(Deepest, S->nestDepth());
  EXPECT_GT(Deepest, 5u) << "the random DAG should nest";
}

TEST(UsrNestDepthSuite, EveryNodeMatchesReferenceWalk) {
  // Every USR of every suite program, after cold analysis of all of its
  // loops (summaries and the independence equations' USRs).
  auto Suite = suite::buildAllBenchmarks();
  size_t Checked = 0;
  for (const auto &B : Suite) {
    SCOPED_TRACE(B->Name);
    session::SessionOptions SO;
    SO.Threads = 1;
    session::Session S(B->prog(), B->usr(), SO);
    for (const suite::LoopSpec &LS : B->Loops)
      S.prepare(*LS.Loop);
    Checked += expectDepthsMatchReference(B->usr());
  }
  EXPECT_GT(Checked, 1000u);
}

TEST_F(UsrTest, NestDepthSaturates) {
  const USR *S = U.interval(s("a"), c(4));
  EXPECT_EQ(S->nestDepth(), 1u);
  EXPECT_EQ(U.empty()->nestDepth(), 1u);
  for (unsigned K = 1; K <= sym::MaxNestDepth + 100; ++K) {
    S = U.callSite("f", S);
    ASSERT_EQ(S->nestDepth(), std::min(1 + K, sym::MaxNestDepth)) << K;
  }
}

TEST_F(UsrTest, LoweringCapAdmitsExactlyMaxNestDepth) {
  const unsigned Cap = pdag::LoweringMaxNestDepth;
  // USR nesting: a leaf under Depth - 1 call sites.
  auto UsrOfDepth = [&](unsigned Depth) {
    const USR *S = U.interval(s("a"), c(4));
    while (S->nestDepth() < Depth)
      S = U.callSite("f", S);
    return S;
  };
  ASSERT_EQ(UsrOfDepth(Cap)->nestDepth(), Cap);
  EXPECT_NE(CompiledUSR::compile(UsrOfDepth(Cap), Sym), nullptr);
  EXPECT_EQ(CompiledUSR::compile(UsrOfDepth(Cap + 1), Sym), nullptr);
  // An LMAD offset and a recurrence bound.
  const sym::SymbolId I = Sym.symbol("i", 1);
  const sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  for (unsigned D : {Cap, Cap + 1}) {
    // Depth 1 (n) or 2 (IB(n)), then two levels per Add+Min wrap.
    const sym::Expr *E = D % 2 ? s("n") : Sym.arrayRef(IB, s("n"));
    while (E->nestDepth() < D)
      E = Sym.min(Sym.addConst(E, 1), c(1 << 20));
    ASSERT_EQ(E->nestDepth(), D);
    const USR *Leaf = U.leaf(lmad::LMAD::makePoint(E));
    EXPECT_EQ(CompiledUSR::compile(Leaf, Sym) != nullptr, D <= Cap) << D;
    const USR *Rec = U.recur(
        I, c(1), E, U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2)));
    ASSERT_TRUE(isa<RecurUSR>(Rec));
    EXPECT_EQ(CompiledUSR::compile(Rec, Sym) != nullptr, D <= Cap) << D;
  }
}

} // namespace
