//===- tests/sym_expr_test.cpp - Symbolic algebra unit tests --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "ir/Validate.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Rng.h"
#include "sym/Expr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

using namespace halo;
using namespace halo::sym;

namespace {

class SymExprTest : public ::testing::Test {
protected:
  Context Ctx;
  const Expr *c(int64_t V) { return Ctx.intConst(V); }
  const Expr *s(const std::string &N) { return Ctx.symRef(N); }
};

TEST_F(SymExprTest, ConstantsAreInterned) {
  EXPECT_EQ(c(42), c(42));
  EXPECT_NE(c(42), c(43));
}

TEST_F(SymExprTest, SymbolsAreInterned) {
  EXPECT_EQ(s("n"), s("n"));
  EXPECT_NE(s("n"), s("m"));
}

TEST_F(SymExprTest, AdditionFoldsConstants) {
  EXPECT_EQ(Ctx.add(c(2), c(3)), c(5));
}

TEST_F(SymExprTest, AdditionIsCommutativeStructurally) {
  const Expr *A = Ctx.add(s("n"), s("m"));
  const Expr *B = Ctx.add(s("m"), s("n"));
  EXPECT_EQ(A, B);
}

TEST_F(SymExprTest, AdditionIsAssociativeStructurally) {
  const Expr *A = Ctx.add(Ctx.add(s("a"), s("b")), s("c"));
  const Expr *B = Ctx.add(s("a"), Ctx.add(s("b"), s("c")));
  EXPECT_EQ(A, B);
}

TEST_F(SymExprTest, LikeTermsMerge) {
  // n + n == 2*n and (2*n) - n == n.
  const Expr *N = s("n");
  const Expr *TwoN = Ctx.add(N, N);
  EXPECT_EQ(TwoN, Ctx.mulConst(N, 2));
  EXPECT_EQ(Ctx.sub(TwoN, N), N);
}

TEST_F(SymExprTest, SubtractionCancelsToZero) {
  const Expr *E = Ctx.add(Ctx.mulConst(s("n"), 3), c(7));
  EXPECT_EQ(Ctx.sub(E, E), c(0));
}

TEST_F(SymExprTest, MultiplicationDistributesOverAddition) {
  // (a + b) * c == a*c + b*c.
  const Expr *L = Ctx.mul(Ctx.add(s("a"), s("b")), s("c"));
  const Expr *R = Ctx.add(Ctx.mul(s("a"), s("c")), Ctx.mul(s("b"), s("c")));
  EXPECT_EQ(L, R);
}

TEST_F(SymExprTest, MultiplicationIsCommutative) {
  EXPECT_EQ(Ctx.mul(s("a"), s("b")), Ctx.mul(s("b"), s("a")));
}

TEST_F(SymExprTest, SquareRepresentable) {
  // i*i is a product with a repeated factor; (i*i) - i*i == 0.
  const Expr *I = s("i");
  const Expr *Sq = Ctx.mul(I, I);
  EXPECT_NE(Sq, I);
  EXPECT_EQ(Ctx.sub(Sq, Ctx.mul(I, I)), c(0));
}

TEST_F(SymExprTest, MulByZeroIsZero) {
  EXPECT_EQ(Ctx.mul(s("n"), c(0)), c(0));
  EXPECT_EQ(Ctx.mulConst(Ctx.add(s("n"), c(3)), 0), c(0));
}

TEST_F(SymExprTest, MulByOneIsIdentity) {
  const Expr *E = Ctx.add(s("n"), c(3));
  EXPECT_EQ(Ctx.mul(E, c(1)), E);
}

TEST_F(SymExprTest, MinMaxFoldConstants) {
  EXPECT_EQ(Ctx.min(c(3), c(5)), c(3));
  EXPECT_EQ(Ctx.max(c(3), c(5)), c(5));
}

TEST_F(SymExprTest, MinMaxFoldConstantOffsets) {
  // min(n, n+3) == n, max(n, n+3) == n+3.
  const Expr *N = s("n");
  const Expr *NP3 = Ctx.addConst(N, 3);
  EXPECT_EQ(Ctx.min(N, NP3), N);
  EXPECT_EQ(Ctx.max(N, NP3), NP3);
}

TEST_F(SymExprTest, MinIsCommutativeStructurally) {
  EXPECT_EQ(Ctx.min(s("a"), s("b")), Ctx.min(s("b"), s("a")));
}

TEST_F(SymExprTest, FloorDivExact) {
  // (4n + 8) / 4 == n + 2.
  const Expr *E = Ctx.add(Ctx.mulConst(s("n"), 4), c(8));
  EXPECT_EQ(Ctx.floorDiv(E, 4), Ctx.addConst(s("n"), 2));
}

TEST_F(SymExprTest, FloorDivConstantsRoundTowardNegInfinity) {
  EXPECT_EQ(Ctx.floorDiv(c(7), 2), c(3));
  EXPECT_EQ(Ctx.floorDiv(c(-7), 2), c(-4));
}

TEST_F(SymExprTest, ModOfDivisibleIsZero) {
  const Expr *E = Ctx.mulConst(s("n"), 6);
  EXPECT_EQ(Ctx.mod(E, 3), c(0));
}

TEST_F(SymExprTest, ModConstants) {
  EXPECT_EQ(Ctx.mod(c(7), 3), c(1));
  EXPECT_EQ(Ctx.mod(c(-7), 3), c(2)); // Floor semantics: -7 = -3*3 + 2.
}

TEST_F(SymExprTest, ArrayRefInterned) {
  SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  const Expr *I = s("i");
  EXPECT_EQ(Ctx.arrayRef(IB, I), Ctx.arrayRef(IB, I));
  EXPECT_NE(Ctx.arrayRef(IB, I), Ctx.arrayRef(IB, Ctx.addConst(I, 1)));
}

TEST_F(SymExprTest, FreeSymbolsPropagate) {
  SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  SymbolId SI = Ctx.symbol("i");
  const Expr *E = Ctx.add(Ctx.arrayRef(IB, Ctx.symRef(SI)), s("n"));
  EXPECT_TRUE(E->dependsOn(IB));
  EXPECT_TRUE(E->dependsOn(SI));
  EXPECT_TRUE(E->dependsOn(Ctx.symbol("n")));
  EXPECT_FALSE(E->dependsOn(Ctx.symbol("zz")));
}

TEST_F(SymExprTest, InvarianceByDefLevel) {
  SymbolId N = Ctx.symbol("n", /*DefLevel=*/0);
  SymbolId I = Ctx.symbol("i", /*DefLevel=*/1);
  const Expr *E = Ctx.add(Ctx.symRef(N), Ctx.symRef(I));
  EXPECT_TRUE(Ctx.symRef(N)->isInvariantAtDepth(1, Ctx));
  EXPECT_FALSE(E->isInvariantAtDepth(1, Ctx));
  EXPECT_TRUE(E->isInvariantAtDepth(2, Ctx));
}

TEST_F(SymExprTest, ConstValueQueries) {
  EXPECT_EQ(Ctx.constValue(c(9)).value(), 9);
  EXPECT_FALSE(Ctx.constValue(s("n")).has_value());
}

TEST_F(SymExprTest, DefinitelyDivisible) {
  const Expr *E = Ctx.add(Ctx.mulConst(s("n"), 32), c(64));
  EXPECT_TRUE(Ctx.definitelyDivisibleBy(E, 32));
  EXPECT_TRUE(Ctx.definitelyDivisibleBy(E, 8));
  EXPECT_FALSE(Ctx.definitelyDivisibleBy(Ctx.addConst(E, 1), 32));
}

TEST_F(SymExprTest, CoeffGcd) {
  const Expr *E =
      Ctx.add(Ctx.mulConst(s("n"), 12), Ctx.mulConst(s("m"), 18));
  EXPECT_EQ(Ctx.coeffGcd(E), 6);
  EXPECT_EQ(Ctx.coeffGcd(c(5)), 0);
}

TEST_F(SymExprTest, SplitLinearBasic) {
  // 3*i*n + 2*m + 7 split on i: A = 3n, B = 2m + 7.
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.add(
      Ctx.mul(Ctx.mulConst(Ctx.symRef(I), 3), s("n")),
      Ctx.addConst(Ctx.mulConst(s("m"), 2), 7));
  auto Split = Ctx.splitLinearIn(E, I);
  ASSERT_TRUE(Split.has_value());
  EXPECT_EQ(Split->A, Ctx.mulConst(s("n"), 3));
  EXPECT_EQ(Split->B, Ctx.addConst(Ctx.mulConst(s("m"), 2), 7));
}

TEST_F(SymExprTest, SplitLinearQuadraticPeelsOnePower) {
  // i*i splits as A = i, B = 0 (one power factored out).
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.mul(Ctx.symRef(I), Ctx.symRef(I));
  auto Split = Ctx.splitLinearIn(E, I);
  ASSERT_TRUE(Split.has_value());
  EXPECT_EQ(Split->A, Ctx.symRef(I));
  EXPECT_EQ(Split->B, c(0));
}

TEST_F(SymExprTest, SplitLinearFailsInsideOpaqueAtom) {
  // IB(i) embeds i inside an array subscript: not linear in i.
  SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.arrayRef(IB, Ctx.symRef(I));
  EXPECT_FALSE(Ctx.splitLinearIn(E, I).has_value());
}

TEST_F(SymExprTest, SplitLinearNoOccurrence) {
  SymbolId I = Ctx.symbol("i");
  auto Split = Ctx.splitLinearIn(s("n"), I);
  ASSERT_TRUE(Split.has_value());
  EXPECT_EQ(Split->A, c(0));
  EXPECT_EQ(Split->B, s("n"));
}

TEST_F(SymExprTest, SubstituteScalar) {
  // (i + n) with i := 2*k  ==>  2*k + n.
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.add(Ctx.symRef(I), s("n"));
  std::map<SymbolId, const Expr *> M{{I, Ctx.mulConst(s("k"), 2)}};
  EXPECT_EQ(Ctx.substitute(E, M),
            Ctx.add(Ctx.mulConst(s("k"), 2), s("n")));
}

TEST_F(SymExprTest, SubstituteInsideArrayRef) {
  SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.arrayRef(IB, Ctx.addConst(Ctx.symRef(I), 1));
  std::map<SymbolId, const Expr *> M{{I, s("k")}};
  EXPECT_EQ(Ctx.substitute(E, M),
            Ctx.arrayRef(IB, Ctx.addConst(s("k"), 1)));
}

TEST_F(SymExprTest, SubstituteRebuildCanonicalizes) {
  // (i - k) with i := k cancels to 0.
  SymbolId I = Ctx.symbol("i");
  const Expr *E = Ctx.sub(Ctx.symRef(I), s("k"));
  std::map<SymbolId, const Expr *> M{{I, s("k")}};
  EXPECT_EQ(Ctx.substitute(E, M), c(0));
}

TEST_F(SymExprTest, PrintingIsReadable) {
  const Expr *E = Ctx.add(Ctx.mulConst(s("NP"), 8), c(-6));
  EXPECT_EQ(E->toString(Ctx), "8*NP - 6");
  EXPECT_EQ(c(-3)->toString(Ctx), "-3");
  SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  const Expr *R = Ctx.arrayRef(IB, Ctx.addConst(s("i"), 1));
  EXPECT_EQ(R->toString(Ctx), "IB(i + 1)");
}

TEST_F(SymExprTest, FreshSymbolsAreUnique) {
  SymbolId A = Ctx.freshSymbol("k");
  SymbolId B = Ctx.freshSymbol("k");
  EXPECT_NE(A, B);
  EXPECT_NE(Ctx.symbolInfo(A).Name, Ctx.symbolInfo(B).Name);
}

TEST(SymSetBuilderTest, EqualsSortUniqueAcrossEpochWrap) {
  // More takes than the 16-bit epoch has values, so the stamps wrap (and
  // are cleared) at least once; every union must still be exact.
  Rng R(11);
  SymSetBuilder B;
  for (int Take = 0; Take < 70000; ++Take) {
    std::vector<SymbolId> All;
    const int Sets = static_cast<int>(R.nextInRange(0, 3));
    const SymbolId Span = Take % 1000 == 0 ? 5000 : 64;
    for (int K = 0; K < Sets; ++K) {
      std::vector<SymbolId> Set;
      const int Size = static_cast<int>(R.nextInRange(0, 6));
      for (int J = 0; J < Size; ++J)
        Set.push_back(static_cast<SymbolId>(R.nextBelow(Span)));
      std::sort(Set.begin(), Set.end());
      Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
      if (K == 1 && !Set.empty()) {
        // addExcept drops the bound variable only.
        const SymbolId Skip = Set.front();
        B.addExcept(Set, Skip);
        Set.erase(Set.begin());
      } else {
        B.add(Set);
      }
      All.insert(All.end(), Set.begin(), Set.end());
    }
    std::sort(All.begin(), All.end());
    All.erase(std::unique(All.begin(), All.end()), All.end());
    ASSERT_EQ(B.take(), All) << "take " << Take;
  }
}

//===----------------------------------------------------------------------===//
// Nesting depth stored on the node
//===----------------------------------------------------------------------===//

/// True when \p T has \p N bytes on a 64-bit target.
template <typename T> constexpr bool sizeIs(size_t N) {
  return sizeof(void *) != 8 || sizeof(T) == N;
}
// The depth fills the padding after Kind: no expression node grows.
static_assert(sizeIs<Expr>(40), "Expr grew");
static_assert(sizeIs<IntConstExpr>(48), "IntConstExpr grew");
static_assert(sizeIs<SymRefExpr>(48), "SymRefExpr grew");
static_assert(sizeIs<ArrayRefExpr>(56), "ArrayRefExpr grew");
static_assert(sizeIs<MinMaxExpr>(56), "MinMaxExpr grew");
static_assert(sizeIs<DivModExpr>(56), "DivModExpr grew");
static_assert(sizeIs<MulExpr>(64), "MulExpr grew");
static_assert(sizeIs<AddExpr>(72), "AddExpr grew");

/// Reference nesting depth: a recursive walk over the operands, memoized
/// per node and saturated like the stored field.
unsigned refDepth(const Expr *E,
                  std::unordered_map<const Expr *, unsigned> &Memo) {
  if (auto It = Memo.find(E); It != Memo.end())
    return It->second;
  unsigned D = 0;
  auto Visit = [&](const Expr *C) { D = std::max(D, refDepth(C, Memo)); };
  if (const auto *R = dyn_cast<ArrayRefExpr>(E)) {
    Visit(R->getIndex());
  } else if (const auto *M = dyn_cast<MinMaxExpr>(E)) {
    Visit(M->getLHS());
    Visit(M->getRHS());
  } else if (const auto *DM = dyn_cast<DivModExpr>(E)) {
    Visit(DM->getOperand());
  } else if (const auto *Mu = dyn_cast<MulExpr>(E)) {
    for (const Expr *F : Mu->getFactors())
      Visit(F);
  } else if (const auto *A = dyn_cast<AddExpr>(E)) {
    for (const Monomial &T : A->getTerms())
      Visit(T.Prod);
  }
  D = std::min(D + 1, MaxNestDepth);
  Memo.emplace(E, D);
  return D;
}

/// Checks every node of \p Ctx against the reference walk; returns the
/// number of nodes checked.
size_t expectDepthsMatchReference(const Context &Ctx) {
  std::unordered_map<const Expr *, unsigned> Memo;
  for (uint32_t Id = 0; Id < Ctx.numExprs(); ++Id) {
    const Expr *E = Ctx.node(Id);
    EXPECT_EQ(E->nestDepth(), refDepth(E, Memo)) << E->toString(Ctx);
  }
  return Ctx.numExprs();
}

TEST_F(SymExprTest, NestDepthMatchesReferenceOnRandomNodes) {
  Rng R(27);
  const SymbolId IB = Ctx.symbol("IB", 0, /*IsArray=*/true);
  std::vector<const Expr *> Pool{s("a"), s("b"), s("n"), c(3), c(-2)};
  auto Pick = [&] { return Pool[R.nextBelow(Pool.size())]; };
  for (int Step = 0; Step < 600; ++Step) {
    const Expr *A = Pick(), *B = Pick();
    const Expr *E = nullptr;
    switch (R.nextBelow(9)) {
    case 0:
      E = Ctx.add(A, B);
      break;
    case 1:
      E = Ctx.sub(A, B);
      break;
    case 2:
      // Products of sums expand; keep the pool's term counts small.
      E = isa<AddExpr>(A) || isa<AddExpr>(B) ? Ctx.add(A, B) : Ctx.mul(A, B);
      break;
    case 3:
      E = Ctx.min(A, B);
      break;
    case 4:
      E = Ctx.max(A, B);
      break;
    case 5:
      E = Ctx.floorDiv(A, 2 + static_cast<int64_t>(R.nextBelow(3)));
      break;
    case 6:
      E = Ctx.mod(A, 2 + static_cast<int64_t>(R.nextBelow(3)));
      break;
    case 7:
      E = Ctx.arrayRef(IB, A);
      break;
    default:
      E = Ctx.addConst(Ctx.mulConst(A, 3), 1);
      break;
    }
    Pool.push_back(E);
  }
  EXPECT_GT(expectDepthsMatchReference(Ctx), 600u);
  unsigned Deepest = 0;
  for (const Expr *E : Pool)
    Deepest = std::max(Deepest, E->nestDepth());
  EXPECT_GT(Deepest, 5u) << "the random DAG should nest";
}

TEST(ExprNestDepthSuite, EveryNodeMatchesReferenceWalk) {
  // Every expression of every suite program, after cold analysis of all
  // of its loops (summaries, USRs, factorization, cascades).
  auto Suite = suite::buildAllBenchmarks();
  size_t Checked = 0;
  for (const auto &B : Suite) {
    SCOPED_TRACE(B->Name);
    session::SessionOptions SO;
    SO.Threads = 1;
    session::Session S(B->prog(), B->usr(), SO);
    for (const suite::LoopSpec &LS : B->Loops)
      S.prepare(*LS.Loop);
    Checked += expectDepthsMatchReference(B->usr().symCtx());
  }
  EXPECT_GT(Checked, 10000u);
}

TEST_F(SymExprTest, NestDepthSaturates) {
  // Each step wraps E in an Add and a Min: two levels.
  const Expr *E = s("i");
  for (unsigned K = 1; K <= MaxNestDepth / 2 + 50; ++K) {
    E = Ctx.min(Ctx.addConst(E, 1), c(1 << 20));
    ASSERT_EQ(E->nestDepth(), std::min(1 + 2 * K, MaxNestDepth)) << K;
  }
  EXPECT_EQ(Ctx.addConst(E, 1)->nestDepth(), MaxNestDepth);
}

/// A loop `t` over `i` that writes A at a subscript nested exactly
/// \p Depth deep.
struct DeepSubscriptLoop {
  Context Sym;
  pdag::PredContext Pred{Sym};
  ir::Program Prog{Sym, Pred};
  ir::DoLoop *Loop = nullptr;

  explicit DeepSubscriptLoop(unsigned Depth) {
    const SymbolId A = Sym.symbol("A", 0, /*IsArray=*/true);
    const SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
    const SymbolId I = Sym.symbol("i", 1);
    ir::Subroutine *Main = Prog.makeSubroutine("main");
    Main->declareArray(ir::ArrayDecl{A, Sym.intConst(1 << 21), false});
    Main->declareArray(ir::ArrayDecl{IB, Sym.intConst(64), false});
    // Depth 1 (i) or 2 (IB(i)), then two levels per Add+Min wrap.
    const Expr *E = Depth % 2 ? Sym.symRef(I) : Sym.arrayRef(IB, Sym.symRef(I));
    for (unsigned D = E->nestDepth(); D < Depth; D += 2)
      E = Sym.min(Sym.addConst(E, 1), Sym.intConst(1 << 20));
    EXPECT_EQ(E->nestDepth(), Depth);
    Loop = Prog.make<ir::DoLoop>("t", I, Sym.intConst(1), Sym.intConst(8), 1);
    Loop->append(Prog.make<ir::AssignStmt>(
        ir::ArrayAccess{A, E}, std::vector<ir::ArrayAccess>{}, false, 0));
  }
};

TEST(ExprDepthValidation, ExprTooDeepFiresOneLevelPastTheCap) {
  ir::ValidateLimits Lim;
  Lim.MaxExprDepth = 40;
  for (unsigned Depth : {39u, 40u, 41u, 42u}) {
    DeepSubscriptLoop T(Depth);
    std::vector<support::Diag> Ds =
        ir::collectLoopDiags(T.Prog, *T.Loop, Lim);
    const bool TooDeep =
        std::any_of(Ds.begin(), Ds.end(), [](const support::Diag &D) {
          return D.Kind == support::Diag::Code::ExprTooDeep;
        });
    EXPECT_EQ(TooDeep, Depth > Lim.MaxExprDepth) << Depth;
    if (Depth <= Lim.MaxExprDepth)
      EXPECT_TRUE(Ds.empty()) << Depth;
  }
}

} // namespace
