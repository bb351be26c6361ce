//===- tests/pdag_simplify_test.cpp - Simplify / cascade / FM tests -------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/FourierMotzkin.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "support/Error.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace halo;
using namespace halo::pdag;

namespace {

//===----------------------------------------------------------------------===//
// Reference oracle: the un-memoized predicate extraction, kept verbatim
// (a fresh Simplifier per fixpoint round, a tree walk for strengthening)
// so the memoized implementation can be checked against it. It shares no
// code with src/pdag/PredSimplify.cpp.
//===----------------------------------------------------------------------===//

namespace ref {

class Simplifier {
public:
  explicit Simplifier(PredContext &Ctx) : Ctx(Ctx) {}

  const Pred *visit(const Pred *P) {
    auto It = Memo.find(P);
    if (It != Memo.end())
      return It->second;
    const Pred *R = rewrite(P);
    // Local fixpoint: rewriting can expose further opportunities.
    for (int I = 0; I < 4 && R != P; ++I) {
      const Pred *Next = rewrite(R);
      if (Next == R)
        break;
      R = Next;
    }
    Memo.emplace(P, R);
    return R;
  }

private:
  const Pred *rewrite(const Pred *P) {
    switch (P->getKind()) {
    case PredKind::True:
    case PredKind::False:
    case PredKind::Cmp:
    case PredKind::Divides:
      return P;
    case PredKind::And:
    case PredKind::Or:
      return rewriteNary(cast<NaryPred>(P));
    case PredKind::LoopAll:
      return rewriteLoop(cast<LoopAllPred>(P));
    case PredKind::CallSite: {
      const auto *S = cast<CallSitePred>(P);
      return Ctx.callSite(S->getCallee(), visit(S->getBody()));
    }
    }
    halo_unreachable("covered switch");
  }

  const Pred *rewriteNary(const NaryPred *N) {
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(visit(C));
    const bool IsAnd = N->isAnd();
    const Pred *Rebuilt = IsAnd ? Ctx.andN(Cs) : Ctx.orN(Cs);
    const auto *RN = dyn_cast<NaryPred>(Rebuilt);
    if (!RN || RN->isAnd() != IsAnd)
      return Rebuilt;

    const PredKind DualK = IsAnd ? PredKind::Or : PredKind::And;
    auto DualChildren = [&](const Pred *C) -> std::vector<const Pred *> {
      if (C->getKind() == DualK)
        return cast<NaryPred>(C)->getChildren();
      return {C};
    };
    std::vector<const Pred *> Common = DualChildren(RN->getChildren()[0]);
    std::sort(Common.begin(), Common.end());
    for (size_t I = 1; I < RN->getChildren().size() && !Common.empty(); ++I) {
      std::vector<const Pred *> Next = DualChildren(RN->getChildren()[I]);
      std::sort(Next.begin(), Next.end());
      std::vector<const Pred *> Inter;
      std::set_intersection(Common.begin(), Common.end(), Next.begin(),
                            Next.end(), std::back_inserter(Inter));
      Common = std::move(Inter);
    }
    if (Common.empty())
      return Rebuilt;
    std::unordered_set<const Pred *> CommonSet(Common.begin(), Common.end());

    std::vector<const Pred *> Reduced;
    Reduced.reserve(RN->getChildren().size());
    for (const Pred *C : RN->getChildren()) {
      std::vector<const Pred *> Rest;
      for (const Pred *D : DualChildren(C))
        if (!CommonSet.count(D))
          Rest.push_back(D);
      Reduced.push_back(IsAnd ? Ctx.orN(std::move(Rest))
                              : Ctx.andN(std::move(Rest)));
    }
    const Pred *CommonP =
        IsAnd ? Ctx.orN(std::move(Common)) : Ctx.andN(std::move(Common));
    const Pred *Residual =
        IsAnd ? Ctx.andN(std::move(Reduced)) : Ctx.orN(std::move(Reduced));
    return IsAnd ? Ctx.or2(CommonP, Residual) : Ctx.and2(CommonP, Residual);
  }

  const Pred *rewriteLoop(const LoopAllPred *L) {
    const Pred *Body = visit(L->getBody());
    sym::SymbolId Var = L->getVar();

    if (const auto *A = dyn_cast<NaryPred>(Body); A && A->isAnd()) {
      std::vector<const Pred *> Parts;
      Parts.reserve(A->getChildren().size());
      for (const Pred *C : A->getChildren())
        Parts.push_back(visit(Ctx.loopAll(Var, L->getLo(), L->getHi(), C)));
      return Ctx.andN(std::move(Parts));
    }

    if (const auto *O = dyn_cast<NaryPred>(Body); O && !O->isAnd()) {
      std::vector<const Pred *> Inv, Variant;
      for (const Pred *C : O->getChildren())
        (C->dependsOn(Var) ? Variant : Inv).push_back(C);
      if (!Inv.empty() && !Variant.empty()) {
        const Pred *Rest =
            Ctx.loopAll(Var, L->getLo(), L->getHi(), Ctx.orN(std::move(Variant)));
        Inv.push_back(visit(Rest));
        return Ctx.orN(std::move(Inv));
      }
    }

    return Ctx.loopAll(Var, L->getLo(), L->getHi(), Body);
  }

  PredContext &Ctx;
  std::unordered_map<const Pred *, const Pred *> Memo;
};

const Pred *strengthenImpl(PredContext &Ctx, const Pred *P, int Budget,
                           std::vector<sym::SymbolId> &Forbidden) {
  auto DependsOnForbidden = [&](const Pred *Q) {
    for (sym::SymbolId S : Forbidden)
      if (Q->dependsOn(S))
        return true;
    return false;
  };
  switch (P->getKind()) {
  case PredKind::True:
  case PredKind::False:
    return P;
  case PredKind::Cmp:
  case PredKind::Divides:
    return DependsOnForbidden(P) ? Ctx.getFalse() : P;
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(P);
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(strengthenImpl(Ctx, C, Budget, Forbidden));
    return N->isAnd() ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
  }
  case PredKind::LoopAll: {
    const auto *L = cast<LoopAllPred>(P);
    if (DependsOnForbidden(P))
      return Ctx.getFalse();
    if (Budget > 0) {
      const Pred *Body =
          strengthenImpl(Ctx, L->getBody(), Budget - 1, Forbidden);
      return Ctx.loopAll(L->getVar(), L->getLo(), L->getHi(), Body);
    }
    Forbidden.push_back(L->getVar());
    const Pred *Body = strengthenImpl(Ctx, L->getBody(), 0, Forbidden);
    Forbidden.pop_back();
    return Body;
  }
  case PredKind::CallSite:
    return DependsOnForbidden(P) ? Ctx.getFalse()
                                 : strengthenImpl(Ctx,
                                                  cast<CallSitePred>(P)
                                                      ->getBody(),
                                                  Budget, Forbidden);
  }
  halo_unreachable("covered switch");
}

const Pred *simplify(PredContext &Ctx, const Pred *P) {
  Simplifier S(Ctx);
  const Pred *R = S.visit(P);
  for (int I = 0; I < 3; ++I) {
    Simplifier S2(Ctx);
    const Pred *Next = S2.visit(R);
    if (Next == R)
      break;
    R = Next;
  }
  return R;
}

const Pred *strengthenToDepth(PredContext &Ctx, const Pred *P, int MaxDepth) {
  std::vector<sym::SymbolId> Forbidden;
  return ref::simplify(Ctx, strengthenImpl(Ctx, P, MaxDepth, Forbidden));
}

std::vector<CascadeStage> buildCascade(PredContext &Ctx, const Pred *P) {
  const Pred *Full = ref::simplify(Ctx, P);
  std::vector<CascadeStage> Stages;
  if (Full->isFalse())
    return Stages;

  for (int Depth = 0; Depth < Full->loopDepth(); ++Depth) {
    const Pred *Stage = ref::strengthenToDepth(Ctx, Full, Depth);
    if (Stage->isFalse())
      continue;
    bool Dup = false;
    for (const CascadeStage &S : Stages)
      if (S.P == Stage)
        Dup = true;
    if (Dup)
      continue;
    Stages.push_back(CascadeStage{Stage, Stage->loopDepth()});
    if (Stage == Full)
      return Stages;
  }
  Stages.push_back(CascadeStage{Full, Full->loopDepth()});
  return Stages;
}

} // namespace ref


class PdagSimplifyTest : public ::testing::Test {
protected:
  PdagSimplifyTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(PdagSimplifyTest, CommonFactorExtractionAnd) {
  // (A or B1) and (A or B2) == A or (B1 and B2).
  const Pred *A = P.le(s("a"), s("x"));
  const Pred *B1 = P.le(s("b1"), s("x"));
  const Pred *B2 = P.le(s("b2"), s("x"));
  const Pred *In = P.and2(P.or2(A, B1), P.or2(A, B2));
  EXPECT_EQ(simplify(P, In), P.or2(A, P.and2(B1, B2)));
}

TEST_F(PdagSimplifyTest, CommonFactorExtractionOr) {
  // (A and B1) or (A and B2) == A and (B1 or B2).
  const Pred *A = P.le(s("a"), s("x"));
  const Pred *B1 = P.le(s("b1"), s("x"));
  const Pred *B2 = P.le(s("b2"), s("x"));
  const Pred *In = P.or2(P.and2(A, B1), P.and2(A, B2));
  EXPECT_EQ(simplify(P, In), P.and2(A, P.or2(B1, B2)));
}

TEST_F(PdagSimplifyTest, LoopAllDistributesOverAnd) {
  // ALL_i (inv and var(i)) == inv and ALL_i var(i).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.le(s("NS"), Sym.mulConst(s("NP"), 16));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.and2(Inv, Var));
  const Pred *Out = simplify(P, In);
  // inv hoists: the result is an And whose first member no longer sits
  // under a loop node.
  EXPECT_EQ(Out, P.and2(P.or2(P.gt(c(1), s("N")), Inv),
                        P.loopAll(I, c(1), s("N"), Var)));
}

TEST_F(PdagSimplifyTest, InvariantDisjunctHoistsOutOfLoop) {
  // The Sec. 3.5 example: ALL_i (Inv or Var_i) == Inv or ALL_i Var_i.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  const Pred *Out = simplify(P, In);
  const auto *O = dyn_cast<NaryPred>(Out);
  ASSERT_NE(O, nullptr);
  EXPECT_FALSE(O->isAnd());
  // Inv must appear at top level now.
  bool Found = false;
  for (const Pred *C : O->getChildren())
    Found |= (C == Inv);
  EXPECT_TRUE(Found);
}

TEST_F(PdagSimplifyTest, NestedLoopInvariantHoistsAllTheWay) {
  // The paper's SOLVH example (Sec. 3.5): a leaf invariant to both loops,
  // wrapped in ALL_i ALL_k, hoists to the top. Unlike the paper's informal
  // account we keep the (vacuous-truth) empty-range disjunct, so the full
  // predicate stays equivalent; the O(1) *cascade stage* is the bare leaf.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IA = Sym.symbol("IA", 0, true);
  const Pred *Leaf = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Inner = P.loopAll(
      K, c(1), Sym.arrayRef(IA, Sym.symRef(I)), Leaf);
  const Pred *Outer = P.loopAll(I, c(1), s("N"), Inner);
  const Pred *Out = simplify(P, Outer);
  // The leaf is at top level now (a disjunct), not buried under two loops.
  const auto *O = dyn_cast<NaryPred>(Out);
  ASSERT_NE(O, nullptr);
  bool LeafAtTop = false;
  for (const Pred *C : O->getChildren())
    LeafAtTop |= (C == Leaf);
  EXPECT_TRUE(LeafAtTop);
  // The O(1) extraction is exactly the leaf.
  EXPECT_EQ(strengthenToDepth(P, Outer, 0), Leaf);
  // For a non-empty loop nest the result behaves like the leaf.
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 4);
  B.setScalar(Sym.symbol("NP"), 2);
  B.setScalar(Sym.symbol("NS"), 32);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {2, 2, 2, 2};
  B.setArray(IA, A);
  EXPECT_TRUE(evalPred(Out, B));
  B.setScalar(Sym.symbol("NS"), 5); // 16 < 11 fails.
  EXPECT_FALSE(evalPred(Out, B));
}

TEST_F(PdagSimplifyTest, StrengthenToDepthZeroDropsVariantParts) {
  // ALL_i (Inv or Var_i) strengthened to O(1) keeps only Inv.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  const Pred *O1 = strengthenToDepth(P, In, 0);
  EXPECT_EQ(O1->loopDepth(), 0);
  EXPECT_FALSE(O1->isFalse());
  EXPECT_FALSE(O1->dependsOn(IB));
}

TEST_F(PdagSimplifyTest, StrengthenInnerLoopToFalseKeepsOuter) {
  // Fig. 9(a): removing inner while-loop nodes leaves an O(N) predicate.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *OuterLeaf = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *InnerLoop =
      P.loopAll(K, c(1), s("M"),
                P.ge0(Sym.add(Sym.arrayRef(IB, Sym.symRef(K)),
                              Sym.symRef(I))));
  const Pred *In =
      P.loopAll(I, c(1), s("N"), P.or2(OuterLeaf, InnerLoop));
  ASSERT_EQ(In->loopDepth(), 2);
  const Pred *ON = strengthenToDepth(P, In, 1);
  EXPECT_EQ(ON->loopDepth(), 1);
  EXPECT_FALSE(ON->isFalse());
}

TEST_F(PdagSimplifyTest, CascadeOrderedByComplexity) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  auto Stages = buildCascade(P, In);
  ASSERT_GE(Stages.size(), 2u);
  for (size_t J = 1; J < Stages.size(); ++J)
    EXPECT_LT(Stages[J - 1].Depth, Stages[J].Depth);
  EXPECT_EQ(Stages.front().Depth, 0);
}

TEST_F(PdagSimplifyTest, CascadeOfFalseIsEmpty) {
  EXPECT_TRUE(buildCascade(P, P.getFalse()).empty());
}

TEST_F(PdagSimplifyTest, CascadeOfO1PredicateIsSingleStage) {
  const Pred *L = P.le(s("a"), s("b"));
  auto Stages = buildCascade(P, L);
  ASSERT_EQ(Stages.size(), 1u);
  EXPECT_EQ(Stages[0].P, L);
}

//===----------------------------------------------------------------------===//
// Property tests: simplify preserves semantics; strengthen implies input.
//===----------------------------------------------------------------------===//

/// Random predicates over scalars a,b,c, array IB and loop variables
/// lv1, lv2, ... With a pool, about one child in three is drawn from the
/// nodes already built, so subterms are shared: a tree-shaped generator
/// almost never builds a node twice, so it never exercises a memo.
class PredGen {
public:
  PredGen(sym::Context &Sym, PredContext &P,
          std::vector<const Pred *> *Pool = nullptr)
      : Sym(Sym), P(P), Pool(Pool) {}

  const Pred *random(Rng &R, int Depth, int LoopDepth) {
    if (Pool && !Pool->empty() && R.chance(1, 3))
      return (*Pool)[R.nextBelow(Pool->size())];
    const Pred *Out = build(R, Depth, LoopDepth);
    if (Pool)
      Pool->push_back(Out);
    return Out;
  }

  sym::SymbolId loopVar(int Depth) {
    return Sym.symbol("lv" + std::to_string(Depth), Depth);
  }

  sym::Bindings randomBindings(Rng &R) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("b"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("c"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("n"), R.nextInRange(0, 6));
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int I = 0; I < 8; ++I)
      A.Vals.push_back(R.nextInRange(-4, 4));
    B.setArray(Sym.symbol("IB", 0, true), A);
    return B;
  }

private:
  const Pred *build(Rng &R, int Depth, int LoopDepth) {
    if (Depth <= 0 || R.chance(1, 3)) {
      // Leaf: a random linear comparison.
      const sym::Expr *E = Sym.intConst(R.nextInRange(-3, 3));
      const char *Names[] = {"a", "b", "c"};
      for (const char *N : Names)
        if (R.chance(1, 2))
          E = Sym.add(E, Sym.mulConst(Sym.symRef(N),
                                      R.nextInRange(-2, 2)));
      if (LoopDepth > 0 && R.chance(1, 2)) {
        sym::SymbolId IB = Sym.symbol("IB", 0, true);
        E = Sym.add(E, Sym.arrayRef(IB, Sym.symRef(loopVar(LoopDepth))));
      }
      switch (R.nextBelow(3)) {
      case 0:
        return P.ge0(E);
      case 1:
        return P.eq0(E);
      default:
        return P.ne0(E);
      }
    }
    switch (R.nextBelow(3)) {
    case 0:
      return P.and2(random(R, Depth - 1, LoopDepth),
                    random(R, Depth - 1, LoopDepth));
    case 1:
      return P.or2(random(R, Depth - 1, LoopDepth),
                   random(R, Depth - 1, LoopDepth));
    default: {
      sym::SymbolId V = loopVar(LoopDepth + 1);
      return P.loopAll(V, Sym.intConst(1), Sym.symRef("n"),
                       random(R, Depth - 1, LoopDepth + 1));
    }
    }
  }

  sym::Context &Sym;
  PredContext &P;
  std::vector<const Pred *> *Pool;
};

class PdagPropertyTest : public ::testing::TestWithParam<uint64_t> {
protected:
  PdagPropertyTest() : P(Sym), Gen(Sym, P) {}
  sym::Context Sym;
  PredContext P;
  PredGen Gen;

  const Pred *randomPred(Rng &R, int Depth, int LoopDepth) {
    return Gen.random(R, Depth, LoopDepth);
  }
  sym::Bindings randomBindings(Rng &R) { return Gen.randomBindings(R); }
};

TEST_P(PdagPropertyTest, SimplifyPreservesSemantics) {
  Rng R(GetParam());
  const Pred *In = randomPred(R, 4, 0);
  const Pred *Out = simplify(P, In);
  for (int Trial = 0; Trial < 20; ++Trial) {
    sym::Bindings B = randomBindings(R);
    auto VI = tryEvalPred(In, B);
    auto VO = tryEvalPred(Out, B);
    if (VI && VO)
      EXPECT_EQ(*VI, *VO) << "in:  " << In->toString(Sym)
                          << "\nout: " << Out->toString(Sym);
  }
}

TEST_P(PdagPropertyTest, StrengthenImpliesInput) {
  Rng R(GetParam() ^ 0xabcdef);
  const Pred *In = randomPred(R, 4, 0);
  for (int Depth = 0; Depth < 2; ++Depth) {
    const Pred *St = strengthenToDepth(P, In, Depth);
    EXPECT_LE(St->loopDepth(), Depth);
    for (int Trial = 0; Trial < 20; ++Trial) {
      sym::Bindings B = randomBindings(R);
      auto VS = tryEvalPred(St, B);
      auto VI = tryEvalPred(In, B);
      if (VS && VI && *VS)
        EXPECT_TRUE(*VI) << "strengthened true but input false\nin:  "
                         << In->toString(Sym)
                         << "\nst:  " << St->toString(Sym);
    }
  }
}

TEST_P(PdagPropertyTest, CascadeStagesImplyFullPredicate) {
  Rng R(GetParam() ^ 0x1234567);
  const Pred *In = randomPred(R, 4, 0);
  auto Stages = buildCascade(P, In);
  for (const CascadeStage &S : Stages) {
    for (int Trial = 0; Trial < 10; ++Trial) {
      sym::Bindings B = randomBindings(R);
      auto VS = tryEvalPred(S.P, B);
      auto VI = tryEvalPred(In, B);
      if (VS && VI && *VS)
        EXPECT_TRUE(*VI);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PdagPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

//===----------------------------------------------------------------------===//
// Memo parity: the memoized extraction returns exactly what the reference
// oracle returns, and interns the same nodes in the same order.
//===----------------------------------------------------------------------===//

/// Symbol and predicate contexts with the seed's input predicate built in
/// them. Two Worlds from one seed are identical, node IDs included.
struct World {
  explicit World(uint64_t Seed) : P(Sym) {
    Rng R(Seed);
    std::vector<const Pred *> Pool;
    PredGen Gen(Sym, P, &Pool);
    auto IsConst = [](const Pred *Q) { return Q->isTrue() || Q->isFalse(); };
    const Pred *Random;
    do
      Random = Gen.random(R, 6, 0);
    while (IsConst(Random));
    // A two-deep nest around a pooled subterm: at depth 0 the outer loop
    // runs out of budget and forbids lv1, the inner one then forbids lv2
    // too, so (unless it mentions lv1) the shared node is strengthened
    // under {lv1, lv2} here and under other budgets and sets inside Random.
    const Pred *Shared;
    do
      Shared = Pool[R.nextBelow(Pool.size())];
    while (IsConst(Shared));
    sym::SymbolId IB = Sym.symbol("IB", 0, true);
    sym::SymbolId V1 = Gen.loopVar(1), V2 = Gen.loopVar(2);
    const Pred *Dep1 = P.ge0(Sym.add(Sym.arrayRef(IB, Sym.symRef(V1)),
                                     Sym.symRef("a")));
    const Pred *Dep2 = P.ge0(Sym.sub(Sym.arrayRef(IB, Sym.symRef(V2)),
                                     Sym.symRef("b")));
    const Pred *Inner = P.loopAll(V2, Sym.intConst(1), Sym.symRef("n"),
                                  P.or2(Shared, Dep2));
    const Pred *Nest = P.loopAll(V1, Sym.intConst(1), Sym.symRef("n"),
                                 P.and2(Dep1, Inner));
    In = P.and2(Random, Nest);
  }
  sym::Context Sym;
  PredContext P;
  const Pred *In = nullptr;
};

class MemoParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoParityTest, ExtractionMatchesReferenceOracle) {
  // Same seed, two contexts: the reference runs in one, the memoized code
  // in the other, with the same sequence of calls.
  World Ref(GetParam()), New(GetParam());
  ASSERT_EQ(Ref.P.numPreds(), New.P.numPreds());
  const int MaxDepth = Ref.In->loopDepth() + 1;
  ASSERT_GE(MaxDepth, 3) << Ref.In->toString(Ref.Sym);

  std::vector<CascadeStage> RefStages = ref::buildCascade(Ref.P, Ref.In);
  std::vector<CascadeStage> NewStages = buildCascade(New.P, New.In);
  std::vector<const Pred *> RefOut, NewOut;
  for (int D = 0; D <= MaxDepth; ++D) {
    RefOut.push_back(ref::strengthenToDepth(Ref.P, Ref.In, D));
    NewOut.push_back(strengthenToDepth(New.P, New.In, D));
  }
  RefOut.push_back(ref::simplify(Ref.P, Ref.In));
  NewOut.push_back(simplify(New.P, New.In));

  // Identical node creation: same count, same IDs, same structure. This is
  // what keeps .hplan bytes unchanged.
  EXPECT_EQ(Ref.P.numPreds(), New.P.numPreds());
  ASSERT_EQ(RefStages.size(), NewStages.size());
  for (size_t I = 0; I < RefStages.size(); ++I) {
    EXPECT_EQ(RefStages[I].Depth, NewStages[I].Depth);
    EXPECT_EQ(RefStages[I].P->getId(), NewStages[I].P->getId());
    EXPECT_EQ(RefStages[I].P->toString(Ref.Sym),
              NewStages[I].P->toString(New.Sym));
  }
  for (size_t I = 0; I < RefOut.size(); ++I) {
    EXPECT_EQ(RefOut[I]->getId(), NewOut[I]->getId()) << "output " << I;
    EXPECT_EQ(RefOut[I]->toString(Ref.Sym), NewOut[I]->toString(New.Sym));
  }

  // In the reference's own context the memoized code returns the very same
  // pointers and interns nothing new.
  const size_t Before = Ref.P.numPreds();
  std::vector<CascadeStage> Again = buildCascade(Ref.P, Ref.In);
  ASSERT_EQ(Again.size(), RefStages.size());
  for (size_t I = 0; I < Again.size(); ++I)
    EXPECT_EQ(Again[I].P, RefStages[I].P);
  for (int D = 0; D <= MaxDepth; ++D)
    EXPECT_EQ(strengthenToDepth(Ref.P, Ref.In, D), RefOut[D]) << "depth " << D;
  EXPECT_EQ(simplify(Ref.P, Ref.In), RefOut.back());
  EXPECT_EQ(Ref.P.numPreds(), Before);
}

INSTANTIATE_TEST_SUITE_P(SharedDags, MemoParityTest,
                         ::testing::Range<uint64_t>(1, 33));

TEST_F(PdagSimplifyTest, SharingLadderExtractsInLinearTime) {
  // Level i refers to level i-1 twice: once under a LoopAll and once in an
  // And with a fresh leaf. The DAG grows by a few nodes per level, but has
  // 2^40 root-to-leaf paths. Strengthening without its (node, budget,
  // forbidden set) memo walks every path and this test would hang.
  constexpr int Levels = 40;
  sym::SymbolId X = Sym.symbol("x", 1);
  // Leaf i is x - 2 - i*y >= 0: distinct per level, and false at x = 1
  // for y >= 0. Leaves are built first, so each has a lower ID than every
  // level and is evaluated before its shared sibling; together that keeps
  // tryEvalPred's tree walk polynomial on the ladder.
  std::vector<const Pred *> Leaves;
  for (int I = 0; I <= Levels; ++I)
    Leaves.push_back(P.ge0(Sym.sub(Sym.addConst(Sym.symRef(X), -2),
                                   Sym.mulConst(s("y"), I))));
  const Pred *L = Leaves[0];
  for (int I = 1; I <= Levels; ++I) {
    const Pred *WithLeaf = P.and2(Leaves[I], L);
    L = P.or2(WithLeaf, P.loopAll(X, c(1), s("n"), L));
  }
  ASSERT_EQ(L->loopDepth(), Levels);

  std::vector<const Pred *> Stages;
  for (int Depth = 0; Depth <= 2; ++Depth) {
    const Pred *St = strengthenToDepth(P, L, Depth);
    EXPECT_LE(St->loopDepth(), Depth);
    Stages.push_back(St);
  }
  std::vector<CascadeStage> Cascade = buildCascade(P, L);
  ASSERT_FALSE(Cascade.empty());
  for (const CascadeStage &S : Cascade)
    Stages.push_back(S.P);

  Rng R(40);
  for (int Trial = 0; Trial < 20; ++Trial) {
    sym::Bindings B;
    B.setScalar(X, R.nextInRange(-2, 4));
    B.setScalar(Sym.symbol("y"), R.nextInRange(0, 2));
    B.setScalar(Sym.symbol("n"), R.nextInRange(0, 2));
    auto VI = tryEvalPred(L, B);
    ASSERT_TRUE(VI.has_value());
    for (const Pred *St : Stages) {
      auto VS = tryEvalPred(St, B);
      if (VS && *VS)
        EXPECT_TRUE(*VI) << "stage true but input false\nst: "
                         << St->toString(Sym);
    }
  }
}

//===----------------------------------------------------------------------===//
// Fourier-Motzkin
//===----------------------------------------------------------------------===//

class FourierMotzkinTest : public ::testing::Test {
protected:
  FourierMotzkinTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  sym::RangeEnv Env;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(FourierMotzkinTest, InvariantExprUntouched) {
  const Pred *R = reduceGE0(P, Sym.sub(s("a"), s("b")), Env);
  EXPECT_EQ(R, P.ge(s("a"), s("b")));
}

TEST_F(FourierMotzkinTest, PositiveCoefficientUsesLowerBound) {
  // i - 3 >= 0 for all i in [L, U]  <==  L - 3 >= 0.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, s("L"), s("U"));
  const Pred *R = reduceGE0(P, Sym.addConst(Sym.symRef(I), -3), Env);
  EXPECT_EQ(R, P.ge(s("L"), c(3)));
}

TEST_F(FourierMotzkinTest, NegativeCoefficientUsesUpperBound) {
  // n - i >= 0 for all i in [1, U]  <==  n - U >= 0.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("U"));
  const Pred *R = reduceGE0(P, Sym.sub(s("n"), Sym.symRef(I)), Env);
  EXPECT_EQ(R, P.ge(s("n"), s("U")));
}

TEST_F(FourierMotzkinTest, PaperExampleCorrecDo711) {
  // Sec 3.2: eliminate i from IX(1) + 1 - IX(2) - i > 0, i in [1, NOP]
  // must yield IX(2) + NOP <= IX(1).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IX = Sym.symbol("IX", 0, true);
  Env.bind(I, c(1), s("NOP"));
  const sym::Expr *E =
      Sym.sub(Sym.addConst(Sym.arrayRef(IX, c(1)), 1),
              Sym.add(Sym.arrayRef(IX, c(2)), Sym.symRef(I)));
  const Pred *R = reduceGT0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
  EXPECT_EQ(R, P.le(Sym.add(Sym.arrayRef(IX, c(2)), s("NOP")),
                    Sym.arrayRef(IX, c(1))));
}

TEST_F(FourierMotzkinTest, SymbolicCoefficientSplitsOnSign) {
  // a*i + b >= 0, i in [1, N]: (a>=0 and a+b>=0) or (a<0 and a*N+b>=0).
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E =
      Sym.add(Sym.mul(s("a"), Sym.symRef(I)), s("b"));
  const Pred *R = reduceGE0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
  const auto *O = dyn_cast<NaryPred>(R);
  ASSERT_NE(O, nullptr);
  EXPECT_FALSE(O->isAnd());
  EXPECT_EQ(O->getChildren().size(), 2u);
}

TEST_F(FourierMotzkinTest, QuadraticEliminationTerminates) {
  // i*i - i >= 0 over i in [1, N]: degree decreases each recursion.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E =
      Sym.sub(Sym.mul(Sym.symRef(I), Sym.symRef(I)), Sym.symRef(I));
  const Pred *R = reduceGE0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
}

TEST_F(FourierMotzkinTest, OpaqueAtomSurvives) {
  // IB(i) >= 0 cannot eliminate i; the leaf survives for LoopAll wrapping.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  Env.bind(I, c(1), s("N"));
  const Pred *R = reduceGE0(P, Sym.arrayRef(IB, Sym.symRef(I)), Env);
  EXPECT_TRUE(R->dependsOn(I));
}

TEST_F(FourierMotzkinTest, SoundnessSpotCheck) {
  // If the reduced predicate holds, the original holds for every i.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E = Sym.add(Sym.mul(s("a"), Sym.symRef(I)), s("b"));
  const Pred *R = reduceGE0(P, E, Env);
  Rng Rand(42);
  for (int Trial = 0; Trial < 200; ++Trial) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), Rand.nextInRange(-3, 3));
    B.setScalar(Sym.symbol("b"), Rand.nextInRange(-5, 5));
    int64_t N = Rand.nextInRange(1, 6);
    B.setScalar(Sym.symbol("N"), N);
    auto V = tryEvalPred(R, B);
    ASSERT_TRUE(V.has_value());
    if (!*V)
      continue;
    for (int64_t IV = 1; IV <= N; ++IV) {
      B.setScalar(I, IV);
      const Pred *Orig = P.ge0(E);
      EXPECT_TRUE(evalPred(Orig, B));
    }
  }
}

} // namespace
