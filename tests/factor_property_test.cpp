//===- tests/factor_property_test.cpp - Soundness property tests ----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The central invariant of the whole system (Sec. 3):
//
//     F(S) evaluates to true  ==>  S evaluates to the empty set,
//
// checked against exact USR evaluation over randomized summaries and
// bindings. The same harness checks DISJOINT and INCLUDED, and that the
// UMEG reshaping + simplification pipeline preserves the invariant.
//
//===----------------------------------------------------------------------===//

#include "factor/Factor.h"
#include "pdag/FourierMotzkin.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "usr/USREval.h"
#include "usr/USRTransform.h"

#include <gtest/gtest.h>

#include <cassert>
#include <map>
#include <set>
#include <tuple>

using namespace halo;
using namespace halo::factor;
using namespace halo::usr;
using pdag::Pred;

namespace {

//===----------------------------------------------------------------------===//
// Reference oracle: the factorizer with un-memoized LMAD-level helpers
// (shallowEmptyPred, overestimateLMADs and underestimateLMADs walk the USR
// as a tree; every LMAD pair is compared afresh), kept verbatim so the
// memoized implementation can be checked against it. It shares no code
// with src/factor/Factor.cpp.
//===----------------------------------------------------------------------===//

namespace ref {

using lmad::LMADSet;
using sym::Expr;
using sym::SymbolId;

// The set lifts as they were before they took a PairMemo.

const Pred *disjointSets(pdag::PredContext &Ctx, const LMADSet &A,
                         const LMADSet &B) {
  std::vector<const Pred *> Cs;
  Cs.reserve(A.size() * B.size());
  for (const lmad::LMAD &LA : A)
    for (const lmad::LMAD &LB : B)
      Cs.push_back(lmad::disjointLMAD(Ctx, LA, LB));
  return Ctx.andN(std::move(Cs));
}

const Pred *includedSets(pdag::PredContext &Ctx, const LMADSet &A,
                         const LMADSet &B) {
  std::vector<const Pred *> All;
  All.reserve(A.size());
  for (const lmad::LMAD &LA : A) {
    std::vector<const Pred *> Any;
    Any.reserve(B.size());
    for (const lmad::LMAD &LB : B)
      Any.push_back(lmad::includedLMAD(Ctx, LA, LB));
    All.push_back(Ctx.orN(std::move(Any)));
  }
  return Ctx.andN(std::move(All));
}

class Factorizer {
public:
  Factorizer(usr::USRContext &Ctx, FactorOptions Opts = FactorOptions());

  /// Sets the declared size (element count) of the array the summaries
  /// range over; enables the FILLS_ARR rule (5).
  void setArraySize(const sym::Expr *Size) { ArraySize = Size; }

  /// F(S): a sufficient predicate for S = empty.
  const pdag::Pred *factor(const usr::USR *S);

  /// Sufficient predicate for S1 n S2 = empty.
  const pdag::Pred *disjoint(const usr::USR *S1, const usr::USR *S2);

  /// Sufficient predicate for S1 subset-of S2.
  const pdag::Pred *included(const usr::USR *S1, const usr::USR *S2);

  const FactorStats &stats() const { return Stats; }

private:
  const pdag::Pred *factorImpl(const usr::USR *S, int Depth);
  const pdag::Pred *disjointImpl(const usr::USR *A, const usr::USR *B,
                                 int Depth);
  const pdag::Pred *disjointHomo(const usr::USR *U, const usr::USR *S,
                                 int Depth);
  const pdag::Pred *disjointApprox(const usr::USR *A, const usr::USR *B);
  const pdag::Pred *includedImpl(const usr::USR *A, const usr::USR *B,
                                 int Depth);
  const pdag::Pred *includedHomo(const usr::USR *S, const usr::USR *U,
                                 int Depth);
  const pdag::Pred *includedApprox(const usr::USR *A, const usr::USR *B);

  /// The Sec. 3.3 monotonicity rule; null when the pattern does not match.
  const pdag::Pred *tryMonotonicity(const usr::RecurUSR *R, int Depth);

  /// Wraps a per-iteration predicate into a loop conjunction, first trying
  /// Fourier-Motzkin elimination of the loop variable; the FM result is
  /// OR-ed in so the cascade can pick the O(1) side.
  const pdag::Pred *wrapLoop(sym::SymbolId Var, const sym::Expr *Lo,
                             const sym::Expr *Hi, const pdag::Pred *Body);

  /// LMAD-set overestimate of S (drops gates, subtrahends, one intersect
  /// operand; aggregates recurrences). Nullopt on failure.
  std::optional<lmad::LMADSet> overestimateLMADs(const usr::USR *S);

  /// Conditional LMAD-set *underestimate* (P, set): when P holds the set
  /// is contained in S's denotation.
  struct CondSet {
    const pdag::Pred *Cond;
    lmad::LMADSet Set;
  };
  std::optional<CondSet> underestimateLMADs(const usr::USR *S);

  /// Cheap predicate under which S is empty (gate negations, empty ranges,
  /// negative spans) — used as the P_C component of the *_APP rules
  /// without recursing into the full factorization.
  const pdag::Pred *shallowEmptyPred(const usr::USR *S);

  /// Symbolic interval hull [Lo, Hi] of a set of LMADs (min/max chains).
  lmad::Interval intervalHull(const lmad::LMADSet &Set);

  usr::USRContext &Ctx;
  pdag::PredContext &P;
  sym::Context &Sym;
  FactorOptions Opts;
  FactorStats Stats;
  const sym::Expr *ArraySize = nullptr;

  bool overBudget();

  static constexpr int MaxDepth = 48;
  /// Hard cap on predicate-node growth per factorization (worst-case
  /// exponential inputs degrade to `false` instead of hanging, Sec. 3.6).
  size_t NodeBudget;
  /// Rule applications spent so far (checked against Opts.MaxSteps).
  uint64_t Steps = 0;
  std::unordered_map<const usr::USR *, const pdag::Pred *> FactorMemo;
  std::unordered_map<uint64_t, const pdag::Pred *> DisjointMemo;
  std::unordered_map<uint64_t, const pdag::Pred *> IncludedMemo;
};

Factorizer::Factorizer(USRContext &Ctx, FactorOptions Opts)
    : Ctx(Ctx), P(Ctx.predCtx()), Sym(Ctx.symCtx()), Opts(Opts),
      NodeBudget(Ctx.predCtx().numPreds() + 100000) {}

bool Factorizer::overBudget() {
  if (P.numPreds() <= NodeBudget && ++Steps <= Opts.MaxSteps)
    return false;
  ++Stats.BudgetBailouts;
  return true;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

uint64_t pairKey(const USR *A, const USR *B) {
  return (static_cast<uint64_t>(A->getId()) << 32) | B->getId();
}

/// Strips gate wrappers, returning the naked child (an overestimate of the
/// gated set — sound wherever a superset is acceptable).
const USR *peelGates(const USR *S) {
  while (const auto *G = dyn_cast<GateUSR>(S))
    S = G->getChild();
  return S;
}

const Pred *Factorizer::wrapLoop(SymbolId Var, const Expr *Lo, const Expr *Hi,
                                 const Pred *Body) {
  if (!Body->dependsOn(Var))
    return P.loopAll(Var, Lo, Hi, Body);
  const Pred *Loop = P.loopAll(Var, Lo, Hi, Body);
  if (!Opts.FourierMotzkin)
    return Loop;
  sym::RangeEnv Env;
  Env.bind(Var, Lo, Hi);
  const Pred *Reduced = pdag::reducePred(P, Body, Env);
  if (Reduced->dependsOn(Var) || Reduced->isFalse())
    return Loop;
  ++Stats.FourierMotzkinUses;
  // The FM-eliminated form holds for every iteration, so it implies the
  // loop conjunction; OR-ing keeps the loop's precision while exposing an
  // O(1) stage to the cascade.
  return P.or2(Reduced, Loop);
}

const Pred *Factorizer::shallowEmptyPred(const USR *S) {
  switch (S->getKind()) {
  case USRKind::Empty:
    return P.getTrue();
  case USRKind::Leaf: {
    std::vector<const Pred *> All;
    for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs()) {
      if (L.isPoint()) // A point is never empty.
        return P.getFalse();
      std::vector<const Pred *> Any;
      for (const lmad::Dim &D : L.dims())
        Any.push_back(P.lt(D.Span, Sym.intConst(0)));
      All.push_back(P.orN(std::move(Any)));
    }
    return P.andN(std::move(All));
  }
  case USRKind::Union: {
    std::vector<const Pred *> All;
    for (const USR *C : cast<UnionUSR>(S)->getChildren())
      All.push_back(shallowEmptyPred(C));
    return P.andN(std::move(All));
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(S);
    // Operands are built last-first, as in src/factor/Factor.cpp, so the
    // oracle creates nodes in the same order under every compiler.
    const Pred *RHSEmpty = shallowEmptyPred(B->getRHS());
    return P.or2(shallowEmptyPred(B->getLHS()), RHSEmpty);
  }
  case USRKind::Subtract:
    return shallowEmptyPred(cast<BinaryUSR>(S)->getLHS());
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    const Pred *NotQ = P.tryNot(G->getGate());
    const Pred *Inner = shallowEmptyPred(G->getChild());
    return NotQ ? P.or2(NotQ, Inner) : Inner;
  }
  case USRKind::CallSite:
    return shallowEmptyPred(cast<CallSiteUSR>(S)->getChild());
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    const Pred *EmptyRange = P.gt(R->getLo(), R->getHi());
    if (!R->getBody()->dependsOn(R->getVar()))
      return P.or2(EmptyRange, shallowEmptyPred(R->getBody()));
    return EmptyRange;
  }
  }
  halo_unreachable("covered switch");
}

std::optional<LMADSet> Factorizer::overestimateLMADs(const USR *S) {
  switch (S->getKind()) {
  case USRKind::Empty:
    return LMADSet{};
  case USRKind::Leaf:
    return cast<LeafUSR>(S)->getLMADs();
  case USRKind::Union: {
    LMADSet Out;
    for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
      auto V = overestimateLMADs(C);
      if (!V)
        return std::nullopt;
      Out.insert(Out.end(), V->begin(), V->end());
    }
    return Out;
  }
  case USRKind::Intersect:
  case USRKind::Subtract:
    return overestimateLMADs(cast<BinaryUSR>(S)->getLHS());
  case USRKind::Gate:
    return overestimateLMADs(cast<GateUSR>(S)->getChild());
  case USRKind::CallSite:
    return overestimateLMADs(cast<CallSiteUSR>(S)->getChild());
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    auto Body = overestimateLMADs(R->getBody());
    if (!Body)
      return std::nullopt;
    LMADSet Out;
    for (const lmad::LMAD &L : *Body) {
      auto A = lmad::aggregate(Sym, L, R->getVar(), R->getLo(), R->getHi());
      if (!A)
        return std::nullopt;
      Out.push_back(*A);
    }
    return Out;
  }
  }
  halo_unreachable("covered switch");
}

std::optional<Factorizer::CondSet>
Factorizer::underestimateLMADs(const USR *S) {
  switch (S->getKind()) {
  case USRKind::Empty:
    return CondSet{P.getTrue(), {}};
  case USRKind::Leaf:
    return CondSet{P.getTrue(), cast<LeafUSR>(S)->getLMADs()};
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    auto Inner = underestimateLMADs(G->getChild());
    if (!Inner)
      return std::nullopt;
    return CondSet{P.and2(G->getGate(), Inner->Cond), Inner->Set};
  }
  case USRKind::Union: {
    const Pred *Cond = P.getTrue();
    LMADSet Out;
    for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
      auto V = underestimateLMADs(C);
      if (!V)
        return std::nullopt;
      Cond = P.and2(Cond, V->Cond);
      Out.insert(Out.end(), V->Set.begin(), V->Set.end());
    }
    return CondSet{Cond, std::move(Out)};
  }
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    auto Body = underestimateLMADs(R->getBody());
    if (!Body || Body->Cond->dependsOn(R->getVar()))
      return std::nullopt;
    LMADSet Out;
    for (const lmad::LMAD &L : *&Body->Set) {
      auto A = lmad::aggregate(Sym, L, R->getVar(), R->getLo(), R->getHi());
      if (!A)
        return std::nullopt;
      Out.push_back(*A);
    }
    // Aggregation is exact only over a non-empty range.
    return CondSet{P.and2(Body->Cond, P.le(R->getLo(), R->getHi())),
                   std::move(Out)};
  }
  case USRKind::Intersect:
  case USRKind::Subtract:
  case USRKind::CallSite:
    return std::nullopt;
  }
  halo_unreachable("covered switch");
}

lmad::Interval Factorizer::intervalHull(const LMADSet &Set) {
  assert(!Set.empty() && "hull of empty set");
  lmad::Interval Acc = lmad::intervalOverestimate(Sym, Set.front());
  for (size_t I = 1; I < Set.size(); ++I) {
    lmad::Interval Next = lmad::intervalOverestimate(Sym, Set[I]);
    Acc.Lo = Sym.min(Acc.Lo, Next.Lo);
    Acc.Hi = Sym.max(Acc.Hi, Next.Hi);
  }
  return Acc;
}

//===----------------------------------------------------------------------===//
// FACTOR
//===----------------------------------------------------------------------===//

const Pred *Factorizer::factor(const USR *S) { return factorImpl(S, 0); }

const Pred *Factorizer::factorImpl(const USR *S, int Depth) {
  if (Depth > MaxDepth || overBudget())
    return P.getFalse();
  auto It = FactorMemo.find(S);
  if (It != FactorMemo.end())
    return It->second;

  const Pred *Result = nullptr;
  switch (S->getKind()) {
  case USRKind::Empty:
    Result = P.getTrue();
    break;
  case USRKind::Leaf:
    // An LMAD is empty iff some span is negative; a point never is.
    Result = shallowEmptyPred(S);
    break;
  case USRKind::Union: {
    ++Stats.UnionRule;
    std::vector<const Pred *> All;
    for (const USR *C : cast<UnionUSR>(S)->getChildren())
      All.push_back(factorImpl(C, Depth + 1));
    Result = P.andN(std::move(All));
    break;
  }
  case USRKind::Subtract: {
    ++Stats.SubtractRule;
    const auto *B = cast<BinaryUSR>(S);
    const Pred *LHSInRHS = includedImpl(B->getLHS(), B->getRHS(), Depth + 1);
    Result = P.or2(factorImpl(B->getLHS(), Depth + 1), LHSInRHS);
    break;
  }
  case USRKind::Intersect: {
    ++Stats.IntersectRule;
    const auto *B = cast<BinaryUSR>(S);
    Result = P.orN({factorImpl(B->getLHS(), Depth + 1),
                    factorImpl(B->getRHS(), Depth + 1),
                    disjointImpl(B->getLHS(), B->getRHS(), Depth + 1)});
    break;
  }
  case USRKind::Gate: {
    ++Stats.GateRule;
    const auto *G = cast<GateUSR>(S);
    const Pred *Inner = factorImpl(G->getChild(), Depth + 1);
    const Pred *NotQ = P.tryNot(G->getGate());
    // When the gate has no cheap complement, F(child) alone remains a
    // sufficient condition (the gate can only shrink the set).
    Result = NotQ ? P.or2(NotQ, Inner) : Inner;
    break;
  }
  case USRKind::CallSite: {
    const auto *C = cast<CallSiteUSR>(S);
    Result = P.callSite(C->getCallee(), factorImpl(C->getChild(), Depth + 1));
    break;
  }
  case USRKind::Recur: {
    ++Stats.RecurRule;
    const auto *R = cast<RecurUSR>(S);
    std::vector<const Pred *> Alts;
    bool MonoStatic = false;
    if (Opts.Monotonicity)
      if (const Pred *Mono = tryMonotonicity(R, Depth)) {
        Alts.push_back(Mono);
        MonoStatic = Mono->isTrue();
      }
    // When the monotonicity rule already discharged the pattern
    // statically there is nothing left to gain from the generic
    // per-iteration expansion.
    if (!MonoStatic)
      Alts.push_back(wrapLoop(R->getVar(), R->getLo(), R->getHi(),
                              factorImpl(R->getBody(), Depth + 1)));
    Result = P.orN(std::move(Alts));
    break;
  }
  }
  assert(Result && "factorization produced no predicate");
  FactorMemo.emplace(S, Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Monotonicity rule (Sec. 3.3)
//===----------------------------------------------------------------------===//

const Pred *Factorizer::tryMonotonicity(const RecurUSR *R, int Depth) {
  (void)Depth; // Kept for symmetry with the other rule entry points.
  // Pattern: U_{i=lo..hi} ( S_i  n  U_{k=lo..i-1} S_k ), possibly under
  // gates (stripping gates overestimates, which is sound here).
  const USR *Body = peelGates(R->getBody());
  const auto *I = dyn_cast<BinaryUSR>(Body);
  if (!I || !I->isIntersect())
    return nullptr;

  SymbolId Var = R->getVar();
  const Expr *IM1 = Sym.addConst(Sym.symRef(Var), -1);

  // Collects the partial recurrences `U_{k=lo..i-1} B_k` hiding in Y
  // (possibly a union of them, since the recurrence constructor
  // distributes over unions). Returns false when Y has any other shape.
  auto CollectPartials =
      [&](const USR *Y,
          std::vector<const RecurUSR *> &Out) -> bool {
    Y = peelGates(Y);
    std::vector<const USR *> Work{Y};
    while (!Work.empty()) {
      const USR *C = peelGates(Work.back());
      Work.pop_back();
      if (const auto *Un = dyn_cast<UnionUSR>(C)) {
        for (const USR *Sub : Un->getChildren())
          Work.push_back(Sub);
        continue;
      }
      const auto *RY = dyn_cast<RecurUSR>(C);
      if (!RY || RY->getHi() != IM1 || RY->getLo() != R->getLo())
        return false;
      Out.push_back(RY);
    }
    return !Out.empty();
  };

  const USR *Side = nullptr;
  std::vector<const RecurUSR *> Partials;
  for (int Swap = 0; Swap < 2 && Partials.empty(); ++Swap) {
    const USR *X = Swap ? I->getRHS() : I->getLHS();
    const USR *Y = Swap ? I->getLHS() : I->getRHS();
    if (CollectPartials(Y, Partials))
      Side = X;
    else
      Partials.clear();
  }
  if (Partials.empty())
    return nullptr;

  auto OA = overestimateLMADs(Side);
  if (!OA || OA->empty())
    return nullptr;

  // Rebase every partial-recurrence body from its variable k to i, so a
  // single symbolic interval function [Lo(i), Hi(i)] covers both sides.
  LMADSet Hull = *OA;
  for (const RecurUSR *Partial : Partials) {
    auto OB = overestimateLMADs(Partial->getBody());
    if (!OB || OB->empty())
      return nullptr;
    std::map<SymbolId, const Expr *> KToI{
        {Partial->getVar(), Sym.symRef(Var)}};
    for (const lmad::LMAD &L : *OB)
      Hull.push_back(lmad::substitute(Sym, L, KToI));
  }
  lmad::Interval IV = intervalHull(Hull);

  ++Stats.MonotonicityRule;
  std::map<SymbolId, const Expr *> IToIP1{
      {Var, Sym.addConst(Sym.symRef(Var), 1)}};
  const Expr *LoNext = Sym.substitute(IV.Lo, IToIP1);
  const Expr *HiNext = Sym.substitute(IV.Hi, IToIP1);
  const Expr *HiM1 = Sym.addConst(R->getHi(), -1);
  // Strictly increasing or strictly decreasing interval sequence; either
  // implies pairwise disjointness across iterations. The second conjunct
  // (monotone lower bounds) makes the chain robust to *empty* per-
  // iteration intervals (hi(i) < lo(i), the CIV-envelope encoding of an
  // iteration that writes nothing): for i < j,
  //   hi(i) < lo(i+1) <= lo(j).
  const Pred *LoRises = P.ge(LoNext, IV.Lo);
  const Pred *Inc = wrapLoop(Var, R->getLo(), HiM1,
                             P.and2(P.gt(LoNext, IV.Hi), LoRises));
  const Pred *LoFalls = P.ge(IV.Lo, LoNext);
  const Pred *Dec = wrapLoop(Var, R->getLo(), HiM1,
                             P.and2(P.gt(IV.Lo, HiNext), LoFalls));
  return P.or2(Inc, Dec);
}

//===----------------------------------------------------------------------===//
// DISJOINT
//===----------------------------------------------------------------------===//

const Pred *Factorizer::disjoint(const USR *A, const USR *B) {
  return disjointImpl(A, B, 0);
}

const Pred *Factorizer::disjointImpl(const USR *A, const USR *B, int Depth) {
  if (A->isEmptySet() || B->isEmptySet())
    return P.getTrue();
  if (Depth > MaxDepth || overBudget())
    return P.getFalse();
  if (B->getId() < A->getId())
    std::swap(A, B); // Symmetric: canonical order for memoization.
  uint64_t Key = pairKey(A, B);
  auto It = DisjointMemo.find(Key);
  if (It != DisjointMemo.end())
    return It->second;
  // Block recursive re-entry on the same pair (conservative false).
  DisjointMemo.emplace(Key, P.getFalse());

  std::vector<const Pred *> Alts;
  Alts.push_back(shallowEmptyPred(A));
  Alts.push_back(shallowEmptyPred(B));

  const auto *RA = dyn_cast<RecurUSR>(A);
  const auto *RB = dyn_cast<RecurUSR>(B);

  // Rule (1): invariant overestimates for recurrence operands.
  if (Opts.InvariantOverestimates && (RA || RB)) {
    const USR *IA = A, *IB = B;
    bool Ok = true;
    if (RA) {
      auto O = invariantOverestimate(Ctx, RA->getBody(), RA->getVar(),
                                     RA->getLo(), RA->getHi());
      if (O)
        IA = *O;
      else
        Ok = false;
    }
    if (Ok && RB) {
      auto O = invariantOverestimate(Ctx, RB->getBody(), RB->getVar(),
                                     RB->getLo(), RB->getHi());
      if (O)
        IB = *O;
      else
        Ok = false;
    }
    if (Ok) {
      ++Stats.InvariantOverRule;
      Alts.push_back(disjointImpl(IA, IB, Depth + 1));
    }
  }

  // Loop expansion: disjointness for every iteration. Exact when only one
  // side varies with the recurrence variable; for two recurrences the
  // nested expansion quantifies over both variables.
  if (RA) {
    const USR *BodyA = RA->getBody();
    SymbolId VarA = RA->getVar();
    if (B->dependsOn(VarA)) {
      SymbolId Fresh = Sym.freshSymbol(Sym.symbolInfo(VarA).Name,
                                       Sym.symbolInfo(VarA).DefLevel);
      std::map<SymbolId, const Expr *> M{{VarA, Sym.symRef(Fresh)}};
      BodyA = Ctx.substitute(BodyA, M);
      VarA = Fresh;
    }
    Alts.push_back(wrapLoop(VarA, RA->getLo(), RA->getHi(),
                            disjointImpl(BodyA, B, Depth + 1)));
  } else if (RB) {
    const USR *BodyB = RB->getBody();
    SymbolId VarB = RB->getVar();
    if (A->dependsOn(VarB)) {
      SymbolId Fresh = Sym.freshSymbol(Sym.symbolInfo(VarB).Name,
                                       Sym.symbolInfo(VarB).DefLevel);
      std::map<SymbolId, const Expr *> M{{VarB, Sym.symRef(Fresh)}};
      BodyB = Ctx.substitute(BodyB, M);
      VarB = Fresh;
    }
    Alts.push_back(wrapLoop(VarB, RB->getLo(), RB->getHi(),
                            disjointImpl(A, BodyB, Depth + 1)));
  }

  Alts.push_back(disjointHomo(A, B, Depth));
  Alts.push_back(disjointHomo(B, A, Depth));
  if (Opts.LmadApproximation)
    Alts.push_back(disjointApprox(A, B));

  const Pred *Result = P.orN(std::move(Alts));
  DisjointMemo[Key] = Result;
  return Result;
}

const Pred *Factorizer::disjointHomo(const USR *U, const USR *S, int Depth) {
  switch (U->getKind()) {
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(U);
    const Pred *Inner = disjointImpl(G->getChild(), S, Depth + 1);
    const Pred *NotQ = P.tryNot(G->getGate());
    return NotQ ? P.or2(NotQ, Inner) : Inner;
  }
  case USRKind::Union: {
    std::vector<const Pred *> All;
    for (const USR *C : cast<UnionUSR>(U)->getChildren())
      All.push_back(disjointImpl(C, S, Depth + 1));
    return P.andN(std::move(All));
  }
  case USRKind::Subtract: {
    // Rule (2): S n (S1 - S2) empty <== S disjoint S1 or S subset S2.
    const auto *B = cast<BinaryUSR>(U);
    const Pred *InRHS = includedImpl(S, B->getRHS(), Depth + 1);
    return P.or2(disjointImpl(B->getLHS(), S, Depth + 1), InRHS);
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(U);
    const Pred *MissesRHS = disjointImpl(B->getRHS(), S, Depth + 1);
    return P.or2(disjointImpl(B->getLHS(), S, Depth + 1), MissesRHS);
  }
  case USRKind::CallSite:
    return P.callSite(cast<CallSiteUSR>(U)->getCallee(),
                      disjointImpl(cast<CallSiteUSR>(U)->getChild(), S,
                                   Depth + 1));
  case USRKind::Empty:
  case USRKind::Leaf:
  case USRKind::Recur:
    return P.getFalse(); // Handled by the caller's other strategies.
  }
  halo_unreachable("covered switch");
}

const Pred *Factorizer::disjointApprox(const USR *A, const USR *B) {
  auto OA = overestimateLMADs(A);
  auto OB = overestimateLMADs(B);
  if (!OA || !OB)
    return P.getFalse();
  ++Stats.LmadDisjointRule;
  return disjointSets(P, *OA, *OB);
}

//===----------------------------------------------------------------------===//
// INCLUDED
//===----------------------------------------------------------------------===//

const Pred *Factorizer::included(const USR *A, const USR *B) {
  return includedImpl(A, B, 0);
}

const Pred *Factorizer::includedImpl(const USR *A, const USR *B, int Depth) {
  if (A->isEmptySet())
    return P.getTrue();
  if (A == B)
    return P.getTrue();
  if (Depth > MaxDepth || overBudget())
    return P.getFalse();
  uint64_t Key = pairKey(A, B);
  auto It = IncludedMemo.find(Key);
  if (It != IncludedMemo.end())
    return It->second;
  IncludedMemo.emplace(Key, P.getFalse());

  std::vector<const Pred *> Alts;
  Alts.push_back(shallowEmptyPred(A));

  // Rule (3): recurrences over the same range include iff the bodies do.
  const auto *RA = dyn_cast<RecurUSR>(A);
  const auto *RB = dyn_cast<RecurUSR>(B);
  if (RA && RB && RA->getLo() == RB->getLo() && RA->getHi() == RB->getHi()) {
    std::map<SymbolId, const Expr *> M{
        {RB->getVar(), Sym.symRef(RA->getVar())}};
    const USR *BodyB = Ctx.substitute(RB->getBody(), M);
    Alts.push_back(wrapLoop(RA->getVar(), RA->getLo(), RA->getHi(),
                            includedImpl(RA->getBody(), BodyB, Depth + 1)));
  } else if (RA) {
    // U_i S_i subset-of B <== for every i, S_i subset-of B.
    const USR *BodyA = RA->getBody();
    SymbolId VarA = RA->getVar();
    if (B->dependsOn(VarA)) {
      SymbolId Fresh = Sym.freshSymbol(Sym.symbolInfo(VarA).Name,
                                       Sym.symbolInfo(VarA).DefLevel);
      std::map<SymbolId, const Expr *> M{{VarA, Sym.symRef(Fresh)}};
      BodyA = Ctx.substitute(BodyA, M);
      VarA = Fresh;
    }
    Alts.push_back(wrapLoop(VarA, RA->getLo(), RA->getHi(),
                            includedImpl(BodyA, B, Depth + 1)));
  }

  Alts.push_back(includedHomo(A, B, Depth));
  if (Opts.LmadApproximation)
    Alts.push_back(includedApprox(A, B));

  const Pred *Result = P.orN(std::move(Alts));
  IncludedMemo[Key] = Result;
  return Result;
}

const Pred *Factorizer::includedHomo(const USR *S, const USR *U, int Depth) {
  // Case analysis on the includer U (P1 of INCLUDED_H).
  const Pred *P1 = P.getFalse();
  switch (U->getKind()) {
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(U);
    P1 = P.and2(G->getGate(), includedImpl(S, G->getChild(), Depth + 1));
    break;
  }
  case USRKind::Union: {
    std::vector<const Pred *> Any;
    for (const USR *C : cast<UnionUSR>(U)->getChildren())
      Any.push_back(includedImpl(S, C, Depth + 1));
    P1 = P.orN(std::move(Any));
    break;
  }
  case USRKind::Subtract: {
    // Rule (4): S subset (S1 - S2) <== S subset S1 and S disjoint S2.
    const auto *B = cast<BinaryUSR>(U);
    const Pred *MissesRHS = disjointImpl(S, B->getRHS(), Depth + 1);
    P1 = P.and2(includedImpl(S, B->getLHS(), Depth + 1), MissesRHS);
    break;
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(U);
    const Pred *InRHS = includedImpl(S, B->getRHS(), Depth + 1);
    P1 = P.and2(includedImpl(S, B->getLHS(), Depth + 1), InRHS);
    break;
  }
  case USRKind::Leaf: {
    // Rule (5): an LMAD covering the whole declared array includes
    // everything that ranges over that array.
    if (ArraySize) {
      std::vector<const Pred *> Any;
      for (const lmad::LMAD &L : cast<LeafUSR>(U)->getLMADs())
        Any.push_back(lmad::fillsArray(P, L, ArraySize));
      P1 = P.orN(std::move(Any));
      if (!P1->isFalse())
        ++Stats.FillsArrayRule;
    }
    break;
  }
  case USRKind::CallSite:
    P1 = P.callSite(cast<CallSiteUSR>(U)->getCallee(),
                    includedImpl(S, cast<CallSiteUSR>(U)->getChild(),
                                 Depth + 1));
    break;
  case USRKind::Empty:
  case USRKind::Recur:
    break;
  }

  // Case analysis on the includee S (P2 of INCLUDED_H).
  const Pred *P2 = P.getFalse();
  switch (S->getKind()) {
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    const Pred *Inner = includedImpl(G->getChild(), U, Depth + 1);
    const Pred *NotQ = P.tryNot(G->getGate());
    P2 = NotQ ? P.or2(NotQ, Inner) : Inner;
    break;
  }
  case USRKind::Union: {
    std::vector<const Pred *> All;
    for (const USR *C : cast<UnionUSR>(S)->getChildren())
      All.push_back(includedImpl(C, U, Depth + 1));
    P2 = P.andN(std::move(All));
    break;
  }
  case USRKind::Subtract:
    P2 = includedImpl(cast<BinaryUSR>(S)->getLHS(), U, Depth + 1);
    break;
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(S);
    const Pred *RHSIn = includedImpl(B->getRHS(), U, Depth + 1);
    P2 = P.or2(includedImpl(B->getLHS(), U, Depth + 1), RHSIn);
    break;
  }
  case USRKind::CallSite:
    P2 = P.callSite(cast<CallSiteUSR>(S)->getCallee(),
                    includedImpl(cast<CallSiteUSR>(S)->getChild(), U,
                                 Depth + 1));
    break;
  case USRKind::Empty:
  case USRKind::Leaf:
  case USRKind::Recur:
    break;
  }
  return P.or2(P1, P2);
}

const Pred *Factorizer::includedApprox(const USR *A, const USR *B) {
  auto OA = overestimateLMADs(A);
  auto UB = underestimateLMADs(B);
  if (!OA || !UB)
    return P.getFalse();
  if (OA->empty())
    return P.getTrue();
  if (UB->Set.empty())
    return P.getFalse();
  ++Stats.LmadIncludedRule;
  return P.and2(UB->Cond, includedSets(P, *OA, UB->Set));
}

} // namespace ref

/// Contexts plus the random summary generator. Two Worlds driven by equal
/// Rng sequences intern the same nodes in the same order.
struct World {
  World() : P(Sym), U(Sym, P) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;

  sym::SymbolId loopVar(int Depth) {
    return Sym.symbol("rv" + std::to_string(Depth), Depth);
  }

  /// Random symbolic length expression over the scalar pool.
  const sym::Expr *randomExpr(Rng &R, int LoopDepth) {
    const sym::Expr *E = Sym.intConst(R.nextInRange(-2, 6));
    if (R.chance(1, 2))
      E = Sym.add(E, Sym.mulConst(Sym.symRef("a"), R.nextInRange(-1, 2)));
    if (R.chance(1, 3))
      E = Sym.add(E, Sym.mulConst(Sym.symRef("b"), R.nextInRange(-1, 2)));
    if (LoopDepth > 0 && R.chance(1, 2)) {
      if (R.chance(1, 2)) {
        sym::SymbolId IB = Sym.symbol("IB", 0, true);
        E = Sym.add(E, Sym.arrayRef(IB, Sym.symRef(loopVar(LoopDepth))));
      } else {
        E = Sym.add(E, Sym.mulConst(Sym.symRef(loopVar(LoopDepth)),
                                    R.nextInRange(1, 3)));
      }
    }
    return E;
  }

  const Pred *randomGate(Rng &R, int LoopDepth) {
    const sym::Expr *E = randomExpr(R, LoopDepth);
    return R.chance(1, 2) ? P.ge0(E) : P.ne0(E);
  }

  const USR *randomUSR(Rng &R, int Depth, int LoopDepth) {
    if (Depth <= 0 || R.chance(1, 4)) {
      // Leaf: interval or strided LMAD.
      const sym::Expr *Off = randomExpr(R, LoopDepth);
      if (R.chance(1, 3)) {
        int64_t Stride = R.nextInRange(2, 4);
        int64_t Count = R.nextInRange(1, 4);
        return U.leaf(lmad::LMAD::makeStrided(
            Sym.intConst(Stride), Sym.intConst(Stride * (Count - 1)), Off));
      }
      return U.interval(Off, Sym.intConst(R.nextInRange(0, 6)));
    }
    switch (R.nextBelow(6)) {
    case 0:
      return U.union2(randomUSR(R, Depth - 1, LoopDepth),
                      randomUSR(R, Depth - 1, LoopDepth));
    case 1:
      return U.intersect(randomUSR(R, Depth - 1, LoopDepth),
                         randomUSR(R, Depth - 1, LoopDepth));
    case 2:
      return U.subtract(randomUSR(R, Depth - 1, LoopDepth),
                        randomUSR(R, Depth - 1, LoopDepth));
    case 3:
      return U.gate(randomGate(R, LoopDepth),
                    randomUSR(R, Depth - 1, LoopDepth));
    case 4: {
      sym::SymbolId V = loopVar(LoopDepth + 1);
      return U.recur(V, Sym.intConst(1), Sym.symRef("n"),
                     randomUSR(R, Depth - 1, LoopDepth + 1));
    }
    default:
      return randomUSR(R, Depth - 1, LoopDepth);
    }
  }

  sym::Bindings randomBindings(Rng &R) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), R.nextInRange(-3, 5));
    B.setScalar(Sym.symbol("b"), R.nextInRange(-3, 5));
    B.setScalar(Sym.symbol("n"), R.nextInRange(0, 5));
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int I = 0; I < 8; ++I)
      A.Vals.push_back(R.nextInRange(-3, 12));
    B.setArray(Sym.symbol("IB", 0, true), A);
    return B;
  }
};

class FactorSoundness : public ::testing::TestWithParam<uint64_t>,
                        protected World {};

TEST_P(FactorSoundness, FactorImpliesEmpty) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 12; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    Factorizer F(U);
    const Pred *Pr = F.factor(S);
    for (int BTrial = 0; BTrial < 12; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, B);
      if (!PV || !*PV)
        continue;
      auto SV = evalUSR(S, B);
      ASSERT_TRUE(SV.has_value());
      EXPECT_TRUE(SV->empty())
          << "F(S) true but S nonempty\nS: " << S->toString(Sym)
          << "\nF(S): " << Pr->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, FactorSurvivesSimplifyAndCascade) {
  Rng R(GetParam() ^ 0x1111);
  for (int Trial = 0; Trial < 8; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    Factorizer F(U);
    const Pred *Pr = F.factor(S);
    auto Stages = pdag::buildCascade(P, Pr);
    for (int BTrial = 0; BTrial < 8; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      for (const auto &St : Stages) {
        auto PV = pdag::tryEvalPred(St.P, B);
        if (!PV || !*PV)
          continue;
        auto SV = evalUSR(S, B);
        ASSERT_TRUE(SV.has_value());
        EXPECT_TRUE(SV->empty())
            << "cascade stage true but S nonempty\nS: " << S->toString(Sym)
            << "\nstage: " << St.P->toString(Sym);
      }
    }
  }
}

TEST_P(FactorSoundness, FactorAfterUMEGReshapeStillSound) {
  Rng R(GetParam() ^ 0x2222);
  for (int Trial = 0; Trial < 8; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    const USR *Reshaped = reshapeUMEG(U, S);
    Factorizer F(U);
    const Pred *Pr = F.factor(Reshaped);
    for (int BTrial = 0; BTrial < 8; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, B);
      if (!PV || !*PV)
        continue;
      auto SV = evalUSR(S, B); // Original semantics!
      ASSERT_TRUE(SV.has_value());
      EXPECT_TRUE(SV->empty());
    }
  }
}

TEST_P(FactorSoundness, DisjointImpliesEmptyIntersection) {
  Rng R(GetParam() ^ 0x3333);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *A = randomUSR(R, 2, 0);
    const USR *B = randomUSR(R, 2, 0);
    Factorizer F(U);
    const Pred *Pr = F.disjoint(A, B);
    for (int BTrial = 0; BTrial < 10; ++BTrial) {
      sym::Bindings Bd = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, Bd);
      if (!PV || !*PV)
        continue;
      auto VA = evalUSR(A, Bd);
      auto VB = evalUSR(B, Bd);
      ASSERT_TRUE(VA.has_value() && VB.has_value());
      std::set<int64_t> SB(VB->begin(), VB->end());
      for (int64_t X : *VA)
        EXPECT_FALSE(SB.count(X))
            << "disjoint claimed but share " << X << "\nA: "
            << A->toString(Sym) << "\nB: " << B->toString(Sym)
            << "\npred: " << Pr->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, IncludedImpliesSubset) {
  Rng R(GetParam() ^ 0x4444);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *A = randomUSR(R, 2, 0);
    const USR *B = randomUSR(R, 2, 0);
    Factorizer F(U);
    const Pred *Pr = F.included(A, B);
    for (int BTrial = 0; BTrial < 10; ++BTrial) {
      sym::Bindings Bd = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, Bd);
      if (!PV || !*PV)
        continue;
      auto VA = evalUSR(A, Bd);
      auto VB = evalUSR(B, Bd);
      ASSERT_TRUE(VA.has_value() && VB.has_value());
      std::set<int64_t> SB(VB->begin(), VB->end());
      for (int64_t X : *VA)
        EXPECT_TRUE(SB.count(X))
            << "inclusion claimed but " << X << " not in B\nA: "
            << A->toString(Sym) << "\nB: " << B->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, FactorIsNotVacuous) {
  // Anti-vacuity: on summaries that are definitely empty by construction
  // (S - S over random S), the factorization must prove it statically.
  Rng R(GetParam() ^ 0x5555);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *S = randomUSR(R, 2, 0);
    Factorizer F(U);
    EXPECT_TRUE(F.factor(U.subtract(S, S))->isTrue());
    EXPECT_TRUE(F.included(S, S)->isTrue());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FactorSoundness,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// Memo parity: the memoized factorizer returns exactly what the reference
// oracle returns, and interns the same nodes in the same order.
//===----------------------------------------------------------------------===//

std::vector<uint64_t> statsVector(const FactorStats &S) {
  return {S.GateRule,          S.UnionRule,          S.SubtractRule,
          S.IntersectRule,     S.RecurRule,          S.MonotonicityRule,
          S.InvariantOverRule, S.LmadDisjointRule,   S.LmadIncludedRule,
          S.FillsArrayRule,    S.FourierMotzkinUses, S.BudgetBailouts};
}

class FactorMemoParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FactorMemoParity, MatchesReferenceOracle) {
  // Same seed, two contexts: the reference factorizer runs in one, the
  // memoized one in the other, with the same sequence of calls. Each
  // factorizer answers several queries over shared subterms, so later
  // calls hit the memos the earlier ones filled.
  World Ref, New;
  Rng RR(GetParam()), RN(GetParam());
  for (int Trial = 0; Trial < 6; ++Trial) {
    const USR *SR[4], *SN[4];
    for (int I = 0; I < 3; ++I) {
      SR[I] = Ref.randomUSR(RR, 3, 0);
      SN[I] = New.randomUSR(RN, 3, 0);
    }
    SR[3] = Ref.U.intersect(SR[0], SR[2]);
    SN[3] = New.U.intersect(SN[0], SN[2]);
    ASSERT_EQ(Ref.P.numPreds(), New.P.numPreds());
    ASSERT_EQ(Ref.U.numNodes(), New.U.numNodes());
    ref::Factorizer FR(Ref.U);
    Factorizer FN(New.U);
    if (Trial % 2) {
      FR.setArraySize(Ref.Sym.symRef("n"));
      FN.setArraySize(New.Sym.symRef("n"));
    }
    std::vector<const Pred *> OutR, OutN;
    auto Both = [&](auto Query) {
      OutR.push_back(Query(FR, SR));
      OutN.push_back(Query(FN, SN));
    };
    Both([](auto &F, const USR **S) { return F.factor(S[0]); });
    Both([](auto &F, const USR **S) { return F.disjoint(S[0], S[1]); });
    Both([](auto &F, const USR **S) { return F.included(S[1], S[2]); });
    Both([](auto &F, const USR **S) { return F.disjoint(S[2], S[0]); });
    Both([](auto &F, const USR **S) { return F.included(S[0], S[1]); });
    Both([](auto &F, const USR **S) { return F.factor(S[1]); });
    Both([](auto &F, const USR **S) { return F.factor(S[3]); });

    EXPECT_EQ(Ref.P.numPreds(), New.P.numPreds());
    EXPECT_EQ(Ref.U.numNodes(), New.U.numNodes());
    EXPECT_EQ(Ref.Sym.numExprs(), New.Sym.numExprs());
    EXPECT_EQ(statsVector(FR.stats()), statsVector(FN.stats()));
    ASSERT_EQ(OutR.size(), OutN.size());
    for (size_t I = 0; I < OutR.size(); ++I) {
      EXPECT_EQ(OutR[I]->getId(), OutN[I]->getId()) << "query " << I;
      EXPECT_EQ(OutR[I]->toString(Ref.Sym), OutN[I]->toString(New.Sym))
          << "query " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FactorMemoParity,
                         ::testing::Range<uint64_t>(1, 33));

// The factorizer keeps one Fourier-Motzkin reducer per loop range, with
// memos that persist across that range's reductions. Each reduction the
// suite's cold prepares make must be what a one-shot reducePred returns.
// Repeated after the fact, in the same context, the one-shot reduction must
// return the logged pointer and intern nothing: equal results mean the
// one-shot walk finds every node it builds already interned.
TEST(FactorRangeReducers, MatchOneShotOnEverySuiteReduction) {
  auto Suite = suite::buildAllBenchmarks();
  size_t Reductions = 0, Ranges = 0;
  for (const auto &B : Suite) {
    SCOPED_TRACE(B->Name);
    std::vector<FMReduction> Log;
    session::SessionOptions SO;
    SO.Threads = 1;
    SO.Analyzer.Factor.FMLog = &Log;
    session::Session S(B->prog(), B->usr(), SO);
    for (const suite::LoopSpec &LS : B->Loops)
      S.prepare(*LS.Loop);
    pdag::PredContext &P = B->usr().predCtx();
    const size_t Before = P.numPreds();
    std::set<std::tuple<sym::SymbolId, const sym::Expr *, const sym::Expr *>>
        Seen;
    for (const FMReduction &R : Log) {
      sym::RangeEnv Env;
      Env.bind(R.Var, R.Lo, R.Hi);
      EXPECT_EQ(pdag::reducePred(P, R.Body, Env), R.Reduced)
          << R.Body->toString(B->usr().symCtx());
      Seen.insert({R.Var, R.Lo, R.Hi});
    }
    EXPECT_EQ(P.numPreds(), Before);
    Reductions += Log.size();
    Ranges += Seen.size();
  }
  // The memos only pay off when ranges repeat.
  EXPECT_GT(Reductions, 2 * Ranges);
}

} // namespace
