//===- factor/Factor.cpp - The logic-inference factorization --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "factor/Factor.h"

#include "lmad/LMADCompare.h"
#include "pdag/FourierMotzkin.h"
#include "support/Error.h"
#include "usr/USRTransform.h"

#include <cassert>

using namespace halo;
using namespace halo::factor;
using namespace halo::usr;
using lmad::KeyedSet;
using lmad::LMADSet;
using pdag::Pred;
using sym::Expr;
using sym::SymbolId;

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

static uint64_t pairKey(const USR *A, const USR *B) {
  return (static_cast<uint64_t>(A->getId()) << 32) | B->getId();
}

/// Strips gate wrappers, returning the naked child (an overestimate of the
/// gated set — sound wherever a superset is acceptable).
static const USR *peelGates(const USR *S) {
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

/// Returns \p Memo's entry for \p S, computing and recording it on a miss.
/// The helpers memoized this way are pure functions of an interned node
/// and build only hash-consed nodes, so a hit skips only work that would
/// intern nothing new (src/factor/README.md).
template <typename MemoT, typename ComputeFn>
static typename MemoT::mapped_type memoize(MemoT &Memo, const USR *S,
                                           ComputeFn Compute) {
  auto It = Memo.find(S);
  if (It != Memo.end())
    return It->second;
  typename MemoT::mapped_type Result = Compute();
  Memo.emplace(S, Result);
  return Result;
}

/// Appends every LMAD of \p In, with its id, to \p Out.
static void appendAll(KeyedSet &Out, const KeyedSet &In) {
  Out.LMADs.insert(Out.LMADs.end(), In.LMADs.begin(), In.LMADs.end());
  Out.Ids.insert(Out.Ids.end(), In.Ids.begin(), In.Ids.end());
}

const Pred *Factorizer::shallowEmptyPred(const USR *S) {
  return memoize(ShallowMemo, S, [&]() -> const Pred * {
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
      return P.or2(shallowEmptyPred(B->getLHS()),
                   shallowEmptyPred(B->getRHS()));
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
  });
}

const KeyedSet *Factorizer::overestimateLMADs(const USR *S) {
  return memoize(OverMemo, S, [&]() -> const KeyedSet * {
    switch (S->getKind()) {
    case USRKind::Empty:
      return &LmadSets.emplace_back();
    case USRKind::Leaf: {
      KeyedSet Out;
      for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs())
        LmadPairs.append(Out, L);
      return &LmadSets.emplace_back(std::move(Out));
    }
    case USRKind::Union: {
      KeyedSet Out;
      for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
        const KeyedSet *V = overestimateLMADs(C);
        if (!V)
          return nullptr;
        appendAll(Out, *V);
      }
      return &LmadSets.emplace_back(std::move(Out));
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
      const KeyedSet *Body = overestimateLMADs(R->getBody());
      if (!Body)
        return nullptr;
      KeyedSet Out;
      for (const lmad::LMAD &L : Body->LMADs) {
        auto A = lmad::aggregate(Sym, L, R->getVar(), R->getLo(), R->getHi());
        if (!A)
          return nullptr;
        LmadPairs.append(Out, *A);
      }
      return &LmadSets.emplace_back(std::move(Out));
    }
    }
    halo_unreachable("covered switch");
  });
}

std::optional<Factorizer::CondSet>
Factorizer::underestimateLMADs(const USR *S) {
  return memoize(UnderMemo, S, [&]() -> std::optional<CondSet> {
    switch (S->getKind()) {
    case USRKind::Empty:
    case USRKind::Leaf:
      // Exact: the overestimate of a leaf is its own LMAD set.
      return CondSet{P.getTrue(), overestimateLMADs(S)};
    case USRKind::Gate: {
      const auto *G = cast<GateUSR>(S);
      auto Inner = underestimateLMADs(G->getChild());
      if (!Inner)
        return std::nullopt;
      return CondSet{P.and2(G->getGate(), Inner->Cond), Inner->Set};
    }
    case USRKind::Union: {
      const Pred *Cond = P.getTrue();
      KeyedSet Out;
      for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
        auto V = underestimateLMADs(C);
        if (!V)
          return std::nullopt;
        Cond = P.and2(Cond, V->Cond);
        appendAll(Out, *V->Set);
      }
      return CondSet{Cond, &LmadSets.emplace_back(std::move(Out))};
    }
    case USRKind::Recur: {
      const auto *R = cast<RecurUSR>(S);
      auto Body = underestimateLMADs(R->getBody());
      if (!Body || Body->Cond->dependsOn(R->getVar()))
        return std::nullopt;
      KeyedSet Out;
      for (const lmad::LMAD &L : Body->Set->LMADs) {
        auto A = lmad::aggregate(Sym, L, R->getVar(), R->getLo(), R->getHi());
        if (!A)
          return std::nullopt;
        LmadPairs.append(Out, *A);
      }
      // Aggregation is exact only over a non-empty range.
      return CondSet{P.and2(Body->Cond, P.le(R->getLo(), R->getHi())),
                     &LmadSets.emplace_back(std::move(Out))};
    }
    case USRKind::Intersect:
    case USRKind::Subtract:
    case USRKind::CallSite:
      return std::nullopt;
    }
    halo_unreachable("covered switch");
  });
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
    Result = P.or2(factorImpl(B->getLHS(), Depth + 1),
                   includedImpl(B->getLHS(), B->getRHS(), Depth + 1));
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
      if (const Pred *Mono = tryMonotonicity(R)) {
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

const Pred *Factorizer::tryMonotonicity(const RecurUSR *R) {
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

  const KeyedSet *OA = overestimateLMADs(Side);
  if (!OA || OA->LMADs.empty())
    return nullptr;

  // Rebase every partial-recurrence body from its variable k to i, so a
  // single symbolic interval function [Lo(i), Hi(i)] covers both sides.
  LMADSet Hull = OA->LMADs;
  for (const RecurUSR *Partial : Partials) {
    const KeyedSet *OB = overestimateLMADs(Partial->getBody());
    if (!OB || OB->LMADs.empty())
      return nullptr;
    std::map<SymbolId, const Expr *> KToI{
        {Partial->getVar(), Sym.symRef(Var)}};
    for (const lmad::LMAD &L : OB->LMADs)
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
  const Pred *Inc = wrapLoop(
      Var, R->getLo(), HiM1,
      P.and2(P.gt(LoNext, IV.Hi), P.ge(LoNext, IV.Lo)));
  const Pred *Dec = wrapLoop(
      Var, R->getLo(), HiM1,
      P.and2(P.gt(IV.Lo, HiNext), P.ge(IV.Lo, LoNext)));
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
    return P.or2(disjointImpl(B->getLHS(), S, Depth + 1),
                 includedImpl(S, B->getRHS(), Depth + 1));
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(U);
    return P.or2(disjointImpl(B->getLHS(), S, Depth + 1),
                 disjointImpl(B->getRHS(), S, Depth + 1));
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
  const KeyedSet *OA = overestimateLMADs(A);
  const KeyedSet *OB = overestimateLMADs(B);
  if (!OA || !OB)
    return P.getFalse();
  ++Stats.LmadDisjointRule;
  return lmad::disjointSets(P, LmadPairs, *OA, *OB);
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
    P1 = P.and2(includedImpl(S, B->getLHS(), Depth + 1),
                disjointImpl(S, B->getRHS(), Depth + 1));
    break;
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(U);
    P1 = P.and2(includedImpl(S, B->getLHS(), Depth + 1),
                includedImpl(S, B->getRHS(), Depth + 1));
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
    P2 = P.or2(includedImpl(B->getLHS(), U, Depth + 1),
               includedImpl(B->getRHS(), U, Depth + 1));
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
  const KeyedSet *OA = overestimateLMADs(A);
  auto UB = underestimateLMADs(B);
  if (!OA || !UB)
    return P.getFalse();
  if (OA->LMADs.empty())
    return P.getTrue();
  if (UB->Set->LMADs.empty())
    return P.getFalse();
  ++Stats.LmadIncludedRule;
  return P.and2(UB->Cond, lmad::includedSets(P, LmadPairs, *OA, *UB->Set));
}
