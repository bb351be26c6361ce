//===- pdag/PredSimplify.cpp - Predicate simplification & cascade ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/PredSimplify.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace halo;
using namespace halo::pdag;

namespace {

/// The rewrites of simplify. visit is a pure function of an interned node,
/// and nodes live as long as their context, so its results are recorded in
/// the context (PredContext::setSimplified) and shared by every simplify
/// call on it.
class Simplifier {
public:
  explicit Simplifier(PredContext &Ctx) : Ctx(Ctx) {}

  const Pred *visit(const Pred *P) {
    if (const Pred *Known = Ctx.simplified(P))
      return Known;
    const Pred *R = rewrite(P);
    // Local fixpoint: rewriting can expose further opportunities.
    for (int I = 0; I < 4 && R != P; ++I) {
      const Pred *Next = rewrite(R);
      if (Next == R)
        break;
      R = Next;
    }
    Ctx.setSimplified(P, R);
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

  /// Common-factor extraction (an equivalence, by distributivity):
  ///   And(Or(I u R1), ..., Or(I u Rn)) == Or(I) or And(Or(R1)...Or(Rn))
  /// and dually for Or of Ands.
  const Pred *rewriteNary(const NaryPred *N) {
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(visit(C));
    const bool IsAnd = N->isAnd();
    const Pred *Rebuilt =
        IsAnd ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
    const auto *RN = dyn_cast<NaryPred>(Rebuilt);
    if (!RN || RN->isAnd() != IsAnd)
      return Rebuilt;

    const PredKind DualK = IsAnd ? PredKind::Or : PredKind::And;
    // Factor only when every child is a dual-kind node; otherwise a bare
    // child C would force the common set to {C} trivially.
    auto DualChildren = [&](const Pred *C) -> std::vector<const Pred *> {
      if (C->getKind() == DualK)
        return cast<NaryPred>(C)->getChildren();
      return {C};
    };
    // Compute the intersection of all children's dual-child sets.
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

  /// LoopAll distribution and invariant hoisting (both equivalences):
  ///   ALL_i (A and B)       == ALL_i A  and  ALL_i B
  ///   ALL_i (Inv or B_i)    == Inv or ALL_i B_i
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
};

/// Implements strengthenToDepth: a recursive strengthening where leaves
/// depending on a "forbidden" (eliminated loop) variable become false, and
/// LoopAll nodes beyond the depth budget dissolve into their bodies'
/// invariant-sufficient parts.
///
/// The PDAG is hash-consed, so a shared subterm is reachable along many
/// paths. Its strengthening depends only on (node, remaining budget,
/// forbidden-symbol set), so the memo visits each such triple once and the
/// walk is linear in the DAG size instead of its number of paths.
class Strengthener {
public:
  explicit Strengthener(PredContext &Ctx) : Ctx(Ctx) {}

  /// \p Forbidden is sorted and deduplicated: only membership matters.
  const Pred *visit(const Pred *P, int Budget,
                    const std::vector<sym::SymbolId> &Forbidden) {
    switch (P->getKind()) {
    case PredKind::True:
    case PredKind::False:
      return P;
    case PredKind::Cmp:
    case PredKind::Divides:
      return dependsOnAny(P, Forbidden) ? Ctx.getFalse() : P;
    default:
      break;
    }
    Key K{P, Budget, Forbidden};
    auto It = Memo.find(K);
    if (It != Memo.end())
      return It->second;
    const Pred *R = strengthen(P, Budget, Forbidden);
    Memo.emplace(std::move(K), R);
    return R;
  }

private:
  struct Key {
    const Pred *P;
    int Budget;
    std::vector<sym::SymbolId> Forbidden;
    bool operator==(const Key &O) const {
      return P == O.P && Budget == O.Budget && Forbidden == O.Forbidden;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const Pred *>{}(K.P);
      hashCombine(H, static_cast<size_t>(K.Budget));
      hashRange(H, K.Forbidden.begin(), K.Forbidden.end());
      return H;
    }
  };

  static bool dependsOnAny(const Pred *P,
                           const std::vector<sym::SymbolId> &Syms) {
    for (sym::SymbolId S : Syms)
      if (P->dependsOn(S))
        return true;
    return false;
  }

  const Pred *strengthen(const Pred *P, int Budget,
                         const std::vector<sym::SymbolId> &Forbidden) {
    switch (P->getKind()) {
    case PredKind::True:
    case PredKind::False:
    case PredKind::Cmp:
    case PredKind::Divides:
      halo_unreachable("leaves are answered by visit");
    case PredKind::And:
    case PredKind::Or: {
      const auto *N = cast<NaryPred>(P);
      std::vector<const Pred *> Cs;
      Cs.reserve(N->getChildren().size());
      for (const Pred *C : N->getChildren())
        Cs.push_back(visit(C, Budget, Forbidden));
      return N->isAnd() ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
    }
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      if (dependsOnAny(P, Forbidden))
        return Ctx.getFalse(); // Bounds or body mention an eliminated var.
      if (Budget > 0) {
        const Pred *Body = visit(L->getBody(), Budget - 1, Forbidden);
        return Ctx.loopAll(L->getVar(), L->getLo(), L->getHi(), Body);
      }
      // No loop budget left: keep only the parts of the body that hold for
      // every iteration because they do not mention the loop variable.
      std::vector<sym::SymbolId> Inner = Forbidden;
      auto Pos = std::lower_bound(Inner.begin(), Inner.end(), L->getVar());
      if (Pos == Inner.end() || *Pos != L->getVar())
        Inner.insert(Pos, L->getVar());
      return visit(L->getBody(), 0, Inner);
    }
    case PredKind::CallSite:
      // Opaque: cannot be judged cheaper than its own evaluation.
      return dependsOnAny(P, Forbidden)
                 ? Ctx.getFalse()
                 : visit(cast<CallSitePred>(P)->getBody(), Budget, Forbidden);
    }
    halo_unreachable("covered switch");
  }

  PredContext &Ctx;
  std::unordered_map<Key, const Pred *, KeyHash> Memo;
};

} // namespace

const Pred *pdag::simplify(PredContext &Ctx, const Pred *P) {
  // Global fixpoint over a few rounds. visit is a pure function of an
  // interned node, so a hit on a result recorded in this call, an earlier
  // call or an earlier round returns the pointer a recomputation would,
  // and that recomputation would intern no new node: node IDs and child
  // order stay as with a fresh memo per round. A predicate simplified once
  // answers from its record: buildCascade's simplify of what makeCascade
  // already simplified costs a few loads.
  Simplifier S(Ctx);
  const Pred *R = S.visit(P);
  for (int I = 0; I < 3; ++I) {
    const Pred *Next = S.visit(R);
    if (Next == R)
      break;
    R = Next;
  }
  return R;
}

const Pred *pdag::strengthenToDepth(PredContext &Ctx, const Pred *P,
                                    int MaxDepth) {
  return simplify(Ctx, Strengthener(Ctx).visit(P, MaxDepth, {}));
}

std::vector<CascadeStage> pdag::buildCascade(PredContext &Ctx, const Pred *P) {
  const Pred *Full = simplify(Ctx, P);
  std::vector<CascadeStage> Stages;
  if (Full->isFalse())
    return Stages;

  for (int Depth = 0; Depth < Full->loopDepth(); ++Depth) {
    const Pred *Stage = strengthenToDepth(Ctx, Full, Depth);
    if (Stage->isFalse())
      continue;
    // Skip stages identical to an already-emitted cheaper stage.
    bool Dup = false;
    for (const CascadeStage &S : Stages)
      if (S.P == Stage)
        Dup = true;
    if (Dup)
      continue;
    Stages.push_back(CascadeStage{Stage, Stage->loopDepth()});
    if (Stage == Full)
      return Stages; // The full test already surfaced early.
  }
  Stages.push_back(CascadeStage{Full, Full->loopDepth()});
  return Stages;
}
