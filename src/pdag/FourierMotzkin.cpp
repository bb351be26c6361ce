//===- pdag/FourierMotzkin.cpp - Symbolic bound-variable elimination ------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/FourierMotzkin.h"

#include "support/Error.h"

#include <algorithm>

using namespace halo;
using namespace halo::pdag;
using sym::Expr;
using sym::SymbolId;

namespace {

/// Guards against pathological recursion (the algorithm is worst-case
/// exponential; real inputs eliminate one or two symbols).
constexpr int MaxFMDepth = 12;

/// Work budget for one top-level reduceGE0/reducePred call. Every
/// eliminate() call spends one unit; when the budget runs out the eliminator
/// emits leaves as-is, which reducePred then strengthens to `false` — a
/// sound degradation (the factorizer ORs the reduction with the exact
/// LoopAll node, so precision is lost but never soundness). Found by the
/// loop-nest fuzzer: subscript-of-subscript leaves keep every coefficient
/// sign opaque, so the 4-way branch actually hits its exponential
/// worst case.
constexpr uint64_t MaxFMSteps = 1 << 14;

} // namespace

RangeReducer::RangeReducer(PredContext &Ctx, const sym::RangeEnv &Env)
    : Ctx(Ctx), Sym(Ctx.symCtx()) {
  Bound.assign(Env.entries().begin(), Env.entries().end());
  std::sort(Bound.begin(), Bound.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
}

const sym::Range *RangeReducer::lookup(SymbolId S) const {
  for (const auto &B : Bound)
    if (B.first == S)
      return &B.second;
  return nullptr;
}

bool RangeReducer::touchesEnv(const Pred *Q) const {
  for (const auto &B : Bound)
    if (Q->dependsOn(B.first))
      return true;
  return false;
}

void RangeReducer::endCall() {
  if (Steps <= MaxFMSteps)
    return;
  ExprMemo.clear();
  PredMemo.clear();
}

const Pred *RangeReducer::eliminate(const Expr *E, int Depth) {
  if (Depth > MaxFMDepth || ++Steps > MaxFMSteps)
    return Ctx.ge0(E);

  // Expressions are interned, so identical subproblems recur whenever
  // the split coefficients share structure; any memoized result is a
  // sufficient predicate for E >= 0 and can be reused regardless of the
  // depth it was first computed at.
  if (const uint32_t *Hit = ExprMemo.find(E->getId()))
    return Ctx.node(*Hit);

  // FIND_SYMBOL: a bounded symbol that occurs polynomially in E.
  const sym::Range *R = nullptr;
  std::optional<sym::Context::LinearSplit> Split;
  for (SymbolId S : E->freeSymbols()) {
    const sym::Range *SR = lookup(S);
    if (!SR)
      continue;
    auto SS = Sym.splitLinearIn(E, S);
    if (!SS || SS->A == Sym.intConst(0))
      continue;
    R = SR;
    Split = SS;
    break;
  }
  if (!Split)
    return Ctx.ge0(E); // err case of FIND_SYMBOL: emit the leaf as-is.

  const Expr *A = Split->A;
  const Expr *B = Split->B;
  const Expr *AtLo = Sym.add(Sym.mul(A, R->Lo), B);
  const Expr *AtHi = Sym.add(Sym.mul(A, R->Hi), B);

  const Pred *Res;
  // If the coefficient's sign is known, only one branch survives.
  if (auto AC = Sym.constValue(A)) {
    Res = eliminate(*AC >= 0 ? AtLo : AtHi, Depth + 1);
  } else {
    // (A >= 0 and A*Lo + B >= 0) or (A < 0 and A*Hi + B >= 0), with the
    // sign conditions themselves reduced (they have smaller exponent).
    // Each conjunction's second operand is reduced first: argument
    // evaluation order is unspecified, and node IDs (so plan bytes)
    // follow creation order.
    const Pred *LoHolds = eliminate(AtLo, Depth + 1);
    const Pred *Pos = Ctx.and2(eliminate(A, Depth + 1), LoHolds);
    const Pred *HiHolds = eliminate(AtHi, Depth + 1);
    const Pred *Neg = Ctx.and2(
        eliminate(Sym.addConst(Sym.neg(A), -1), Depth + 1), // -A - 1 >= 0.
        HiHolds);
    Res = Ctx.or2(Pos, Neg);
  }
  ExprMemo.insert(E->getId(), Res->getId());
  return Res;
}

const Pred *RangeReducer::reduceGE0(const Expr *E) {
  beginCall();
  const Pred *Res = eliminate(E, 0);
  endCall();
  return Res;
}

const Pred *RangeReducer::reducePred(const Pred *P) {
  beginCall();
  const Pred *Res = reduceNode(P);
  endCall();
  return Res;
}

// Predicates are interned DAGs with heavy sharing (the factorizer composes
// cascades out of common subterms), so an unmemoized tree walk re-expands
// shared nodes exponentially, another fuzzer-found blowup. Memo entries
// stay valid as long as the ranges do.
const Pred *RangeReducer::reduceNode(const Pred *P) {
  if (!touchesEnv(P))
    return P;
  if (const uint32_t *Hit = PredMemo.find(P->getId()))
    return Ctx.node(*Hit);
  const Pred *Res = reduceUncached(P);
  PredMemo.insert(P->getId(), Res->getId());
  return Res;
}

const Pred *RangeReducer::reduceUncached(const Pred *P) {
  switch (P->getKind()) {
  case PredKind::True:
  case PredKind::False:
    return P;
  case PredKind::Cmp: {
    const auto *C = cast<CmpPred>(P);
    if (C->getRel() == CmpRel::GE0) {
      // One eliminator memo and step budget span every leaf of the call,
      // so pathological leaves cannot multiply.
      const Pred *R = eliminate(C->getExpr(), 0);
      // Residual occurrences (opaque atoms): strengthen to false — the
      // caller ORs the reduction with the exact loop node, so nothing is
      // lost overall.
      return touchesEnv(R) ? Ctx.getFalse() : R;
    }
    // Equalities/disequalities over the eliminated variable have no
    // sufficient variable-free form; strengthen to false.
    return Ctx.getFalse();
  }
  case PredKind::Divides: // Congruences are not FM-reducible.
    return Ctx.getFalse();
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(P);
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(reduceNode(C));
    return N->isAnd() ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
  }
  case PredKind::LoopAll:
  case PredKind::CallSite:
    return Ctx.getFalse(); // Bound variable escapes into a nested scope.
  }
  halo_unreachable("covered switch");
}

const Pred *pdag::reduceGE0(PredContext &Ctx, const Expr *E,
                            const sym::RangeEnv &Env) {
  if (Env.empty())
    return Ctx.ge0(E);
  return RangeReducer(Ctx, Env).reduceGE0(E);
}

const Pred *pdag::reduceGT0(PredContext &Ctx, const Expr *E,
                            const sym::RangeEnv &Env) {
  return reduceGE0(Ctx, Ctx.symCtx().addConst(E, -1), Env);
}

const Pred *pdag::reducePred(PredContext &Ctx, const Pred *P,
                             const sym::RangeEnv &Env) {
  if (Env.empty())
    return P;
  return RangeReducer(Ctx, Env).reducePred(P);
}
