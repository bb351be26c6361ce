//===- lmad/LMADCompare.cpp - Disjoint/included LMAD predicates -----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "lmad/LMADCompare.h"

#include "support/Hashing.h"

#include <algorithm>
#include <numeric>

using namespace halo;
using namespace halo::lmad;
using pdag::Pred;
using pdag::PredContext;
using sym::Expr;

//===----------------------------------------------------------------------===//
// 1-D comparisons (Sec. 3.2)
//===----------------------------------------------------------------------===//

/// Divisibility predicate `DA | V` usable with symbolic strides: constant
/// divisors fold, a structurally-equal symbolic divisor folds, otherwise a
/// Divides leaf is emitted (evaluable at runtime).
static const Pred *stridesDividePred(PredContext &Ctx, const Expr *D,
                                     const Expr *V, bool Neg) {
  return Ctx.divides(D, V, Neg);
}

/// gcd of the two strides when computable: both constants fold to their
/// gcd; structurally equal strides fold to themselves. Returns null when
/// no useful gcd exists.
static const Expr *strideGcd(sym::Context &Sym, const Expr *S1,
                             const Expr *S2) {
  auto C1 = Sym.constValue(S1), C2 = Sym.constValue(S2);
  if (C1 && C2)
    return Sym.intConst(std::gcd(*C1, *C2));
  if (S1 == S2)
    return S1;
  // gcd(s, c*s) = s for a constant multiple: detect via coefficient view.
  return nullptr;
}

const Pred *lmad::disjointLMAD1D(PredContext &Ctx, const LMAD &A,
                                 const LMAD &B) {
  sym::Context &Sym = Ctx.symCtx();
  Interval IA = intervalOverestimate(Sym, A);
  Interval IB = intervalOverestimate(Sym, B);
  // Disjoint interval overestimates. Operands that may create nodes are
  // built into locals, the last one first: argument evaluation order is
  // unspecified, and node IDs (so plan bytes) follow creation order.
  const Pred *BAfterA = Ctx.gt(IB.Lo, IA.Hi);
  const Pred *AAfterB = Ctx.gt(IA.Lo, IB.Hi);
  const Pred *Intervals = Ctx.or2(AAfterB, BAfterA);

  // Interleaved accesses: gcd(d1, d2) does not divide (t1 - t2).
  const Pred *Interleave = Ctx.getFalse();
  if (A.rank() == 1 && B.rank() == 1) {
    const Expr *G = strideGcd(Sym, A.dims()[0].Stride, B.dims()[0].Stride);
    if (G)
      Interleave = stridesDividePred(
          Ctx, G, Sym.sub(A.offset(), B.offset()), /*Neg=*/true);
  } else if (A.isPoint() && B.rank() == 1) {
    Interleave = stridesDividePred(
        Ctx, B.dims()[0].Stride, Sym.sub(A.offset(), B.offset()), true);
  } else if (B.isPoint() && A.rank() == 1) {
    Interleave = stridesDividePred(
        Ctx, A.dims()[0].Stride, Sym.sub(A.offset(), B.offset()), true);
  }
  return Ctx.or2(Interleave, Intervals);
}

const Pred *lmad::includedLMAD1D(PredContext &Ctx, const LMAD &A,
                                 const LMAD &B) {
  sym::Context &Sym = Ctx.symCtx();
  Interval IA = intervalOverestimate(Sym, A);
  Interval IB = intervalOverestimate(Sym, B);
  const Pred *HiInside = Ctx.le(IA.Hi, IB.Hi);
  const Pred *LoInside = Ctx.ge(IA.Lo, IB.Lo);
  const Pred *Bounds = Ctx.and2(LoInside, HiInside);

  // Stride compatibility: d2 | d1 and d2 | (t1 - t2).
  const Expr *D2 = B.isPoint() ? nullptr : B.dims()[0].Stride;
  const Expr *D1 =
      A.isPoint() ? Sym.intConst(0) : A.dims()[0].Stride; // 0 divisible by all.
  const Pred *Strides = Ctx.getTrue();
  if (D2) {
    const Pred *OffsetsDivide =
        stridesDividePred(Ctx, D2, Sym.sub(A.offset(), B.offset()), false);
    Strides = Ctx.and2(stridesDividePred(Ctx, D2, D1, false), OffsetsDivide);
  } else {
    // B is a single point: A must be that point.
    const Pred *APoint = Ctx.eq(IA.Hi, IA.Lo);
    Strides = Ctx.and2(Ctx.eq(A.offset(), B.offset()), APoint);
  }
  return Ctx.and2(Strides, Bounds);
}

//===----------------------------------------------------------------------===//
// Multi-dimensional disjointness (Fig. 6a)
//===----------------------------------------------------------------------===//

namespace {

/// Result of PROJ_OUTER_DIM: a well-formedness predicate plus the inner
/// LMAD (all but the outermost dimension, carrying the loop-variant part of
/// the offset) and the outer 1-D LMAD (outer dimension plus the part of the
/// offset divisible by the outer stride).
struct Projection {
  const Pred *WellFormed;
  LMAD Inner;
  LMAD Outer;
};

/// Splits the offset T into (T_out, T_in) where T_out collects the
/// monomials divisible by the outer stride S (syntactically: coefficient
/// divisibility for constant S, factor membership for an atomic symbolic
/// S), and T_in the remainder.
std::pair<const Expr *, const Expr *> splitOffset(sym::Context &Sym,
                                                  const Expr *T,
                                                  const Expr *S) {
  sym::LinearForm LF = Sym.toLinear(T);
  sym::LinearForm OutF, InF;
  if (auto SC = Sym.constValue(S)) {
    for (const sym::Monomial &M : LF.Terms)
      (M.Coeff % *SC == 0 ? OutF : InF).Terms.push_back(M);
    (LF.Constant % *SC == 0 ? OutF : InF).Constant = LF.Constant;
  } else {
    // Symbolic stride: a monomial is divisible when S appears among its
    // product's factors (e.g. 2*M is divisible by M).
    sym::LinearForm SF = Sym.toLinear(S);
    const Expr *Atom =
        (SF.Terms.size() == 1 && SF.Constant == 0 && SF.Terms[0].Coeff == 1)
            ? SF.Terms[0].Prod
            : nullptr;
    for (const sym::Monomial &M : LF.Terms) {
      bool Div = false;
      if (Atom) {
        if (M.Prod == Atom)
          Div = true;
        else if (const auto *Mul = dyn_cast<sym::MulExpr>(M.Prod))
          Div = std::find(Mul->getFactors().begin(), Mul->getFactors().end(),
                          Atom) != Mul->getFactors().end();
      }
      (Div ? OutF : InF).Terms.push_back(M);
    }
    InF.Constant = LF.Constant;
  }
  return {Sym.fromLinear(std::move(OutF)), Sym.fromLinear(std::move(InF))};
}

/// PROJ_OUTER_DIM(C): separates the last dimension. The well-formedness
/// predicate checks that the inner part stays inside one outer-stride
/// period: 0 <= t_in and t_in + sum(inner spans) < outer stride.
Projection projectOuterDim(PredContext &Ctx, const LMAD &L) {
  sym::Context &Sym = Ctx.symCtx();
  assert(L.rank() >= 1 && "projection needs at least one dimension");
  const Dim &OuterD = L.dims().back();
  auto [TOut, TIn] = splitOffset(Sym, L.offset(), OuterD.Stride);

  std::vector<Dim> InnerDims(L.dims().begin(), L.dims().end() - 1);
  LMAD Inner(std::move(InnerDims), TIn);
  LMAD Outer = LMAD::makeStrided(OuterD.Stride, OuterD.Span, TOut);

  Interval II = intervalOverestimate(Sym, Inner);
  const Pred *WF = Ctx.andN(
      {Ctx.ge0(TIn), Ctx.lt(II.Hi, OuterD.Stride)});
  return Projection{WF, std::move(Inner), Outer};
}

} // namespace

const Pred *lmad::disjointLMAD(PredContext &Ctx, const LMAD &A,
                               const LMAD &B) {
  sym::Context &Sym = Ctx.symCtx();
  if (A.rank() <= 1 && B.rank() <= 1)
    return disjointLMAD1D(Ctx, A, B);

  // FLATTEN_LMADS: 1-D overestimates; their disjointness is sufficient.
  const Pred *PFlat =
      disjointLMAD1D(Ctx, flatten1D(Sym, A), flatten1D(Sym, B));

  // UNIFY_LMAD_DIMS: pad the lower-rank input with [1]v[0] dimensions
  // below the outer dimension so both have the same rank.
  LMAD C = A, D = B;
  auto Pad = [&Sym](LMAD &L, size_t Rank) {
    std::vector<Dim> Dims(L.dims());
    std::vector<Dim> Extra;
    while (Dims.size() + Extra.size() < Rank)
      Extra.push_back(Dim{Sym.intConst(1), Sym.intConst(0)});
    if (Extra.empty())
      return;
    // Insert padding below the outermost dimension (a point gets only
    // padding dimensions).
    Dims.insert(Dims.empty() ? Dims.end() : Dims.end() - 1, Extra.begin(),
                Extra.end());
    L = LMAD(std::move(Dims), L.offset());
  };
  size_t Rank = std::max(C.rank(), D.rank());
  if (C.rank() < Rank)
    Pad(C, Rank);
  if (D.rank() < Rank)
    Pad(D, Rank);

  // The projection route needs equal outer strides.
  if (C.dims().back().Stride != D.dims().back().Stride)
    return PFlat;

  Projection PC = projectOuterDim(Ctx, C);
  Projection PD = projectOuterDim(Ctx, D);
  const Pred *POut = disjointLMAD1D(Ctx, PC.Outer, PD.Outer);
  const Pred *PIn = disjointLMAD(Ctx, PC.Inner, PD.Inner);
  const Pred *Proj = Ctx.andN(
      {PC.WellFormed, PD.WellFormed, Ctx.or2(POut, PIn)});
  return Ctx.or2(PFlat, Proj);
}

CondLMAD lmad::denseUnderestimate(PredContext &Ctx, const LMAD &L) {
  sym::Context &Sym = Ctx.symCtx();
  if (L.isPoint())
    return CondLMAD{Ctx.getTrue(), L};
  if (L.rank() == 1) {
    // Dense iff stride 1 (a stride-s LMAD underestimates nothing denser).
    const Pred *C = Ctx.eq(L.dims()[0].Stride, Sym.intConst(1));
    return CondLMAD{C, LMAD::makeStrided(Sym.intConst(1), L.dims()[0].Span,
                                         L.offset())};
  }
  // Multi-dim: dims must tile exactly — inner span + inner stride == next
  // stride, innermost stride == 1. Then the set is the full interval.
  std::vector<const Pred *> Conds;
  const Expr *Reach = Sym.intConst(0); // max reachable inner extent so far
  const Expr *One = Sym.intConst(1);
  const Expr *PrevStride = One;
  Conds.push_back(Ctx.eq(L.dims().front().Stride, One));
  for (size_t I = 0; I + 1 < L.rank(); ++I) {
    Reach = Sym.add(Reach, L.dims()[I].Span);
    const Expr *NextStride = L.dims()[I + 1].Stride;
    // Next stride must equal reach + previous stride (exact tiling).
    Conds.push_back(Ctx.eq(NextStride, Sym.add(Reach, PrevStride)));
    PrevStride = NextStride;
  }
  const Expr *Span = Sym.intConst(0);
  for (const Dim &D : L.dims())
    Span = Sym.add(Span, D.Span);
  return CondLMAD{Ctx.andN(std::move(Conds)),
                  LMAD::makeStrided(One, Span, L.offset())};
}

const Pred *lmad::includedLMAD(PredContext &Ctx, const LMAD &A,
                               const LMAD &B) {
  sym::Context &Sym = Ctx.symCtx();
  if (A.rank() <= 1 && B.rank() <= 1)
    return includedLMAD1D(Ctx, A, B);
  // Overestimate A by flattening (sound for the subset side) and
  // underestimate B densely (sound for the superset side).
  LMAD AFlat = flatten1D(Sym, A);
  CondLMAD BU = denseUnderestimate(Ctx, B);
  return Ctx.and2(BU.Cond, includedLMAD1D(Ctx, AFlat, BU.Descriptor));
}

const Pred *lmad::fillsArray(PredContext &Ctx, const LMAD &L,
                             const Expr *Size) {
  sym::Context &Sym = Ctx.symCtx();
  CondLMAD U = denseUnderestimate(Ctx, L);
  Interval I = intervalOverestimate(Sym, U.Descriptor);
  return Ctx.andN({U.Cond, Ctx.le(U.Descriptor.offset(), Sym.intConst(0)),
                   Ctx.ge(I.Hi, Sym.addConst(Size, -1))});
}

//===----------------------------------------------------------------------===//
// Set lifts
//===----------------------------------------------------------------------===//

void PairMemo::append(KeyedSet &S, const LMAD &L) {
  auto It = Ids.try_emplace(L, static_cast<uint32_t>(Ids.size())).first;
  S.LMADs.push_back(L);
  S.Ids.push_back(It->second);
}

size_t PairMemo::LMADHash::operator()(const LMAD &L) const {
  size_t H = std::hash<const Expr *>{}(L.offset());
  for (const Dim &D : L.dims()) {
    hashCombine(H, D.Stride);
    hashCombine(H, D.Span);
  }
  return H;
}

/// Looks the ordered pair (IdA, IdB) up in \p Table, computing and
/// recording it on a miss.
template <typename ComputeFn>
static const Pred *lookupPair(std::unordered_map<uint64_t, const Pred *> &Table,
                              uint32_t IdA, uint32_t IdB, ComputeFn Compute) {
  const uint64_t Key = (static_cast<uint64_t>(IdA) << 32) | IdB;
  auto It = Table.find(Key);
  if (It != Table.end())
    return It->second;
  const Pred *Result = Compute();
  Table.emplace(Key, Result);
  return Result;
}

const Pred *PairMemo::disjoint(PredContext &Ctx, const KeyedSet &A, size_t I,
                               const KeyedSet &B, size_t J) {
  return lookupPair(Disjoint, A.Ids[I], B.Ids[J], [&] {
    return disjointLMAD(Ctx, A.LMADs[I], B.LMADs[J]);
  });
}

const Pred *PairMemo::included(PredContext &Ctx, const KeyedSet &A, size_t I,
                               const KeyedSet &B, size_t J) {
  return lookupPair(Included, A.Ids[I], B.Ids[J], [&] {
    return includedLMAD(Ctx, A.LMADs[I], B.LMADs[J]);
  });
}

const Pred *lmad::disjointSets(PredContext &Ctx, PairMemo &Memo,
                               const KeyedSet &A, const KeyedSet &B) {
  std::vector<const Pred *> Cs;
  Cs.reserve(A.LMADs.size() * B.LMADs.size());
  for (size_t I = 0; I < A.LMADs.size(); ++I)
    for (size_t J = 0; J < B.LMADs.size(); ++J)
      Cs.push_back(Memo.disjoint(Ctx, A, I, B, J));
  return Ctx.andN(std::move(Cs));
}

const Pred *lmad::includedSets(PredContext &Ctx, PairMemo &Memo,
                               const KeyedSet &A, const KeyedSet &B) {
  std::vector<const Pred *> All;
  All.reserve(A.LMADs.size());
  for (size_t I = 0; I < A.LMADs.size(); ++I) {
    std::vector<const Pred *> Any;
    Any.reserve(B.LMADs.size());
    for (size_t J = 0; J < B.LMADs.size(); ++J)
      Any.push_back(Memo.included(Ctx, A, I, B, J));
    All.push_back(Ctx.orN(std::move(Any)));
  }
  return Ctx.andN(std::move(All));
}
