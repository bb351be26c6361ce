//===- pdag/Pred.cpp - The PDAG predicate language -------------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/Pred.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

using namespace halo;
using namespace halo::pdag;
using sym::Expr;
using sym::SymbolId;

/// Maximum constant trip count that loopAll() unrolls into a plain
/// conjunction; beyond this an irreducible LoopAll node is kept.
static constexpr int64_t UnrollLimit = 16;

//===----------------------------------------------------------------------===//
// Pred queries
//===----------------------------------------------------------------------===//

bool Pred::dependsOn(SymbolId S) const {
  return std::binary_search(FreeSyms.begin(), FreeSyms.end(), S);
}

bool Pred::isInvariantAtDepth(int LoopDepth, const sym::Context &Ctx) const {
  for (SymbolId S : FreeSyms)
    if (Ctx.symbolInfo(S).DefLevel >= LoopDepth)
      return false;
  return true;
}

std::string Pred::toString(const sym::Context &Ctx) const {
  std::ostringstream OS;
  print(OS, Ctx);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Interning machinery
//===----------------------------------------------------------------------===//

static bool predsEqual(const Pred *A, const Pred *B) {
  if (A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case PredKind::True:
  case PredKind::False:
    return true;
  case PredKind::Cmp: {
    const auto *CA = cast<CmpPred>(A), *CB = cast<CmpPred>(B);
    return CA->getExpr() == CB->getExpr() && CA->getRel() == CB->getRel();
  }
  case PredKind::Divides: {
    const auto *DA = cast<DividesPred>(A), *DB = cast<DividesPred>(B);
    return DA->getDivisor() == DB->getDivisor() &&
           DA->getValue() == DB->getValue() &&
           DA->isNegated() == DB->isNegated();
  }
  case PredKind::And:
  case PredKind::Or:
    return cast<NaryPred>(A)->getChildren() ==
           cast<NaryPred>(B)->getChildren();
  case PredKind::LoopAll: {
    const auto *LA = cast<LoopAllPred>(A), *LB = cast<LoopAllPred>(B);
    return LA->getVar() == LB->getVar() && LA->getLo() == LB->getLo() &&
           LA->getHi() == LB->getHi() && LA->getBody() == LB->getBody();
  }
  case PredKind::CallSite: {
    const auto *SA = cast<CallSitePred>(A), *SB = cast<CallSitePred>(B);
    return SA->getCallee() == SB->getCallee() && SA->getBody() == SB->getBody();
  }
  }
  halo_unreachable("covered switch");
}

static size_t hashPred(const Pred *P) {
  size_t H = static_cast<size_t>(P->getKind()) * 0x9e3779b9u + 17;
  switch (P->getKind()) {
  case PredKind::True:
  case PredKind::False:
    break;
  case PredKind::Cmp: {
    const auto *C = cast<CmpPred>(P);
    hashCombine(H, C->getExpr());
    hashCombine(H, static_cast<size_t>(C->getRel()));
    break;
  }
  case PredKind::Divides: {
    const auto *D = cast<DividesPred>(P);
    hashCombine(H, D->getDivisor());
    hashCombine(H, D->getValue());
    hashCombine(H, static_cast<size_t>(D->isNegated()));
    break;
  }
  case PredKind::And:
  case PredKind::Or:
    for (const Pred *C : cast<NaryPred>(P)->getChildren())
      hashCombine(H, C);
    break;
  case PredKind::LoopAll: {
    const auto *L = cast<LoopAllPred>(P);
    hashCombine(H, static_cast<size_t>(L->getVar()));
    hashCombine(H, L->getLo());
    hashCombine(H, L->getHi());
    hashCombine(H, L->getBody());
    break;
  }
  case PredKind::CallSite: {
    const auto *S = cast<CallSitePred>(P);
    hashCombine(H, std::hash<std::string>{}(S->getCallee()));
    hashCombine(H, S->getBody());
    break;
  }
  }
  return H;
}

const Pred *PredContext::intern(std::unique_ptr<Pred> N, size_t Hash) {
  auto Range = InternTable.equal_range(Hash);
  for (auto It = Range.first; It != Range.second; ++It)
    if (predsEqual(It->second, N.get()))
      return It->second;
  N->Id = static_cast<uint32_t>(Nodes.size());
  const Pred *Raw = N.get();
  Nodes.push_back(std::move(N));
  InternTable.emplace(Hash, Raw);
  return Raw;
}

namespace {
/// Concrete type for the True/False singletons (Pred's constructor is
/// protected).
class BoolPred : public Pred {
public:
  BoolPred(PredKind K) : Pred(K, {}, 0) {}
};
} // namespace

PredContext::PredContext(sym::Context &SymCtx) : SymCtx(SymCtx) {
  {
    std::unique_ptr<Pred> T(new BoolPred(PredKind::True));
    size_t H = hashPred(T.get());
    TruePred = intern(std::move(T), H);
  }
  {
    std::unique_ptr<Pred> F(new BoolPred(PredKind::False));
    size_t H = hashPred(F.get());
    FalsePred = intern(std::move(F), H);
  }
}

PredContext::~PredContext() = default;

static std::vector<SymbolId> unionSyms(std::vector<SymbolId> A,
                                       const std::vector<SymbolId> &B) {
  std::vector<SymbolId> Out;
  Out.reserve(A.size() + B.size());
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Out));
  return Out;
}

//===----------------------------------------------------------------------===//
// Leaves
//===----------------------------------------------------------------------===//

const Pred *PredContext::makeCmp(const Expr *E, CmpRel Rel) {
  std::unique_ptr<Pred> N(
      new CmpPred(E, Rel, std::vector<SymbolId>(E->freeSymbols())));
  size_t H = hashPred(N.get());
  return intern(std::move(N), H);
}

static int64_t floorDivInt(int64_t A, int64_t D) {
  int64_t Q = A / D;
  if ((A % D) != 0 && A < 0)
    --Q;
  return Q;
}

/// Monotone-array fold: `A(x) - A(y) + c >= 0` holds whenever A is a
/// declared non-decreasing index array (the CIV prefix arrays of Sec. 3.3),
/// x - y folds to a non-negative constant and c >= 0.
static bool monotoneArrayGE0(sym::Context &Ctx, const sym::LinearForm &LF) {
  if (LF.Constant < 0 || LF.Terms.size() != 2)
    return false;
  const sym::Monomial &A = LF.Terms[0], &B = LF.Terms[1];
  const sym::Monomial *Pos = A.Coeff == 1 ? &A : (B.Coeff == 1 ? &B : nullptr);
  const sym::Monomial *Neg =
      A.Coeff == -1 ? &A : (B.Coeff == -1 ? &B : nullptr);
  if (!Pos || !Neg || Pos == Neg)
    return false;
  const auto *RP = dyn_cast<sym::ArrayRefExpr>(Pos->Prod);
  const auto *RN = dyn_cast<sym::ArrayRefExpr>(Neg->Prod);
  if (!RP || !RN || RP->getArray() != RN->getArray())
    return false;
  if (!Ctx.symbolInfo(RP->getArray()).MonotoneArray)
    return false;
  auto Diff = Ctx.constValue(Ctx.sub(RP->getIndex(), RN->getIndex()));
  return Diff && *Diff >= 0;
}

const Pred *PredContext::ge0(const Expr *E) {
  if (auto C = SymCtx.constValue(E))
    return boolConst(*C >= 0);
  if (monotoneArrayGE0(SymCtx, SymCtx.toLinear(E)))
    return getTrue();
  // Integer tightening: g*f + c >= 0  <=>  f + floor(c/g) >= 0.
  sym::LinearForm LF = SymCtx.toLinear(E);
  int64_t G = 0;
  for (const sym::Monomial &M : LF.Terms)
    G = std::gcd(G, M.Coeff);
  if (G > 1) {
    sym::LinearForm Out;
    for (const sym::Monomial &M : LF.Terms)
      Out.Terms.push_back(sym::Monomial{M.Prod, M.Coeff / G});
    Out.Constant = floorDivInt(LF.Constant, G);
    E = SymCtx.fromLinear(std::move(Out));
    if (auto C = SymCtx.constValue(E))
      return boolConst(*C >= 0);
  }
  return makeCmp(E, CmpRel::GE0);
}

/// Canonicalizes E for an equality/disequality test against zero.
/// Returns nullopt when the congruence is infeasible (E != 0 always).
static std::optional<const Expr *> canonEqExpr(sym::Context &Ctx,
                                               const Expr *E) {
  sym::LinearForm LF = Ctx.toLinear(E);
  int64_t G = 0;
  for (const sym::Monomial &M : LF.Terms)
    G = std::gcd(G, M.Coeff);
  if (G > 1) {
    if (LF.Constant % G != 0)
      return std::nullopt; // g*f + c == 0 infeasible when g does not divide c.
    for (sym::Monomial &M : LF.Terms)
      M.Coeff /= G;
    LF.Constant /= G;
  }
  // Sign normalization: make the leading coefficient (or constant) positive.
  int64_t Lead = LF.Terms.empty() ? LF.Constant : LF.Terms.front().Coeff;
  if (Lead < 0) {
    for (sym::Monomial &M : LF.Terms)
      M.Coeff = -M.Coeff;
    LF.Constant = -LF.Constant;
  }
  return Ctx.fromLinear(std::move(LF));
}

const Pred *PredContext::eq0(const Expr *E) {
  if (auto C = SymCtx.constValue(E))
    return boolConst(*C == 0);
  auto Canon = canonEqExpr(SymCtx, E);
  if (!Canon)
    return getFalse();
  if (auto C = SymCtx.constValue(*Canon))
    return boolConst(*C == 0);
  return makeCmp(*Canon, CmpRel::EQ0);
}

const Pred *PredContext::ne0(const Expr *E) {
  if (auto C = SymCtx.constValue(E))
    return boolConst(*C != 0);
  auto Canon = canonEqExpr(SymCtx, E);
  if (!Canon)
    return getTrue();
  if (auto C = SymCtx.constValue(*Canon))
    return boolConst(*C != 0);
  return makeCmp(*Canon, CmpRel::NE0);
}

const Pred *PredContext::divides(const Expr *D, const Expr *E, bool Neg) {
  if (auto DC = SymCtx.constValue(D)) {
    int64_t Div = *DC < 0 ? -*DC : *DC;
    if (Div == 0) // 0 | e  <=>  e == 0.
      return Neg ? ne0(E) : eq0(E);
    if (Div == 1)
      return boolConst(!Neg);
    if (auto EC = SymCtx.constValue(E))
      return boolConst((*EC % Div == 0) != Neg);
    if (SymCtx.definitelyDivisibleBy(E, Div))
      return boolConst(!Neg);
    // Canonicalize the value modulo the divisor.
    sym::LinearForm LF = SymCtx.toLinear(E);
    for (sym::Monomial &M : LF.Terms)
      M.Coeff = ((M.Coeff % Div) + Div) % Div;
    LF.Constant = ((LF.Constant % Div) + Div) % Div;
    E = SymCtx.fromLinear(std::move(LF));
    if (auto EC = SymCtx.constValue(E))
      return boolConst((*EC % Div == 0) != Neg);
    D = SymCtx.intConst(Div);
  } else if (D == E) {
    return boolConst(!Neg); // d | d.
  } else if (auto EC = SymCtx.constValue(E); EC && *EC == 0) {
    return boolConst(!Neg); // d | 0.
  }
  std::vector<SymbolId> Free =
      unionSyms(std::vector<SymbolId>(D->freeSymbols()), E->freeSymbols());
  std::unique_ptr<Pred> N(new DividesPred(D, E, Neg, std::move(Free)));
  size_t H = hashPred(N.get());
  return intern(std::move(N), H);
}

//===----------------------------------------------------------------------===//
// Comparison sugar
//===----------------------------------------------------------------------===//

const Pred *PredContext::le(const Expr *A, const Expr *B) {
  return ge0(SymCtx.sub(B, A));
}
const Pred *PredContext::lt(const Expr *A, const Expr *B) {
  return ge0(SymCtx.addConst(SymCtx.sub(B, A), -1));
}
const Pred *PredContext::ge(const Expr *A, const Expr *B) { return le(B, A); }
const Pred *PredContext::gt(const Expr *A, const Expr *B) { return lt(B, A); }
const Pred *PredContext::eq(const Expr *A, const Expr *B) {
  return eq0(SymCtx.sub(A, B));
}
const Pred *PredContext::ne(const Expr *A, const Expr *B) {
  return ne0(SymCtx.sub(A, B));
}

//===----------------------------------------------------------------------===//
// Connectives
//===----------------------------------------------------------------------===//

const Pred *PredContext::makeNary(PredKind K, std::vector<const Pred *> Cs) {
  const bool IsAnd = K == PredKind::And;
  const Pred *Absorb = IsAnd ? getFalse() : getTrue();
  const Pred *Unit = IsAnd ? getTrue() : getFalse();

  // Flatten same-kind children and fold constants.
  std::vector<const Pred *> Flat;
  Flat.reserve(Cs.size());
  for (const Pred *C : Cs) {
    if (C == Absorb)
      return Absorb;
    if (C == Unit)
      continue;
    if (C->getKind() == K) {
      const auto &Sub = cast<NaryPred>(C)->getChildren();
      Flat.insert(Flat.end(), Sub.begin(), Sub.end());
    } else {
      Flat.push_back(C);
    }
  }
  auto ById = [](const Pred *A, const Pred *B) {
    return A->getId() < B->getId();
  };
  std::sort(Flat.begin(), Flat.end(), ById);
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());

  if (Flat.empty())
    return Unit;
  if (Flat.size() == 1)
    return Flat[0];

  // Complementary literals: X and not(X) fold to the absorbing element.
  // Only leaves are checked — negating interior nodes is linear in their
  // size and would make n-ary construction quadratic on large programs.
  // Flat is sorted and deduplicated by ID, so membership is a binary search.
  {
    auto InFlat = [&](const Pred *Q) {
      return std::binary_search(Flat.begin(), Flat.end(), Q, ById);
    };
    for (const Pred *C : Flat) {
      if (C->getKind() != PredKind::Cmp && C->getKind() != PredKind::Divides)
        continue;
      const Pred *NC = tryNot(C);
      if (NC && InFlat(NC))
        return Absorb;
    }
    // Absorption: in an And, an Or-child containing a sibling is redundant
    // (A and (A or B) == A and ...); dually for Or.
    const PredKind DualK = IsAnd ? PredKind::Or : PredKind::And;
    std::vector<const Pred *> Kept;
    Kept.reserve(Flat.size());
    for (const Pred *C : Flat) {
      bool Subsumed = false;
      if (C->getKind() == DualK)
        for (const Pred *Sub : cast<NaryPred>(C)->getChildren())
          if (InFlat(Sub)) {
            Subsumed = true;
            break;
          }
      if (!Subsumed)
        Kept.push_back(C);
    }
    Flat = std::move(Kept);
    if (Flat.size() == 1)
      return Flat[0];
  }

  std::vector<SymbolId> Free;
  int Depth = 0;
  for (const Pred *C : Flat) {
    Free = unionSyms(std::move(Free), C->freeSymbols());
    Depth = std::max(Depth, C->loopDepth());
  }
  std::unique_ptr<Pred> N(
      new NaryPred(K, std::move(Flat), std::move(Free), Depth));
  size_t H = hashPred(N.get());
  return intern(std::move(N), H);
}

const Pred *PredContext::and2(const Pred *A, const Pred *B) {
  return makeNary(PredKind::And, {A, B});
}
const Pred *PredContext::or2(const Pred *A, const Pred *B) {
  return makeNary(PredKind::Or, {A, B});
}
const Pred *PredContext::andN(std::vector<const Pred *> Cs) {
  return makeNary(PredKind::And, std::move(Cs));
}
const Pred *PredContext::orN(std::vector<const Pred *> Cs) {
  return makeNary(PredKind::Or, std::move(Cs));
}

const Pred *PredContext::loopAll(SymbolId Var, const Expr *Lo, const Expr *Hi,
                                 const Pred *Body) {
  if (Body->isTrue())
    return getTrue();
  // An empty range [Lo, Hi] makes the conjunction vacuously true.
  const Pred *EmptyRange =
      ge0(SymCtx.addConst(SymCtx.sub(Lo, Hi), -1)); // Lo > Hi.
  if (!Body->dependsOn(Var))
    return or2(EmptyRange, Body);

  auto LoC = SymCtx.constValue(Lo);
  auto HiC = SymCtx.constValue(Hi);
  if (LoC && HiC) {
    if (*LoC > *HiC)
      return getTrue();
    if (*HiC - *LoC < UnrollLimit) {
      std::vector<const Pred *> Parts;
      for (int64_t I = *LoC; I <= *HiC; ++I) {
        std::map<SymbolId, const Expr *> M{{Var, SymCtx.intConst(I)}};
        Parts.push_back(substitute(Body, M));
      }
      return andN(std::move(Parts));
    }
  }

  std::vector<SymbolId> Free(Body->freeSymbols());
  Free.erase(std::remove(Free.begin(), Free.end(), Var), Free.end());
  Free = unionSyms(std::move(Free), Lo->freeSymbols());
  Free = unionSyms(std::move(Free), Hi->freeSymbols());
  std::unique_ptr<Pred> N(new LoopAllPred(Var, Lo, Hi, Body, std::move(Free),
                                          Body->loopDepth() + 1));
  size_t H = hashPred(N.get());
  return intern(std::move(N), H);
}

const Pred *PredContext::callSite(const std::string &Callee,
                                  const Pred *Body) {
  if (Body->isTrue() || Body->isFalse())
    return Body;
  std::unique_ptr<Pred> N(
      new CallSitePred(Callee, Body,
                       std::vector<SymbolId>(Body->freeSymbols()),
                       Body->loopDepth()));
  size_t H = hashPred(N.get());
  return intern(std::move(N), H);
}

//===----------------------------------------------------------------------===//
// Negation
//===----------------------------------------------------------------------===//

const Pred *PredContext::negateLeaf(const Pred *P) {
  if (const auto *D = dyn_cast<DividesPred>(P))
    return divides(D->getDivisor(), D->getValue(), !D->isNegated());
  const auto *C = cast<CmpPred>(P);
  switch (C->getRel()) {
  case CmpRel::GE0: // not(e >= 0)  <=>  -e - 1 >= 0.
    return ge0(SymCtx.addConst(SymCtx.neg(C->getExpr()), -1));
  case CmpRel::EQ0:
    return ne0(C->getExpr());
  case CmpRel::NE0:
    return eq0(C->getExpr());
  }
  halo_unreachable("covered switch");
}

const Pred *PredContext::tryNot(const Pred *P) {
  switch (P->getKind()) {
  case PredKind::True:
    return getFalse();
  case PredKind::False:
    return getTrue();
  case PredKind::Cmp:
  case PredKind::Divides: {
    // The complement is interned, so negating a leaf again would re-intern
    // the same nodes and create none: answering from the cache leaves node
    // IDs and creation order as they were.
    auto It = LeafNegations.find(P);
    if (It != LeafNegations.end())
      return It->second;
    const Pred *N = negateLeaf(P);
    LeafNegations.emplace(P, N);
    return N;
  }
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(P);
    std::vector<const Pred *> Negs;
    Negs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren()) {
      const Pred *NC = tryNot(C);
      if (!NC)
        return nullptr;
      Negs.push_back(NC);
    }
    return N->isAnd() ? orN(std::move(Negs)) : andN(std::move(Negs));
  }
  case PredKind::LoopAll:
  case PredKind::CallSite:
    return nullptr; // No cheap complement.
  }
  halo_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

const Pred *
PredContext::substitute(const Pred *P,
                        const std::map<SymbolId, const Expr *> &M) {
  if (M.empty())
    return P;
  bool Touches = false;
  for (const auto &KV : M)
    if (P->dependsOn(KV.first)) {
      Touches = true;
      break;
    }
  if (!Touches)
    return P;

  switch (P->getKind()) {
  case PredKind::True:
  case PredKind::False:
    return P;
  case PredKind::Cmp: {
    const auto *C = cast<CmpPred>(P);
    const Expr *E = SymCtx.substitute(C->getExpr(), M);
    switch (C->getRel()) {
    case CmpRel::GE0:
      return ge0(E);
    case CmpRel::EQ0:
      return eq0(E);
    case CmpRel::NE0:
      return ne0(E);
    }
    halo_unreachable("covered switch");
  }
  case PredKind::Divides: {
    const auto *D = cast<DividesPred>(P);
    return divides(SymCtx.substitute(D->getDivisor(), M),
                   SymCtx.substitute(D->getValue(), M), D->isNegated());
  }
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(P);
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(substitute(C, M));
    return N->isAnd() ? andN(std::move(Cs)) : orN(std::move(Cs));
  }
  case PredKind::LoopAll: {
    const auto *L = cast<LoopAllPred>(P);
    const Expr *Lo = SymCtx.substitute(L->getLo(), M);
    const Expr *Hi = SymCtx.substitute(L->getHi(), M);
    // The bound variable shadows any outer mapping of the same symbol.
    std::map<SymbolId, const Expr *> Inner(M);
    Inner.erase(L->getVar());
    // Avoid capture: if a replacement mentions the bound variable, rename it.
    SymbolId Var = L->getVar();
    const Pred *Body = L->getBody();
    bool Captures = false;
    for (const auto &KV : Inner)
      if (KV.second->dependsOn(Var) && Body->dependsOn(KV.first)) {
        Captures = true;
        break;
      }
    if (Captures) {
      SymbolId Fresh = SymCtx.freshSymbol(SymCtx.symbolInfo(Var).Name,
                                          SymCtx.symbolInfo(Var).DefLevel);
      std::map<SymbolId, const Expr *> Rename{{Var, SymCtx.symRef(Fresh)}};
      Body = substitute(Body, Rename);
      Var = Fresh;
    }
    return loopAll(Var, Lo, Hi, Inner.empty() ? Body : substitute(Body, Inner));
  }
  case PredKind::CallSite: {
    const auto *S = cast<CallSitePred>(P);
    return callSite(S->getCallee(), substitute(S->getBody(), M));
  }
  }
  halo_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

void Pred::print(std::ostream &OS, const sym::Context &Ctx) const {
  switch (Kind) {
  case PredKind::True:
    OS << "true";
    return;
  case PredKind::False:
    OS << "false";
    return;
  case PredKind::Cmp: {
    const auto *C = cast<CmpPred>(this);
    C->getExpr()->print(OS, Ctx);
    switch (C->getRel()) {
    case CmpRel::GE0:
      OS << " >= 0";
      return;
    case CmpRel::EQ0:
      OS << " == 0";
      return;
    case CmpRel::NE0:
      OS << " != 0";
      return;
    }
    halo_unreachable("covered switch");
  }
  case PredKind::Divides: {
    const auto *D = cast<DividesPred>(this);
    if (D->isNegated())
      OS << "!(";
    D->getDivisor()->print(OS, Ctx);
    OS << " | ";
    D->getValue()->print(OS, Ctx);
    if (D->isNegated())
      OS << ")";
    return;
  }
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(this);
    OS << "(";
    bool First = true;
    for (const Pred *C : N->getChildren()) {
      if (!First)
        OS << (N->isAnd() ? " and " : " or ");
      First = false;
      C->print(OS, Ctx);
    }
    OS << ")";
    return;
  }
  case PredKind::LoopAll: {
    const auto *L = cast<LoopAllPred>(this);
    OS << "ALL(" << Ctx.symbolInfo(L->getVar()).Name << "=";
    L->getLo()->print(OS, Ctx);
    OS << "..";
    L->getHi()->print(OS, Ctx);
    OS << ": ";
    L->getBody()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case PredKind::CallSite: {
    const auto *S = cast<CallSitePred>(this);
    OS << "callsite<" << S->getCallee() << ">(";
    S->getBody()->print(OS, Ctx);
    OS << ")";
    return;
  }
  }
  halo_unreachable("covered switch");
}
