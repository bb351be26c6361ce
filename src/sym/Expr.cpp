//===- sym/Expr.cpp - Canonical symbolic integer expressions --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "sym/Expr.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

using namespace halo;
using namespace halo::sym;

//===----------------------------------------------------------------------===//
// Expr queries
//===----------------------------------------------------------------------===//

bool Expr::dependsOn(SymbolId S) const {
  return std::binary_search(FreeSyms.begin(), FreeSyms.end(), S);
}

bool Expr::isInvariantAtDepth(int LoopDepth, const Context &Ctx) const {
  for (SymbolId S : FreeSyms)
    if (Ctx.symbolInfo(S).DefLevel >= LoopDepth)
      return false;
  return true;
}

std::string Expr::toString(const Context &Ctx) const {
  std::ostringstream OS;
  print(OS, Ctx);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Symbol sets
//===----------------------------------------------------------------------===//

std::vector<SymbolId> sym::unionSyms(const std::vector<SymbolId> &A,
                                     const std::vector<SymbolId> &B) {
  std::vector<SymbolId> Out;
  Out.reserve(A.size() + B.size());
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Out));
  return Out;
}

//===----------------------------------------------------------------------===//
// Context: symbols
//===----------------------------------------------------------------------===//

Context::Context() = default;
Context::~Context() = default;

SymbolId Context::symbol(const std::string &Name, int DefLevel, bool IsArray) {
  // Get-or-create: DefLevel/IsArray apply only on first creation; later
  // lookups by name (e.g. from data-setup code) ignore them.
  auto It = SymbolByName.find(Name);
  if (It != SymbolByName.end())
    return It->second;
  SymbolId Id = static_cast<SymbolId>(Symbols.size());
  Symbols.push_back(Symbol{Id, Name, IsArray, DefLevel});
  SymbolByName.emplace(Name, Id);
  return Id;
}

SymbolId Context::freshSymbol(const std::string &Base, int DefLevel) {
  std::string Name = Base + "@" + std::to_string(++FreshCounter);
  while (SymbolByName.count(Name))
    Name = Base + "@" + std::to_string(++FreshCounter);
  return symbol(Name, DefLevel);
}

const Symbol &Context::symbolInfo(SymbolId Id) const {
  assert(Id < Symbols.size() && "invalid symbol id");
  return Symbols[Id];
}

bool Context::findSymbol(const std::string &Name, SymbolId &Out) const {
  auto It = SymbolByName.find(Name);
  if (It == SymbolByName.end())
    return false;
  Out = It->second;
  return true;
}

void Context::setDefLevel(SymbolId Id, int DefLevel) {
  assert(Id < Symbols.size() && "invalid symbol id");
  Symbols[Id].DefLevel = DefLevel;
}

void Context::setMonotoneArray(SymbolId Id, bool Monotone) {
  assert(Id < Symbols.size() && Symbols[Id].IsArray &&
         "monotonicity applies to index arrays");
  Symbols[Id].MonotoneArray = Monotone;
}

//===----------------------------------------------------------------------===//
// Context: interning
//===----------------------------------------------------------------------===//
//
// Probe-first hash-consing (src/sym/README.md, "Interning"): constructors
// hash their key and pass the table a key comparison and a builder that
// runs only on a miss.

static size_t hashSeed(ExprKind K) {
  return static_cast<size_t>(K) * 0x9e3779b9u;
}

//===----------------------------------------------------------------------===//
// Context: leaf constructors
//===----------------------------------------------------------------------===//

const Expr *Context::intConst(int64_t V) {
  size_t H = hashSeed(ExprKind::IntConst);
  hashCombine(H, static_cast<size_t>(V));
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *C = dyn_cast<IntConstExpr>(&E);
        return C && C->getValue() == V;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<Expr>(new IntConstExpr(Id, V));
      });
}

const Expr *Context::symRef(SymbolId S) {
  assert(!symbolInfo(S).IsArray && "use arrayRef for array symbols");
  size_t H = hashSeed(ExprKind::SymRef);
  hashCombine(H, static_cast<size_t>(S));
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *R = dyn_cast<SymRefExpr>(&E);
        return R && R->getSymbol() == S;
      },
      [&](uint32_t Id) { return std::unique_ptr<Expr>(new SymRefExpr(Id, S)); });
}

const Expr *Context::symRef(const std::string &Name) {
  return symRef(symbol(Name));
}

const Expr *Context::arrayRef(SymbolId Arr, const Expr *Index) {
  assert(symbolInfo(Arr).IsArray && "arrayRef of a scalar symbol");
  size_t H = hashSeed(ExprKind::ArrayRef);
  hashCombine(H, static_cast<size_t>(Arr));
  hashCombine(H, Index);
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *R = dyn_cast<ArrayRefExpr>(&E);
        return R && R->getArray() == Arr && R->getIndex() == Index;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<Expr>(new ArrayRefExpr(
            Id, Arr, Index, unionSyms({Arr}, Index->freeSymbols())));
      });
}

//===----------------------------------------------------------------------===//
// Context: linear-form algebra
//===----------------------------------------------------------------------===//

LinearForm Context::toLinear(const Expr *E) const {
  LinearForm LF;
  if (const auto *C = dyn_cast<IntConstExpr>(E)) {
    LF.Constant = C->getValue();
    return LF;
  }
  if (const auto *A = dyn_cast<AddExpr>(E)) {
    LF.Terms = A->getTerms();
    LF.Constant = A->getConstant();
    return LF;
  }
  LF.Terms.push_back(Monomial{E, 1});
  return LF;
}

LinearView Context::linearView(const Expr *E) const {
  LinearView V;
  if (const auto *C = dyn_cast<IntConstExpr>(E)) {
    V.Constant = C->getValue();
    return V;
  }
  if (const auto *A = dyn_cast<AddExpr>(E)) {
    V.Data = A->getTerms().data();
    V.Size = A->getTerms().size();
    V.Constant = A->getConstant();
    return V;
  }
  V.Single = Monomial{E, 1};
  V.Size = 1;
  return V;
}

const Expr *Context::fromLinear(LinearForm LF) {
  // Canonicalize in place: sort by product id, merge, drop zero
  // coefficients.
  std::vector<Monomial> &Terms = LF.Terms;
  std::sort(Terms.begin(), Terms.end(),
            [](const Monomial &A, const Monomial &B) {
              return A.Prod->getId() < B.Prod->getId();
            });
  size_t Kept = 0;
  for (const Monomial &M : Terms) {
    if (M.Coeff == 0)
      continue;
    if (Kept != 0 && Terms[Kept - 1].Prod == M.Prod) {
      if ((Terms[Kept - 1].Coeff += M.Coeff) == 0)
        --Kept;
    } else {
      Terms[Kept++] = M;
    }
  }
  return makeSum(Terms.data(), Kept, LF.Constant);
}

const Expr *Context::makeSum(const Monomial *Terms, size_t N,
                             int64_t Constant) {
  if (N == 0)
    return intConst(Constant);
  if (N == 1 && Terms[0].Coeff == 1 && Constant == 0)
    return Terms[0].Prod;

  size_t H = hashSeed(ExprKind::Add);
  hashCombine(H, static_cast<size_t>(Constant));
  for (size_t I = 0; I != N; ++I) {
    hashCombine(H, Terms[I].Prod);
    hashCombine(H, static_cast<size_t>(Terms[I].Coeff));
  }
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *A = dyn_cast<AddExpr>(&E);
        if (!A || A->getConstant() != Constant || A->getTerms().size() != N)
          return false;
        for (size_t I = 0; I != N; ++I)
          if (A->getTerms()[I].Prod != Terms[I].Prod ||
              A->getTerms()[I].Coeff != Terms[I].Coeff)
            return false;
        return true;
      },
      [&](uint32_t Id) {
        for (size_t I = 0; I != N; ++I)
          FreeSyms.add(Terms[I].Prod->freeSymbols());
        // An exact-size copy: the terms may sit in a much larger buffer,
        // and the node keeps them for the context's lifetime.
        return std::unique_ptr<Expr>(
            new AddExpr(Id, std::vector<Monomial>(Terms, Terms + N), Constant,
                        FreeSyms.take()));
      });
}

const Expr *Context::makeProduct(std::vector<const Expr *> Factors) {
  assert(!Factors.empty() && "empty product");
  if (Factors.size() == 1)
    return Factors[0];
  std::sort(Factors.begin(), Factors.end(),
            [](const Expr *A, const Expr *B) { return A->getId() < B->getId(); });
  size_t H = hashSeed(ExprKind::Mul);
  for (const Expr *F : Factors) {
    assert(!isa<AddExpr>(F) && !isa<IntConstExpr>(F) && !isa<MulExpr>(F) &&
           "product factors must be atoms");
    hashCombine(H, F);
  }
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *M = dyn_cast<MulExpr>(&E);
        return M && M->getFactors() == Factors;
      },
      [&](uint32_t Id) {
        for (const Expr *F : Factors)
          FreeSyms.add(F->freeSymbols());
        return std::unique_ptr<Expr>(
            new MulExpr(Id, std::move(Factors), FreeSyms.take()));
      });
}

const Expr *Context::add(const Expr *A, const Expr *B) {
  // Both term lists are already ID-sorted: merge them, summing the
  // coefficients of a shared product and dropping the ones that cancel.
  const LinearView LA = linearView(A), LB = linearView(B);
  TermScratch.clear();
  const Monomial *I = LA.begin(), *IE = LA.end();
  const Monomial *J = LB.begin(), *JE = LB.end();
  while (I != IE && J != JE) {
    if (I->Prod->getId() < J->Prod->getId()) {
      TermScratch.push_back(*I++);
    } else if (J->Prod->getId() < I->Prod->getId()) {
      TermScratch.push_back(*J++);
    } else {
      if (int64_t C = I->Coeff + J->Coeff; C != 0)
        TermScratch.push_back(Monomial{I->Prod, C});
      ++I;
      ++J;
    }
  }
  TermScratch.insert(TermScratch.end(), I, IE);
  TermScratch.insert(TermScratch.end(), J, JE);
  return makeSum(TermScratch.data(), TermScratch.size(),
                 LA.constant() + LB.constant());
}

const Expr *Context::sub(const Expr *A, const Expr *B) {
  return add(A, neg(B));
}

const Expr *Context::neg(const Expr *A) { return mulConst(A, -1); }

const Expr *Context::mulConst(const Expr *A, int64_t C) {
  if (C == 0)
    return intConst(0);
  if (C == 1)
    return A;
  // Scaling keeps the terms ID-sorted.
  const LinearView LF = linearView(A);
  TermScratch.clear();
  for (const Monomial &M : LF)
    if (int64_t Coeff = M.Coeff * C; Coeff != 0)
      TermScratch.push_back(Monomial{M.Prod, Coeff});
  return makeSum(TermScratch.data(), TermScratch.size(), LF.constant() * C);
}

const Expr *Context::addConst(const Expr *A, int64_t C) {
  if (C == 0)
    return A;
  const LinearView LF = linearView(A);
  return makeSum(LF.begin(), LF.size(), LF.constant() + C);
}

static void appendFactors(const Expr *Prod, std::vector<const Expr *> &Out) {
  if (const auto *M = dyn_cast<MulExpr>(Prod))
    Out.insert(Out.end(), M->getFactors().begin(), M->getFactors().end());
  else
    Out.push_back(Prod);
}

const Expr *Context::mul(const Expr *A, const Expr *B) {
  // Fast paths for constants.
  if (auto CA = constValue(A))
    return mulConst(B, *CA);
  if (auto CB = constValue(B))
    return mulConst(A, *CB);

  LinearForm LA = toLinear(A), LB = toLinear(B);
  LinearForm Out;
  Out.Constant = 0; // Both have at least one term or constant; expand fully.

  // constant * constant
  Out.Constant += LA.Constant * LB.Constant;
  // constant * terms
  for (const Monomial &M : LB.Terms)
    if (LA.Constant != 0)
      Out.Terms.push_back(Monomial{M.Prod, M.Coeff * LA.Constant});
  for (const Monomial &M : LA.Terms)
    if (LB.Constant != 0)
      Out.Terms.push_back(Monomial{M.Prod, M.Coeff * LB.Constant});
  // terms * terms
  for (const Monomial &MA : LA.Terms)
    for (const Monomial &MB : LB.Terms) {
      std::vector<const Expr *> Factors;
      appendFactors(MA.Prod, Factors);
      appendFactors(MB.Prod, Factors);
      Out.Terms.push_back(Monomial{makeProduct(std::move(Factors)),
                                   MA.Coeff * MB.Coeff});
    }
  return fromLinear(std::move(Out));
}

const Expr *Context::min(const Expr *A, const Expr *B) {
  if (A == B)
    return A;
  auto CA = constValue(A), CB = constValue(B);
  if (CA && CB)
    return intConst(std::min(*CA, *CB));
  // Fold min(A, A + c): the difference decides.
  if (auto DC = constValue(sub(A, B)))
    return *DC <= 0 ? A : B;
  return makeMinMax(ExprKind::Min, A, B);
}

const Expr *Context::max(const Expr *A, const Expr *B) {
  if (A == B)
    return A;
  auto CA = constValue(A), CB = constValue(B);
  if (CA && CB)
    return intConst(std::max(*CA, *CB));
  if (auto DC = constValue(sub(A, B)))
    return *DC >= 0 ? A : B;
  return makeMinMax(ExprKind::Max, A, B);
}

const Expr *Context::makeMinMax(ExprKind K, const Expr *A, const Expr *B) {
  if (B->getId() < A->getId())
    std::swap(A, B);
  size_t H = hashSeed(K);
  hashCombine(H, A);
  hashCombine(H, B);
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *M = dyn_cast<MinMaxExpr>(&E);
        return M && M->getKind() == K && M->getLHS() == A && M->getRHS() == B;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<Expr>(new MinMaxExpr(
            K, Id, A, B, unionSyms(A->freeSymbols(), B->freeSymbols())));
      });
}

static int64_t floorDivInt(int64_t A, int64_t D) {
  assert(D > 0 && "divisor must be positive");
  int64_t Q = A / D;
  if ((A % D) != 0 && A < 0)
    --Q;
  return Q;
}

const Expr *Context::floorDiv(const Expr *A, int64_t D) {
  assert(D > 0 && "divisor must be positive");
  if (D == 1)
    return A;
  if (auto CA = constValue(A))
    return intConst(floorDivInt(*CA, D));
  if (definitelyDivisibleBy(A, D)) {
    LinearForm LF = toLinear(A);
    LF.Constant /= D;
    for (Monomial &M : LF.Terms)
      M.Coeff /= D;
    return fromLinear(std::move(LF));
  }
  return makeDivMod(ExprKind::FloorDiv, A, D);
}

const Expr *Context::mod(const Expr *A, int64_t D) {
  assert(D > 0 && "divisor must be positive");
  if (D == 1)
    return intConst(0);
  if (auto CA = constValue(A))
    return intConst(*CA - floorDivInt(*CA, D) * D);
  if (definitelyDivisibleBy(A, D))
    return intConst(0);
  return makeDivMod(ExprKind::Mod, A, D);
}

const Expr *Context::makeDivMod(ExprKind K, const Expr *A, int64_t D) {
  size_t H = hashSeed(K);
  hashCombine(H, A);
  hashCombine(H, static_cast<size_t>(D));
  return Nodes.intern(
      H,
      [&](const Expr &E) {
        const auto *M = dyn_cast<DivModExpr>(&E);
        return M && M->getKind() == K && M->getOperand() == A &&
               M->getDivisor() == D;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<Expr>(new DivModExpr(
            K, Id, A, D, std::vector<SymbolId>(A->freeSymbols())));
      });
}

//===----------------------------------------------------------------------===//
// Context: queries
//===----------------------------------------------------------------------===//

std::optional<int64_t> Context::constValue(const Expr *E) const {
  if (const auto *C = dyn_cast<IntConstExpr>(E))
    return C->getValue();
  return std::nullopt;
}

bool Context::definitelyDivisibleBy(const Expr *E, int64_t D) const {
  assert(D != 0 && "division by zero");
  if (D == 1 || D == -1)
    return true;
  const LinearView LF = linearView(E);
  if (LF.constant() % D != 0)
    return false;
  for (const Monomial &M : LF)
    if (M.Coeff % D != 0)
      return false;
  return true;
}

int64_t Context::coeffGcd(const Expr *E) const {
  int64_t G = 0;
  for (const Monomial &M : linearView(E))
    G = std::gcd(G, M.Coeff);
  return G;
}

std::optional<Context::LinearSplit> Context::splitLinearIn(const Expr *E,
                                                           SymbolId Sym) {
  if (!E->dependsOn(Sym))
    return LinearSplit{intConst(0), E};
  LinearForm LF = toLinear(E);
  LinearForm FormA, FormB;
  FormB.Constant = LF.Constant;
  const Expr *SymE = symRef(Sym);
  for (const Monomial &M : LF.Terms) {
    if (!M.Prod->dependsOn(Sym)) {
      FormB.Terms.push_back(M);
      continue;
    }
    // The product must contain Sym as a direct factor; dividing one factor
    // of Sym out must leave factors free of embedded occurrences.
    std::vector<const Expr *> Factors;
    appendFactors(M.Prod, Factors);
    auto It = std::find(Factors.begin(), Factors.end(), SymE);
    if (It == Factors.end())
      return std::nullopt; // Sym occurs inside an opaque atom.
    Factors.erase(It);
    if (Factors.empty()) {
      FormA.Constant += M.Coeff;
      continue;
    }
    FormA.Terms.push_back(Monomial{makeProduct(std::move(Factors)), M.Coeff});
  }
  return LinearSplit{fromLinear(std::move(FormA)), fromLinear(std::move(FormB))};
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

namespace {
class Substituter {
public:
  Substituter(Context &Ctx, const std::map<SymbolId, const Expr *> &Map)
      : Ctx(Ctx), Map(Map) {}

  const Expr *visit(const Expr *E) {
    // Fast path: no mapped symbol occurs in E.
    bool Touches = false;
    for (const auto &KV : Map)
      if (E->dependsOn(KV.first)) {
        Touches = true;
        break;
      }
    if (!Touches)
      return E;
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    const Expr *R = rebuild(E);
    Memo.emplace(E, R);
    return R;
  }

private:
  const Expr *rebuild(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntConst:
      return E;
    case ExprKind::SymRef: {
      auto It = Map.find(cast<SymRefExpr>(E)->getSymbol());
      return It == Map.end() ? E : It->second;
    }
    case ExprKind::ArrayRef: {
      const auto *R = cast<ArrayRefExpr>(E);
      return Ctx.arrayRef(R->getArray(), visit(R->getIndex()));
    }
    case ExprKind::Min: {
      const auto *M = cast<MinMaxExpr>(E);
      return Ctx.min(visit(M->getLHS()), visit(M->getRHS()));
    }
    case ExprKind::Max: {
      const auto *M = cast<MinMaxExpr>(E);
      return Ctx.max(visit(M->getLHS()), visit(M->getRHS()));
    }
    case ExprKind::FloorDiv: {
      const auto *D = cast<DivModExpr>(E);
      return Ctx.floorDiv(visit(D->getOperand()), D->getDivisor());
    }
    case ExprKind::Mod: {
      const auto *D = cast<DivModExpr>(E);
      return Ctx.mod(visit(D->getOperand()), D->getDivisor());
    }
    case ExprKind::Mul: {
      const auto *M = cast<MulExpr>(E);
      const Expr *Acc = Ctx.intConst(1);
      for (const Expr *F : M->getFactors())
        Acc = Ctx.mul(Acc, visit(F));
      return Acc;
    }
    case ExprKind::Add: {
      const auto *A = cast<AddExpr>(E);
      const Expr *Acc = Ctx.intConst(A->getConstant());
      for (const Monomial &M : A->getTerms())
        Acc = Ctx.add(Acc, Ctx.mulConst(visit(M.Prod), M.Coeff));
      return Acc;
    }
    }
    halo_unreachable("covered switch");
  }

  Context &Ctx;
  const std::map<SymbolId, const Expr *> &Map;
  std::unordered_map<const Expr *, const Expr *> Memo;
};
} // namespace

const Expr *Context::substitute(const Expr *E,
                                const std::map<SymbolId, const Expr *> &Map) {
  if (Map.empty())
    return E;
  Substituter S(*this, Map);
  return S.visit(E);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

void Expr::print(std::ostream &OS, const Context &Ctx) const {
  switch (Kind) {
  case ExprKind::IntConst:
    OS << cast<IntConstExpr>(this)->getValue();
    return;
  case ExprKind::SymRef:
    OS << Ctx.symbolInfo(cast<SymRefExpr>(this)->getSymbol()).Name;
    return;
  case ExprKind::ArrayRef: {
    const auto *R = cast<ArrayRefExpr>(this);
    OS << Ctx.symbolInfo(R->getArray()).Name << "(";
    R->getIndex()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case ExprKind::Min:
  case ExprKind::Max: {
    const auto *M = cast<MinMaxExpr>(this);
    OS << (M->isMin() ? "min(" : "max(");
    M->getLHS()->print(OS, Ctx);
    OS << ", ";
    M->getRHS()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case ExprKind::FloorDiv:
  case ExprKind::Mod: {
    const auto *D = cast<DivModExpr>(this);
    OS << (D->isDiv() ? "div(" : "mod(");
    D->getOperand()->print(OS, Ctx);
    OS << ", " << D->getDivisor() << ")";
    return;
  }
  case ExprKind::Mul: {
    const auto *M = cast<MulExpr>(this);
    bool First = true;
    for (const Expr *F : M->getFactors()) {
      if (!First)
        OS << "*";
      First = false;
      F->print(OS, Ctx);
    }
    return;
  }
  case ExprKind::Add: {
    const auto *A = cast<AddExpr>(this);
    bool First = true;
    for (const Monomial &M : A->getTerms()) {
      if (!First)
        OS << (M.Coeff >= 0 ? " + " : " - ");
      else if (M.Coeff < 0)
        OS << "-";
      First = false;
      int64_t AbsC = M.Coeff < 0 ? -M.Coeff : M.Coeff;
      if (AbsC != 1)
        OS << AbsC << "*";
      M.Prod->print(OS, Ctx);
    }
    int64_t C = A->getConstant();
    if (C != 0 || First) {
      if (!First)
        OS << (C >= 0 ? " + " : " - ");
      else if (C < 0)
        OS << "-";
      OS << (C < 0 ? -C : C);
    }
    return;
  }
  }
  halo_unreachable("covered switch");
}

std::ostream &sym::operator<<(std::ostream &OS,
                              const std::pair<const Expr *, const Context *> &P) {
  P.first->print(OS, *P.second);
  return OS;
}
