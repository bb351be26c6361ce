//===- usr/USR.cpp - Uniform set representation language ------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "usr/USR.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace halo;
using namespace halo::usr;
using sym::Expr;
using sym::SymbolId;

/// Constant ranges up to this trip count unroll into explicit unions.
static constexpr int64_t RecurUnrollLimit = 8;

//===----------------------------------------------------------------------===//
// USR queries
//===----------------------------------------------------------------------===//

bool USR::dependsOn(SymbolId S) const {
  return std::binary_search(FreeSyms.begin(), FreeSyms.end(), S);
}

bool USR::isInvariantAtDepth(int LoopDepth, const sym::Context &Ctx) const {
  for (SymbolId S : FreeSyms)
    if (Ctx.symbolInfo(S).DefLevel >= LoopDepth)
      return false;
  return true;
}

std::string USR::toString(const sym::Context &Ctx) const {
  std::ostringstream OS;
  print(OS, Ctx);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//
//
// Probe-first hash-consing (src/sym/README.md, "Interning"): constructors
// hash their key and pass the table a key comparison and a builder that
// runs only on a miss.

static size_t hashSeed(USRKind K) {
  return static_cast<size_t>(K) * 0x9e3779b9u + 31;
}

USRContext::USRContext(sym::Context &SymCtx, pdag::PredContext &PredCtx)
    : SymCtx(SymCtx), PredCtx(PredCtx) {
  EmptyNode = Nodes.intern(
      hashSeed(USRKind::Empty), [](const USR &U) { return U.isEmptySet(); },
      [](uint32_t Id) { return std::unique_ptr<USR>(new EmptyUSR(Id)); });
}

USRContext::~USRContext() = default;

//===----------------------------------------------------------------------===//
// Constructors
//===----------------------------------------------------------------------===//

const USR *USRContext::leaf(lmad::LMADSet L) {
  if (L.empty())
    return EmptyNode;
  // Deduplicate (structural equality is pointer equality componentwise).
  lmad::LMADSet Out;
  for (const lmad::LMAD &X : L)
    if (std::find(Out.begin(), Out.end(), X) == Out.end())
      Out.push_back(X);
  size_t H = hashSeed(USRKind::Leaf);
  for (const lmad::LMAD &X : Out) {
    hashCombine(H, X.offset());
    for (const lmad::Dim &D : X.dims()) {
      hashCombine(H, D.Stride);
      hashCombine(H, D.Span);
    }
  }
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *Leaf = dyn_cast<LeafUSR>(&U);
        return Leaf && Leaf->getLMADs() == Out;
      },
      [&](uint32_t Id) {
        for (const lmad::LMAD &X : Out) {
          FreeSyms.add(X.offset()->freeSymbols());
          for (const lmad::Dim &D : X.dims()) {
            FreeSyms.add(D.Stride->freeSymbols());
            FreeSyms.add(D.Span->freeSymbols());
          }
        }
        return std::unique_ptr<USR>(
            new LeafUSR(Id, std::move(Out), FreeSyms.take()));
      });
}

const USR *USRContext::interval(const Expr *Offset, const Expr *Len) {
  if (auto C = SymCtx.constValue(Len); C && *C <= 0)
    return EmptyNode;
  return leaf(lmad::LMAD::makeInterval(SymCtx, Offset, Len));
}

const USR *USRContext::union2(const USR *A, const USR *B) {
  return unionN({A, B});
}

const USR *USRContext::unionN(std::vector<const USR *> Cs) {
  std::vector<const USR *> Flat;
  lmad::LMADSet Leaves;
  for (const USR *C : Cs) {
    if (C->isEmptySet())
      continue;
    if (const auto *U = dyn_cast<UnionUSR>(C)) {
      for (const USR *Sub : U->getChildren()) {
        if (const auto *L = dyn_cast<LeafUSR>(Sub))
          Leaves.insert(Leaves.end(), L->getLMADs().begin(),
                        L->getLMADs().end());
        else
          Flat.push_back(Sub);
      }
    } else if (const auto *L = dyn_cast<LeafUSR>(C)) {
      Leaves.insert(Leaves.end(), L->getLMADs().begin(), L->getLMADs().end());
    } else {
      Flat.push_back(C);
    }
  }
  // Merge same-gate children: g#A u g#B == g#(A u B). This is one half of
  // the UMEG-preserving machinery and is unconditionally sound. The merged
  // gates are rebuilt in gate-ID order, which, unlike address order, does
  // not depend on the heap, so the nodes are created in the same order in
  // every process.
  {
    auto ById = [](const pdag::Pred *A, const pdag::Pred *B) {
      return A->getId() < B->getId();
    };
    std::map<const pdag::Pred *, std::vector<const USR *>, decltype(ById)>
        ByGate(ById);
    std::vector<const USR *> Rest;
    for (const USR *C : Flat) {
      if (const auto *G = dyn_cast<GateUSR>(C))
        ByGate[G->getGate()].push_back(G->getChild());
      else
        Rest.push_back(C);
    }
    if (!ByGate.empty()) {
      bool AnyMerged = false;
      for (const auto &KV : ByGate)
        if (KV.second.size() > 1)
          AnyMerged = true;
      if (AnyMerged) {
        for (const auto &KV : ByGate)
          Rest.push_back(gate(KV.first, unionN(KV.second)));
        Flat = std::move(Rest);
      }
    }
  }
  if (!Leaves.empty())
    Flat.push_back(leaf(std::move(Leaves)));
  std::sort(Flat.begin(), Flat.end(),
            [](const USR *A, const USR *B) { return A->getId() < B->getId(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  if (Flat.empty())
    return EmptyNode;
  if (Flat.size() == 1)
    return Flat[0];
  size_t H = hashSeed(USRKind::Union);
  for (const USR *C : Flat)
    hashCombine(H, C);
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *Un = dyn_cast<UnionUSR>(&U);
        return Un && Un->getChildren() == Flat;
      },
      [&](uint32_t Id) {
        for (const USR *C : Flat)
          FreeSyms.add(C->freeSymbols());
        return std::unique_ptr<USR>(
            new UnionUSR(Id, std::move(Flat), FreeSyms.take()));
      });
}

const USR *USRContext::intersect(const USR *A, const USR *B) {
  if (A->isEmptySet() || B->isEmptySet())
    return EmptyNode;
  if (A == B)
    return A;
  // Canonical operand order (intersection is commutative).
  if (B->getId() < A->getId())
    std::swap(A, B);
  // Gate pull-up: (g#S) n T == g#(S n T).
  if (const auto *G = dyn_cast<GateUSR>(A))
    return gate(G->getGate(), intersect(G->getChild(), B));
  if (const auto *G = dyn_cast<GateUSR>(B))
    return gate(G->getGate(), intersect(A, G->getChild()));
  return makeBinary(USRKind::Intersect, A, B);
}

const USR *USRContext::subtract(const USR *A, const USR *B) {
  if (A->isEmptySet())
    return EmptyNode;
  if (B->isEmptySet())
    return A;
  if (A == B)
    return EmptyNode;
  // (g#S) - T == g#(S - T).
  if (const auto *G = dyn_cast<GateUSR>(A))
    return gate(G->getGate(), subtract(G->getChild(), B));
  // Repeated-subtraction reassociation (Fig. 8a): (A' - B') - C ==
  // A' - (B' u C). Keeping one subtraction lets the union simplify in the
  // LMAD domain before predicate extraction.
  if (const auto *S = dyn_cast<BinaryUSR>(A); S && !S->isIntersect())
    return subtract(S->getLHS(), union2(S->getRHS(), B));
  return makeBinary(USRKind::Subtract, A, B);
}

const USR *USRContext::makeBinary(USRKind K, const USR *A, const USR *B) {
  size_t H = hashSeed(K);
  hashCombine(H, A);
  hashCombine(H, B);
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *Bin = dyn_cast<BinaryUSR>(&U);
        return Bin && Bin->getKind() == K && Bin->getLHS() == A &&
               Bin->getRHS() == B;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<USR>(new BinaryUSR(
            K, Id, A, B, sym::unionSyms(A->freeSymbols(), B->freeSymbols())));
      });
}

const USR *USRContext::gate(const pdag::Pred *G, const USR *S) {
  if (G->isTrue())
    return S;
  if (G->isFalse() || S->isEmptySet())
    return EmptyNode;
  // Nested gates conjoin.
  if (const auto *Inner = dyn_cast<GateUSR>(S))
    return gate(PredCtx.and2(G, Inner->getGate()), Inner->getChild());
  size_t H = hashSeed(USRKind::Gate);
  hashCombine(H, G);
  hashCombine(H, S);
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *Gt = dyn_cast<GateUSR>(&U);
        return Gt && Gt->getGate() == G && Gt->getChild() == S;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<USR>(new GateUSR(
            Id, G, S, sym::unionSyms(G->freeSymbols(), S->freeSymbols())));
      });
}

const USR *USRContext::callSite(const std::string &Callee, const USR *S) {
  if (S->isEmptySet())
    return EmptyNode;
  size_t H = hashSeed(USRKind::CallSite);
  hashCombine(H, std::hash<std::string>{}(Callee));
  hashCombine(H, S);
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *C = dyn_cast<CallSiteUSR>(&U);
        return C && C->getChild() == S && C->getCallee() == Callee;
      },
      [&](uint32_t Id) {
        return std::unique_ptr<USR>(new CallSiteUSR(
            Id, Callee, S, std::vector<SymbolId>(S->freeSymbols())));
      });
}

const USR *USRContext::recur(SymbolId Var, const Expr *Lo, const Expr *Hi,
                             const USR *Body) {
  if (Body->isEmptySet())
    return EmptyNode;
  const pdag::Pred *NonEmptyRange = PredCtx.le(Lo, Hi);
  if (!Body->dependsOn(Var))
    return gate(NonEmptyRange, Body);

  // Exact LMAD aggregation: the union over the range of a leaf is itself a
  // leaf when every LMAD's offset is affine in Var (Sec. 2.1).
  if (const auto *L = dyn_cast<LeafUSR>(Body)) {
    lmad::LMADSet Agg;
    bool AllOk = true;
    for (const lmad::LMAD &X : L->getLMADs()) {
      auto A = lmad::aggregate(SymCtx, X, Var, Lo, Hi);
      if (!A) {
        AllOk = false;
        break;
      }
      Agg.push_back(*A);
    }
    if (AllOk)
      return gate(NonEmptyRange, leaf(std::move(Agg)));
  }

  // Union distributes through the recurrence.
  if (const auto *U = dyn_cast<UnionUSR>(Body)) {
    std::vector<const USR *> Parts;
    Parts.reserve(U->getChildren().size());
    for (const USR *C : U->getChildren())
      Parts.push_back(recur(Var, Lo, Hi, C));
    return unionN(std::move(Parts));
  }

  // Small constant ranges unroll.
  auto LoC = SymCtx.constValue(Lo);
  auto HiC = SymCtx.constValue(Hi);
  if (LoC && HiC) {
    if (*LoC > *HiC)
      return EmptyNode;
    if (*HiC - *LoC < RecurUnrollLimit) {
      std::vector<const USR *> Parts;
      for (int64_t I = *LoC; I <= *HiC; ++I) {
        std::map<SymbolId, const Expr *> M{{Var, SymCtx.intConst(I)}};
        Parts.push_back(substitute(Body, M));
      }
      return unionN(std::move(Parts));
    }
  }

  size_t H = hashSeed(USRKind::Recur);
  hashCombine(H, static_cast<size_t>(Var));
  hashCombine(H, Lo);
  hashCombine(H, Hi);
  hashCombine(H, Body);
  return Nodes.intern(
      H,
      [&](const USR &U) {
        const auto *R = dyn_cast<RecurUSR>(&U);
        return R && R->getVar() == Var && R->getLo() == Lo &&
               R->getHi() == Hi && R->getBody() == Body;
      },
      [&](uint32_t Id) {
        FreeSyms.addExcept(Body->freeSymbols(), Var);
        FreeSyms.add(Lo->freeSymbols());
        FreeSyms.add(Hi->freeSymbols());
        return std::unique_ptr<USR>(
            new RecurUSR(Id, Var, Lo, Hi, Body, FreeSyms.take()));
      });
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

const USR *
USRContext::substitute(const USR *S,
                       const std::map<SymbolId, const Expr *> &M) {
  if (M.empty())
    return S;
  bool Touches = false;
  for (const auto &KV : M)
    if (S->dependsOn(KV.first)) {
      Touches = true;
      break;
    }
  if (!Touches)
    return S;

  switch (S->getKind()) {
  case USRKind::Empty:
    return S;
  case USRKind::Leaf: {
    lmad::LMADSet Out;
    for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs())
      Out.push_back(lmad::substitute(SymCtx, L, M));
    return leaf(std::move(Out));
  }
  case USRKind::Union: {
    std::vector<const USR *> Cs;
    for (const USR *C : cast<UnionUSR>(S)->getChildren())
      Cs.push_back(substitute(C, M));
    return unionN(std::move(Cs));
  }
  case USRKind::Intersect: {
    const auto *B = cast<BinaryUSR>(S);
    // The last operand is substituted first, into a local: argument
    // evaluation order is unspecified, and node IDs (so plan bytes) follow
    // creation order.
    const USR *RHS = substitute(B->getRHS(), M);
    return intersect(substitute(B->getLHS(), M), RHS);
  }
  case USRKind::Subtract: {
    const auto *B = cast<BinaryUSR>(S);
    const USR *RHS = substitute(B->getRHS(), M);
    return subtract(substitute(B->getLHS(), M), RHS);
  }
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    const USR *Child = substitute(G->getChild(), M);
    return gate(PredCtx.substitute(G->getGate(), M), Child);
  }
  case USRKind::CallSite: {
    const auto *C = cast<CallSiteUSR>(S);
    return callSite(C->getCallee(), substitute(C->getChild(), M));
  }
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    const Expr *Lo = SymCtx.substitute(R->getLo(), M);
    const Expr *Hi = SymCtx.substitute(R->getHi(), M);
    std::map<SymbolId, const Expr *> Inner(M);
    Inner.erase(R->getVar());
    SymbolId Var = R->getVar();
    const USR *Body = R->getBody();
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
    return recur(Var, Lo, Hi,
                 Inner.empty() ? Body : substitute(Body, Inner));
  }
  }
  halo_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

void USR::print(std::ostream &OS, const sym::Context &Ctx) const {
  switch (Kind) {
  case USRKind::Empty:
    OS << "{}";
    return;
  case USRKind::Leaf: {
    const auto &Ls = cast<LeafUSR>(this)->getLMADs();
    if (Ls.size() > 1)
      OS << "{";
    for (size_t I = 0; I < Ls.size(); ++I) {
      if (I)
        OS << ", ";
      Ls[I].print(OS, Ctx);
    }
    if (Ls.size() > 1)
      OS << "}";
    return;
  }
  case USRKind::Union: {
    OS << "(";
    const auto &Cs = cast<UnionUSR>(this)->getChildren();
    for (size_t I = 0; I < Cs.size(); ++I) {
      if (I)
        OS << " u ";
      Cs[I]->print(OS, Ctx);
    }
    OS << ")";
    return;
  }
  case USRKind::Intersect:
  case USRKind::Subtract: {
    const auto *B = cast<BinaryUSR>(this);
    OS << "(";
    B->getLHS()->print(OS, Ctx);
    OS << (B->isIntersect() ? " n " : " - ");
    B->getRHS()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(this);
    OS << "(";
    G->getGate()->print(OS, Ctx);
    OS << " # ";
    G->getChild()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case USRKind::CallSite: {
    const auto *C = cast<CallSiteUSR>(this);
    OS << "call<" << C->getCallee() << ">(";
    C->getChild()->print(OS, Ctx);
    OS << ")";
    return;
  }
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(this);
    OS << "U(" << Ctx.symbolInfo(R->getVar()).Name << "=";
    R->getLo()->print(OS, Ctx);
    OS << "..";
    R->getHi()->print(OS, Ctx);
    OS << ": ";
    R->getBody()->print(OS, Ctx);
    OS << ")";
    return;
  }
  }
  halo_unreachable("covered switch");
}
