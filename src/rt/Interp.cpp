//===- rt/Interp.cpp - The interpreter substrate --------------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/Interp.h"

#include "pdag/PredEval.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "usr/USR.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace halo;
using namespace halo::rt;
using namespace halo::ir;
using sym::SymbolId;

double rt::spinWork(unsigned N, double Seed) {
  double X = Seed;
  for (unsigned K = 0; K < N; ++K)
    X = X * 1.0000001 + 1e-9;
  return X;
}

void ReductionBuffer::widen(int64_t Idx) {
  if (Buf.empty()) {
    Lo = Idx;
    Buf.assign(1, 0.0);
  } else if (Idx < Lo) {
    Buf.insert(Buf.begin(), static_cast<size_t>(Lo - Idx), 0.0);
    Lo = Idx;
  } else {
    Buf.resize(static_cast<size_t>(Idx - Lo + 1), 0.0);
  }
}

//===----------------------------------------------------------------------===//
// ExecState
//===----------------------------------------------------------------------===//

std::pair<SymbolId, int64_t> ExecState::resolve(SymbolId Arr,
                                                int64_t Off) const {
  auto It = Alias.find(Arr);
  while (It != Alias.end()) {
    Off += It->second.second;
    Arr = It->second.first;
    It = Alias.find(Arr);
  }
  return {Arr, Off};
}

double ExecState::load(SymbolId Arr, int64_t Off) {
  auto [Base, Idx] = resolve(Arr, Off);
  auto PIt = Private.find(Base);
  const std::vector<double> *V =
      PIt != Private.end() ? &PIt->second->Buf : M.find(Base);
  assert(V && "load from unallocated array");
  assert(Idx >= 0 && static_cast<size_t>(Idx) < V->size() &&
         "array load out of bounds");
  if (Speculative && PIt != Private.end())
    Conflict |= PIt->second->exposedRead(Idx, CurrentIter);
  return (*V)[Idx];
}

void ExecState::store(SymbolId Arr, int64_t Off, double Val,
                      bool IsReduction) {
  auto [Base, Idx] = resolve(Arr, Off);
  if (IsReduction && !Speculative) {
    // Private reduction copy, else a direct (injective) update of the
    // shared array.
    auto RIt = RedBuf.find(Base);
    if (RIt != RedBuf.end()) {
      RIt->second->add(Idx, Val);
      return;
    }
    std::vector<double> *V = M.find(Base);
    assert(V && Idx >= 0 && static_cast<size_t>(Idx) < V->size());
    (*V)[Idx] += Val;
    return;
  }
  auto PIt = Private.find(Base);
  PrivateArray *P = PIt != Private.end() ? PIt->second : nullptr;
  if (!P && Speculative) {
    Conflict = true; // Speculation never writes shared memory.
    return;
  }
  std::vector<double> *V = P ? &P->Buf : M.find(Base);
  assert(V && "store to unallocated array");
  assert(Idx >= 0 && static_cast<size_t>(Idx) < V->size() &&
         "array store out of bounds");
  if (IsReduction) { // Speculative: a read plus a write.
    Conflict |= P->exposedRead(Idx, CurrentIter);
    Val += (*V)[Idx];
  }
  (*V)[Idx] = Val;
  if (P && !P->Written.empty())
    P->Written[Idx] = 1;
  if (P && !P->LastIter.empty())
    P->LastIter[Idx] = CurrentIter;
}

bool rt::flowAcrossWorkers(const std::vector<PrivateArray> &Workers) {
  std::vector<uint8_t> Written(Workers.empty() ? 0 : Workers[0].Buf.size());
  for (const PrivateArray &P : Workers)
    for (size_t I = 0; I < Written.size(); ++I) {
      if (Written[I] && P.ExposedRead[I])
        return true;
      Written[I] |= P.LastIter[I] >= 0;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Core interpreter
//===----------------------------------------------------------------------===//

void rt::interpStmt(const Stmt *S, ExecState &St) {
  switch (S->getKind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    double V = 1.0;
    for (const ArrayAccess &R : A->getReads()) {
      int64_t Off = sym::eval(R.Offset, St.B);
      V += 0.5 * St.load(R.Array, Off);
    }
    if (A->getWorkCost())
      V = spinWork(A->getWorkCost(), V);
    if (A->getWrite()) {
      int64_t Off = sym::eval(A->getWrite()->Offset, St.B);
      St.store(A->getWrite()->Array, Off, V, A->isReduction());
    }
    return;
  }
  case StmtKind::DoLoop: {
    const auto *L = cast<DoLoop>(S);
    int64_t Lo = sym::eval(L->getLo(), St.B);
    int64_t Hi = sym::eval(L->getHi(), St.B);
    auto Saved = St.B.scalar(L->getVar());
    for (int64_t I = Lo; I <= Hi; ++I) {
      St.B.setScalar(L->getVar(), I);
      for (const Stmt *C : L->getBody())
        interpStmt(C, St);
    }
    if (Saved)
      St.B.setScalar(L->getVar(), *Saved);
    return;
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    bool C = pdag::evalPred(I->getCond(), St.B);
    const auto &Branch = C ? I->getThen() : I->getElse();
    for (const Stmt *T : Branch)
      interpStmt(T, St);
    return;
  }
  case StmtKind::Call: {
    const auto *C = cast<CallStmt>(S);
    // Bind formal scalars (evaluated in the caller's state).
    std::vector<std::pair<SymbolId, std::optional<int64_t>>> SavedScalars;
    for (const CallStmt::ScalarArg &A : C->getScalarArgs()) {
      SavedScalars.emplace_back(A.Formal, St.B.scalar(A.Formal));
      St.B.setScalar(A.Formal, sym::eval(A.Actual, St.B));
    }
    // Extend the alias map for formal arrays.
    std::vector<std::pair<SymbolId, std::optional<std::pair<SymbolId, int64_t>>>>
        SavedAlias;
    for (const CallStmt::ArrayArg &A : C->getArrayArgs()) {
      auto It = St.Alias.find(A.Formal);
      SavedAlias.emplace_back(
          A.Formal, It == St.Alias.end()
                        ? std::nullopt
                        : std::optional<std::pair<SymbolId, int64_t>>(
                              It->second));
      St.Alias[A.Formal] = {A.Actual, sym::eval(A.Offset, St.B)};
    }
    for (const Stmt *T : C->getCallee()->getBody())
      interpStmt(T, St);
    for (auto &KV : SavedAlias) {
      if (KV.second)
        St.Alias[KV.first] = *KV.second;
      else
        St.Alias.erase(KV.first);
    }
    for (auto &KV : SavedScalars) {
      if (KV.second)
        St.B.setScalar(KV.first, *KV.second);
      // (Unbound formals simply keep the callee value; harmless.)
    }
    return;
  }
  case StmtKind::CivIncr: {
    const auto *CI = cast<CivIncrStmt>(S);
    int64_t Cur = St.B.scalar(CI->getCiv()).value_or(0);
    St.B.setScalar(CI->getCiv(), Cur + sym::eval(CI->getAmount(), St.B));
    return;
  }
  }
  halo_unreachable("covered switch");
}

void rt::interpSequential(const DoLoop &Loop, Memory &M, sym::Bindings &B) {
  ExecState St(M, B);
  interpStmt(&Loop, St);
  B = St.B;
}

//===----------------------------------------------------------------------===//
// CIV-COMP slice
//===----------------------------------------------------------------------===//

/// True when the subtree contains any CIV update.
static bool containsCiv(const Stmt *S) {
  switch (S->getKind()) {
  case StmtKind::CivIncr:
    return true;
  case StmtKind::Assign:
  case StmtKind::Call:
    return false;
  case StmtKind::DoLoop: {
    for (const Stmt *C : cast<DoLoop>(S)->getBody())
      if (containsCiv(C))
        return true;
    return false;
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    for (const Stmt *C : I->getThen())
      if (containsCiv(C))
        return true;
    for (const Stmt *C : I->getElse())
      if (containsCiv(C))
        return true;
    return false;
  }
  }
  halo_unreachable("covered switch");
}

void rt::interpCivSlice(const DoLoop &Loop, const summary::CivPlan &Plan,
                        Memory &M, sym::Bindings &B) {
  (void)M; // The slice touches only control flow, CIVs and index arrays.
  if (Plan.empty())
    return;
  int64_t Lo = sym::eval(Loop.getLo(), B);
  int64_t Hi = sym::eval(Loop.getHi(), B);
  int64_t N = Hi - Lo + 1;
  if (N < 0)
    N = 0;

  std::map<SymbolId, std::vector<int64_t>> Entry;   // Civ -> values.
  std::map<SymbolId, std::vector<int64_t>> JoinVal; // JoinArr -> values.
  for (const summary::CivDesc &D : Plan.Civs)
    Entry[D.Civ].assign(static_cast<size_t>(N) + 1, 0);
  for (const summary::CivJoin &J : Plan.Joins)
    JoinVal[J.JoinArr].assign(static_cast<size_t>(N), 0);

  sym::Bindings Slice = B;
  // Walks only control flow and CIV updates; records joins.
  std::function<void(const Stmt *, int64_t)> Walk =
      [&](const Stmt *S, int64_t IterIdx) {
        switch (S->getKind()) {
        case StmtKind::Assign:
        case StmtKind::Call:
          return;
        case StmtKind::CivIncr: {
          const auto *CI = cast<CivIncrStmt>(S);
          int64_t Cur = Slice.scalar(CI->getCiv()).value_or(0);
          Slice.setScalar(CI->getCiv(),
                          Cur + sym::eval(CI->getAmount(), Slice));
          return;
        }
        case StmtKind::DoLoop: {
          const auto *L = cast<DoLoop>(S);
          if (!containsCiv(L))
            return;
          int64_t L2 = sym::eval(L->getLo(), Slice);
          int64_t H2 = sym::eval(L->getHi(), Slice);
          for (int64_t J = L2; J <= H2; ++J) {
            Slice.setScalar(L->getVar(), J);
            for (const Stmt *C : L->getBody())
              Walk(C, IterIdx);
          }
          return;
        }
        case StmtKind::If: {
          const auto *I = cast<IfStmt>(S);
          bool C = pdag::evalPred(I->getCond(), Slice);
          for (const Stmt *T : C ? I->getThen() : I->getElse())
            Walk(T, IterIdx);
          // Record joined CIV values for this iteration.
          for (const summary::CivJoin &J : Plan.Joins)
            if (J.At == I)
              JoinVal[J.JoinArr][static_cast<size_t>(IterIdx)] =
                  Slice.scalar(J.Civ).value_or(0);
          return;
        }
        }
        halo_unreachable("covered switch");
      };

  for (int64_t I = Lo; I <= Hi; ++I) {
    size_t Idx = static_cast<size_t>(I - Lo);
    for (const summary::CivDesc &D : Plan.Civs)
      Entry[D.Civ][Idx] = Slice.scalar(D.Civ).value_or(0);
    Slice.setScalar(Loop.getVar(), I);
    for (const Stmt *S : Loop.getBody())
      Walk(S, static_cast<int64_t>(Idx));
  }
  for (const summary::CivDesc &D : Plan.Civs)
    Entry[D.Civ][static_cast<size_t>(N)] = Slice.scalar(D.Civ).value_or(0);

  // Publish the pseudo arrays (1-based on the iteration index).
  for (const summary::CivDesc &D : Plan.Civs) {
    sym::ArrayBinding A;
    A.Lo = Lo;
    A.Vals = std::move(Entry[D.Civ]);
    B.setArray(D.EntryArr, std::move(A));
  }
  for (const summary::CivJoin &J : Plan.Joins) {
    sym::ArrayBinding A;
    A.Lo = Lo;
    A.Vals = std::move(JoinVal[J.JoinArr]);
    B.setArray(J.JoinArr, std::move(A));
  }
}

//===----------------------------------------------------------------------===//
// BOUNDS-COMP
//===----------------------------------------------------------------------===//

static bool boundsOf(const usr::USR *S, sym::Bindings &B, int64_t &Lo,
                     int64_t &Hi, bool &Any) {
  using namespace halo::usr;
  switch (S->getKind()) {
  case USRKind::Empty:
    return true;
  case USRKind::Leaf: {
    for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs()) {
      auto Off = sym::tryEval(L.offset(), B);
      if (!Off)
        return false;
      int64_t Max = *Off;
      bool Empty = false;
      for (const lmad::Dim &D : L.dims()) {
        auto Sp = sym::tryEval(D.Span, B);
        if (!Sp)
          return false;
        if (*Sp < 0)
          Empty = true;
        else
          Max += *Sp;
      }
      if (Empty)
        continue;
      Lo = Any ? std::min(Lo, *Off) : *Off;
      Hi = Any ? std::max(Hi, Max) : Max;
      Any = true;
    }
    return true;
  }
  case USRKind::Union: {
    for (const usr::USR *C : cast<UnionUSR>(S)->getChildren())
      if (!boundsOf(C, B, Lo, Hi, Any))
        return false;
    return true;
  }
  case USRKind::CallSite:
    return boundsOf(cast<CallSiteUSR>(S)->getChild(), B, Lo, Hi, Any);
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    auto L2 = sym::tryEval(R->getLo(), B);
    auto H2 = sym::tryEval(R->getHi(), B);
    if (!L2 || !H2)
      return false;
    auto Saved = B.scalar(R->getVar());
    bool Ok = true;
    for (int64_t I = *L2; I <= *H2 && Ok; ++I) {
      B.setScalar(R->getVar(), I);
      Ok = boundsOf(R->getBody(), B, Lo, Hi, Any);
    }
    if (Saved)
      B.setScalar(R->getVar(), *Saved);
    return Ok;
  }
  case USRKind::Intersect:
  case USRKind::Subtract:
  case USRKind::Gate:
    halo_unreachable("bounds USR must be stripped (stripForBounds)");
  }
  halo_unreachable("covered switch");
}

bool rt::interpBounds(const usr::USR *S, sym::Bindings &B, ThreadPool &Pool,
                      int64_t &Lo, int64_t &Hi) {
  // Parallel MIN/MAX reduction over the top-level recurrence (Fig. 7a).
  if (const auto *R = dyn_cast<usr::RecurUSR>(S)) {
    auto L2 = sym::tryEval(R->getLo(), B);
    auto H2 = sym::tryEval(R->getHi(), B);
    if (L2 && H2 && *H2 >= *L2) {
      unsigned NB = Pool.numThreads();
      std::vector<int64_t> Los(NB, 0), His(NB, 0);
      std::vector<uint8_t> Anys(NB, 0), Oks(NB, 1);
      Pool.parallelForBlocked(
          *L2, *H2 + 1, [&](int64_t BLo, int64_t BHi, unsigned T) {
            sym::Bindings Local = B;
            int64_t L3 = 0, H3 = 0;
            bool Any = false, Ok = true;
            for (int64_t I = BLo; I < BHi && Ok; ++I) {
              Local.setScalar(R->getVar(), I);
              Ok = boundsOf(R->getBody(), Local, L3, H3, Any);
            }
            Los[T] = L3;
            His[T] = H3;
            Anys[T] = Any;
            Oks[T] = Ok;
          });
      bool Any = false;
      for (unsigned T = 0; T < NB; ++T) {
        if (!Oks[T])
          return false;
        if (!Anys[T])
          continue;
        Lo = Any ? std::min(Lo, Los[T]) : Los[T];
        Hi = Any ? std::max(Hi, His[T]) : His[T];
        Any = true;
      }
      if (!Any) {
        Lo = 0;
        Hi = -1;
      }
      return true;
    }
  }
  bool Any = false;
  if (!boundsOf(S, B, Lo, Hi, Any))
    return false;
  if (!Any) {
    Lo = 0;
    Hi = -1;
  }
  return true;
}
