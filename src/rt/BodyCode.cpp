//===- rt/BodyCode.cpp - Compiled loop bodies -----------------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/BodyCode.h"

#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace halo;
using namespace halo::rt;
using namespace halo::ir;
using sym::SymbolId;

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

struct CompiledBody::Builder {
  Builder(CompiledBody &CB, const sym::Context &Ctx)
      : CB(CB), Ctx(Ctx), EB(Ctx, CB.Expr, CB.ScalarSyms, CB.IndexArraySyms) {}

  CompiledBody &CB;
  const sym::Context &Ctx;
  pdag::ExprCodeBuilder EB;
  /// Every scalar a run can define: loop variables, CIVs, formal scalars
  /// (callee bodies included). Expressions free of them are run-invariant.
  std::unordered_set<SymbolId> Defined;
  std::unordered_map<SymbolId, uint32_t> DataSlotFor;
  /// The interpreter's alias map at the program point being lowered:
  /// formal -> (actual, offset-link temp).
  using AliasLink = std::pair<SymbolId, uint32_t>;
  std::map<SymbolId, AliasLink> Alias;
  bool Failed = false;

  /// Lowers \p E into an ExprForm (see BodyCode.h): the constant, the
  /// invariant terms and the per-use terms of its sum of monomials.
  Range expr(const sym::Expr *E) {
    ExprForm F;
    std::vector<Term> Inv, Var;
    auto Add = [&](const sym::Expr *P, int64_t Coeff) {
      Term T;
      T.Coeff = Coeff;
      const bool Invariant =
          std::none_of(P->freeSymbols().begin(), P->freeSymbols().end(),
                       [&](SymbolId S) { return Defined.count(S) != 0; });
      const auto *M = dyn_cast<sym::MulExpr>(P);
      if (!Invariant && isa<sym::SymRefExpr>(P)) {
        T.Slot = EB.scalarSlot(cast<sym::SymRefExpr>(P)->getSymbol());
      } else if (!Invariant && M && M->getFactors().size() == 2 &&
                 isa<sym::SymRefExpr>(M->getFactors()[0]) &&
                 isa<sym::SymRefExpr>(M->getFactors()[1])) {
        T.Slot = EB.scalarSlot(
            cast<sym::SymRefExpr>(M->getFactors()[0])->getSymbol());
        T.Slot2 = EB.scalarSlot(
            cast<sym::SymRefExpr>(M->getFactors()[1])->getSymbol());
      } else {
        auto [Begin, End] = EB.compile(P);
        T.Begin = Begin;
        T.End = End;
      }
      (Invariant ? Inv : Var).push_back(T);
    };
    if (auto C = Ctx.constValue(E)) {
      F.Imm = *C;
    } else if (const auto *A = dyn_cast<sym::AddExpr>(E)) {
      F.Imm = A->getConstant();
      for (const sym::Monomial &M : A->getTerms())
        Add(M.Prod, M.Coeff);
    } else {
      Add(E, 1);
    }
    F.InvBegin = static_cast<uint32_t>(CB.Terms.size());
    CB.Terms.insert(CB.Terms.end(), Inv.begin(), Inv.end());
    F.InvEnd = F.VarBegin = static_cast<uint32_t>(CB.Terms.size());
    CB.Terms.insert(CB.Terms.end(), Var.begin(), Var.end());
    F.VarEnd = static_cast<uint32_t>(CB.Terms.size());
    if (!Inv.empty())
      F.InvTemp = temps(2);
    CB.Forms.push_back(F);
    return Range{static_cast<uint32_t>(CB.Forms.size() - 1)};
  }

  uint32_t temps(uint32_t N) {
    uint32_t T = CB.NumTemps;
    CB.NumTemps += N;
    return T;
  }

  uint32_t emit(Instr::Op Op, uint32_t Index) {
    CB.Code.push_back(Instr{Op, Index, 0});
    if (CB.Code.size() + CB.Expr.size() > pdag::LoweringMaxCodeLen)
      Failed = true;
    return static_cast<uint32_t>(CB.Code.size() - 1);
  }

  uint32_t pc() const { return static_cast<uint32_t>(CB.Code.size()); }

  uint32_t dataSlot(SymbolId S) {
    auto [It, New] = DataSlotFor.try_emplace(
        S, static_cast<uint32_t>(CB.DataArraySyms.size()));
    if (New)
      CB.DataArraySyms.push_back(S);
    return It->second;
  }

  /// Lowers one access: the subscript, and the base array and offset
  /// links the interpreter's ExecState::resolve would walk here.
  Access access(const ArrayAccess &A) {
    Access Out;
    Out.Index = expr(A.Offset);
    Out.LinkBegin = static_cast<uint32_t>(CB.Links.size());
    SymbolId Arr = A.Array;
    size_t Steps = 0;
    for (auto It = Alias.find(Arr); It != Alias.end(); It = Alias.find(Arr)) {
      if (++Steps > Alias.size()) {
        Failed = true; // A cycle: the interpreter would never resolve it.
        break;
      }
      CB.Links.push_back(It->second.second);
      Arr = It->second.first;
    }
    Out.LinkEnd = static_cast<uint32_t>(CB.Links.size());
    Out.Array = dataSlot(Arr);
    return Out;
  }

  uint32_t cond(const pdag::Pred *P, unsigned Depth) {
    CondNode N;
    if (Depth > pdag::LoweringMaxNestDepth) {
      Failed = true;
      return 0;
    }
    switch (P->getKind()) {
    case pdag::PredKind::True:
      N.K = CondNode::Kind::True;
      break;
    case pdag::PredKind::False:
      N.K = CondNode::Kind::False;
      break;
    case pdag::PredKind::Cmp: {
      const auto *C = cast<pdag::CmpPred>(P);
      N.K = CondNode::Kind::Cmp;
      N.Rel = C->getRel();
      N.A = expr(C->getExpr());
      break;
    }
    case pdag::PredKind::Divides: {
      const auto *D = cast<pdag::DividesPred>(P);
      N.K = CondNode::Kind::Divides;
      N.Negated = D->isNegated();
      N.A = expr(D->getDivisor());
      N.B = expr(D->getValue());
      break;
    }
    case pdag::PredKind::And:
    case pdag::PredKind::Or: {
      const auto *NP = cast<pdag::NaryPred>(P);
      N.K = NP->isAnd() ? CondNode::Kind::And : CondNode::Kind::Or;
      std::vector<uint32_t> Kids;
      for (const pdag::Pred *C : NP->getChildren()) {
        Kids.push_back(cond(C, Depth + 1));
        if (Failed)
          return 0;
      }
      N.ChildBegin = static_cast<uint32_t>(CB.CondChildren.size());
      CB.CondChildren.insert(CB.CondChildren.end(), Kids.begin(), Kids.end());
      N.ChildEnd = static_cast<uint32_t>(CB.CondChildren.size());
      break;
    }
    case pdag::PredKind::LoopAll:
    case pdag::PredKind::CallSite:
      Failed = true; // Conditions stay on the reference evaluator.
      return 0;
    }
    CB.Conds.push_back(N);
    return static_cast<uint32_t>(CB.Conds.size() - 1);
  }

  /// Fills Defined from \p S and, through calls, every callee body.
  void collectDefined(const Stmt *S,
                      std::unordered_set<const Subroutine *> &Seen) {
    switch (S->getKind()) {
    case StmtKind::Assign:
      return;
    case StmtKind::CivIncr:
      Defined.insert(cast<CivIncrStmt>(S)->getCiv());
      return;
    case StmtKind::DoLoop:
      Defined.insert(cast<DoLoop>(S)->getVar());
      for (const Stmt *C : cast<DoLoop>(S)->getBody())
        collectDefined(C, Seen);
      return;
    case StmtKind::If:
      for (const Stmt *C : cast<IfStmt>(S)->getThen())
        collectDefined(C, Seen);
      for (const Stmt *C : cast<IfStmt>(S)->getElse())
        collectDefined(C, Seen);
      return;
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      for (const CallStmt::ScalarArg &A : C->getScalarArgs())
        Defined.insert(A.Formal);
      if (Seen.insert(C->getCallee()).second)
        for (const Stmt *T : C->getCallee()->getBody())
          collectDefined(T, Seen);
      return;
    }
    }
    halo_unreachable("covered switch");
  }

  void stmts(const std::vector<const Stmt *> &Ss) {
    for (const Stmt *S : Ss) {
      if (Failed)
        return;
      stmt(S);
    }
  }

  void stmt(const Stmt *S) {
    switch (S->getKind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      AssignCode AC;
      std::vector<Access> Reads;
      for (const ArrayAccess &R : A->getReads())
        Reads.push_back(access(R));
      AC.ReadBegin = static_cast<uint32_t>(CB.Accesses.size());
      CB.Accesses.insert(CB.Accesses.end(), Reads.begin(), Reads.end());
      AC.ReadEnd = static_cast<uint32_t>(CB.Accesses.size());
      AC.IsReduction = A->isReduction();
      AC.WorkCost = A->getWorkCost();
      if (A->getWrite()) {
        AC.HasWrite = true;
        AC.Write = access(*A->getWrite());
      }
      CB.Assigns.push_back(AC);
      emit(Instr::Op::Assign, static_cast<uint32_t>(CB.Assigns.size() - 1));
      return;
    }
    case StmtKind::DoLoop: {
      const auto *L = cast<DoLoop>(S);
      LoopCode LC;
      LC.Var = EB.scalarSlot(L->getVar());
      LC.Lo = expr(L->getLo());
      LC.Hi = expr(L->getHi());
      LC.Temp = temps(4);
      const uint32_t Idx = static_cast<uint32_t>(CB.Loops.size());
      CB.Loops.push_back(LC);
      emit(Instr::Op::DoInit, Idx);
      CB.Loops[Idx].BodyPc = pc();
      stmts(L->getBody());
      emit(Instr::Op::DoNext, Idx);
      CB.Loops[Idx].ExitPc = pc();
      emit(Instr::Op::DoEnd, Idx);
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      const uint32_t C = cond(I->getCond(), 1);
      const uint32_t Br = emit(Instr::Op::BranchIfNot, C);
      stmts(I->getThen());
      if (I->getElse().empty()) {
        CB.Code[Br].Target = pc();
        return;
      }
      const uint32_t J = emit(Instr::Op::Jump, 0);
      CB.Code[Br].Target = pc();
      stmts(I->getElse());
      CB.Code[J].Target = pc();
      return;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      CallCode CC;
      CC.ScalarBegin = static_cast<uint32_t>(CB.ScalarArgs.size());
      for (const CallStmt::ScalarArg &A : C->getScalarArgs())
        CB.ScalarArgs.push_back(
            ScalarArg{EB.scalarSlot(A.Formal), expr(A.Actual), temps(2)});
      CC.ScalarEnd = static_cast<uint32_t>(CB.ScalarArgs.size());
      CC.ArrayBegin = static_cast<uint32_t>(CB.ArrayArgs.size());
      for (const CallStmt::ArrayArg &A : C->getArrayArgs())
        CB.ArrayArgs.push_back(ArrayArg{expr(A.Offset), temps(1)});
      CC.ArrayEnd = static_cast<uint32_t>(CB.ArrayArgs.size());
      CB.Calls.push_back(CC);
      const uint32_t Idx = static_cast<uint32_t>(CB.Calls.size() - 1);
      emit(Instr::Op::CallEnter, Idx);
      // Mirror the interpreter's alias-map updates at compile time. A
      // formal array bound twice by one call leaves the second binding's
      // restore visible after the call, a state no program point of the
      // lowered code can name: refuse it.
      std::vector<std::pair<SymbolId, std::optional<AliasLink>>> Saved;
      for (size_t K = 0; K < C->getArrayArgs().size(); ++K) {
        const CallStmt::ArrayArg &A = C->getArrayArgs()[K];
        for (const auto &Prev : Saved)
          if (Prev.first == A.Formal)
            Failed = true;
        auto It = Alias.find(A.Formal);
        Saved.emplace_back(A.Formal, It == Alias.end()
                                         ? std::nullopt
                                         : std::make_optional(It->second));
        Alias[A.Formal] = {A.Actual, CB.ArrayArgs[CC.ArrayBegin + K].LinkTemp};
      }
      stmts(C->getCallee()->getBody());
      for (auto &KV : Saved) {
        if (KV.second)
          Alias[KV.first] = *KV.second;
        else
          Alias.erase(KV.first);
      }
      emit(Instr::Op::CallExit, Idx);
      return;
    }
    case StmtKind::CivIncr: {
      const auto *CI = cast<CivIncrStmt>(S);
      CB.Civs.push_back(
          CivCode{EB.scalarSlot(CI->getCiv()), expr(CI->getAmount())});
      emit(Instr::Op::CivIncr, static_cast<uint32_t>(CB.Civs.size() - 1));
      return;
    }
    }
    halo_unreachable("covered switch");
  }
};

std::unique_ptr<const CompiledBody>
CompiledBody::compile(const DoLoop &Loop, const sym::Context &Ctx) {
  std::unique_ptr<CompiledBody> CB(new CompiledBody());
  Builder Bd(*CB, Ctx);
  std::unordered_set<const Subroutine *> Seen;
  Bd.collectDefined(&Loop, Seen);
  Bd.stmt(&Loop);
  if (Bd.Failed || Bd.EB.exceeded()) {
    // Demoted: keep nothing but the verdict.
    std::unique_ptr<CompiledBody> Demoted(new CompiledBody());
    return Demoted;
  }
  const LoopCode &Top = CB->Loops.front();
  CB->BodyBegin = Top.BodyPc;
  CB->BodyEnd = Top.ExitPc - 1; // The top loop's DoNext.
  CB->LoopVar = Top.Var;
  CB->StackDepth = std::max<uint32_t>(Bd.EB.maxStackDepth(), 1);
  for (uint32_t Slot = 0; Slot < CB->ScalarSyms.size(); ++Slot)
    if (Bd.Defined.count(CB->ScalarSyms[Slot]))
      CB->WriteBack.push_back(Slot);
  CB->Lowered = true;
  return CB;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

bool CompiledBody::tryTerm(BodyFrame &F, const Term &T,
                           int64_t &Out) const {
  if (T.Slot != Term::NoSlot) {
    if (!F.Bound[T.Slot])
      return false;
    Out = T.Coeff * F.Scalars[T.Slot];
    if (T.Slot2 != Term::NoSlot) {
      if (!F.Bound[T.Slot2])
        return false;
      Out *= F.Scalars[T.Slot2];
    }
    return true;
  }
  std::optional<int64_t> V = pdag::runExprCode(
      Expr.data(), T.Begin, T.End, F.Scalars.data(), F.Bound.data(),
      F.IndexArrays.data(), F.Stack.data());
  if (!V)
    return false;
  Out = T.Coeff * *V;
  return true;
}

bool CompiledBody::tryExpr(BodyFrame &F, Range R, int64_t &Out) const {
  // Every term is evaluated and any failing one fails the whole
  // expression, which is sym::tryEval's contract for a sum.
  const ExprForm &Fm = Forms[R.Form];
  int64_t V = Fm.Imm;
  if (Fm.InvBegin != Fm.InvEnd) {
    if (!F.Temps[Fm.InvTemp + 1])
      return false;
    V = F.Temps[Fm.InvTemp];
  }
  for (uint32_t K = Fm.VarBegin; K != Fm.VarEnd; ++K) {
    int64_t T = 0;
    if (!tryTerm(F, Terms[K], T))
      return false;
    V += T;
  }
  Out = V;
  return true;
}

int64_t CompiledBody::evalExpr(BodyFrame &F, Range R) const {
  int64_t V = 0;
  const bool Ok = tryExpr(F, R, V);
  assert(Ok && "evaluation failed: unbound symbol or OOB array access");
  (void)Ok;
  return V;
}

int CompiledBody::evalCond(BodyFrame &F, uint32_t Node) const {
  const CondNode &N = Conds[Node];
  switch (N.K) {
  case CondNode::Kind::True:
    return 1;
  case CondNode::Kind::False:
    return 0;
  case CondNode::Kind::Cmp: {
    int64_t V = 0;
    if (!tryExpr(F, N.A, V))
      return -1;
    switch (N.Rel) {
    case pdag::CmpRel::GE0:
      return V >= 0;
    case pdag::CmpRel::EQ0:
      return V == 0;
    case pdag::CmpRel::NE0:
      return V != 0;
    }
    halo_unreachable("covered switch");
  }
  case CondNode::Kind::Divides: {
    int64_t DV = 0, VV = 0;
    const bool DOk = tryExpr(F, N.A, DV);
    const bool VOk = tryExpr(F, N.B, VV);
    if (!DOk || !VOk)
      return -1;
    const int64_t Div = DV < 0 ? -DV : DV;
    const bool Holds = Div == 0 ? (VV == 0) : (VV % Div == 0);
    return Holds != N.Negated;
  }
  case CondNode::Kind::And:
  case CondNode::Kind::Or: {
    // tryEvalPred's short circuit: a failed child matters only when no
    // other child decides the result.
    const int IsAnd = N.K == CondNode::Kind::And;
    bool SawFailure = false;
    for (uint32_t C = N.ChildBegin; C != N.ChildEnd; ++C) {
      const int V = evalCond(F, CondChildren[C]);
      if (V < 0) {
        SawFailure = true;
        continue;
      }
      if (V != IsAnd)
        return V;
    }
    return SawFailure ? -1 : IsAnd;
  }
  }
  halo_unreachable("covered switch");
}

int64_t CompiledBody::offsetOf(BodyFrame &F, const Access &A) const {
  int64_t Off = evalExpr(F, A.Index);
  for (uint32_t L = A.LinkBegin; L != A.LinkEnd; ++L)
    Off += F.Temps[Links[L]];
  return Off;
}

void CompiledBody::execAssign(BodyFrame &F, const AssignCode &A) const {
  // ExecState::load / store, with the array lookups done once per run.
  double V = 1.0;
  for (uint32_t R = A.ReadBegin; R != A.ReadEnd; ++R) {
    const Access &Rd = Accesses[R];
    const int64_t Idx = offsetOf(F, Rd);
    const ArrayRoute &Rt = F.Routes[Rd.Array];
    const std::vector<double> *Src = Rt.Priv ? &Rt.Priv->Buf : Rt.Shared;
    assert(Src && "load from unallocated array");
    assert(Idx >= 0 && static_cast<size_t>(Idx) < Src->size() &&
           "array load out of bounds");
    if (F.Speculative && Rt.Priv)
      F.Conflict |= Rt.Priv->exposedRead(Idx, F.CurrentIter);
    V += 0.5 * (*Src)[static_cast<size_t>(Idx)];
  }
  if (A.WorkCost)
    V = spinWork(A.WorkCost, V);
  if (!A.HasWrite)
    return;
  const int64_t Idx = offsetOf(F, A.Write);
  const ArrayRoute &Rt = F.Routes[A.Write.Array];
  if (A.IsReduction && !F.Speculative) {
    if (Rt.Red) {
      Rt.Red->add(Idx, V);
      return;
    }
    assert(Rt.Shared && Idx >= 0 &&
           static_cast<size_t>(Idx) < Rt.Shared->size());
    (*Rt.Shared)[static_cast<size_t>(Idx)] += V;
    return;
  }
  PrivateArray *P = Rt.Priv;
  if (!P && F.Speculative) {
    F.Conflict = true; // Speculation never writes shared memory.
    return;
  }
  std::vector<double> *Dst = P ? &P->Buf : Rt.Shared;
  assert(Dst && "store to unallocated array");
  assert(Idx >= 0 && static_cast<size_t>(Idx) < Dst->size() &&
         "array store out of bounds");
  const size_t I = static_cast<size_t>(Idx);
  if (A.IsReduction) { // Speculative: a read plus a write.
    F.Conflict |= P->exposedRead(Idx, F.CurrentIter);
    V += (*Dst)[I];
  }
  (*Dst)[I] = V;
  if (P && !P->Written.empty())
    P->Written[I] = 1;
  if (P && !P->LastIter.empty())
    P->LastIter[I] = F.CurrentIter;
}

void CompiledBody::exec(BodyFrame &F, uint32_t Begin, uint32_t End) const {
  int64_t *const S = F.Scalars.data();
  uint8_t *const Bd = F.Bound.data();
  int64_t *const T = F.Temps.data();
  uint32_t Pc = Begin;
  while (Pc != End) {
    const Instr &I = Code[Pc];
    switch (I.Opcode) {
    case Instr::Op::Assign:
      execAssign(F, Assigns[I.Index]);
      ++Pc;
      break;
    case Instr::Op::DoInit: {
      const LoopCode &L = Loops[I.Index];
      const int64_t Lo = evalExpr(F, L.Lo);
      const int64_t Hi = evalExpr(F, L.Hi);
      int64_t *LT = T + L.Temp;
      LT[2] = S[L.Var];
      LT[3] = Bd[L.Var];
      if (Lo > Hi) {
        Pc = L.ExitPc;
        break;
      }
      LT[0] = Lo;
      LT[1] = Hi;
      S[L.Var] = Lo;
      Bd[L.Var] = 1;
      ++Pc;
      break;
    }
    case Instr::Op::DoNext: {
      const LoopCode &L = Loops[I.Index];
      int64_t *LT = T + L.Temp;
      if (LT[0] < LT[1]) {
        S[L.Var] = ++LT[0];
        Bd[L.Var] = 1;
        Pc = L.BodyPc;
      } else {
        ++Pc;
      }
      break;
    }
    case Instr::Op::DoEnd: {
      // A loop variable bound before the loop is restored; an unbound
      // one keeps its last value (interpStmt's rule).
      const LoopCode &L = Loops[I.Index];
      const int64_t *LT = T + L.Temp;
      if (LT[3]) {
        S[L.Var] = LT[2];
        Bd[L.Var] = 1;
      }
      ++Pc;
      break;
    }
    case Instr::Op::BranchIfNot: {
      const int C = evalCond(F, I.Index);
      assert(C >= 0 && "predicate evaluation failed: unbound symbol");
      Pc = C > 0 ? Pc + 1 : I.Target;
      break;
    }
    case Instr::Op::Jump:
      Pc = I.Target;
      break;
    case Instr::Op::CallEnter: {
      const CallCode &C = Calls[I.Index];
      for (uint32_t K = C.ScalarBegin; K != C.ScalarEnd; ++K) {
        const ScalarArg &A = ScalarArgs[K];
        T[A.SaveTemp] = S[A.Formal];
        T[A.SaveTemp + 1] = Bd[A.Formal];
        S[A.Formal] = evalExpr(F, A.Actual);
        Bd[A.Formal] = 1;
      }
      for (uint32_t K = C.ArrayBegin; K != C.ArrayEnd; ++K)
        T[ArrayArgs[K].LinkTemp] = evalExpr(F, ArrayArgs[K].Offset);
      ++Pc;
      break;
    }
    case Instr::Op::CallExit: {
      // Bound formals are restored in argument order; unbound ones keep
      // the callee's value.
      const CallCode &C = Calls[I.Index];
      for (uint32_t K = C.ScalarBegin; K != C.ScalarEnd; ++K) {
        const ScalarArg &A = ScalarArgs[K];
        if (T[A.SaveTemp + 1]) {
          S[A.Formal] = T[A.SaveTemp];
          Bd[A.Formal] = 1;
        }
      }
      ++Pc;
      break;
    }
    case Instr::Op::CivIncr: {
      const CivCode &C = Civs[I.Index];
      const int64_t Cur = Bd[C.Civ] ? S[C.Civ] : 0;
      S[C.Civ] = Cur + evalExpr(F, C.Amount);
      Bd[C.Civ] = 1;
      ++Pc;
      break;
    }
    }
  }
}

void CompiledBody::bind(BodyFrame &F, Memory &M, const sym::Bindings &B,
                        const WorkerViews *Views) const {
  const size_t NS = ScalarSyms.size();
  F.Scalars.resize(NS);
  F.Bound.resize(NS);
  for (size_t K = 0; K < NS; ++K) {
    std::optional<int64_t> V = B.scalar(ScalarSyms[K]);
    F.Bound[K] = V.has_value();
    F.Scalars[K] = V.value_or(0);
  }
  F.Temps.assign(NumTemps, 0);
  F.IndexArrays.resize(IndexArraySyms.size());
  for (size_t K = 0; K < IndexArraySyms.size(); ++K)
    F.IndexArrays[K] = B.array(IndexArraySyms[K]);
  F.Routes.resize(DataArraySyms.size());
  for (size_t K = 0; K < DataArraySyms.size(); ++K) {
    const SymbolId A = DataArraySyms[K];
    ArrayRoute R;
    R.Shared = M.find(A);
    if (Views) {
      auto P = Views->Private.find(A);
      if (P != Views->Private.end())
        R.Priv = P->second;
      auto Red = Views->RedBuf.find(A);
      if (Red != Views->RedBuf.end())
        R.Red = Red->second;
    }
    F.Routes[K] = R;
  }
  F.Stack.resize(StackDepth);
  // Sum every form's invariant terms once for the whole run.
  for (const ExprForm &Fm : Forms) {
    if (Fm.InvBegin == Fm.InvEnd)
      continue;
    int64_t V = Fm.Imm, T = 0;
    bool Ok = true;
    for (uint32_t K = Fm.InvBegin; K != Fm.InvEnd && Ok; ++K) {
      Ok = tryTerm(F, Terms[K], T);
      V += T;
    }
    F.Temps[Fm.InvTemp] = V;
    F.Temps[Fm.InvTemp + 1] = Ok;
  }
  F.Speculative = Views && Views->Speculative;
  F.Conflict = false;
  F.CurrentIter = 0;
}

void CompiledBody::runSequential(BodyFrame &F, Memory &M,
                                 sym::Bindings &B) const {
  assert(Lowered && "a demoted body runs on the interpreter");
  bind(F, M, B, nullptr);
  exec(F, 0, static_cast<uint32_t>(Code.size()));
  // interpSequential leaves its ExecState's scalars in B: the ones a run
  // can define are loop variables, CIVs and formals, and none is ever
  // unbound again once bound.
  for (uint32_t Slot : WriteBack)
    if (F.Bound[Slot])
      B.setScalar(ScalarSyms[Slot], F.Scalars[Slot]);
}

bool CompiledBody::runBlock(BodyFrame &F, Memory &M, const sym::Bindings &B,
                            const WorkerViews &Views,
                            const summary::CivPlan &Civ, int64_t BLo,
                            int64_t BHi) const {
  assert(Lowered && "a demoted body runs on the interpreter");
  bind(F, M, B, &Views);
  // Seed CIVs from their CIV-COMP entry values.
  for (const summary::CivDesc &D : Civ.Civs) {
    const sym::ArrayBinding *A = B.array(D.EntryArr);
    if (!A || !A->inBounds(BLo))
      continue;
    auto It = std::find(ScalarSyms.begin(), ScalarSyms.end(), D.Civ);
    if (It == ScalarSyms.end())
      continue; // The body never reads or updates it.
    const size_t Slot = static_cast<size_t>(It - ScalarSyms.begin());
    F.Scalars[Slot] = A->at(BLo);
    F.Bound[Slot] = 1;
  }
  for (int64_t I = BLo; I < BHi && !F.Conflict; ++I) {
    F.CurrentIter = I;
    F.Scalars[LoopVar] = I;
    F.Bound[LoopVar] = 1;
    exec(F, BodyBegin, BodyEnd);
  }
  return F.Conflict;
}
