//===- summary/Summary.cpp - RO/WF/RW access summarization ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "summary/Summary.h"

#include "support/Error.h"

#include <algorithm>

#include <cassert>

using namespace halo;
using namespace halo::summary;
using namespace halo::ir;
using usr::USR;
using sym::Expr;
using sym::SymbolId;

SummaryBuilder::SummaryBuilder(usr::USRContext &Ctx, Program &Prog)
    : Ctx(Ctx), P(Ctx.predCtx()), Sym(Ctx.symCtx()), Prog(Prog) {}

//===----------------------------------------------------------------------===//
// CIV state
//===----------------------------------------------------------------------===//

/// Flow-sensitive CIV valuation: the current symbolic value of each CIV at
/// the program point being summarized (exact along structured paths).
struct SummaryBuilder::CivState {
  std::map<SymbolId, const Expr *> Values;
  /// The loop variable of the analyzed loop (join arrays index on it).
  SymbolId IterVar = 0;
  bool Active = false;

  const Expr *value(SymbolId Civ) const {
    auto It = Values.find(Civ);
    assert(It != Values.end() && "CIV used before registration");
    return It->second;
  }
};

//===----------------------------------------------------------------------===//
// Triple algebra (Fig. 2a)
//===----------------------------------------------------------------------===//

static AccessTriple emptyTriple(usr::USRContext &Ctx) {
  return AccessTriple{Ctx.empty(), Ctx.empty(), Ctx.empty()};
}

static AccessTriple normalizeTriple(usr::USRContext &Ctx, AccessTriple T) {
  if (!T.RO)
    T.RO = Ctx.empty();
  if (!T.WF)
    T.WF = Ctx.empty();
  if (!T.RW)
    T.RW = Ctx.empty();
  return T;
}

RegionSummary SummaryBuilder::compose(RegionSummary First,
                                      RegionSummary Second) {
  RegionSummary Out = std::move(First);
  for (auto &KV : Second.Arrays) {
    AccessTriple T2 = normalizeTriple(Ctx, KV.second);
    auto It = Out.Arrays.find(KV.first);
    if (It == Out.Arrays.end()) {
      Out.Arrays.emplace(KV.first, T2);
      continue;
    }
    AccessTriple T1 = normalizeTriple(Ctx, It->second);
    // COMPOSE (Fig. 2a).
    AccessTriple R;
    R.WF = Ctx.union2(T1.WF,
                      Ctx.subtract(T2.WF, Ctx.union2(T1.RO, T1.RW)));
    // The second operand is built first, into a local: argument evaluation
    // order is unspecified, and node IDs (so plan bytes) follow creation
    // order.
    const USR *RO2Unwritten = Ctx.subtract(T2.RO, Ctx.union2(T1.WF, T1.RW));
    R.RO = Ctx.union2(Ctx.subtract(T1.RO, Ctx.union2(T2.WF, T2.RW)),
                      RO2Unwritten);
    R.RW = Ctx.unionN({T1.RW, Ctx.subtract(T2.RW, T1.WF),
                       Ctx.intersect(T1.RO, T2.WF)});
    It->second = R;
  }
  for (auto &KV : Second.Reductions) {
    auto It = Out.Reductions.find(KV.first);
    if (It == Out.Reductions.end())
      Out.Reductions.emplace(KV.first, KV.second);
    else
      It->second = Ctx.union2(It->second, KV.second);
  }
  return Out;
}

RegionSummary SummaryBuilder::gateSummary(const pdag::Pred *G,
                                          RegionSummary S) {
  RegionSummary Out;
  for (auto &KV : S.Arrays) {
    AccessTriple T = normalizeTriple(Ctx, KV.second);
    Out.Arrays[KV.first] = AccessTriple{
        Ctx.gate(G, T.RO), Ctx.gate(G, T.WF), Ctx.gate(G, T.RW)};
  }
  for (auto &KV : S.Reductions)
    Out.Reductions[KV.first] = Ctx.gate(G, KV.second);
  return Out;
}

RegionSummary SummaryBuilder::mergeBranches(const pdag::Pred *C,
                                            RegionSummary Then,
                                            RegionSummary Else) {
  const pdag::Pred *NotC = P.tryNot(C);
  RegionSummary GT = gateSummary(C, std::move(Then));
  if (!NotC) {
    // No representable complement: the else side must be treated as
    // possibly-executing reads/writes — conservatively reclassify its
    // write-first parts as read-write (may or may not execute).
    RegionSummary Out = GT;
    for (auto &KV : Else.Arrays) {
      AccessTriple T = normalizeTriple(Ctx, KV.second);
      const USR *All = Ctx.unionN({T.RO, T.WF, T.RW});
      auto It = Out.Arrays.find(KV.first);
      AccessTriple Merged =
          It == Out.Arrays.end() ? emptyTriple(Ctx) : It->second;
      Merged.RW = Ctx.union2(Merged.RW ? Merged.RW : Ctx.empty(), All);
      Out.Arrays[KV.first] = normalizeTriple(Ctx, Merged);
    }
    for (auto &KV : Else.Reductions)
      Out.Reductions[KV.first] =
          Out.Reductions.count(KV.first)
              ? Ctx.union2(Out.Reductions[KV.first], KV.second)
              : KV.second;
    return Out;
  }
  RegionSummary GE = gateSummary(NotC, std::move(Else));
  // Mutually exclusive branches: plain union per component (this is where
  // UMEG shapes are born).
  RegionSummary Out = std::move(GT);
  for (auto &KV : GE.Arrays) {
    auto It = Out.Arrays.find(KV.first);
    if (It == Out.Arrays.end()) {
      Out.Arrays.emplace(KV.first, KV.second);
      continue;
    }
    AccessTriple &T1 = It->second;
    const AccessTriple &T2 = KV.second;
    T1.RO = Ctx.union2(T1.RO, T2.RO);
    T1.WF = Ctx.union2(T1.WF, T2.WF);
    T1.RW = Ctx.union2(T1.RW, T2.RW);
  }
  for (auto &KV : GE.Reductions)
    Out.Reductions[KV.first] =
        Out.Reductions.count(KV.first)
            ? Ctx.union2(Out.Reductions[KV.first], KV.second)
            : KV.second;
  return Out;
}

RegionSummary SummaryBuilder::aggregateOver(const RegionSummary &Body,
                                            SymbolId Var, const Expr *Lo,
                                            const Expr *Hi) {
  // AGGREGATE (Fig. 2b). The partial recurrences substitute a fresh k for
  // the iteration variable.
  RegionSummary Out;
  for (const auto &KV : Body.Arrays) {
    AccessTriple T = normalizeTriple(Ctx, KV.second);
    SymbolId K = Sym.freshSymbol(Sym.symbolInfo(Var).Name + "k",
                                 Sym.symbolInfo(Var).DefLevel + 1);
    std::map<SymbolId, const Expr *> IToK{{Var, Sym.symRef(K)}};
    const Expr *KM1 = Sym.addConst(Sym.symRef(Var), -1);

    const USR *ROK = Ctx.substitute(T.RO, IToK);
    const USR *RWK = Ctx.substitute(T.RW, IToK);
    const USR *PriorReads =
        Ctx.recur(K, Lo, KM1, Ctx.union2(ROK, RWK));

    // Exact fast path: when WF_i does not vary with the loop, the i = Lo
    // term of Fig. 2b's union is the full WF (no prior reads exist), and
    // every other term is a subset of it — so the loop-level WF is WF_i
    // itself, gated on the loop executing.
    const USR *WFAll =
        !T.WF->dependsOn(Var)
            ? Ctx.gate(P.le(Lo, Hi), T.WF)
            : Ctx.recur(Var, Lo, Hi, Ctx.subtract(T.WF, PriorReads));
    // Node-creating operands are built last-first, as in compose().
    const USR *WrittenAll = Ctx.recur(Var, Lo, Hi, Ctx.union2(T.WF, T.RW));
    const USR *ROAll =
        Ctx.subtract(Ctx.recur(Var, Lo, Hi, T.RO), WrittenAll);
    const USR *WFOrROAll = Ctx.union2(WFAll, ROAll);
    const USR *RWAll = Ctx.subtract(
        Ctx.recur(Var, Lo, Hi, Ctx.union2(T.RO, T.RW)), WFOrROAll);
    Out.Arrays[KV.first] = AccessTriple{ROAll, WFAll, RWAll};
  }
  for (const auto &KV : Body.Reductions)
    Out.Reductions[KV.first] = Ctx.recur(Var, Lo, Hi, KV.second);
  return Out;
}

//===----------------------------------------------------------------------===//
// Statement summarization
//===----------------------------------------------------------------------===//

RegionSummary SummaryBuilder::summarizeStmt(const Stmt *S, CivState &Civ) {
  switch (S->getKind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    // Substitute current CIV valuations into subscripts.
    auto Subst = [&](const Expr *E) {
      return Civ.Values.empty() ? E : Sym.substitute(E, Civ.Values);
    };
    RegionSummary Out;
    if (A->isReduction()) {
      assert(A->getWrite() && "reduction without a written location");
      const USR *Pt = Ctx.leaf(
          lmad::LMAD::makePoint(Subst(A->getWrite()->Offset)));
      Out.Reductions[A->getWrite()->Array] = Pt;
      // Reads from *other* arrays inside the reduction expression are
      // ordinary reads.
      for (const ArrayAccess &R : A->getReads())
        if (R.Array != A->getWrite()->Array) {
          RegionSummary Rd;
          Rd.Arrays[R.Array] = AccessTriple{
              Ctx.leaf(lmad::LMAD::makePoint(Subst(R.Offset))), Ctx.empty(),
              Ctx.empty()};
          Out = compose(std::move(Out), std::move(Rd));
        }
      return Out;
    }
    // Reads first (they happen before the write in `W = f(R...)`).
    for (const ArrayAccess &R : A->getReads()) {
      RegionSummary Rd;
      Rd.Arrays[R.Array] = AccessTriple{
          Ctx.leaf(lmad::LMAD::makePoint(Subst(R.Offset))), Ctx.empty(),
          Ctx.empty()};
      Out = compose(std::move(Out), std::move(Rd));
    }
    if (A->getWrite()) {
      RegionSummary Wr;
      Wr.Arrays[A->getWrite()->Array] = AccessTriple{
          Ctx.empty(),
          Ctx.leaf(lmad::LMAD::makePoint(Subst(A->getWrite()->Offset))),
          Ctx.empty()};
      Out = compose(std::move(Out), std::move(Wr));
    }
    return Out;
  }

  case StmtKind::CivIncr: {
    const auto *CI = cast<CivIncrStmt>(S);
    assert(Civ.Active && "CIV increment outside an analyzed loop");
    auto It = Civ.Values.find(CI->getCiv());
    assert(It != Civ.Values.end() && "CIV not registered");
    It->second = Sym.add(It->second, CI->getAmount());
    return RegionSummary{};
  }

  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    CivState CivThen = Civ, CivElse = Civ;
    RegionSummary Then = summarizeStmts(I->getThen(), CivThen);
    RegionSummary Else = summarizeStmts(I->getElse(), CivElse);
    // Join CIV valuations; disagreeing paths mint a join pseudo-array
    // (the CIV@join of Fig. 7b), recorded for the runtime slice.
    for (auto &KV : Civ.Values) {
      const Expr *VT = CivThen.Values[KV.first];
      const Expr *VE = CivElse.Values[KV.first];
      if (VT == VE) {
        KV.second = VT;
        continue;
      }
      assert(ActivePlan && "CIV join outside an active plan");
      SymbolId JoinArr = Sym.symbol(
          Sym.symbolInfo(KV.first).Name + "@join" +
              std::to_string(++JoinCounter),
          0, /*IsArray=*/true);
      Sym.setMonotoneArray(JoinArr);
      ActivePlan->Joins.push_back(CivJoin{I, KV.first, JoinArr});
      // Validate write envelopes (Fig. 7b): every write whose offset
      // tracks this CIV must stay below the branch's final CIV value.
      validateEnvelopes(KV.first, KV.second, Then, CivThen.Values[KV.first]);
      validateEnvelopes(KV.first, KV.second, Else, CivElse.Values[KV.first]);
      KV.second = Sym.arrayRef(JoinArr, Sym.symRef(Civ.IterVar));
    }
    return mergeBranches(I->getCond(), std::move(Then), std::move(Else));
  }

  case StmtKind::DoLoop: {
    const auto *L = cast<DoLoop>(S);
    // Two-pass CIV handling for inner loops: discover the per-iteration
    // CIV delta, then summarize with the valuation linear in the inner
    // variable. Only delta expressions invariant in the inner variable
    // are supported (exactness requirement).
    CivState Probe = Civ;
    {
      CivState Tmp = Probe;
      (void)summarizeStmts(L->getBody(), Tmp);
      for (auto &KV : Civ.Values) {
        const Expr *Delta = Sym.sub(Tmp.Values[KV.first], KV.second);
        if (Delta != Sym.intConst(0)) {
          assert(!Delta->dependsOn(L->getVar()) &&
                 "CIV delta varies with the inner loop variable");
          // Valuation at entry of inner iteration j.
          Probe.Values[KV.first] = Sym.add(
              KV.second,
              Sym.mul(Delta, Sym.sub(Sym.symRef(L->getVar()), L->getLo())));
        }
      }
    }
    RegionSummary Body = summarizeStmts(L->getBody(), Probe);
    // Final CIV values after the loop: entry + count * delta (count
    // clamped at zero for possibly-empty ranges).
    const Expr *Count = Sym.addConst(Sym.sub(L->getHi(), L->getLo()), 1);
    const Expr *ClampedCount = Sym.max(Count, Sym.intConst(0));
    for (auto &KV : Civ.Values) {
      const Expr *EntryJ = Probe.Values[KV.first];
      // Per-j delta reconstructed from the linear form: value(j) at
      // j = Lo equals the pre-loop value; the increment per iteration is
      // value(Lo+1) - value(Lo).
      std::map<SymbolId, const Expr *> AtLo{{L->getVar(), L->getLo()}};
      std::map<SymbolId, const Expr *> AtLo1{
          {L->getVar(), Sym.addConst(L->getLo(), 1)}};
      const Expr *D = Sym.sub(Sym.substitute(EntryJ, AtLo1),
                              Sym.substitute(EntryJ, AtLo));
      // One more delta accrues during the last executed iteration.
      KV.second = Sym.add(KV.second, Sym.mul(ClampedCount, D));
    }
    return aggregateOver(Body, L->getVar(), L->getLo(), L->getHi());
  }

  case StmtKind::Call:
    return translateCall(*cast<CallStmt>(S), Civ);
  }
  halo_unreachable("covered switch");
}

RegionSummary
SummaryBuilder::summarizeStmts(const std::vector<const Stmt *> &Stmts,
                               CivState &Civ) {
  RegionSummary Acc;
  for (const Stmt *S : Stmts)
    Acc = compose(std::move(Acc), summarizeStmt(S, Civ));
  return Acc;
}

void SummaryBuilder::validateEnvelopes(SymbolId Civ, const Expr *EntryVal,
                                       const RegionSummary &Branch,
                                       const Expr *ExitVal) {
  if (!ActivePlan)
    return;
  const CivDesc *Desc = ActivePlan->findCiv(Civ);
  if (!Desc || !Desc->Monotone)
    return;
  // The branch's CIV delta must be a known constant.
  auto Delta = Sym.constValue(Sym.sub(ExitVal, EntryVal));
  if (!Delta)
    return;
  for (const auto &KV : Branch.Arrays) {
    AccessTriple T = normalizeTriple(Ctx, KV.second);
    const usr::USR *W = Ctx.union2(T.WF, T.RW);
    if (W->isEmptySet() || !W->dependsOn(Desc->EntryArr))
      continue;
    // Collect the branch's write LMADs (gates inside the branch shrink
    // the set; peeling them is a sound overestimate here).
    bool Ok = true;
    int64_t MinRel = 0;
    bool AnyRel = false;
    std::vector<const usr::USR *> Work{W};
    while (!Work.empty() && Ok) {
      const usr::USR *S = Work.back();
      Work.pop_back();
      switch (S->getKind()) {
      case usr::USRKind::Empty:
        break;
      case usr::USRKind::Leaf:
        for (const lmad::LMAD &L : cast<usr::LeafUSR>(S)->getLMADs()) {
          lmad::Interval IV = lmad::intervalOverestimate(Sym, L);
          auto RelLo = Sym.constValue(Sym.sub(IV.Lo, EntryVal));
          auto RelHi = Sym.constValue(Sym.sub(IV.Hi, EntryVal));
          // Envelope condition: entry + RelLo .. entry + RelHi must fit
          // inside [entry, exit-1] = [entry, entry + Delta - 1].
          if (!RelLo || !RelHi || *RelLo < 0 || *RelHi > *Delta - 1) {
            Ok = false;
            break;
          }
          MinRel = AnyRel ? std::min(MinRel, *RelLo) : *RelLo;
          AnyRel = true;
        }
        break;
      case usr::USRKind::Union:
        for (const usr::USR *C : cast<usr::UnionUSR>(S)->getChildren())
          Work.push_back(C);
        break;
      case usr::USRKind::Gate:
        Work.push_back(cast<usr::GateUSR>(S)->getChild());
        break;
      case usr::USRKind::CallSite:
        Work.push_back(cast<usr::CallSiteUSR>(S)->getChild());
        break;
      case usr::USRKind::Intersect:
      case usr::USRKind::Subtract:
      case usr::USRKind::Recur:
        Ok = false; // Unsupported shapes: no envelope claim.
        break;
      }
    }
    if (Ok && AnyRel)
      ActivePlan->Envelopes.push_back(
          CivEnvelope{Civ, KV.first, MinRel});
  }
}

//===----------------------------------------------------------------------===//
// Call-site translation
//===----------------------------------------------------------------------===//

const RegionSummary &
SummaryBuilder::summarizeSubroutine(const Subroutine &Sub) {
  auto It = SubMemo.find(&Sub);
  if (It != SubMemo.end())
    return It->second;
  CivState NoCiv;
  RegionSummary S = summarizeStmts(Sub.getBody(), NoCiv);
  return SubMemo.emplace(&Sub, std::move(S)).first->second;
}

/// Translates a callee-side USR onto the caller's array space: substitutes
/// formal scalars and rebases all LMAD offsets by Delta.
static const USR *rebaseUSR(usr::USRContext &Ctx, const USR *S,
                            const Expr *Delta) {
  sym::Context &Sym = Ctx.symCtx();
  switch (S->getKind()) {
  case usr::USRKind::Empty:
    return S;
  case usr::USRKind::Leaf: {
    lmad::LMADSet Out;
    for (const lmad::LMAD &L : cast<usr::LeafUSR>(S)->getLMADs())
      Out.push_back(lmad::translate(Sym, L, Delta));
    return Ctx.leaf(std::move(Out));
  }
  case usr::USRKind::Union: {
    std::vector<const USR *> Cs;
    for (const USR *C : cast<usr::UnionUSR>(S)->getChildren())
      Cs.push_back(rebaseUSR(Ctx, C, Delta));
    return Ctx.unionN(std::move(Cs));
  }
  case usr::USRKind::Intersect: {
    const auto *B = cast<usr::BinaryUSR>(S);
    return Ctx.intersect(rebaseUSR(Ctx, B->getLHS(), Delta),
                         rebaseUSR(Ctx, B->getRHS(), Delta));
  }
  case usr::USRKind::Subtract: {
    const auto *B = cast<usr::BinaryUSR>(S);
    return Ctx.subtract(rebaseUSR(Ctx, B->getLHS(), Delta),
                        rebaseUSR(Ctx, B->getRHS(), Delta));
  }
  case usr::USRKind::Gate: {
    const auto *G = cast<usr::GateUSR>(S);
    return Ctx.gate(G->getGate(), rebaseUSR(Ctx, G->getChild(), Delta));
  }
  case usr::USRKind::CallSite: {
    const auto *C = cast<usr::CallSiteUSR>(S);
    return Ctx.callSite(C->getCallee(),
                        rebaseUSR(Ctx, C->getChild(), Delta));
  }
  case usr::USRKind::Recur: {
    const auto *R = cast<usr::RecurUSR>(S);
    return Ctx.recur(R->getVar(), R->getLo(), R->getHi(),
                     rebaseUSR(Ctx, R->getBody(), Delta));
  }
  }
  halo_unreachable("covered switch");
}

RegionSummary SummaryBuilder::translateCall(const CallStmt &Call,
                                            CivState &Civ) {
  const RegionSummary &Callee = summarizeSubroutine(*Call.getCallee());

  // Scalar substitution map (formals -> actuals, with CIV values applied).
  std::map<SymbolId, const Expr *> ScalarMap;
  for (const CallStmt::ScalarArg &A : Call.getScalarArgs()) {
    const Expr *Actual = Civ.Values.empty()
                             ? A.Actual
                             : Sym.substitute(A.Actual, Civ.Values);
    ScalarMap[A.Formal] = Actual;
  }

  RegionSummary Out;
  for (const CallStmt::ArrayArg &AA : Call.getArrayArgs()) {
    auto It = Callee.Arrays.find(AA.Formal);
    const Expr *Delta = Civ.Values.empty()
                            ? AA.Offset
                            : Sym.substitute(AA.Offset, Civ.Values);
    if (It != Callee.Arrays.end()) {
      AccessTriple T = normalizeTriple(Ctx, It->second);
      auto Xlate = [&](const USR *S) {
        return rebaseUSR(Ctx, Ctx.substitute(S, ScalarMap), Delta);
      };
      AccessTriple R{Xlate(T.RO), Xlate(T.WF), Xlate(T.RW)};
      RegionSummary One;
      One.Arrays[AA.Actual] = R;
      Out = compose(std::move(Out), std::move(One));
    }
    auto RIt = Callee.Reductions.find(AA.Formal);
    if (RIt != Callee.Reductions.end()) {
      RegionSummary One;
      One.Reductions[AA.Actual] =
          rebaseUSR(Ctx, Ctx.substitute(RIt->second, ScalarMap), Delta);
      Out = compose(std::move(Out), std::move(One));
    }
  }
  // Arrays the callee touches that were not passed (globals) would need a
  // call-site barrier; the mini-IR passes every touched array explicitly.
  return Out;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

RegionSummary SummaryBuilder::summarizeIteration(const DoLoop &Loop,
                                                 CivPlan &Plan) {
  // Discover CIVs: any CivIncr in the (transitive) body.
  std::vector<const Stmt *> Work(Loop.getBody().begin(),
                                 Loop.getBody().end());
  std::vector<SymbolId> Civs;
  while (!Work.empty()) {
    const Stmt *S = Work.back();
    Work.pop_back();
    if (const auto *CI = dyn_cast<CivIncrStmt>(S)) {
      if (std::find(Civs.begin(), Civs.end(), CI->getCiv()) == Civs.end())
        Civs.push_back(CI->getCiv());
    } else if (const auto *L = dyn_cast<DoLoop>(S)) {
      Work.insert(Work.end(), L->getBody().begin(), L->getBody().end());
    } else if (const auto *I = dyn_cast<IfStmt>(S)) {
      Work.insert(Work.end(), I->getThen().begin(), I->getThen().end());
      Work.insert(Work.end(), I->getElse().begin(), I->getElse().end());
    }
  }

  CivState Civ;
  Civ.IterVar = Loop.getVar();
  Civ.Active = true;
  Plan = CivPlan{};
  ActivePlan = &Plan;
  for (SymbolId C : Civs) {
    SymbolId EntryArr =
        Sym.symbol(Sym.symbolInfo(C).Name + "@pre", 0, /*IsArray=*/true);
    Sym.setMonotoneArray(EntryArr);
    Plan.Civs.push_back(CivDesc{C, EntryArr, true});
    Civ.Values[C] = Sym.arrayRef(EntryArr, Sym.symRef(Loop.getVar()));
  }
  RegionSummary S = summarizeStmts(Loop.getBody(), Civ);
  ActivePlan = nullptr;
  return S;
}

RegionSummary SummaryBuilder::aggregateLoop(const DoLoop &Loop,
                                            const RegionSummary &Iter) {
  return aggregateOver(Iter, Loop.getVar(), Loop.getLo(), Loop.getHi());
}
