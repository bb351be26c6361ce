//===- pdag/PredCompile.cpp - Predicate bytecode compiler -----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/PredCompile.h"

#include "support/Error.h"
#include "support/IdMap.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

using namespace halo;
using namespace halo::pdag;

namespace {

// Tri-state encoding on the predicate stack.
constexpr uint8_t TriFalse = 0;
constexpr uint8_t TriTrue = 1;
constexpr uint8_t TriUnknown = 2;

// Same semantics as the Divides case of tryEvalPred.
bool dividesHolds(int64_t DV, int64_t VV, bool Neg) {
  int64_t Div = DV < 0 ? -DV : DV;
  bool Holds = Div == 0 ? (VV == 0) : (VV % Div == 0);
  return Holds != Neg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

namespace halo {
namespace pdag {

class PredCompiler {
public:
  PredCompiler(const sym::Context &Ctx, CompiledPred &Out)
      : Ctx(Ctx), Out(Out),
        XB(Ctx, Out.XCode, Out.ScalarSlots, Out.ArraySlots) {}

  void compileRoot(const Pred *P) {
    countRefs(P);
    compilePred(P, /*AtRoot=*/true);
    Out.MainCodeEnd = here();
    emitSubroutines();
    finalize(P);
  }

  /// True when the expression layer tripped a lowering resource guard
  /// while emitting this object (CompiledPred::compile then discards it).
  bool exceeded() const { return XB.exceeded(); }

private:
  uint32_t scalarSlot(sym::SymbolId S) { return XB.scalarSlot(S); }

  /// Emits \p E as a fresh expression code range (shared expression
  /// bytecode layer, pdag/ExprCode.h).
  std::pair<uint32_t, uint32_t> compileExpr(const sym::Expr *E) {
    return XB.compile(E);
  }

  uint32_t emitP(PredInstr::Op Op, uint32_t A = 0, uint32_t B = 0,
                 uint32_t C = 0, uint32_t D = 0, uint8_t Aux = 0) {
    Out.PCode.push_back(PredInstr{Op, A, B, C, D, Aux});
    return static_cast<uint32_t>(Out.PCode.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(Out.PCode.size()); }

  /// DAG analysis: per-node reference counts (deciding which shared
  /// compound nodes become subroutines) and the set of every LoopAll
  /// bound variable (the conservative invariance context for code shared
  /// across call sites).
  void countRefs(const Pred *P) {
    auto [Count, New] = RefCount.insert(P->getId(), 1);
    if (!New) {
      ++*Count;
      return; // Children already counted on the first visit.
    }
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or:
      for (const Pred *C : cast<NaryPred>(P)->getChildren())
        countRefs(C);
      return;
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      AllLoopVars.push_back(L->getVar());
      countRefs(L->getBody());
      return;
    }
    case PredKind::CallSite:
      countRefs(cast<CallSitePred>(P)->getBody());
      return;
    default:
      return;
    }
  }

  /// A multiply-referenced compound node compiles once as a subroutine;
  /// expanding the interned DAG into a tree can blow code size up by
  /// orders of magnitude (the UMEG-factorized predicates share heavily).
  bool isSharedSub(const Pred *P) const {
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or:
    case PredKind::LoopAll:
    case PredKind::CallSite: {
      const uint32_t *Count = RefCount.find(P->getId());
      return Count && *Count > 1;
    }
    default:
      return false; // Leaves are at most a couple of instructions.
    }
  }

  /// True when \p P reads none of the loop variables it could be
  /// iterated under. Inside a subroutine body the code is shared across
  /// call sites with different loop contexts, so the check is against
  /// every LoopAll variable of the whole predicate.
  bool isInvariantHere(const Pred *P) const {
    const std::vector<sym::SymbolId> &Vars =
        InSubBody ? AllLoopVars : EnclosingVars;
    for (sym::SymbolId V : Vars)
      if (P->dependsOn(V))
        return false;
    return true;
  }

  /// Emits a reference to \p P: shared compound nodes become a CallSub to
  /// their (single) subroutine body, everything else compiles inline.
  void emitNodeRef(const Pred *P, bool AtRoot) {
    if (!AtRoot && isSharedSub(P)) {
      auto [Sub, New] = SubIndex.insert(
          P->getId(), static_cast<uint32_t>(Subs.size()));
      if (New)
        Subs.push_back(P);
      CallSites.emplace_back(emitP(PredInstr::Op::CallSub), *Sub);
      return;
    }
    compilePred(P, AtRoot);
  }

  /// Compiles \p P, memoizing it when it is loop-invariant at this site:
  /// the first evaluation stores the tri-state in a per-evaluation memo
  /// slot, later iterations jump straight past the sub-predicate's code.
  void compileChild(const Pred *P) {
    const bool InLoop = InSubBody ? !AllLoopVars.empty()
                                  : !EnclosingVars.empty();
    bool Memoize = InLoop && !P->isTrue() && !P->isFalse() &&
                   isInvariantHere(P);
    if (!Memoize) {
      emitNodeRef(P, /*AtRoot=*/false);
      return;
    }
    auto [Known, New] = MemoSlotFor.insert(P->getId(), Out.NumMemoSlots);
    const uint32_t Slot = *Known;
    if (New)
      ++Out.NumMemoSlots;
    uint32_t Check = emitP(PredInstr::Op::MemoCheck, Slot);
    emitNodeRef(P, /*AtRoot=*/false);
    emitP(PredInstr::Op::MemoStore, Slot);
    Out.PCode[Check].B = here();
  }

  /// Compiles the scheduled subroutine bodies in scheduling order (a body
  /// may schedule more) and patches every CallSub with its entry ip.
  void emitSubroutines() {
    if (Subs.empty())
      return;
    // Padding so no subroutine entry aliases MainCodeEnd (the run loop's
    // end-of-code sentinel); never executed.
    emitP(PredInstr::Op::Ret);
    InSubBody = true;
    EnclosingVars.clear();
    std::vector<uint32_t> Entries;
    for (size_t I = 0; I < Subs.size(); ++I) {
      uint32_t Entry = here();
      Entries.push_back(Entry);
      compilePred(Subs[I], /*AtRoot=*/false);
      emitP(PredInstr::Op::Ret);
      SubEnd.insert(Entry, here());
    }
    InSubBody = false;
    for (const auto &[Ip, Sub] : CallSites)
      Out.PCode[Ip].A = Entries[Sub];
    Out.NumSubs = static_cast<uint32_t>(Subs.size());
  }

  /// Exact peak tri-state stack depth of evaluating \p P (which leaves
  /// one value): And/Or hold their accumulator while a child evaluates,
  /// loop/call state lives on separate stacks. Matches the emitted
  /// bytecode instruction for instruction, so frames can be sized from it
  /// instead of code length.
  uint32_t predDepth(const Pred *P) {
    if (const uint32_t *Memo = DepthMemo.find(P->getId()))
      return *Memo;
    uint32_t D = 1;
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or: {
      uint32_t M = 0;
      for (const Pred *C : cast<NaryPred>(P)->getChildren())
        M = std::max(M, predDepth(C));
      D = 1 + M;
      break;
    }
    case PredKind::LoopAll:
      D = std::max(1u, predDepth(cast<LoopAllPred>(P)->getBody()));
      break;
    case PredKind::CallSite:
      D = predDepth(cast<CallSitePred>(P)->getBody());
      break;
    default:
      break; // Leaves push exactly one value.
    }
    DepthMemo.insert(P->getId(), D);
    return D;
  }

  /// True when code range [Begin, End) can run the block walker: no loop
  /// opcodes, transitively through CallSub targets. MemoCheck regions are
  /// skipped — the walker never executes them per lane (a memo miss runs
  /// the region scalar, which handles any opcode), so a loop-invariant
  /// sub-loop does not break blockability.
  bool rangeBlockable(uint32_t Begin, uint32_t End) {
    for (uint32_t Ip = Begin; Ip < End; ++Ip) {
      const PredInstr &I = Out.PCode[Ip];
      switch (I.Opcode) {
      case PredInstr::Op::LoopBegin:
      case PredInstr::Op::LoopStep:
        return false;
      case PredInstr::Op::MemoCheck:
        Ip = I.B - 1; // Skip the memoized region (jumped over per lane).
        break;
      case PredInstr::Op::CallSub: {
        bool Ok;
        if (const bool *Memo = SubBlockable.find(I.A)) {
          Ok = *Memo;
        } else {
          // The DAG is acyclic, so the scan never re-enters this entry
          // before it records the answer.
          Ok = rangeBlockable(I.A, *SubEnd.find(I.A));
          SubBlockable.insert(I.A, Ok);
        }
        if (!Ok)
          return false;
        break;
      }
      default:
        break;
      }
    }
    return true;
  }

  /// True when expression range [Begin, End) loads an array through the
  /// loop variable (the shape the block tier's fused gathers accelerate):
  /// a var-indexed fused load, or a general ArrayLoad downstream of a
  /// var-slot read (conservative — the var feeds *some* index upstream).
  bool exprRangeHasVarLoad(uint32_t Begin, uint32_t End,
                           uint32_t VarSlot) const {
    bool SawVar = false;
    for (uint32_t Ip = Begin; Ip < End; ++Ip) {
      const ExprInstr &I = Out.XCode[Ip];
      if (I.Opcode == ExprInstr::Op::Scalar && I.Slot == VarSlot)
        SawVar = true;
      else if (I.Opcode == ExprInstr::Op::ArrayLoadOff &&
               I.loadOffIdxSlot() == VarSlot)
        return true;
      else if (I.Opcode == ExprInstr::Op::ArrayLoad && SawVar)
        return true;
    }
    return false;
  }

  /// Whether predicate range [Begin, End) (transitively through CallSub)
  /// contains a leaf whose expression loads arrays through \p VarSlot.
  bool rangeHasVarLoad(uint32_t Begin, uint32_t End, uint32_t VarSlot) const {
    for (uint32_t Ip = Begin; Ip < End; ++Ip) {
      const PredInstr &I = Out.PCode[Ip];
      switch (I.Opcode) {
      case PredInstr::Op::LeafCmp:
        if (exprRangeHasVarLoad(I.A, I.B, VarSlot))
          return true;
        break;
      case PredInstr::Op::LeafDivides:
        if (exprRangeHasVarLoad(I.A, I.B, VarSlot) ||
            exprRangeHasVarLoad(I.C, I.D, VarSlot))
          return true;
        break;
      case PredInstr::Op::MemoCheck:
        Ip = I.B - 1; // Memoized regions are loop-invariant by definition.
        break;
      case PredInstr::Op::CallSub:
        if (rangeHasVarLoad(I.A, *SubEnd.find(I.A), VarSlot))
          return true;
        break;
      default:
        break;
      }
    }
    return false;
  }

  /// Post-pass: exact stack depths (frames are sized from these) and the
  /// block-tier compatibility flags.
  void finalize(const Pred *Root) {
    Out.XMaxDepth = XB.maxStackDepth();
    Out.PMaxDepth = predDepth(Root);
    Out.MaxLoopNest = static_cast<uint32_t>(Root->loopDepth());
    Out.MainBlockOk = rangeBlockable(0, Out.MainCodeEnd);
    if (Out.RootLoop >= 0) {
      const CompiledLoop &L = Out.Loops[static_cast<size_t>(Out.RootLoop)];
      Out.BlockOk = rangeBlockable(L.BodyBegin, L.StepIp);
      Out.BodyHasVarLoad = rangeHasVarLoad(L.BodyBegin, L.StepIp, L.VarSlot);
    }
#ifndef NDEBUG
    // Validate the exact expression-depth bound against a static
    // simulation of every referenced range (the satellite contract).
    const ExprInstr *XC = Out.XCode.data();
    for (const PredInstr &I : Out.PCode) {
      if (I.Opcode == PredInstr::Op::LeafCmp)
        assert(exprCodeMaxDepth(XC, I.A, I.B) <= Out.XMaxDepth);
      else if (I.Opcode == PredInstr::Op::LeafDivides) {
        assert(exprCodeMaxDepth(XC, I.A, I.B) <= Out.XMaxDepth);
        assert(exprCodeMaxDepth(XC, I.C, I.D) <= Out.XMaxDepth);
      }
    }
    for (const CompiledLoop &L : Out.Loops) {
      assert(exprCodeMaxDepth(XC, L.LoExprBegin, L.LoExprEnd) <=
             Out.XMaxDepth);
      assert(exprCodeMaxDepth(XC, L.HiExprBegin, L.HiExprEnd) <=
             Out.XMaxDepth);
    }
#endif
  }

  void compilePred(const Pred *P, bool AtRoot) {
    switch (P->getKind()) {
    case PredKind::True:
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, TriTrue);
      return;
    case PredKind::False:
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, TriFalse);
      return;
    case PredKind::Cmp: {
      const auto *C = cast<CmpPred>(P);
      if (auto V = Ctx.constValue(C->getExpr())) {
        bool R = false;
        switch (C->getRel()) {
        case CmpRel::GE0:
          R = *V >= 0;
          break;
        case CmpRel::EQ0:
          R = *V == 0;
          break;
        case CmpRel::NE0:
          R = *V != 0;
          break;
        }
        emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, R ? TriTrue : TriFalse);
        return;
      }
      auto [B, E] = compileExpr(C->getExpr());
      emitP(PredInstr::Op::LeafCmp, B, E, 0, 0,
            static_cast<uint8_t>(C->getRel()));
      return;
    }
    case PredKind::Divides: {
      const auto *D = cast<DividesPred>(P);
      auto DV = Ctx.constValue(D->getDivisor());
      auto VV = Ctx.constValue(D->getValue());
      if (DV && VV) {
        emitP(PredInstr::Op::PushBool, 0, 0, 0, 0,
              dividesHolds(*DV, *VV, D->isNegated()) ? TriTrue : TriFalse);
        return;
      }
      auto [DB, DE] = compileExpr(D->getDivisor());
      auto [VB, VE] = compileExpr(D->getValue());
      emitP(PredInstr::Op::LeafDivides, DB, DE, VB, VE,
            D->isNegated() ? 1 : 0);
      return;
    }
    case PredKind::And:
    case PredKind::Or: {
      const auto *N = cast<NaryPred>(P);
      const bool IsAnd = N->isAnd();
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, IsAnd ? TriTrue : TriFalse);
      // The steps' jump targets are patched once the node's code ends;
      // nested nodes push theirs above this node's on the shared stack.
      const size_t StepsBase = PendingSteps.size();
      for (const Pred *C : N->getChildren()) {
        compileChild(C);
        PendingSteps.push_back(
            emitP(IsAnd ? PredInstr::Op::AndStep : PredInstr::Op::OrStep));
      }
      for (size_t I = StepsBase; I < PendingSteps.size(); ++I)
        Out.PCode[PendingSteps[I]].A = here();
      PendingSteps.resize(StepsBase);
      return;
    }
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      uint32_t DescIdx = static_cast<uint32_t>(Out.Loops.size());
      Out.Loops.emplace_back();
      {
        CompiledLoop &D = Out.Loops[DescIdx];
        std::tie(D.LoExprBegin, D.LoExprEnd) = compileExpr(L->getLo());
        std::tie(D.HiExprBegin, D.HiExprEnd) = compileExpr(L->getHi());
        D.VarSlot = scalarSlot(L->getVar());
      }
      if (AtRoot)
        Out.RootLoop = static_cast<int32_t>(DescIdx);
      emitP(PredInstr::Op::LoopBegin, DescIdx);
      Out.Loops[DescIdx].BodyBegin = here();
      EnclosingVars.push_back(L->getVar());
      compileChild(L->getBody());
      EnclosingVars.pop_back();
      Out.Loops[DescIdx].StepIp = emitP(PredInstr::Op::LoopStep, DescIdx);
      Out.Loops[DescIdx].EndIp = here();
      return;
    }
    case PredKind::CallSite:
      // Opaque barrier for static reasoning only; evaluation passes
      // through to the body (same as the interpreter).
      emitNodeRef(cast<CallSitePred>(P)->getBody(), AtRoot);
      return;
    }
    halo_unreachable("covered switch");
  }

  const sym::Context &Ctx;
  CompiledPred &Out;
  ExprCodeBuilder XB;
  std::vector<sym::SymbolId> EnclosingVars;
  std::vector<sym::SymbolId> AllLoopVars;
  bool InSubBody = false;
  /// AndStep/OrStep ips of the And/Or nodes being compiled, awaiting
  /// their jump targets.
  std::vector<uint32_t> PendingSteps;
  // The memos below are keyed on node IDs (or ips), never on pointers.
  /// Node -> number of references from parents (plus one for the root).
  support::IdMap<uint32_t> RefCount;
  /// Node -> its invariant-sub-predicate memo slot.
  support::IdMap<uint32_t> MemoSlotFor;
  /// Shared node -> its index in Subs.
  support::IdMap<uint32_t> SubIndex;
  /// Shared sub-predicates in scheduling order (their bodies follow the
  /// main code in this order).
  std::vector<const Pred *> Subs;
  /// (CallSub ip, index in Subs) for the entry-ip patch.
  std::vector<std::pair<uint32_t, uint32_t>> CallSites;
  /// Subroutine entry ip -> end ip (one past its Ret); finalize() walks
  /// these for the block-compatibility scans.
  support::IdMap<uint32_t> SubEnd;
  /// Subroutine entry ip -> rangeBlockable of its body.
  support::IdMap<bool> SubBlockable;
  /// Node -> predDepth.
  support::IdMap<uint32_t> DepthMemo;
};

} // namespace pdag
} // namespace halo

std::unique_ptr<CompiledPred> CompiledPred::compile(const Pred *P,
                                                    const sym::Context &Ctx) {
  // Resource guards (graceful demotion contract, docs/FUZZING.md): a
  // predicate too deep or too large to lower returns null here; callers
  // (PredCompileCache, USR gate lowering) fall back to tryEvalPred and
  // the governor counts the demotion in ExecStats::GuardDemotions. The
  // depth check reads the depth stored on the root before the recursive
  // PredCompiler runs, so hostile nesting cannot overflow the C++ stack;
  // each leaf expression's depth is checked the same way by
  // ExprCodeBuilder::compile (C.exceeded() below).
  if (P->nestDepth() > LoweringMaxNestDepth)
    return nullptr;
  std::unique_ptr<CompiledPred> CP(new CompiledPred());
  CP->Source = P;
  PredCompiler C(Ctx, *CP);
  C.compileRoot(P);
  if (C.exceeded() || CP->PCode.size() > LoweringMaxCodeLen ||
      CP->XCode.size() > LoweringMaxCodeLen)
    return nullptr;
  return CP;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

/// Per-evaluation state: resolved symbol slots, memo table and
/// preallocated evaluation stacks (compile() bounds their depths, so the
/// hot loop runs on raw pointers with no size checks). Copied per worker
/// by the parallel evaluator (the copies share the immutable ArrayBinding
/// storage behind the raw pointers).
struct CompiledPred::Frame {
  std::vector<int64_t> ScalarVals;
  std::vector<uint8_t> ScalarBound;
  std::vector<const sym::ArrayBinding *> Arrays;
  std::vector<int8_t> Memo; // -1 unset, else a tri-state.
  std::vector<int64_t> XStack;
  std::vector<uint8_t> PStack;
  struct LoopState {
    uint32_t Desc;
    int64_t Cur, Hi;
    int64_t SavedVal;
    uint8_t SavedBound;
  };
  std::vector<LoopState> LoopStack;
  std::vector<uint32_t> RetStack;
  /// Block-tier lane state (sized only for block-capable predicates):
  /// structure-of-arrays stacks of PredBlockWidth lanes per row, plus a
  /// separate return stack so a memo miss's scalar run (which uses
  /// RetStack) cannot clobber an in-flight block call chain.
  std::vector<uint8_t> BTri;
  std::vector<int64_t> BXStack;
  std::vector<uint32_t> BRet;
  EvalStats Stats;
};

bool CompiledPred::bindFrame(Frame &F, const sym::Bindings &B) const {
  F.ScalarVals.assign(ScalarSlots.size(), 0);
  F.ScalarBound.assign(ScalarSlots.size(), 0);
  for (size_t I = 0; I < ScalarSlots.size(); ++I)
    if (auto V = B.scalar(ScalarSlots[I])) {
      F.ScalarVals[I] = *V;
      F.ScalarBound[I] = 1;
    }
  F.Arrays.resize(ArraySlots.size());
  for (size_t I = 0; I < ArraySlots.size(); ++I)
    F.Arrays[I] = B.array(ArraySlots[I]);
  F.Memo.assign(NumMemoSlots, -1);
  // Exact depth bounds, precomputed at compile time (finalize()): the
  // peak stack depths of the emitted code, not the code-length + slack
  // over-approximation this used to allocate.
  F.XStack.resize(XMaxDepth);
  F.PStack.resize(PMaxDepth);
  F.LoopStack.resize(MaxLoopNest);
  F.RetStack.resize(NumSubs);
  if (BlockOk || MainBlockOk) {
    F.BTri.resize(static_cast<size_t>(PMaxDepth) * PredBlockWidth);
    F.BXStack.resize(static_cast<size_t>(XMaxDepth) * PredBlockWidth);
    F.BRet.resize(NumSubs);
  }
  return true;
}

std::optional<int64_t> CompiledPred::evalExpr(uint32_t Begin, uint32_t End,
                                              Frame &F) const {
  return runExprCode(XCode.data(), Begin, End, F.ScalarVals.data(),
                     F.ScalarBound.data(), F.Arrays.data(),
                     F.XStack.data());
}

uint8_t CompiledPred::run(uint32_t IpBegin, uint32_t IpEnd, Frame &F) const {
  uint8_t *St = F.PStack.data();
  size_t SP = 0;
  Frame::LoopState *LoopSt = F.LoopStack.data();
  size_t LSP = 0;
  uint32_t *RetSt = F.RetStack.data();
  size_t RSP = 0;
  const PredInstr *Code = PCode.data();
  uint32_t Ip = IpBegin;
  while (Ip != IpEnd) {
    const PredInstr &I = Code[Ip];
    switch (I.Opcode) {
    case PredInstr::Op::PushBool:
      St[SP++] = I.Aux;
      assert(SP <= PMaxDepth && "tri-state stack exceeded precomputed depth");
      ++Ip;
      break;
    case PredInstr::Op::LeafCmp: {
      auto V = evalExpr(I.A, I.B, F);
      uint8_t R = TriUnknown;
      if (V) {
        ++F.Stats.LeafEvals;
        switch (static_cast<CmpRel>(I.Aux)) {
        case CmpRel::GE0:
          R = *V >= 0 ? TriTrue : TriFalse;
          break;
        case CmpRel::EQ0:
          R = *V == 0 ? TriTrue : TriFalse;
          break;
        case CmpRel::NE0:
          R = *V != 0 ? TriTrue : TriFalse;
          break;
        }
      }
      St[SP++] = R;
      assert(SP <= PMaxDepth && "tri-state stack exceeded precomputed depth");
      ++Ip;
      break;
    }
    case PredInstr::Op::LeafDivides: {
      auto DV = evalExpr(I.A, I.B, F);
      auto VV = evalExpr(I.C, I.D, F);
      uint8_t R = TriUnknown;
      if (DV && VV) {
        ++F.Stats.LeafEvals;
        R = dividesHolds(*DV, *VV, I.Aux != 0) ? TriTrue : TriFalse;
      }
      St[SP++] = R;
      ++Ip;
      break;
    }
    case PredInstr::Op::AndStep: {
      const uint8_t C = St[--SP];
      uint8_t &Acc = St[SP - 1];
      if (C == TriFalse)
        Acc = TriFalse;
      else if (C == TriUnknown && Acc == TriTrue)
        Acc = TriUnknown;
      Ip = Acc == TriFalse ? I.A : Ip + 1;
      break;
    }
    case PredInstr::Op::OrStep: {
      const uint8_t C = St[--SP];
      uint8_t &Acc = St[SP - 1];
      if (C == TriTrue)
        Acc = TriTrue;
      else if (C == TriUnknown && Acc == TriFalse)
        Acc = TriUnknown;
      Ip = Acc == TriTrue ? I.A : Ip + 1;
      break;
    }
    case PredInstr::Op::LoopBegin: {
      const CompiledLoop &L = Loops[I.A];
      auto Lo = evalExpr(L.LoExprBegin, L.LoExprEnd, F);
      auto Hi = evalExpr(L.HiExprBegin, L.HiExprEnd, F);
      if (!Lo || !Hi) {
        St[SP++] = TriUnknown;
        Ip = L.EndIp;
        break;
      }
      if (*Lo > *Hi) {
        St[SP++] = TriTrue;
        Ip = L.EndIp;
        break;
      }
      LoopSt[LSP++] = Frame::LoopState{I.A, *Lo, *Hi,
                                       F.ScalarVals[L.VarSlot],
                                       F.ScalarBound[L.VarSlot]};
      F.ScalarVals[L.VarSlot] = *Lo;
      F.ScalarBound[L.VarSlot] = 1;
      ++F.Stats.LoopIters;
      Ip = L.BodyBegin;
      break;
    }
    case PredInstr::Op::LoopStep: {
      const uint8_t R = St[--SP];
      Frame::LoopState &LS = LoopSt[LSP - 1];
      const CompiledLoop &L = Loops[LS.Desc];
      if (R == TriTrue && LS.Cur < LS.Hi) {
        ++LS.Cur;
        F.ScalarVals[L.VarSlot] = LS.Cur;
        ++F.Stats.LoopIters;
        Ip = L.BodyBegin;
        break;
      }
      F.ScalarVals[L.VarSlot] = LS.SavedVal;
      F.ScalarBound[L.VarSlot] = LS.SavedBound;
      --LSP;
      St[SP++] = R;
      Ip = L.EndIp;
      break;
    }
    case PredInstr::Op::MemoCheck: {
      const int8_t M = F.Memo[I.A];
      if (M >= 0) {
        ++F.Stats.MemoHits;
        St[SP++] = static_cast<uint8_t>(M);
        Ip = I.B;
      } else {
        ++Ip;
      }
      break;
    }
    case PredInstr::Op::MemoStore:
      F.Memo[I.A] = static_cast<int8_t>(St[SP - 1]);
      ++Ip;
      break;
    case PredInstr::Op::CallSub:
      RetSt[RSP++] = Ip + 1;
      Ip = I.A;
      break;
    case PredInstr::Op::Ret:
      Ip = RetSt[--RSP];
      break;
    }
  }
  assert(SP == 1 && "predicate code must leave one value");
  return St[SP - 1];
}

//===----------------------------------------------------------------------===//
// Block-vectorized tier
//===----------------------------------------------------------------------===//

void CompiledPred::runBodyBlock(uint32_t IpBegin, uint32_t IpEnd,
                                uint32_t VarSlot, int64_t VarBase,
                                unsigned Cnt, Frame &F, uint8_t *Out) const {
  constexpr unsigned W = PredBlockWidth;
  assert(Cnt >= 1 && Cnt <= W && "block width out of range");
  uint8_t *St = F.BTri.data();
  size_t SP = 0;
  uint32_t *RetSt = F.BRet.data();
  size_t RSP = 0;
  const PredInstr *Code = PCode.data();
  uint32_t Ip = IpBegin;
  while (Ip != IpEnd) {
    const PredInstr &I = Code[Ip];
    switch (I.Opcode) {
    case PredInstr::Op::PushBool: {
      uint8_t *R = St + SP++ * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = I.Aux;
      ++Ip;
      break;
    }
    case PredInstr::Op::LeafCmp: {
      int64_t Vals[W];
      const uint32_t FailM = runExprCodeBlock(
          XCode.data(), I.A, I.B, F.ScalarVals.data(), F.ScalarBound.data(),
          F.Arrays.data(), VarSlot, VarBase, Cnt, F.BXStack.data(), Vals);
      uint8_t *R = St + SP++ * W;
      switch (static_cast<CmpRel>(I.Aux)) {
      case CmpRel::GE0:
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = Vals[L] >= 0 ? TriTrue : TriFalse;
        break;
      case CmpRel::EQ0:
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = Vals[L] == 0 ? TriTrue : TriFalse;
        break;
      case CmpRel::NE0:
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = Vals[L] != 0 ? TriTrue : TriFalse;
        break;
      }
      if (FailM) {
        // Poisoned lanes degrade — individually — to the scalar path's
        // conservative-unknown result.
        for (unsigned L = 0; L < Cnt; ++L)
          if (FailM & (1u << L))
            R[L] = TriUnknown;
        const unsigned Poisoned =
            static_cast<unsigned>(__builtin_popcount(FailM));
        F.Stats.LanesPoisoned += Poisoned;
        F.Stats.LeafEvals += Cnt - Poisoned;
      } else {
        F.Stats.LeafEvals += Cnt;
      }
      ++Ip;
      break;
    }
    case PredInstr::Op::LeafDivides: {
      int64_t DV[W], VV[W];
      const uint32_t FailM =
          runExprCodeBlock(XCode.data(), I.A, I.B, F.ScalarVals.data(),
                           F.ScalarBound.data(), F.Arrays.data(), VarSlot,
                           VarBase, Cnt, F.BXStack.data(), DV) |
          runExprCodeBlock(XCode.data(), I.C, I.D, F.ScalarVals.data(),
                           F.ScalarBound.data(), F.Arrays.data(), VarSlot,
                           VarBase, Cnt, F.BXStack.data(), VV);
      uint8_t *R = St + SP++ * W;
      const bool Neg = I.Aux != 0;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = dividesHolds(DV[L], VV[L], Neg) ? TriTrue : TriFalse;
      if (FailM) {
        for (unsigned L = 0; L < Cnt; ++L)
          if (FailM & (1u << L))
            R[L] = TriUnknown;
        const unsigned Poisoned =
            static_cast<unsigned>(__builtin_popcount(FailM));
        F.Stats.LanesPoisoned += Poisoned;
        F.Stats.LeafEvals += Cnt - Poisoned;
      } else {
        F.Stats.LeafEvals += Cnt;
      }
      ++Ip;
      break;
    }
    case PredInstr::Op::AndStep: {
      // No short-circuit jump: every child is folded per lane. Sound
      // because the tri-state conjunction is dominance-monotone (false
      // absorbs; unknown over true) and child evaluation is side-effect
      // free, so evaluating children a scalar run would have skipped
      // cannot change any lane's result. Branchless: with F=0, T=1, U=2,
      // and(a,b) = min(a*b, 2) — 0 absorbs through the product, T*T=1,
      // and any unknown makes the product 2 or 4.
      const uint8_t *C = St + --SP * W;
      uint8_t *Acc = St + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L) {
        const uint8_t P = static_cast<uint8_t>(Acc[L] * C[L]);
        Acc[L] = P > TriUnknown ? TriUnknown : P;
      }
      ++Ip;
      break;
    }
    case PredInstr::Op::OrStep: {
      // Branchless dual: true absorbs, else max picks unknown over false.
      const uint8_t *C = St + --SP * W;
      uint8_t *Acc = St + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L) {
        const bool AnyTrue = Acc[L] == TriTrue || C[L] == TriTrue;
        const uint8_t Mx = Acc[L] > C[L] ? Acc[L] : C[L];
        Acc[L] = AnyTrue ? TriTrue : Mx;
      }
      ++Ip;
      break;
    }
    case PredInstr::Op::MemoCheck: {
      int8_t M = F.Memo[I.A];
      if (M < 0) {
        // First block to get here: the region is invariant in every
        // enclosing loop variable (it never reads VarSlot), so one scalar
        // run — which also executes the MemoStore — serves every lane.
        // It runs on the scalar stacks (PStack/LoopStack/RetStack), which
        // the block walker does not touch.
        M = static_cast<int8_t>(run(Ip + 1, I.B, F));
        assert(F.Memo[I.A] == M && "memo region must store its result");
        // Lanes past the first are served from the fresh memo entry —
        // count them as hits, matching the scalar path's per-iteration
        // accounting.
        F.Stats.MemoHits += Cnt - 1;
      } else {
        F.Stats.MemoHits += Cnt;
      }
      uint8_t *R = St + SP++ * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = static_cast<uint8_t>(M);
      Ip = I.B;
      break;
    }
    case PredInstr::Op::MemoStore:
      // Unreachable: MemoCheck always jumps past its region in block mode
      // (the scalar run above executes the store).
      assert(false && "MemoStore reached by block walker");
      ++Ip;
      break;
    case PredInstr::Op::CallSub:
      RetSt[RSP++] = Ip + 1;
      Ip = I.A;
      break;
    case PredInstr::Op::Ret:
      Ip = RetSt[--RSP];
      break;
    case PredInstr::Op::LoopBegin:
    case PredInstr::Op::LoopStep:
      halo_unreachable("loop opcode in block-compatible range");
    }
  }
  assert(SP == 1 && "predicate code must leave one value");
  for (unsigned L = 0; L < Cnt; ++L)
    Out[L] = St[L];
}

/// Index of the first non-true lane in iteration order, or \p Cnt when
/// every lane is true. The all-true case — the steady state of a passing
/// sweep — is two quadword compares instead of sixteen byte branches;
/// only a block that actually decides pays the byte scan.
static unsigned firstNonTrueLane(const uint8_t *Out, unsigned Cnt) {
  static_assert(TriTrue == 1, "quadword all-true pattern assumes TriTrue==1");
  constexpr uint64_t AllTrueQ = 0x0101010101010101ULL;
  unsigned L = 0;
  for (; L + 8 <= Cnt; L += 8) {
    uint64_t Q;
    std::memcpy(&Q, Out + L, 8);
    if (Q != AllTrueQ)
      break;
  }
  for (; L < Cnt; ++L)
    if (Out[L] != TriTrue)
      return L;
  return Cnt;
}

uint8_t CompiledPred::runRootBlocked(Frame &F, int64_t Lo, int64_t Hi) const {
  const CompiledLoop &L = Loops[static_cast<size_t>(RootLoop)];
  uint8_t Out[PredBlockWidth];
  // The walker feeds lane values straight into the leaf evaluations, so
  // the loop variable's frame slot is never written (nothing to restore).
  for (int64_t Base = Lo;; Base += PredBlockWidth) {
    const unsigned Cnt = static_cast<unsigned>(
        std::min<int64_t>(PredBlockWidth, Hi - Base + 1));
    F.Stats.LoopIters += Cnt;
    runBodyBlock(L.BodyBegin, L.StepIp, L.VarSlot, Base, Cnt, F, Out);
    // Lane-mask early exit: the first non-true lane in iteration order
    // decides, exactly like the scalar loop's early exit (including
    // whether false or unknown is reported).
    const unsigned Lane = firstNonTrueLane(Out, Cnt);
    if (Lane < Cnt)
      return Out[Lane];
    if (Base + static_cast<int64_t>(Cnt) > Hi)
      return TriTrue;
  }
}

/// Reusable per-thread frame: bindFrame() resizes with assign()/resize(),
/// so after warm-up repeated evaluations allocate nothing. Safe because
/// eval()/evalParallel() never re-enter on the same thread (the parallel
/// workers copy the bound frame into their own locals).
CompiledPred::Frame &CompiledPred::scratchFrame() {
  thread_local Frame F;
  return F;
}

std::optional<bool> CompiledPred::runMainOnFrame(Frame &F, EvalStats *Stats,
                                                 BlockEval Block) const {
  uint8_t R = 0;
  bool Blocked = false;
  if (Block != BlockEval::Off && RootLoop >= 0 && BlockOk) {
    // Root-loop block sweep: evaluate the bounds here (the scalar path
    // does it inside LoopBegin) and hand the range to the block walker.
    // Unknown bounds fall through to the scalar path, which recomputes
    // them and pushes the conservative result.
    const CompiledLoop &L = Loops[static_cast<size_t>(RootLoop)];
    auto Lo = evalExpr(L.LoExprBegin, L.LoExprEnd, F);
    auto Hi = evalExpr(L.HiExprBegin, L.HiExprEnd, F);
    if (Lo && Hi &&
        (Block == BlockEval::Force || autoBlocks(*Hi - *Lo + 1))) {
      Blocked = true;
      ++F.Stats.BlockEvals;
      R = *Lo > *Hi ? TriTrue : runRootBlocked(F, *Lo, *Hi);
    }
  }
  if (!Blocked) {
    ++F.Stats.ScalarEvals;
    R = run(0, MainCodeEnd, F);
  }
  F.Stats.CompiledEvals = 1;
  if (Stats)
    *Stats += F.Stats;
  if (R == TriUnknown)
    return std::nullopt;
  return R == TriTrue;
}

std::optional<bool> CompiledPred::eval(const sym::Bindings &B,
                                       EvalStats *Stats,
                                       BlockEval Block) const {
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  return runMainOnFrame(F, Stats, Block);
}

std::optional<bool>
CompiledPred::evalWithSlots(const sym::Bindings &B,
                            const std::pair<uint32_t, int64_t> *Overrides,
                            size_t N, EvalStats *Stats) const {
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  for (size_t I = 0; I < N; ++I) {
    F.ScalarVals[Overrides[I].first] = Overrides[I].second;
    F.ScalarBound[Overrides[I].first] = 1;
  }
  // Scalar tier always: single-point gate probes have no root loop to
  // sweep (the block counterpart is evalTriBlock).
  return runMainOnFrame(F, Stats, BlockEval::Off);
}

void CompiledPred::evalTriBlock(const sym::Bindings &B,
                                const std::pair<uint32_t, int64_t> *Overrides,
                                size_t N, uint32_t VarSlot, int64_t VarBase,
                                unsigned Cnt, uint8_t *OutTri,
                                EvalStats *Stats) const {
  assert(MainBlockOk && "evalTriBlock requires a loop-free main range");
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  for (size_t I = 0; I < N; ++I) {
    F.ScalarVals[Overrides[I].first] = Overrides[I].second;
    F.ScalarBound[Overrides[I].first] = 1;
  }
  runBodyBlock(0, MainCodeEnd, VarSlot, VarBase, Cnt, F, OutTri);
  F.Stats.CompiledEvals = 1;
  ++F.Stats.BlockEvals;
  if (Stats)
    *Stats += F.Stats;
}

//===----------------------------------------------------------------------===//
// Pooled frames (analyze-once / execute-many)
//===----------------------------------------------------------------------===//

CompiledPred::PooledFrame::PooledFrame() = default;
CompiledPred::PooledFrame::~PooledFrame() = default;
CompiledPred::PooledFrame::PooledFrame(PooledFrame &&) noexcept = default;
CompiledPred::PooledFrame &
CompiledPred::PooledFrame::operator=(PooledFrame &&) noexcept = default;

bool CompiledPred::bindPooled(PooledFrame &PF, const sym::Bindings &B) const {
  if (!PF.Main)
    PF.Main = std::make_unique<Frame>();
  const sym::BindingsStamp S = B.stamp();
  // Stamp equality guarantees B is the same live object, unmutated since
  // the frame was bound: the scalar values, array pointers and memo
  // entries in the frame are all still exact.
  if (PF.BoundTo == this && PF.Stamp == S)
    return true;
  bindFrame(*PF.Main, B);
  PF.BoundTo = this;
  PF.Stamp = S;
  PF.WorkersValid = false;
  return false;
}

std::optional<bool> CompiledPred::evalPooled(PooledFrame &PF,
                                             const sym::Bindings &B,
                                             EvalStats *Stats,
                                             BlockEval Block) const {
  const bool Reused = bindPooled(PF, B);
  Frame &F = *PF.Main;
  F.Stats = EvalStats();
  if (Reused)
    F.Stats.FrameRebindsSkipped = 1;
  else
    F.Stats.FrameBinds = 1;
  return runMainOnFrame(F, Stats, Block);
}

std::optional<bool>
CompiledPred::evalParallelPooled(PooledFrame &PF, const sym::Bindings &B,
                                 ThreadPool &Pool, EvalStats *Stats,
                                 int64_t MinParallelIters,
                                 const support::CancelToken *Cancel,
                                 BlockEval Block) const {
  if (RootLoop < 0 || Pool.numThreads() <= 1)
    return evalPooled(PF, B, Stats, Block);
  const bool Reused = bindPooled(PF, B);
  Frame &F = *PF.Main;
  F.Stats = EvalStats();
  if (Reused)
    F.Stats.FrameRebindsSkipped = 1;
  else
    F.Stats.FrameBinds = 1;
  return evalParallelImpl(F, &PF, Pool, Stats, MinParallelIters, Cancel,
                          Block);
}

std::optional<bool> CompiledPred::evalParallelImpl(
    Frame &F, PooledFrame *PF, ThreadPool &Pool, EvalStats *Stats,
    int64_t MinParallelIters, const support::CancelToken *Cancel,
    BlockEval Block) const {
  const CompiledLoop &L = Loops[static_cast<size_t>(RootLoop)];
  auto Lo = evalExpr(L.LoExprBegin, L.LoExprEnd, F);
  auto Hi = evalExpr(L.HiExprBegin, L.HiExprEnd, F);
  if (!Lo || !Hi) {
    if (Stats) {
      F.Stats.CompiledEvals = 1;
      F.Stats.ScalarEvals = 1;
      *Stats += F.Stats;
    }
    return std::nullopt;
  }
  if (*Lo > *Hi) {
    if (Stats) {
      F.Stats.CompiledEvals = 1;
      F.Stats.ScalarEvals = 1;
      *Stats += F.Stats;
    }
    return true;
  }
  const unsigned NT = Pool.numThreads();
  if (support::stopRequested(Cancel))
    return std::nullopt; // Cancelled: no answer, not "false".
  if (*Hi - *Lo + 1 < MinParallelIters * static_cast<int64_t>(NT))
    return runMainOnFrame(F, Stats, Block);
  const bool UseBlock =
      Block != BlockEval::Off && BlockOk &&
      (Block == BlockEval::Force || autoBlocks(*Hi - *Lo + 1));

  // Pooled worker frames are copy-assigned from the bound main frame on
  // (re)bind so their buffers keep capacity, and simply reused when the
  // stamp is unchanged — worker-local mutations (the root loop variable
  // slot, warm memo entries) stay valid under the same bindings.
  if (PF) {
    if (PF->Workers.size() < NT) {
      PF->Workers.resize(NT);
      PF->WorkersValid = false;
    }
    if (!PF->WorkersValid || PF->WorkersBoundFor < NT) {
      for (unsigned W = 0; W < NT; ++W)
        PF->Workers[W] = F;
      PF->WorkersBoundFor = NT;
      PF->WorkersValid = true;
    }
  }

  // Exact first-failure frontier: a worker may stop as soon as its current
  // iteration lies beyond the earliest known non-true iteration; every
  // iteration before the final frontier is therefore fully evaluated, so
  // the merged result (outcome at the minimal recorded iteration) is
  // identical to the sequential early-exit semantics of tryEvalPred,
  // including which of false/unknown decides.
  std::atomic<int64_t> FirstBad{INT64_MAX};
  std::vector<uint8_t> Outcome(NT, TriTrue);
  std::vector<int64_t> BadAt(NT, INT64_MAX);
  std::vector<EvalStats> WorkerStats(NT);

  Pool.parallelAllOf(
      *Lo, *Hi + 1,
      [&](int64_t BLo, int64_t BHi, unsigned W, std::atomic<bool> &) -> bool {
        Frame ScratchW; // Private slots + memo per worker (scratch mode).
        if (!PF)
          ScratchW = F;
        Frame &FW = PF ? PF->Workers[W] : ScratchW;
        FW.Stats = EvalStats();
        bool Ok = true;
        if (UseBlock) {
          // Block sweep inside the chunk. The frontier check moves to
          // block granularity, which stays exact: the frontier only
          // decreases, so every iteration below the final frontier lies
          // in a block whose base passed the check and was fully
          // evaluated; lanes past a failing lane are evaluated and
          // discarded (side-effect free). Chunk boundaries — the
          // CancelToken check points — are unchanged.
          uint8_t OutT[PredBlockWidth];
          for (int64_t Base = BLo; Base < BHi && Ok;
               Base += PredBlockWidth) {
            if (Base > FirstBad.load(std::memory_order_relaxed))
              break;
            const unsigned Cnt = static_cast<unsigned>(
                std::min<int64_t>(PredBlockWidth, BHi - Base));
            FW.Stats.LoopIters += Cnt;
            runBodyBlock(L.BodyBegin, L.StepIp, L.VarSlot, Base, Cnt, FW,
                         OutT);
            const unsigned Lane = firstNonTrueLane(OutT, Cnt);
            if (Lane < Cnt) {
              const int64_t I = Base + static_cast<int64_t>(Lane);
              Outcome[W] = OutT[Lane];
              BadAt[W] = I;
              int64_t Cur = FirstBad.load(std::memory_order_relaxed);
              while (I < Cur && !FirstBad.compare_exchange_weak(
                                    Cur, I, std::memory_order_relaxed)) {
              }
              Ok = false;
            }
          }
        } else {
          for (int64_t I = BLo; I < BHi; ++I) {
            if (I > FirstBad.load(std::memory_order_relaxed))
              break;
            FW.ScalarVals[L.VarSlot] = I;
            FW.ScalarBound[L.VarSlot] = 1;
            ++FW.Stats.LoopIters;
            uint8_t R = run(L.BodyBegin, L.StepIp, FW);
            if (R != TriTrue) {
              Outcome[W] = R;
              BadAt[W] = I;
              int64_t Cur = FirstBad.load(std::memory_order_relaxed);
              while (I < Cur && !FirstBad.compare_exchange_weak(
                                    Cur, I, std::memory_order_relaxed)) {
              }
              Ok = false;
              break;
            }
          }
        }
        WorkerStats[W] = FW.Stats;
        return Ok;
      },
      Cancel);

  EvalStats Agg;
  for (unsigned W = 0; W < NT; ++W)
    Agg += WorkerStats[W];
  Agg.CompiledEvals = 1;
  if (UseBlock)
    Agg.BlockEvals = 1;
  else
    Agg.ScalarEvals = 1;
  Agg.FrameBinds = F.Stats.FrameBinds;
  Agg.FrameRebindsSkipped = F.Stats.FrameRebindsSkipped;
  if (Stats)
    *Stats += Agg;

  // A fired token may have suppressed blocks entirely, so Outcome/BadAt
  // no longer describe the true first-failure frontier: discard them.
  // (Counted stats above only describe the work actually done.)
  if (support::stopRequested(Cancel))
    return std::nullopt;

  int64_t Best = INT64_MAX;
  uint8_t R = TriTrue;
  for (unsigned W = 0; W < NT; ++W)
    if (BadAt[W] < Best) {
      Best = BadAt[W];
      R = Outcome[W];
    }
  if (R == TriUnknown)
    return std::nullopt;
  return R == TriTrue;
}

std::optional<bool>
CompiledPred::evalParallel(const sym::Bindings &B, ThreadPool &Pool,
                           EvalStats *Stats, int64_t MinParallelIters,
                           const support::CancelToken *Cancel,
                           BlockEval Block) const {
  if (RootLoop < 0 || Pool.numThreads() <= 1)
    return eval(B, Stats, Block);
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  return evalParallelImpl(F, nullptr, Pool, Stats, MinParallelIters, Cancel,
                          Block);
}
