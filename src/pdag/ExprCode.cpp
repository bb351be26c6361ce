//===- pdag/ExprCode.cpp - Shared expression bytecode ---------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/ExprCode.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace halo;
using namespace halo::pdag;

namespace {

int64_t floorDivInt(int64_t A, int64_t D) {
  int64_t Q = A / D;
  if ((A % D) != 0 && A < 0)
    --Q;
  return Q;
}

/// Net stack effect of one opcode (every op's effect is static, which is
/// what makes the exact-depth precompute possible).
int stackDelta(ExprInstr::Op Op) {
  switch (Op) {
  case ExprInstr::Op::Const:
  case ExprInstr::Op::Scalar:
  case ExprInstr::Op::ArrayLoadOff:
    return 1;
  case ExprInstr::Op::ArrayLoad:
  case ExprInstr::Op::FloorDiv:
  case ExprInstr::Op::Mod:
  case ExprInstr::Op::MulConst:
  case ExprInstr::Op::AddConst:
    return 0;
  case ExprInstr::Op::Min:
  case ExprInstr::Op::Max:
  case ExprInstr::Op::Mul:
  case ExprInstr::Op::MulConstAdd:
    return -1;
  }
  halo_unreachable("covered switch");
}

} // namespace

/// The slot of \p S in \p Slots, appending it on first use.
static uint32_t slotOf(sym::SymbolId S, support::IdMap<uint32_t> &SlotFor,
                       std::vector<sym::SymbolId> &Slots) {
  auto [Slot, New] =
      SlotFor.insert(S, static_cast<uint32_t>(Slots.size()));
  if (New)
    Slots.push_back(S);
  return *Slot;
}

uint32_t ExprCodeBuilder::scalarSlot(sym::SymbolId S) {
  return slotOf(S, ScalarSlotFor, ScalarSlots);
}

uint32_t ExprCodeBuilder::arraySlot(sym::SymbolId S) {
  return slotOf(S, ArraySlotFor, ArraySlots);
}

void ExprCodeBuilder::emit(ExprInstr::Op Op, uint32_t Slot, int64_t Imm) {
  Code.push_back(ExprInstr{Op, Slot, Imm});
  Depth = static_cast<uint32_t>(static_cast<int>(Depth) + stackDelta(Op));
  MaxDepth = std::max(MaxDepth, Depth);
}

/// Matches an index of the form `scalar + c` (or a bare scalar); these are
/// the A(i) / A(i+1) subscripts that dominate LoopAll bodies and are worth
/// a fused load instruction.
bool ExprCodeBuilder::matchAffineIndex(const sym::Expr *E, sym::SymbolId &S,
                                       int64_t &Off) const {
  if (const auto *R = dyn_cast<sym::SymRefExpr>(E)) {
    S = R->getSymbol();
    Off = 0;
    return true;
  }
  const auto *A = dyn_cast<sym::AddExpr>(E);
  if (!A || A->getTerms().size() != 1)
    return false;
  const sym::Monomial &M = A->getTerms().front();
  const auto *R = dyn_cast<sym::SymRefExpr>(M.Prod);
  if (!R || M.Coeff != 1)
    return false;
  S = R->getSymbol();
  Off = A->getConstant();
  return true;
}

/// Emits \p E onto the expression code stream (one pushed value).
void ExprCodeBuilder::emitExpr(const sym::Expr *E) {
  using sym::ExprKind;
  // Fold any constant subexpression (canonicalization makes most of these
  // IntConst already; this catches interned constants reached through
  // Min/Max/Div/Mod wrappers too).
  if (auto C = Ctx.constValue(E)) {
    emit(ExprInstr::Op::Const, 0, *C);
    return;
  }
  switch (E->getKind()) {
  case ExprKind::IntConst:
    emit(ExprInstr::Op::Const, 0, cast<sym::IntConstExpr>(E)->getValue());
    return;
  case ExprKind::SymRef:
    emit(ExprInstr::Op::Scalar,
         scalarSlot(cast<sym::SymRefExpr>(E)->getSymbol()));
    return;
  case ExprKind::ArrayRef: {
    const auto *R = cast<sym::ArrayRefExpr>(E);
    sym::SymbolId IdxSym;
    int64_t Off;
    if (matchAffineIndex(R->getIndex(), IdxSym, Off) &&
        Off >= std::numeric_limits<int32_t>::min() &&
        Off <= std::numeric_limits<int32_t>::max()) {
      emit(ExprInstr::Op::ArrayLoadOff, arraySlot(R->getArray()),
           ExprInstr::packLoadOff(scalarSlot(IdxSym),
                                  static_cast<int32_t>(Off)));
      return;
    }
    emitExpr(R->getIndex());
    emit(ExprInstr::Op::ArrayLoad, arraySlot(R->getArray()));
    return;
  }
  case ExprKind::Min:
  case ExprKind::Max: {
    const auto *M = cast<sym::MinMaxExpr>(E);
    emitExpr(M->getLHS());
    emitExpr(M->getRHS());
    emit(M->isMin() ? ExprInstr::Op::Min : ExprInstr::Op::Max);
    return;
  }
  case ExprKind::FloorDiv:
  case ExprKind::Mod: {
    const auto *D = cast<sym::DivModExpr>(E);
    emitExpr(D->getOperand());
    emit(D->isDiv() ? ExprInstr::Op::FloorDiv : ExprInstr::Op::Mod, 0,
         D->getDivisor());
    return;
  }
  case ExprKind::Mul: {
    const auto &Factors = cast<sym::MulExpr>(E)->getFactors();
    emitExpr(Factors.front());
    for (size_t I = 1; I < Factors.size(); ++I) {
      emitExpr(Factors[I]);
      emit(ExprInstr::Op::Mul);
    }
    return;
  }
  case ExprKind::Add: {
    // Accumulate in-place, starting from a unit-coefficient term when one
    // exists so the common difference shape `a - b` lowers to
    // [a][b][MulConstAdd -1] with no constant seed. Reordering is safe:
    // operands are side-effect free and any failing operand fails the
    // whole expression regardless of order.
    const auto *A = cast<sym::AddExpr>(E);
    const std::vector<sym::Monomial> &Terms = A->getTerms();
    size_t Lead = 0;
    for (size_t I = 0; I < Terms.size(); ++I)
      if (Terms[I].Coeff == 1) {
        Lead = I;
        break;
      }
    // Term K of the emission order: the lead and the first term trade
    // places, the rest keep theirs.
    auto TermAt = [&](size_t K) -> const sym::Monomial & {
      return Terms[K == 0 ? Lead : K == Lead ? 0 : K];
    };
    emitExpr(TermAt(0).Prod);
    if (TermAt(0).Coeff != 1)
      emit(ExprInstr::Op::MulConst, 0, TermAt(0).Coeff);
    for (size_t K = 1; K < Terms.size(); ++K) {
      emitExpr(TermAt(K).Prod);
      emit(ExprInstr::Op::MulConstAdd, 0, TermAt(K).Coeff);
    }
    if (A->getConstant() != 0)
      emit(ExprInstr::Op::AddConst, 0, A->getConstant());
    return;
  }
  }
  halo_unreachable("covered switch");
}

std::pair<uint32_t, uint32_t> ExprCodeBuilder::compile(const sym::Expr *E) {
  uint32_t Begin = static_cast<uint32_t>(Code.size());
  Depth = 0; // each range starts from an empty stack
  // Resource guards: the depth check reads the depth stored on the node
  // *before* the recursive emitter runs (an in-recursion cap would
  // overflow the C++ stack first on hostile nesting), and the code ceiling
  // bounds total emitted bytecode.
  // A tripped guard emits one balanced dummy constant so every caller's
  // range bookkeeping stays well-formed; the owning compiler checks
  // exceeded() and discards the whole object.
  if (E->nestDepth() > LoweringMaxNestDepth ||
      Code.size() >= LoweringMaxCodeLen) {
    Exceeded = true;
    emit(ExprInstr::Op::Const, 0, 0);
    return {Begin, static_cast<uint32_t>(Code.size())};
  }
  emitExpr(E);
  if (Code.size() > LoweringMaxCodeLen)
    Exceeded = true;
  assert(Depth == 1 && "expression range must leave exactly one value");
  return {Begin, static_cast<uint32_t>(Code.size())};
}

uint32_t pdag::exprCodeMaxDepth(const ExprInstr *Code, uint32_t Begin,
                                uint32_t End) {
  int Depth = 0, Max = 0;
  for (uint32_t Ip = Begin; Ip != End; ++Ip) {
    Depth += stackDelta(Code[Ip].Opcode);
    Max = std::max(Max, Depth);
  }
  assert(Depth == 1 && "expression range must leave exactly one value");
  return static_cast<uint32_t>(Max);
}

std::optional<int64_t>
pdag::runExprCode(const ExprInstr *Code, uint32_t Begin, uint32_t End,
                  const int64_t *Scalars, const uint8_t *Bound,
                  const sym::ArrayBinding *const *Arrays, int64_t *Stack) {
  int64_t *S = Stack;
  size_t SP = 0;
  for (uint32_t Ip = Begin; Ip != End; ++Ip) {
    const ExprInstr &I = Code[Ip];
    switch (I.Opcode) {
    case ExprInstr::Op::Const:
      S[SP++] = I.Imm;
      break;
    case ExprInstr::Op::Scalar:
      if (!Bound[I.Slot])
        return std::nullopt;
      S[SP++] = Scalars[I.Slot];
      break;
    case ExprInstr::Op::ArrayLoad: {
      const sym::ArrayBinding *A = Arrays[I.Slot];
      const int64_t Idx = S[SP - 1];
      if (!A || !A->inBounds(Idx))
        return std::nullopt;
      S[SP - 1] = A->at(Idx);
      break;
    }
    case ExprInstr::Op::ArrayLoadOff: {
      const sym::ArrayBinding *A = Arrays[I.Slot];
      const uint32_t IdxSlot = I.loadOffIdxSlot();
      if (!Bound[IdxSlot])
        return std::nullopt;
      const int64_t Idx = Scalars[IdxSlot] + I.loadOffDelta();
      if (!A || !A->inBounds(Idx))
        return std::nullopt;
      S[SP++] = A->at(Idx);
      break;
    }
    case ExprInstr::Op::Min: {
      const int64_t R = S[--SP];
      S[SP - 1] = std::min(S[SP - 1], R);
      break;
    }
    case ExprInstr::Op::Max: {
      const int64_t R = S[--SP];
      S[SP - 1] = std::max(S[SP - 1], R);
      break;
    }
    case ExprInstr::Op::FloorDiv:
      S[SP - 1] = floorDivInt(S[SP - 1], I.Imm);
      break;
    case ExprInstr::Op::Mod: {
      const int64_t V = S[SP - 1];
      S[SP - 1] = V - floorDivInt(V, I.Imm) * I.Imm;
      break;
    }
    case ExprInstr::Op::Mul: {
      const int64_t R = S[--SP];
      S[SP - 1] *= R;
      break;
    }
    case ExprInstr::Op::MulConst:
      S[SP - 1] *= I.Imm;
      break;
    case ExprInstr::Op::AddConst:
      S[SP - 1] += I.Imm;
      break;
    case ExprInstr::Op::MulConstAdd: {
      const int64_t V = S[--SP];
      S[SP - 1] += I.Imm * V;
      break;
    }
    }
  }
  assert(SP == 1 && "expression code must leave one value");
  return S[0];
}

uint32_t pdag::runExprCodeBlock(const ExprInstr *Code, uint32_t Begin,
                                uint32_t End, const int64_t *Scalars,
                                const uint8_t *Bound,
                                const sym::ArrayBinding *const *Arrays,
                                uint32_t VarSlot, int64_t VarBase,
                                unsigned Cnt, int64_t *LaneStack,
                                int64_t *Out) {
  constexpr unsigned W = ExprBlockWidth;
  assert(Cnt >= 1 && Cnt <= W && "block width out of range");
  const uint32_t AllFail =
      Cnt >= 32 ? ~0u : ((1u << Cnt) - 1u); // Cnt <= W == 16 in practice
  int64_t *S = LaneStack;
  size_t SP = 0;
  uint32_t Fail = 0;
  for (uint32_t Ip = Begin; Ip != End; ++Ip) {
    const ExprInstr &I = Code[Ip];
    switch (I.Opcode) {
    case ExprInstr::Op::Const: {
      int64_t *R = S + SP++ * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = I.Imm;
      break;
    }
    case ExprInstr::Op::Scalar: {
      int64_t *R = S + SP++ * W;
      if (I.Slot == VarSlot) {
        // The loop variable: each lane gets its own consecutive value.
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = VarBase + static_cast<int64_t>(L);
      } else if (!Bound[I.Slot]) {
        // Uniform unbound scalar poisons every lane identically.
        goto AllLanesPoisoned;
      } else {
        const int64_t V = Scalars[I.Slot];
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = V;
      }
      break;
    }
    case ExprInstr::Op::ArrayLoad: {
      // General pop-index form: per-lane bounds checks. Failed lanes are
      // forced to 0 so downstream arithmetic never sees garbage.
      const sym::ArrayBinding *A = Arrays[I.Slot];
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L) {
        const uint32_t Bit = 1u << L;
        if ((Fail & Bit) || !A || !A->inBounds(R[L])) {
          Fail |= Bit;
          R[L] = 0;
        } else {
          R[L] = A->at(R[L]);
        }
      }
      if (Fail == AllFail)
        goto AllLanesPoisoned;
      break;
    }
    case ExprInstr::Op::ArrayLoadOff: {
      const sym::ArrayBinding *A = Arrays[I.Slot];
      const uint32_t IdxSlot = I.loadOffIdxSlot();
      const int64_t Off = I.loadOffDelta();
      int64_t *R = S + SP++ * W;
      if (IdxSlot == VarSlot) {
        // Consecutive indices VarBase+Off .. VarBase+Off+Cnt-1: one range
        // precheck covers the whole block, and the loads are contiguous.
        const int64_t Base = VarBase + Off;
        if (A && A->inBounds(Base) &&
            A->inBounds(Base + static_cast<int64_t>(Cnt) - 1)) {
          const int64_t *Src = A->Vals.data() + (Base - A->Lo);
          for (unsigned L = 0; L < Cnt; ++L)
            R[L] = Src[L];
        } else {
          // Block straddles an array edge (or the array is unbound):
          // per-lane checks poison exactly the out-of-range lanes.
          for (unsigned L = 0; L < Cnt; ++L) {
            const int64_t Idx = Base + static_cast<int64_t>(L);
            if (!A || !A->inBounds(Idx)) {
              Fail |= 1u << L;
              R[L] = 0;
            } else {
              R[L] = A->at(Idx);
            }
          }
          if (Fail == AllFail)
            goto AllLanesPoisoned;
        }
      } else {
        // Loop-invariant subscript: one check, one load, broadcast.
        if (!Bound[IdxSlot])
          goto AllLanesPoisoned;
        const int64_t Idx = Scalars[IdxSlot] + Off;
        if (!A || !A->inBounds(Idx))
          goto AllLanesPoisoned;
        const int64_t V = A->at(Idx);
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] = V;
      }
      break;
    }
    case ExprInstr::Op::Min: {
      const int64_t *B2 = S + --SP * W;
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = std::min(R[L], B2[L]);
      break;
    }
    case ExprInstr::Op::Max: {
      const int64_t *B2 = S + --SP * W;
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = std::max(R[L], B2[L]);
      break;
    }
    case ExprInstr::Op::FloorDiv: {
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = floorDivInt(R[L], I.Imm);
      break;
    }
    case ExprInstr::Op::Mod: {
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] = R[L] - floorDivInt(R[L], I.Imm) * I.Imm;
      break;
    }
    case ExprInstr::Op::Mul: {
      const int64_t *B2 = S + --SP * W;
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] *= B2[L];
      break;
    }
    case ExprInstr::Op::MulConst: {
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] *= I.Imm;
      break;
    }
    case ExprInstr::Op::AddConst: {
      int64_t *R = S + (SP - 1) * W;
      for (unsigned L = 0; L < Cnt; ++L)
        R[L] += I.Imm;
      break;
    }
    case ExprInstr::Op::MulConstAdd: {
      const int64_t *B2 = S + --SP * W;
      int64_t *R = S + (SP - 1) * W;
      // +-1 coefficients (the a-b difference shape every compare lowers
      // to) skip the lane multiply: 64-bit vector multiplies are several
      // times the cost of add/sub on common SIMD ISAs.
      if (I.Imm == -1) {
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] -= B2[L];
      } else if (I.Imm == 1) {
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] += B2[L];
      } else {
        for (unsigned L = 0; L < Cnt; ++L)
          R[L] += I.Imm * B2[L];
      }
      break;
    }
    }
  }
  assert(SP == 1 && "expression code must leave one value");
  for (unsigned L = 0; L < Cnt; ++L)
    Out[L] = S[L];
  return Fail;

AllLanesPoisoned:
  // Every lane is poisoned: the results can never matter, so skip the
  // rest of the range (semantically a no-op; all lanes report fail). Only
  // the fail-setting opcodes test for this, keeping the arithmetic ops'
  // dispatch loop branch-free.
  for (unsigned L = 0; L < Cnt; ++L)
    Out[L] = 0;
  return AllFail;
}
