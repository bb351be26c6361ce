//===- rt/BodyCode.h - Compiled loop bodies ---------------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once form of a loop body: the statements of one ir::DoLoop
/// lowered to flat, slot-resolved statement code so that executing the
/// body never walks the IR, never evaluates a sym::Expr tree and never
/// probes a sym::Bindings hash table per access. It is the body engine of
/// the compiled evaluation tiers (EvalTier::Scalar / Block); the reference
/// interpreter (rt/Interp.h, interpStmt) stays the engine of
/// EvalTier::Interpreted and the demotion target.
///
/// Lowering (CompiledBody::compile, once per prepared loop):
///  - subscripts, loop bounds, CIV amounts and call actuals become sums
///    of terms (ExprForm): terms no run can change are summed once per
///    run, scalar terms are read from their slots, and any other term
///    goes through pdag::ExprCodeBuilder into one code vector with one
///    scalar-slot and one index-array-slot table;
///  - `If` conditions (True/False/Cmp/Divides/And/Or) are lowered over
///    ranges of that same code, with tryEvalPred's three-valued and/or;
///  - call sites are inlined. A formal array resolves, at every access, to
///    its actual base through a compile-time copy of the interpreter's
///    alias chain, plus the per-call offset slots of the links it crossed;
///    a formal scalar is an ordinary slot, saved and restored exactly as
///    interpStmt does (an unbound formal keeps the callee's value).
///
/// A body that trips a lowering guard (expression or predicate nesting
/// beyond pdag::LoweringMaxNestDepth, code beyond pdag::LoweringMaxCodeLen,
/// an alias chain that does not resolve, a call binding one formal array
/// twice) or whose condition holds a LoopAll or CallSite predicate is
/// *demoted*: lowered() is false and the governor runs the interpreter,
/// counting the run in ExecStats::GuardDemotions.
///
/// The code is immutable after compile() and shared by every execution;
/// all mutable state of one run lives in a BodyFrame, which a leased
/// rt::ExecContext owns (one per pool worker). A frame binds the body's
/// slots once per run: scalars and index arrays from the caller's
/// Bindings, and every data array to a route (shared Memory, a
/// worker-private view, a reduction buffer, or a speculation conflict).
/// The body code is never serialized: .hplan files carry no trace of it.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_BODYCODE_H
#define HALO_RT_BODYCODE_H

#include "ir/Program.h"
#include "pdag/ExprCode.h"
#include "rt/Interp.h"
#include "rt/Memory.h"
#include "summary/Summary.h"
#include "sym/Eval.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace halo {
namespace rt {

/// Where one data array's loads and stores go during a run: the array the
/// frame resolved once per run instead of once per access.
struct ArrayRoute {
  /// The shared Memory array (null when unallocated).
  std::vector<double> *Shared = nullptr;
  /// The worker-private view, when the governor installed one.
  PrivateArray *Priv = nullptr;
  /// The worker-private reduction buffer, when the governor installed one.
  ReductionBuffer *Red = nullptr;
};

/// The mutable state of one compiled body run (one sequential run or one
/// parallel worker block). Owned by an ExecContext, reused across runs;
/// never shared between two concurrent runs.
struct BodyFrame {
  std::vector<int64_t> Scalars;
  std::vector<uint8_t> Bound;
  /// Loop counters and bounds, saved scalars, per-call offset links.
  std::vector<int64_t> Temps;
  std::vector<const sym::ArrayBinding *> IndexArrays;
  std::vector<ArrayRoute> Routes;
  std::vector<int64_t> Stack;
  /// The speculation state of ExecState, for the compiled engine.
  bool Speculative = false;
  bool Conflict = false;
  int64_t CurrentIter = 0;
};

/// One loop body lowered to statement code (see the file comment).
class CompiledBody {
public:
  /// Lowers \p Loop. Never returns null: a body that cannot be lowered
  /// comes back with lowered() false.
  static std::unique_ptr<const CompiledBody> compile(const ir::DoLoop &Loop,
                                                     const sym::Context &Ctx);

  /// False when lowering was refused and runs must demote to the
  /// interpreter.
  bool lowered() const { return Lowered; }

  /// Runs the whole loop against \p M and \p B with interpSequential's
  /// semantics, including the scalars it leaves in \p B.
  void runSequential(BodyFrame &F, Memory &M, sym::Bindings &B) const;

  /// Runs iterations [BLo, BHi) of the loop body as one worker block of
  /// the planned runner: arrays route through \p Views, CIVs start from
  /// their CIV-COMP entry values (\p Civ), and the block stops after the
  /// iteration in which a speculative run found a conflict. \p B is only
  /// read. Returns true on a speculation conflict.
  bool runBlock(BodyFrame &F, Memory &M, const sym::Bindings &B,
                const WorkerViews &Views, const summary::CivPlan &Civ,
                int64_t BLo, int64_t BHi) const;

private:
  struct Builder;

  /// One lowered expression: an index into Forms.
  struct Range {
    uint32_t Form = 0;
  };
  /// An expression as the sum Imm + sum of Coeff * term. Terms whose
  /// symbols no run defines (everything but loop variables, CIVs and
  /// formal scalars) are *invariant*: a run sums them once, when it binds
  /// its frame, into Temps[InvTemp] (InvTemp + 1 records that every one
  /// evaluated). The rest are evaluated per use: a scalar or a product of
  /// two scalars inline, any other product through the expression code.
  struct ExprForm {
    int64_t Imm = 0;
    uint32_t InvBegin = 0, InvEnd = 0;
    uint32_t VarBegin = 0, VarEnd = 0;
    uint32_t InvTemp = 0;
  };
  /// Coeff * (scalar Slot [* scalar Slot2], or expression code
  /// [Begin, End) when Slot is NoSlot).
  struct Term {
    static constexpr uint32_t NoSlot = ~0u;
    uint32_t Slot = NoSlot, Slot2 = NoSlot;
    uint32_t Begin = 0, End = 0;
    int64_t Coeff = 1;
  };
  /// One array access: subscript, resolved base array (data slot) and the
  /// call-link offset temps to add.
  struct Access {
    Range Index;
    uint32_t Array = 0;
    uint32_t LinkBegin = 0, LinkEnd = 0;
  };
  struct AssignCode {
    uint32_t ReadBegin = 0, ReadEnd = 0;
    bool HasWrite = false;
    bool IsReduction = false;
    unsigned WorkCost = 0;
    Access Write;
  };
  struct LoopCode {
    uint32_t Var = 0;
    Range Lo, Hi;
    /// Temps: counter, upper bound, saved value, saved bound flag.
    uint32_t Temp = 0;
    uint32_t BodyPc = 0, ExitPc = 0;
  };
  struct CondNode {
    enum class Kind : uint8_t { True, False, Cmp, Divides, And, Or };
    Kind K = Kind::True;
    pdag::CmpRel Rel = pdag::CmpRel::GE0;
    bool Negated = false;
    Range A, B; ///< Cmp: A; Divides: A = divisor, B = value.
    uint32_t ChildBegin = 0, ChildEnd = 0;
  };
  struct ScalarArg {
    uint32_t Formal = 0;
    Range Actual;
    uint32_t SaveTemp = 0; ///< Saved value, saved bound flag.
  };
  struct ArrayArg {
    Range Offset;
    uint32_t LinkTemp = 0;
  };
  struct CallCode {
    uint32_t ScalarBegin = 0, ScalarEnd = 0;
    uint32_t ArrayBegin = 0, ArrayEnd = 0;
  };
  struct CivCode {
    uint32_t Civ = 0;
    Range Amount;
  };
  struct Instr {
    enum class Op : uint8_t {
      Assign,    ///< Assigns[Index]
      DoInit,    ///< Loops[Index]: bounds, save, zero-trip exit
      DoNext,    ///< Loops[Index]: advance or fall through
      DoEnd,     ///< Loops[Index]: restore a saved loop variable
      BranchIfNot, ///< jump to Target unless Conds[Index] holds
      Jump,      ///< jump to Target
      CallEnter, ///< Calls[Index]: bind formal scalars and offset links
      CallExit,  ///< Calls[Index]: restore saved formal scalars
      CivIncr,   ///< Civs[Index]
    };
    Op Opcode = Op::Jump;
    uint32_t Index = 0;
    uint32_t Target = 0;
  };

  CompiledBody() = default;

  void bind(BodyFrame &F, Memory &M, const sym::Bindings &B,
            const WorkerViews *Views) const;
  void exec(BodyFrame &F, uint32_t Begin, uint32_t End) const;
  bool tryTerm(BodyFrame &F, const Term &T, int64_t &Out) const;
  bool tryExpr(BodyFrame &F, Range R, int64_t &Out) const;
  int64_t evalExpr(BodyFrame &F, Range R) const;
  int evalCond(BodyFrame &F, uint32_t Node) const;
  int64_t offsetOf(BodyFrame &F, const Access &A) const;
  void execAssign(BodyFrame &F, const AssignCode &A) const;

  bool Lowered = false;
  std::vector<Instr> Code;
  /// The loop body's statement range inside Code (the top loop's
  /// DoInit/DoNext pair brackets it).
  uint32_t BodyBegin = 0, BodyEnd = 0;
  uint32_t LoopVar = 0;

  std::vector<pdag::ExprInstr> Expr;
  std::vector<ExprForm> Forms;
  std::vector<Term> Terms;
  std::vector<sym::SymbolId> ScalarSyms;
  std::vector<sym::SymbolId> IndexArraySyms;
  std::vector<sym::SymbolId> DataArraySyms;
  /// Scalar slots a run may define (loop variables, CIVs, formals): the
  /// ones a sequential run writes back to the caller's Bindings.
  std::vector<uint32_t> WriteBack;
  uint32_t NumTemps = 0;
  uint32_t StackDepth = 0;

  std::vector<AssignCode> Assigns;
  std::vector<Access> Accesses;
  std::vector<uint32_t> Links;
  std::vector<LoopCode> Loops;
  std::vector<CondNode> Conds;
  std::vector<uint32_t> CondChildren;
  std::vector<ScalarArg> ScalarArgs;
  std::vector<ArrayArg> ArrayArgs;
  std::vector<CallCode> Calls;
  std::vector<CivCode> Civs;
};

} // namespace rt
} // namespace halo

#endif // HALO_RT_BODYCODE_H
