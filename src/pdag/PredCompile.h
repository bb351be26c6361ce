//===- pdag/PredCompile.h - Predicate bytecode compiler --------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles an interned Pred DAG into a flat, cache-friendly bytecode and
/// evaluates it against concrete bindings. This is the compile-once /
/// run-many half of the runtime cascade machinery: the tree-walking
/// interpreter in PredEval.h re-dispatches on PredKind and re-resolves
/// every symbol through hash lookups on each LoopAll iteration, which
/// dominates the paper's RTov metric for O(N) tests. The compiled form
/// eliminates both costs:
///
///  - every scalar and index-array symbol is resolved to a dense frame
///    slot once per evaluation (loop variables are written straight into
///    their slot, never through sym::Bindings),
///  - leaf expressions are lowered to a stack-machine bytecode with
///    constant operands folded at compile time,
///  - and/or short-circuiting and LoopAll early exit become jumps over a
///    flat instruction array,
///  - sub-predicates that are invariant w.r.t. every enclosing LoopAll
///    variable are memoized in a per-evaluation table (evaluated on the
///    first iteration, served from cache afterwards),
///  - O(N) LoopAll ranges can be chunk-evaluated across a ThreadPool with
///    an atomic first-failure frontier, preserving the interpreter's
///    exact result (including the conservative-unknown cases).
///
/// Results agree with tryEvalPred on every input; the property tests in
/// tests/pred_compile_test.cpp cross-check the two evaluators on random
/// predicate programs.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_PREDCOMPILE_H
#define HALO_PDAG_PREDCOMPILE_H

#include "pdag/ExprCode.h"
#include "pdag/Pred.h"
#include "pdag/PredEval.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace halo {
namespace plan {
struct PlanCodec;
} // namespace plan
namespace pdag {

/// Lane count of the predicate block tier (one runBodyBlock dispatch
/// covers this many root-loop iterations); equal to the expression
/// bytecode's lane count by construction.
inline constexpr unsigned PredBlockWidth = ExprBlockWidth;

/// Per-evaluation selection of the block-vectorized tier.
enum class BlockEval : uint8_t {
  Off,  ///< always run the scalar bytecode tier
  Auto, ///< block tier when the compiled shape profits: block-compatible
        ///< root loop, loop-variant array accesses in the body, and a
        ///< trip count of at least 2 * PredBlockWidth
  Force ///< block tier whenever structurally possible (any trip count);
        ///< for tests that must exercise short-trip block sweeps
};

/// One predicate-bytecode instruction (operates on a tri-state stack:
/// false / true / unknown, where unknown is the conservative result of an
/// unbound symbol or out-of-bounds array read).
struct PredInstr {
  enum class Op : uint8_t {
    PushBool,    ///< push tri-state Aux (constant-folded sub-predicate)
    LeafCmp,     ///< eval expr [A,B); push (value rel 0), rel in Aux
    LeafDivides, ///< eval divisor [A,B) and value [C,D); Aux = negated
    AndStep,     ///< pop child, conjoin into top; jump A when decided false
    OrStep,      ///< pop child, disjoin into top; jump A when decided true
    LoopBegin,   ///< enter LoopAll A (see CompiledLoop)
    LoopStep,    ///< advance LoopAll A or finish it
    MemoCheck,   ///< memo slot A set: push cached value and jump B
    MemoStore,   ///< memo slot A := top of stack
    CallSub,     ///< call the shared sub-predicate at ip A (DAG sharing:
                 ///< multiply-referenced nodes compile once, keeping code
                 ///< size linear in the DAG, not the expanded tree)
    Ret,         ///< return to the calling site
  };
  Op Opcode;
  uint32_t A = 0, B = 0, C = 0, D = 0;
  uint8_t Aux = 0;
};

/// Side table entry for a LoopAll node: bound-variable slot, bound
/// expressions and the body's instruction range.
struct CompiledLoop {
  uint32_t LoExprBegin = 0, LoExprEnd = 0;
  uint32_t HiExprBegin = 0, HiExprEnd = 0;
  uint32_t VarSlot = 0;
  uint32_t BodyBegin = 0; ///< ip of the first body instruction.
  uint32_t StepIp = 0;    ///< ip of the matching LoopStep.
  uint32_t EndIp = 0;     ///< ip just past the LoopStep.
};

/// A predicate compiled to flat bytecode. Immutable after compile();
/// evaluation is const and thread-compatible (parallel evaluation copies
/// the resolved frame per worker).
class CompiledPred {
  struct Frame; // Private evaluation state, defined in PredCompile.cpp.

public:
  /// Caller-owned reusable evaluation frame — the analyze-once /
  /// execute-many entry point. The first evalPooled()/evalParallelPooled()
  /// call binds every symbol slot from the bindings; later calls against a
  /// bindings object whose stamp is unchanged skip allocation *and* symbol
  /// re-binding, and keep the invariant-sub-predicate memo table warm (its
  /// entries depend only on the bindings, so they stay valid for as long
  /// as the stamp does). A frame belongs to one CompiledPred at a time
  /// (re-binding on first use by another is automatic) and must not be
  /// used from two threads concurrently.
  class PooledFrame {
  public:
    PooledFrame();
    ~PooledFrame();
    PooledFrame(PooledFrame &&) noexcept;
    PooledFrame &operator=(PooledFrame &&) noexcept;
    PooledFrame(const PooledFrame &) = delete;
    PooledFrame &operator=(const PooledFrame &) = delete;

  private:
    friend class CompiledPred;
    std::unique_ptr<Frame> Main;
    /// Per-worker scratch copies for evalParallelPooled (copy-assigned
    /// from the bound main frame, so steady-state reuse keeps their
    /// buffer capacity).
    std::vector<Frame> Workers;
    const CompiledPred *BoundTo = nullptr;
    sym::BindingsStamp Stamp;
    unsigned WorkersBoundFor = 0; ///< Worker count the copies match.
    bool WorkersValid = false;    ///< Copies match the current Stamp.
  };

  /// Lowers \p P. \p Ctx must be the symbol context the predicate was
  /// built against (slot resolution and invariance use its symbol table).
  /// Returns null when \p P trips a lowering resource guard (nesting
  /// beyond pdag::LoweringMaxNestDepth or bytecode beyond
  /// pdag::LoweringMaxCodeLen): callers must fall back to the reference
  /// interpreter (tryEvalPred) — the governor counts such demotions in
  /// rt::ExecStats::GuardDemotions.
  static std::unique_ptr<CompiledPred> compile(const Pred *P,
                                               const sym::Context &Ctx);

  /// Evaluates against \p B on the calling thread. Same result contract
  /// as tryEvalPred: nullopt when an unbound symbol or out-of-bounds
  /// array access decides the outcome. \p Block selects the block tier
  /// for the root loop (bit-identical result either way, including which
  /// iteration decides a false/unknown outcome).
  std::optional<bool> eval(const sym::Bindings &B, EvalStats *Stats = nullptr,
                           BlockEval Block = BlockEval::Auto) const;

  /// Evaluates with the root LoopAll range chunked across \p Pool using
  /// an atomic first-failure frontier; exact same result as eval().
  /// Fan-out only pays off when every worker gets a chunk that dwarfs the
  /// dispatch cost, so ranges shorter than MinParallelIters * numThreads
  /// iterations (and non-LoopAll roots) fall back to the serial path.
  /// A fired \p Cancel token makes the evaluation bail at the next chunk
  /// boundary and return nullopt — no answer, as opposed to "false".
  std::optional<bool> evalParallel(const sym::Bindings &B, ThreadPool &Pool,
                                   EvalStats *Stats = nullptr,
                                   int64_t MinParallelIters = 4096,
                                   const support::CancelToken *Cancel = nullptr,
                                   BlockEval Block = BlockEval::Auto) const;

  /// eval() against a caller-owned pooled frame: binds the frame on first
  /// use (or whenever \p B's stamp changed since the last bind) and skips
  /// re-binding otherwise. Exact same result contract as eval().
  std::optional<bool> evalPooled(PooledFrame &PF, const sym::Bindings &B,
                                 EvalStats *Stats = nullptr,
                                 BlockEval Block = BlockEval::Auto) const;

  /// evalParallel() against a caller-owned pooled frame: the bound main
  /// frame and the per-worker copies are all reused across evaluations
  /// with an unchanged bindings stamp. Exact same result as eval().
  std::optional<bool>
  evalParallelPooled(PooledFrame &PF, const sym::Bindings &B, ThreadPool &Pool,
                     EvalStats *Stats = nullptr,
                     int64_t MinParallelIters = 4096,
                     const support::CancelToken *Cancel = nullptr,
                     BlockEval Block = BlockEval::Auto) const;

  /// eval() with scalar overrides written into the frame after binding:
  /// (slot, value) pairs over slots resolved via scalarSlotIndex(). This
  /// is how the compiled-USR engine (usr/USRCompile.h) feeds recurrence
  /// variables that live in *its* evaluation frame — not in \p B — into a
  /// gate predicate. Runs on a scratch frame: override values change per
  /// recurrence iteration, so neither the pooled bind-skip nor the
  /// invariant-sub-predicate memo (whose entries may depend on the
  /// overridden symbols) can be reused safely across calls.
  std::optional<bool>
  evalWithSlots(const sym::Bindings &B,
                const std::pair<uint32_t, int64_t> *Overrides, size_t N,
                EvalStats *Stats = nullptr) const;

  /// Block counterpart of evalWithSlots for the compiled-USR engine's gate
  /// sweeps: writes the tri-states (0 false / 1 true / 2 unknown) of this
  /// loop-free predicate for the \p Cnt (1..PredBlockWidth) consecutive
  /// values VarBase .. VarBase+Cnt-1 of scalar slot \p VarSlot into
  /// \p OutTri. The uniform \p Overrides (outer recurrence variables) are
  /// applied once; one frame bind serves the whole block, which is where
  /// the speedup over per-point evalWithSlots comes from. Each lane's
  /// tri-state is bit-identical to the scalar call at that point.
  /// Requires blockableMain().
  void evalTriBlock(const sym::Bindings &B,
                    const std::pair<uint32_t, int64_t> *Overrides, size_t N,
                    uint32_t VarSlot, int64_t VarBase, unsigned Cnt,
                    uint8_t *OutTri, EvalStats *Stats = nullptr) const;

  /// Frame slot of scalar \p S, or nullopt when the predicate never reads
  /// it (then there is nothing to override).
  std::optional<uint32_t> scalarSlotIndex(sym::SymbolId S) const {
    for (size_t I = 0; I < ScalarSlots.size(); ++I)
      if (ScalarSlots[I] == S)
        return static_cast<uint32_t>(I);
    return std::nullopt;
  }

  const Pred *source() const { return Source; }
  int loopDepth() const { return Source->loopDepth(); }
  size_t codeSize() const { return PCode.size() + XCode.size(); }
  size_t numMemoSlots() const { return NumMemoSlots; }
  /// True when evalParallel can actually fan out (root is a LoopAll).
  bool hasParallelRoot() const { return RootLoop >= 0; }
  /// True when the root LoopAll body can run the block tier: no nested
  /// loops in the body, including through CallSub-reachable subroutines
  /// (memoized loop-invariant sub-loops are fine — they are evaluated
  /// scalar once and broadcast).
  bool blockCompatible() const { return BlockOk; }
  /// True when the whole main code range is loop-free, i.e. evalTriBlock
  /// may sweep it (the shape of USR gate predicates).
  bool blockableMain() const { return MainBlockOk; }
  /// True when the root loop body reads arrays through the loop variable —
  /// the access shape the block tier's fused gathers accelerate; the Auto
  /// governor requires it.
  bool bodyHasVarArrayLoad() const { return BodyHasVarLoad; }
  /// Governor ordering key: loop depth dominates, bytecode length breaks
  /// ties (cheapest-first stage scheduling, Sec. 3.5 cascade ordering).
  uint64_t costEstimate() const {
    return (static_cast<uint64_t>(loopDepth()) << 20) +
           static_cast<uint64_t>(codeSize());
  }

private:
  CompiledPred() = default;

  /// Reusable per-thread frame (steady-state evaluations allocate
  /// nothing); never re-entered on one thread.
  static Frame &scratchFrame();
  /// Runs predicate code [IpBegin, IpEnd) on \p F; returns the tri-state
  /// left on top of the stack.
  uint8_t run(uint32_t IpBegin, uint32_t IpEnd, Frame &F) const;
  bool bindFrame(Frame &F, const sym::Bindings &B) const;
  /// Binds (or reuses) the pooled main frame for \p B; returns true when
  /// the bind was skipped because the bindings stamp is unchanged.
  bool bindPooled(PooledFrame &PF, const sym::Bindings &B) const;
  /// Runs the root code on an already-bound frame and folds F.Stats into
  /// \p Stats (the shared tail of eval/evalPooled). \p Block routes the
  /// root loop through runRootBlocked when selected.
  std::optional<bool> runMainOnFrame(Frame &F, EvalStats *Stats,
                                     BlockEval Block) const;
  /// The one copy of the chunked-parallel protocol (exact first-failure
  /// frontier) shared by evalParallel and evalParallelPooled. \p F must
  /// already be bound; workers copy it per call (scratch mode, \p PF
  /// null) or live pooled inside \p PF.
  std::optional<bool> evalParallelImpl(Frame &F, PooledFrame *PF,
                                       ThreadPool &Pool, EvalStats *Stats,
                                       int64_t MinParallelIters,
                                       const support::CancelToken *Cancel,
                                       BlockEval Block) const;
  /// Serial block sweep of the root loop over [Lo, Hi]; the first non-true
  /// lane (in iteration order) decides, exactly like the scalar loop.
  uint8_t runRootBlocked(Frame &F, int64_t Lo, int64_t Hi) const;
  /// Evaluates code [IpBegin, IpEnd) — which must contain no LoopBegin,
  /// see blockCompatible() — for the Cnt consecutive values
  /// VarBase..VarBase+Cnt-1 of scalar slot VarSlot, writing per-lane
  /// tri-states to \p Out. And/Or short-circuit jumps are disabled (every
  /// child is folded per lane, sound because the tri-state fold is
  /// dominance-monotone and evaluation is side-effect free); invariant
  /// sub-predicates still short-circuit uniformly through their memo slot.
  void runBodyBlock(uint32_t IpBegin, uint32_t IpEnd, uint32_t VarSlot,
                    int64_t VarBase, unsigned Cnt, Frame &F,
                    uint8_t *Out) const;
  /// Whether the Auto policy picks the block tier for a root sweep of
  /// \p Trip iterations.
  bool autoBlocks(int64_t Trip) const {
    return BlockOk && BodyHasVarLoad &&
           Trip >= 2 * static_cast<int64_t>(PredBlockWidth);
  }
  std::optional<int64_t> evalExpr(uint32_t Begin, uint32_t End,
                                  Frame &F) const;

  const Pred *Source = nullptr;
  std::vector<PredInstr> PCode;
  std::vector<ExprInstr> XCode;
  std::vector<CompiledLoop> Loops;
  /// Symbols backing the frame slots (index == slot).
  std::vector<sym::SymbolId> ScalarSlots;
  std::vector<sym::SymbolId> ArraySlots;
  uint32_t NumMemoSlots = 0;
  /// End of the root predicate's code; shared sub-predicate bodies follow
  /// (entered only via CallSub).
  uint32_t MainCodeEnd = 0;
  /// Number of shared sub-predicate bodies (bounds the call depth: the
  /// DAG is acyclic, so a call chain never repeats a subroutine).
  uint32_t NumSubs = 0;
  /// Index into Loops of the root LoopAll (CallSite wrappers stripped),
  /// -1 when the root is not a loop.
  int32_t RootLoop = -1;
  /// Exact peak depths of the tri-state and expression stacks, precomputed
  /// at compile time (frames are sized from these, not code length).
  uint32_t PMaxDepth = 1;
  uint32_t XMaxDepth = 0;
  /// Exact LoopAll nesting depth of the compiled code (LoopStack bound).
  uint32_t MaxLoopNest = 0;
  /// Root loop body is block-evaluable (no nested loops, incl. via subs).
  bool BlockOk = false;
  /// Whole main code range is loop-free (evalTriBlock precondition).
  bool MainBlockOk = false;
  /// Root loop body reads arrays through the loop variable.
  bool BodyHasVarLoad = false;

  friend class PredCompiler;
  /// Plan serialization encodes the compiled tables to digest them for
  /// the bytecode records of the .hplan format (src/plan/).
  friend struct halo::plan::PlanCodec;
};

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_PREDCOMPILE_H
