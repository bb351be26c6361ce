//===- usr/USRCompile.h - USR interval-run bytecode compiler ---*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a USR DAG once into flat bytecode that evaluates over *sorted
/// coalesced interval runs* instead of materialized point vectors. This is
/// the exact-runtime-test half of the compile-once / run-many machinery:
/// the reference interpreter in USREval.h enumerates every point of every
/// LMAD, re-sorts per leaf and re-walks whole recurrence prefixes per
/// iteration, which makes the paper's expensive fallback (direct
/// evaluation of the independence USR, Sec. 2.2 / Sec. 5 — HOIST-USR)
/// needlessly dear. The compiled form evaluates the same sets over runs
/// `{Lo, Lo+Stride, ..., Hi}`:
///
///  - contiguous/strided LMAD leaves emit one run per non-run dimension
///    combination in O(#runs), never calling lmad::enumerate,
///  - Union is a sort-once k-way merge of runs; Intersect/Subtract are
///    linear run sweeps (with a galloping advance for the ubiquitous
///    tiny-against-large case, and an exact pointwise fallback when
///    incompatible strides genuinely interleave),
///  - Gate reuses an already-compiled pdag::CompiledPred — shared with the
///    predicate-cascade cache when the caller provides one — feeding
///    recurrence variables straight from the evaluation frame,
///  - partial recurrences (`U_{k=lo..i-1} S(k)`) keep an incremental
///    prefix cache: advancing the enclosing iteration extends the
///    accumulated run set instead of re-evaluating the whole triangle,
///    which turns the paper's Eq. 2 equations from quadratic to
///    near-linear,
///  - an emptiness-only mode short-circuits on the first surviving run at
///    union polarity (what HoistCache::emptiness and the governor's
///    HOIST-USR fallback actually need), and large root recurrences chunk
///    their range across a ThreadPool with the same exact first-failure
///    protocol as the compiled predicates' parallelAllOf reduction.
///
/// evalUSR/evalUSREmpty remain the reference semantics; the property tests
/// in tests/usr_compile_test.cpp cross-check the two evaluators on random
/// USR programs, including failure (unbound symbol / cap) cases. See
/// src/usr/README.md for the run representation and the bytecode ops.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_USR_USRCOMPILE_H
#define HALO_USR_USRCOMPILE_H

#include "pdag/ExprCode.h"
#include "pdag/PredCompile.h"
#include "support/ThreadPool.h"
#include "usr/USR.h"
#include "usr/USREval.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace halo {
namespace plan {
struct PlanCodec;
} // namespace plan
namespace usr {

/// One interval run: the arithmetic progression {Lo, Lo+Stride, ..., Hi}.
/// Invariants: Hi >= Lo, Stride >= 1, (Hi - Lo) % Stride == 0, and
/// singletons (Lo == Hi) are canonicalized to Stride == 1. A run vector in
/// canonical form is sorted by Lo with pairwise-disjoint point sets.
struct Run {
  int64_t Lo = 0;
  int64_t Hi = 0;
  int64_t Stride = 1;

  int64_t count() const { return (Hi - Lo) / Stride + 1; }
  bool contains(int64_t P) const {
    return P >= Lo && P <= Hi && (P - Lo) % Stride == 0;
  }
  bool operator==(const Run &O) const {
    return Lo == O.Lo && Hi == O.Hi && Stride == O.Stride;
  }
};

using RunVec = std::vector<Run>;

/// Expands canonical runs to the sorted point vector they denote.
std::vector<int64_t> expandRuns(const RunVec &Runs);

/// One USR-bytecode instruction. The evaluator is structured: Recur and
/// Call bodies are instruction sub-ranges executed by recursion, so no
/// loop/return stacks exist; everything else operates on a stack of run
/// vectors.
struct USRInstr {
  enum class Op : uint8_t {
    PushEmpty,   ///< push {}
    Leaf,        ///< eval LMADs [A, B) of the LMAD table; push their runs
    UnionN,      ///< pop A vectors, push their k-way merge
    Intersect,   ///< pop rhs, lhs; push lhs ∩ rhs
    Subtract,    ///< pop rhs, lhs; push lhs \ rhs
    SkipIfEmpty, ///< top empty: jump A (lhs-empty short-circuit, keeps top)
    Gate,        ///< gate desc A: false -> push {} and jump B; unknown ->
                 ///< fail; true -> fall through into the child's code
    Recur,       ///< recur desc A: iterate the body sub-range, push the
                 ///< accumulated union (or fuse into a following
                 ///< Intersect/Subtract without copying)
    Call,        ///< shared-node desc A: run its code range (DAG sharing:
                 ///< multiply-referenced nodes compile once per polarity)
  };
  Op Opcode;
  uint32_t A = 0, B = 0;
  /// Union polarity w.r.t. the root: nonemptiness here decides the root's
  /// nonemptiness, so emptiness-mode evaluation may short-circuit.
  uint8_t Deciding = 0;
};

/// Side tables.
struct CompiledUSRDim {
  uint32_t StrideBegin = 0, StrideEnd = 0;
  uint32_t SpanBegin = 0, SpanEnd = 0;
};
struct CompiledUSRLmad {
  uint32_t OffsetBegin = 0, OffsetEnd = 0;
  uint32_t DimBegin = 0, DimEnd = 0;
};
struct CompiledUSRGate {
  const pdag::CompiledPred *Pred = nullptr;
  /// Scalar feeds (pred slot <- our slot) for recurrence variables the
  /// gate reads; the frame slot tracks exactly what sym::Bindings would
  /// contain under the interpreter (bound from B, set by recurrences,
  /// restored after), so feeding it reproduces tryEvalPred's view.
  uint32_t FeedBegin = 0, FeedEnd = 0;
  /// No recurrence variable occurs in the predicate: the tri-state result
  /// is memoized per binding in the frame and reused until re-bind.
  uint8_t Invariant = 0;
  uint32_t MemoSlot = 0;
};
struct CompiledUSRGateFeed {
  uint32_t PredSlot = 0;
  uint32_t OurSlot = 0;
};
struct CompiledUSRRecur {
  uint32_t LoBegin = 0, LoEnd = 0;
  uint32_t HiBegin = 0, HiEnd = 0;
  uint32_t VarSlot = 0;
  uint32_t BodyBegin = 0, BodyEnd = 0;
  /// Body independent of every other recurrence variable: the accumulated
  /// run set may be cached and *extended* when the bounds grow (the
  /// triangular `U_{k=lo..i-1}` prefix pattern of Eq. 2).
  uint8_t PrefixCacheable = 0;
  uint32_t CacheSlot = 0;
};
struct CompiledUSRCall {
  uint32_t Begin = 0, End = 0;
};

/// A USR compiled to flat interval-run bytecode. Immutable after
/// compile(); evaluation is const and thread-compatible (the parallel
/// emptiness evaluator copies the bound frame per worker).
class CompiledUSR {
public:
  /// Evaluation state (opaque; defined in USRCompile.cpp).
  struct Frame;

  /// Resolves gate predicates to compiled form. When the caller has a
  /// compile-once predicate cache (rt::PredCompileCache via
  /// rt::USRCompileCache), pass its lookup so gates share the cascade
  /// stages' bytecode; otherwise gates are compiled and owned here.
  using PredProvider =
      std::function<const pdag::CompiledPred *(const pdag::Pred *)>;

  /// Caller-owned reusable evaluation frame (analyze-once / execute-many):
  /// the first eval against a Bindings binds every symbol slot; later
  /// evals with an unchanged sym::BindingsStamp skip allocation and
  /// re-binding and keep the invariant-gate memo and recurrence prefix
  /// caches warm (both depend only on the bindings). A frame belongs to
  /// one CompiledUSR at a time and must not be used concurrently.
  class PooledFrame {
  public:
    PooledFrame();
    ~PooledFrame();
    PooledFrame(PooledFrame &&) noexcept;
    PooledFrame &operator=(PooledFrame &&) noexcept;
    PooledFrame(const PooledFrame &) = delete;
    PooledFrame &operator=(const PooledFrame &) = delete;

  private:
    friend class CompiledUSR;
    std::unique_ptr<Frame> Main;
    std::vector<Frame> Workers;
    const CompiledUSR *BoundTo = nullptr;
    sym::BindingsStamp Stamp;
    unsigned WorkersBoundFor = 0;
    bool WorkersValid = false;
  };

  /// Lowers \p S. \p Ctx must be the symbol context it was built against.
  /// Returns null when \p S trips a lowering resource guard (nesting
  /// beyond pdag::LoweringMaxNestDepth, bytecode beyond
  /// pdag::LoweringMaxCodeLen, or a gate predicate that itself failed
  /// predicate lowering — including a null from \p Preds): callers must
  /// fall back to the reference interpreter (usr::evalUSREmpty); the rt
  /// layer counts such demotions in GuardDemotions stats.
  static std::unique_ptr<CompiledUSR> compile(const USR *S,
                                              const sym::Context &Ctx,
                                              PredProvider Preds = nullptr);

  /// Emptiness-only evaluation: same contract as usr::evalUSREmpty
  /// (nullopt on evaluation failure; "not empty" short-circuits before
  /// any cap at union polarity). \p BlockGates selects the batched gate
  /// tier: variant gate predicates guarding a whole recurrence body are
  /// probed pdag::ExprBlockWidth iterations per dispatch (bit-identical
  /// per-iteration tri-states; see batchableGate).
  std::optional<bool> evalEmpty(const sym::Bindings &B,
                                size_t Cap = 1u << 22,
                                USREvalStats *Stats = nullptr,
                                bool BlockGates = true) const;

  /// evalEmpty against a caller-owned pooled frame.
  std::optional<bool> evalEmptyPooled(PooledFrame &PF,
                                      const sym::Bindings &B,
                                      size_t Cap = 1u << 22,
                                      USREvalStats *Stats = nullptr,
                                      bool BlockGates = true) const;

  /// evalEmpty with a root recurrence chunked across \p Pool under the
  /// exact first-failure protocol: the merged answer (outcome at the
  /// earliest non-empty/failed iteration) is identical to the serial
  /// order, including which of nullopt / "not empty" decides. Ranges
  /// shorter than MinParallelIters * numThreads run serially.
  /// A fired \p Cancel token makes the sweep bail at the next chunk
  /// boundary and return nullopt — never a (cacheable) emptiness answer.
  std::optional<bool>
  evalEmptyParallel(PooledFrame &PF, const sym::Bindings &B, ThreadPool &Pool,
                    size_t Cap = 1u << 22, USREvalStats *Stats = nullptr,
                    int64_t MinParallelIters = 2048,
                    const support::CancelToken *Cancel = nullptr,
                    bool BlockGates = true) const;

  /// Full evaluation to canonical runs. Same failure contract as
  /// usr::evalUSR.
  std::optional<RunVec> evalRuns(const sym::Bindings &B,
                                 size_t Cap = 1u << 22,
                                 USREvalStats *Stats = nullptr,
                                 bool BlockGates = true) const;

  /// Full evaluation expanded to the sorted point set: bit-identical to
  /// usr::evalUSR on every input (the parity-test entry point).
  std::optional<std::vector<int64_t>>
  evalPoints(const sym::Bindings &B, size_t Cap = 1u << 22,
             USREvalStats *Stats = nullptr,
             bool BlockGates = true) const;

  const USR *source() const { return Source; }
  size_t codeSize() const { return Code.size() + XCode.size(); }
  size_t numGates() const { return Gates.size(); }
  size_t numRecurs() const { return Recurs.size(); }
  /// True when evalEmptyParallel can actually fan out.
  bool hasParallelRoot() const { return RootRecur >= 0; }

private:
  CompiledUSR() = default;

  enum class Status : uint8_t { Ok, Fail, NotEmpty };

  bool bindFrame(Frame &F, const sym::Bindings &B) const;
  /// Binds (or reuses) the pooled main frame; returns true on reuse.
  bool bindPooled(PooledFrame &PF, const sym::Bindings &B) const;
  static Frame &scratchFrame();

  Status run(uint32_t Begin, uint32_t End, Frame &F, const sym::Bindings &B,
             size_t Cap, bool EmptyMode) const;
  Status evalLeaf(const USRInstr &I, Frame &F, size_t Cap,
                  bool DecidingEmpty) const;
  Status evalRecur(const USRInstr &I, uint32_t &Ip, uint32_t RegionEnd,
                   Frame &F, const sym::Bindings &B, size_t Cap,
                   bool EmptyMode) const;
  /// Tri-state: 0 false, 1 true, 2 unknown (evaluation failure).
  uint8_t evalGate(const CompiledUSRGate &G, Frame &F,
                   const sym::Bindings &B) const;
  /// The gate of \p R when its iteration sweep may be block-batched: the
  /// body is a single variant gate spanning the whole body, the gate
  /// predicate is loop-free (blockableMain), a feed carries R's variable
  /// (its pred slot is returned in \p PredVarSlot), and no *other* feed
  /// slot is written by a nested recurrence inside the gated child — so
  /// the non-variable overrides are uniform across the block and each
  /// lane's tri-state is bit-identical to the scalar probe at that
  /// iteration. Returns nullptr otherwise.
  const CompiledUSRGate *batchableGate(const CompiledUSRRecur &R,
                                       uint32_t &PredVarSlot) const;
  std::optional<int64_t> evalExpr(uint32_t Begin, uint32_t End,
                                  Frame &F) const;
  std::optional<bool> finishEmpty(Status St, Frame &F,
                                  USREvalStats *Stats) const;

  const USR *Source = nullptr;
  std::vector<USRInstr> Code;
  std::vector<pdag::ExprInstr> XCode;
  std::vector<CompiledUSRLmad> Lmads;
  std::vector<CompiledUSRDim> Dims;
  std::vector<CompiledUSRGate> Gates;
  std::vector<CompiledUSRGateFeed> GateFeeds;
  std::vector<CompiledUSRRecur> Recurs;
  std::vector<CompiledUSRCall> Calls;
  std::vector<sym::SymbolId> ScalarSlots;
  std::vector<sym::SymbolId> ArraySlots;
  /// Gate predicates compiled here because no provider was supplied.
  std::vector<std::unique_ptr<pdag::CompiledPred>> OwnedPreds;
  uint32_t MainCodeEnd = 0;
  uint32_t NumGateMemoSlots = 0;
  /// Exact peak depth of the expression stack (frames size XStack from
  /// this instead of XCode.size() + 1).
  uint32_t XMaxDepth = 0;
  /// Index into Recurs of a root recurrence (CallSite wrappers stripped),
  /// -1 otherwise; the parallel emptiness entry point fans out over it.
  int32_t RootRecur = -1;

  friend class USRCompiler;
  /// Plan serialization encodes the compiled tables to digest them for
  /// the bytecode records of the .hplan format (src/plan/).
  friend struct halo::plan::PlanCodec;
};

} // namespace usr
} // namespace halo

#endif // HALO_USR_USRCOMPILE_H
