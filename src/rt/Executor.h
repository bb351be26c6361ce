//===- rt/Executor.h - Runtime: the execution governor ---------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime *governor* standing in for the paper's OpenMP runtime
/// (Sec. 5): under a LoopPlan it precomputes CIV values (CIV-COMP),
/// evaluates the predicate cascades cheapest-first, decides per-array
/// strategies (shared / privatized / SLV / DLV / reduction private copies
/// / direct reduction), falls back to exact USR evaluation (optionally
/// memoized — HOIST-USR) or buffered LRPD speculation, and finally
/// executes the loop across a thread pool with the chosen techniques.
///
/// Loop bodies run on the compiled body code (rt/BodyCode.h) or, on the
/// interpreted tier, on the reference interpreter (rt/Interp.h);
/// plan-time cascade compilation and frame pooling live in
/// rt/CompiledCascade.h. The governor itself is one free function,
/// runPlanned(), and every plan-time artifact it needs is a required
/// argument: the session layer (session/Session.h) hands in the
/// pre-built PlanCascades, a leased rt::ExecContext and its shared
/// caches, so repeated executions of the same plan do no per-execution
/// setup at all — and concurrent executions never share mutable frames.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_EXECUTOR_H
#define HALO_RT_EXECUTOR_H

#include "analysis/Analyzer.h"
#include "rt/CompiledCascade.h"
#include "rt/Interp.h"
#include "rt/Memory.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace halo {
namespace rt {

/// How one loop execution was resolved (for RTov and table reporting).
struct ExecStats {
  /// Whether (and why) the execution was abandoned before producing a
  /// result. A non-None reason means the caller's Memory/Bindings were
  /// either left untouched or reflect only fully-completed repeats —
  /// cancellation only fires *between* units of work, never mid-body.
  enum class AbortReason : uint8_t { None = 0, Cancelled, Expired };
  AbortReason Aborted = AbortReason::None;

  double TotalSeconds = 0;
  double PredicateSeconds = 0; ///< Cascade evaluation time.
  double CivSliceSeconds = 0;  ///< CIV-COMP precomputation time.
  double ExactTestSeconds = 0; ///< Inspector (exact USR) time.
  double BoundsCompSeconds = 0;
  bool RanParallel = false;
  bool UsedExactTest = false;
  bool UsedTLS = false;
  /// Speculation committed: no iteration reads (or reduction-updates) an
  /// element an earlier iteration wrote. Anti and output dependences
  /// pass; the thread count never changes the verdict. False for an
  /// empty iteration space.
  bool TLSSucceeded = false;
  int CascadeDepthUsed = -1; ///< Depth of the first successful stage.
  uint64_t PredicateLeafEvals = 0;
  /// Invariant sub-predicate results served from the bytecode evaluator's
  /// per-evaluation memo table.
  uint64_t PredMemoHits = 0;
  /// Cascade stages evaluated through compiled bytecode vs. through the
  /// reference tree interpreter (the compiled/interpreted split the RTov
  /// harness reports). Each stage evaluation is counted exactly once, by
  /// the governor, on whichever path it took — the two columns are
  /// symmetric and cannot double-count.
  uint64_t CompiledPredEvals = 0;
  uint64_t InterpPredEvals = 0;
  /// Frame-pooling effectiveness (session executions only): full symbol
  /// binds vs. evaluations that reused the pooled frame unchanged.
  uint64_t FrameBinds = 0;
  uint64_t FrameRebindsSkipped = 0;
  /// Exact-test (HOIST-USR fallback) evaluations routed through the
  /// compiled interval-run engine vs. the reference interpreter,
  /// governor-counted symmetrically like the predicate split above.
  /// HoistCache hits evaluate nothing and count as neither.
  uint64_t CompiledUSREvals = 0;
  uint64_t InterpUSREvals = 0;
  /// Interval runs produced by compiled exact tests and the point
  /// enumerations they made unnecessary (usr::USREvalStats).
  uint64_t USRRunsProduced = 0;
  uint64_t USRPointsAvoided = 0;
  /// Block-vectorized vs. scalar compiled dispatches (the governor's A/B
  /// split): predicate-side whole-evaluations (pdag::EvalStats) plus
  /// USR-side batched gate probes (usr::USREvalStats GateBlockEvals /
  /// GateScalarEvals), folded into one pair of columns.
  uint64_t BlockEvals = 0;
  uint64_t ScalarEvals = 0;
  /// Block-tier lanes degraded to conservative-unknown by an unbound
  /// scalar or out-of-bounds read (that lane only, never the block).
  uint64_t LanesPoisoned = 0;
  /// Evaluations demoted from the compiled engines to the reference
  /// interpreters because lowering tripped a resource guard (nesting or
  /// bytecode-size cap — see pdag/ExprCode.h). Covers both cascade stages
  /// whose predicate failed to lower and exact tests whose USR failed to
  /// lower; semantically identical, only slower, and visible here.
  uint64_t GuardDemotions = 0;
  /// Loop-body runs (one per parallel worker block, one per sequential
  /// run) on the compiled body code (rt/BodyCode.h) vs. on the reference
  /// interpreter. The interpreted tier fills only the second column; a
  /// compiled tier fills it only for demoted bodies, each such run also
  /// counted in GuardDemotions.
  uint64_t CompiledBodyRuns = 0;
  uint64_t InterpBodyRuns = 0;
  /// Elements each worker's private reduction buffers cover, summed over
  /// the privately reduced arrays: BOUNDS-COMP's BH - BL + 1 where it
  /// ran, the array size otherwise.
  uint64_t ReductionSpanElems = 0;

  /// Accumulates \p O into this: times and event counters sum, the
  /// boolean outcomes OR (e.g. `RanParallel` means "any accumulated
  /// execution ran parallel") and CascadeDepthUsed keeps the deepest
  /// stage. The serving layer folds per-request stats into per-shard
  /// totals with this.
  ExecStats &operator+=(const ExecStats &O) {
    if (Aborted == AbortReason::None)
      Aborted = O.Aborted; // First latched abort reason wins.
    TotalSeconds += O.TotalSeconds;
    PredicateSeconds += O.PredicateSeconds;
    CivSliceSeconds += O.CivSliceSeconds;
    ExactTestSeconds += O.ExactTestSeconds;
    BoundsCompSeconds += O.BoundsCompSeconds;
    RanParallel |= O.RanParallel;
    UsedExactTest |= O.UsedExactTest;
    UsedTLS |= O.UsedTLS;
    TLSSucceeded |= O.TLSSucceeded;
    CascadeDepthUsed = CascadeDepthUsed > O.CascadeDepthUsed
                           ? CascadeDepthUsed
                           : O.CascadeDepthUsed;
    PredicateLeafEvals += O.PredicateLeafEvals;
    PredMemoHits += O.PredMemoHits;
    CompiledPredEvals += O.CompiledPredEvals;
    InterpPredEvals += O.InterpPredEvals;
    FrameBinds += O.FrameBinds;
    FrameRebindsSkipped += O.FrameRebindsSkipped;
    CompiledUSREvals += O.CompiledUSREvals;
    InterpUSREvals += O.InterpUSREvals;
    USRRunsProduced += O.USRRunsProduced;
    USRPointsAvoided += O.USRPointsAvoided;
    BlockEvals += O.BlockEvals;
    ScalarEvals += O.ScalarEvals;
    LanesPoisoned += O.LanesPoisoned;
    GuardDemotions += O.GuardDemotions;
    CompiledBodyRuns += O.CompiledBodyRuns;
    InterpBodyRuns += O.InterpBodyRuns;
    ReductionSpanElems += O.ReductionSpanElems;
    return *this;
  }
};

/// Memoization cache for hoisted exact tests (HOIST-USR, Sec. 5): the
/// emptiness result of an independence USR is reused across repeated
/// executions with identical relevant inputs.
///
/// Keyed by (USR identity, hash of the relevant bindings); every entry
/// additionally stores an independent verification hash of the same
/// inputs, so a primary-hash collision is detected and answered by
/// falling back to exact evaluation instead of silently returning the
/// colliding entry's emptiness answer.
///
/// Internally synchronized: concurrent emptiness() probes are safe, and
/// the memo stays shared across every concurrent execution of a session
/// (the amortization is per loop, not per worker). The lock covers only
/// the map probe/insert; evaluation of a miss runs outside it, so two
/// simultaneous first requests may both evaluate — duplicated work, same
/// inserted answer, never a wrong one.
class HoistCache {
public:
  /// Returns the cached emptiness answer, or evaluates and caches it.
  /// Nullopt when evaluation itself fails. A miss evaluates through the
  /// compiled interval-run engine when \p Compiled is given (chunking a
  /// root recurrence across \p Pool, pooled frames from \p Frames — see
  /// USRCompileCache::emptiness), through the reference interpreter
  /// otherwise.
  /// A fired \p Cancel token makes the evaluation of a miss bail and
  /// return nullopt — a cancelled evaluation has no answer and is never
  /// cached, so an aborted request can never poison the memo.
  std::optional<bool> emptiness(const usr::USR *S, sym::Bindings &B,
                                const sym::Context &Ctx, bool &WasHit,
                                USRCompileCache *Compiled = nullptr,
                                ThreadPool *Pool = nullptr,
                                usr::USREvalStats *Stats = nullptr,
                                USRFramePool *Frames = nullptr,
                                const support::CancelToken *Cancel = nullptr,
                                bool BlockGates = true) HALO_EXCLUDES(M);

  size_t size() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Cache.size();
  }
  /// Primary-hash collisions detected via the verification hash (the
  /// silent-wrong-answer case before it carried one).
  uint64_t collisions() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Collisions;
  }

private:
  struct Key {
    const usr::USR *S;
    uint64_t Hash;
    bool operator==(const Key &O) const {
      return S == O.S && Hash == O.Hash;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const usr::USR *>{}(K.S);
      hashCombine(H, static_cast<size_t>(K.Hash));
      return H;
    }
  };
  struct Entry {
    uint64_t Verify; ///< Independent hash of the same inputs.
    bool Empty;
  };
  mutable support::Mutex M;
  /// Probe/insert under M; miss evaluation runs outside it (two
  /// simultaneous first requests may both evaluate — duplicated work,
  /// same inserted answer, never a wrong one).
  std::unordered_map<Key, Entry, KeyHasher> Cache HALO_GUARDED_BY(M);
  uint64_t Collisions HALO_GUARDED_BY(M) = 0;
};

/// Hybrid execution of \p Plan (the governor): predicate cascades,
/// technique selection, exact-test / TLS fallback, parallel execution.
/// \p Pre holds the plan's cascades compiled and cost-ordered at plan
/// time (PlanCascades::build over \p Plan), \p Body the loop body lowered
/// once (CompiledBody::compile over Plan.Loop; required on the compiled
/// tiers, ignored on EvalTier::Interpreted), \p Ctx the leased
/// per-execution frames and cancel token, \p Hoist the HOIST-USR memo and
/// \p UsrCompile the compiled exact tests. \p Tier selects the engine
/// that evaluates cascade stages, exact tests and the loop body; every
/// tier yields the same Memory. The call mutates nothing but \p M, \p B,
/// \p Ctx and the internally synchronized caches, so concurrent calls are
/// safe as long as every caller brings its own Memory/Bindings/ExecContext
/// (the serving layer's intra-shard concurrency contract).
ExecStats runPlanned(const analysis::LoopPlan &Plan, const PlanCascades &Pre,
                     const CompiledBody *Body, Memory &M, sym::Bindings &B,
                     ThreadPool &Pool, ExecContext &Ctx, HoistCache &Hoist,
                     USRCompileCache &UsrCompile, EvalTier Tier);

/// Runs \p Loop sequentially (interpSequential's semantics, including the
/// scalars it leaves in \p B) on the body engine \p Tier selects: \p Body
/// on the compiled tiers unless it was demoted, the reference interpreter
/// otherwise. The run is counted in \p Stats. This is the sequential
/// fallback of runPlanned and the session's timing baseline, so both
/// time the same engine.
void runSequentialBody(const ir::DoLoop &Loop, const CompiledBody *Body,
                       EvalTier Tier, Memory &M, sym::Bindings &B,
                       ExecContext &Ctx, ExecStats &Stats);

} // namespace rt
} // namespace halo

#endif // HALO_RT_EXECUTOR_H
