//===- rt/CompiledCascade.h - Plan-time cascade compilation ----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once half of the governor's cascade machinery, kept apart
/// from rt::runPlanned so it can be shared and amortized by the session
/// layer:
///
///  - PredCompileCache: interned-predicate -> bytecode, compiled once,
///  - CompiledCascade:  one TestCascade's stage vector, built and
///    cost-ordered once at *plan* time (not per execution),
///  - PlanCascades:     every cascade of a LoopPlan, index-aligned with
///    Plan.Arrays,
///  - FramePool / USRFramePool / ExecContext: the *mutable* per-execution
///    state (pooled evaluation frames with their bind-skip stamps, memo
///    tables and recurrence prefix caches, and the compiled-body frames
///    of rt/BodyCode.h), bundled so an execution can check one context
///    out, run, and return it.
///
/// Thread-safety contract (the serving layer's concurrent intra-shard
/// execution builds on this):
///
///  - Compiled bytecode (pdag::CompiledPred, usr::CompiledUSR) is
///    immutable after compilation and may be evaluated from any number of
///    threads at once.
///  - PredCompileCache and USRCompileCache are internally synchronized
///    *code* caches: get()/emptiness() may be called concurrently. In
///    practice they are write-hot only during plan time (which the
///    serving layer runs config-exclusive) and read-only afterwards, so
///    the internal mutex is uncontended on the serving path.
///  - Frames are NOT shared: a FramePool / USRFramePool (and the
///    ExecContext bundling them) belongs to exactly one execution at a
///    time. Pooled frames carry mutable bind-skip stamps, invariant-memo
///    tables and recurrence prefix caches, so two concurrent executions
///    must check out two distinct contexts (session::Session pools and
///    leases them). USRCompileCache's internal per-entry fallback frame is
///    only used when the caller does not supply a USRFramePool (direct
///    cache users outside the governor); frameless callers serialize on
///    the entry's fallback mutex, so misuse degrades to sequential
///    evaluation, never a race.
///
/// These contracts are machine-checked: the locks are support/Sync.h
/// capabilities, the fields carry HALO_GUARDED_BY, and CI's thread-safety
/// job compiles the tree with -Werror=thread-safety (docs/CONCURRENCY.md
/// has the full capability map).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_COMPILEDCASCADE_H
#define HALO_RT_COMPILEDCASCADE_H

#include "analysis/Analyzer.h"
#include "pdag/PredCompile.h"
#include "rt/BodyCode.h"
#include "support/CancelToken.h"
#include "support/Sync.h"
#include "usr/USRCompile.h"

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

namespace halo {
namespace rt {

/// The engine tier that evaluates a session's runtime tests (cascade
/// stages and exact USR tests). Every tier produces bit-identical
/// results; they differ only in speed and in which ExecStats counter
/// columns they fill.
enum class EvalTier : uint8_t {
  /// The reference tree interpreters (pdag::tryEvalPred,
  /// usr::evalUSREmpty), stages in cascade order: the parity oracle.
  Interpreted,
  /// Compiled bytecode pinned to scalar dispatch (the block tier's A/B
  /// baseline).
  Scalar,
  /// Compiled bytecode with the block-vectorized tier: cascade stages
  /// pick block vs. scalar sweeps per stage (pdag::BlockEval::Auto) and
  /// exact-test gate predicates batch their recurrence sweeps. The
  /// default.
  Block,
};

/// Every tier, the default first.
inline constexpr EvalTier AllEvalTiers[] = {
    EvalTier::Block, EvalTier::Scalar, EvalTier::Interpreted};

/// Short display name of \p T ("block", "scalar", "interpreted").
inline const char *evalTierName(EvalTier T) {
  switch (T) {
  case EvalTier::Interpreted:
    return "interpreted";
  case EvalTier::Scalar:
    return "scalar";
  case EvalTier::Block:
    return "block";
  }
  return "?";
}

/// Compile-once cache over interned cascade predicates. Stage predicates
/// recur across loops (shared sub-equations, repeated analysis), so the
/// cache is keyed by predicate identity and shared session-wide.
/// Internally synchronized: concurrent get() calls are safe (compilation
/// happens under the lock; entries are immutable once published).
class PredCompileCache {
public:
  explicit PredCompileCache(const sym::Context &Sym) : Sym(Sym) {}

  const pdag::CompiledPred *get(const pdag::Pred *P) HALO_EXCLUDES(M);
  size_t size() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Cache.size();
  }

private:
  const sym::Context &Sym;
  mutable support::Mutex M;
  /// Entries are immutable once published; the map itself is the guarded
  /// state (probe/insert under M — the compiled bytecode is then
  /// evaluated by any thread without it).
  std::unordered_map<const pdag::Pred *, std::unique_ptr<pdag::CompiledPred>>
      Cache HALO_GUARDED_BY(M);
};

/// One TestCascade lowered to bytecode with the stage vector cost-ordered
/// (cheapest compiled stage first) once, at plan time. The governor then
/// just walks Stages on every execution. Stage sources point into the
/// TestCascade the cascade was built from, which must outlive it (the
/// session stores both inside one PreparedLoop).
struct CompiledCascade {
  struct Stage {
    const pdag::CascadeStage *Source = nullptr;
    const pdag::CompiledPred *Code = nullptr;
  };
  std::vector<Stage> Stages;
  bool StaticallyTrue = false;

  static CompiledCascade build(const analysis::TestCascade &C,
                               PredCompileCache &Cache);
};

/// Every runtime cascade of one LoopPlan, compiled and ordered at plan
/// time; index-aligned with Plan.Arrays (read-only arrays get empty
/// entries).
struct PlanCascades {
  struct ArrayCascades {
    CompiledCascade Flow, Output, Priv, Slv, RRed, ExtRedFlow;
  };
  std::vector<ArrayCascades> Arrays;

  static PlanCascades build(const analysis::LoopPlan &Plan,
                            PredCompileCache &Cache);
};

/// Pooled per-compiled-unit evaluation frames: one mutable FrameT (bind
/// stamps, memo tables, prefix caches, per-worker scratch copies) per
/// immutable CodeT. One frame per unit suffices for a single execution
/// stream; a pool must only be used by one execution at a time (see
/// ExecContext). size()/stackSlotsSaved() alone are safe to read
/// concurrently (stats snapshots) via the mirrored atomics.
template <class CodeT, class FrameT> class FramePoolOf {
public:
  FrameT &frameFor(const CodeT *Code) {
    auto R = Frames.try_emplace(Code);
    if (R.second) {
      Count.store(Frames.size(), std::memory_order_relaxed);
      Saved.fetch_add(Code->frameStackSlotsSaved(),
                      std::memory_order_relaxed);
    }
    return R.first->second;
  }
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  /// Stack slots the compiled units' exact-depth precompute saved across
  /// every frame pooled here, relative to the old code-length-based
  /// sizing (CodeT::frameStackSlotsSaved summed over distinct units).
  size_t stackSlotsSaved() const {
    return Saved.load(std::memory_order_relaxed);
  }

private:
  std::unordered_map<const CodeT *, FrameT> Frames;
  /// Mirrors Frames.size() so concurrent stats snapshots need no lock.
  std::atomic<size_t> Count{0};
  std::atomic<size_t> Saved{0};
};

/// Pooled per-predicate evaluation frames (cascade stages).
using FramePool =
    FramePoolOf<pdag::CompiledPred, pdag::CompiledPred::PooledFrame>;
/// Pooled per-USR evaluation frames (exact tests), the compiled-USR dual.
using USRFramePool =
    FramePoolOf<usr::CompiledUSR, usr::CompiledUSR::PooledFrame>;

/// The checkout/return unit of mutable execution state: everything one
/// runPlanned() call mutates outside the caller's Memory/Bindings. A
/// context may be reused across executions (that reuse is what keeps the
/// pooled frames' bind-skip and memo state warm) but never shared between
/// two concurrent executions. session::Session owns a pool of these and
/// leases one per runPrepared() call.
struct ExecContext {
  FramePool Frames;
  USRFramePool UsrFrames;
  /// Compiled-body frames, one per pool worker (index = worker block).
  std::vector<BodyFrame> BodyFrames;
  /// Per-execution cancellation token (deadline and/or caller cancel),
  /// set by the lease holder for the duration of one execution and
  /// cleared on return to the pool. The governor polls it at stage,
  /// exact-test and repeat boundaries; a pooled context itself carries no
  /// cross-execution cancel state.
  const support::CancelToken *Cancel = nullptr;
};

/// Compile-once cache over independence USRs (the exact-test / HOIST-USR
/// fallback surface), the dual of PredCompileCache for the other half of
/// the runtime machinery: USR identity -> interval-run bytecode. Gate
/// predicates resolve through the shared PredCompileCache, so a predicate
/// appearing both as a cascade stage and inside a USR gate is lowered
/// exactly once session-wide. Internally synchronized like
/// PredCompileCache; mutable evaluation frames come from the caller's
/// USRFramePool (concurrent executions) or, absent one, from a per-entry
/// fallback frame that is only sound single-threaded.
class USRCompileCache {
public:
  USRCompileCache(const sym::Context &Sym, PredCompileCache &Preds)
      : Sym(Sym), Preds(Preds) {}

  /// Compiles \p S on first use (plan-time warmup calls this eagerly).
  /// Safe to call concurrently.
  const usr::CompiledUSR *get(const usr::USR *S) HALO_EXCLUDES(M);

  /// Compiles (once) and evaluates emptiness; a root recurrence is
  /// chunked across \p Pool when one is given. The pooled evaluation
  /// frame comes from \p Frames when provided — required for concurrent
  /// callers to stay parallel — and from the cache entry's fallback
  /// frame otherwise. Frameless calls serialize on the entry's fallback
  /// mutex for the whole evaluation (shared mutable frame state), so
  /// concurrent frameless callers are correct, merely sequential. A
  /// fired \p Cancel token aborts the evaluation and yields nullopt (no
  /// answer — never a cacheable one). \p BlockGates selects the batched
  /// gate tier (usr::CompiledUSR::evalEmpty). The cache mutex M covers
  /// only the probe/insert; evaluation runs outside it.
  std::optional<bool> emptiness(const usr::USR *S, const sym::Bindings &B,
                                ThreadPool *Pool = nullptr,
                                usr::USREvalStats *Stats = nullptr,
                                USRFramePool *Frames = nullptr,
                                const support::CancelToken *Cancel = nullptr,
                                bool BlockGates = true) HALO_EXCLUDES(M);

  size_t size() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Cache.size();
  }
  /// The symbol context the cached USRs were interned against.
  const sym::Context &symCtx() const { return Sym; }

private:
  struct Entry {
    /// Set once at insertion (under the cache mutex) and immutable
    /// afterwards; evaluated lock-free from any thread.
    std::unique_ptr<usr::CompiledUSR> Code;
    /// Serializes frameless callers over the shared fallback frame.
    support::Mutex FallbackM;
    /// Fallback frame for frameless callers (direct cache users):
    /// mutable bind stamps and prefix caches, shared cache state — held
    /// under FallbackM for the whole evaluation.
    usr::CompiledUSR::PooledFrame Frame HALO_GUARDED_BY(FallbackM);
  };
  /// The returned reference is stable (node-based map).
  Entry &entryForLocked(const usr::USR *S) HALO_REQUIRES(M);

  const sym::Context &Sym;
  PredCompileCache &Preds;
  mutable support::Mutex M;
  std::unordered_map<const usr::USR *, Entry> Cache HALO_GUARDED_BY(M);
};

} // namespace rt
} // namespace halo

#endif // HALO_RT_COMPILEDCASCADE_H
