//===- session/Session.h - Analyze-once / execute-many sessions -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// halo::session::Session owns the full analyze-once / execute-many
/// lifecycle for one program — the amortization argument behind HOIST-USR
/// (Sec. 5) turned into an API. A session holds, across executions:
///
///  - the LoopPlan cache: each ir::DoLoop is analyzed lazily on first use
///    and the plan reused for every later execution,
///  - the predicate compile cache (PredCompileCache) shared by all loops,
///  - per-TestCascade *pre-sorted* compiled cascades: stage vectors built
///    and cost-ordered once at plan time, never per execution,
///  - per-loop compiled bodies (rt::CompiledBody), lowered once at plan
///    time or plan adoption,
///  - the HOIST-USR exact-test memo cache,
///  - the thread pool,
///  - a pool of rt::ExecContext (pooled CompiledPred / CompiledUSR
///    evaluation frames + their BindingsStamp rebind bookkeeping), leased
///    one per execution, so repeated executions skip frame allocation and
///    — when the bindings are unchanged — symbol re-binding entirely,
///    while *concurrent* executions never share mutable frames.
///
/// run() executes one loop under its cached plan; runBatch() executes it
/// M times back-to-back (the serve-heavy-repeated-traffic shape);
/// runPrepared() is the concurrency-safe execute-only entry point the
/// serving layer fans out over worker threads. See src/session/README.md
/// for the lifecycle walkthrough and the full concurrency contract.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SESSION_SESSION_H
#define HALO_SESSION_SESSION_H

#include "analysis/Analyzer.h"
#include "plan/Plan.h"
#include "rt/Executor.h"
#include "support/Sync.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace halo {
namespace session {

/// Knobs of one session, fixed at construction.
struct SessionOptions {
  /// Worker threads of the session-owned pool.
  unsigned Threads = 4;
  /// The engine tier that evaluates cascade stages and exact tests
  /// (rt::EvalTier). Block is the default; Scalar is the block tier's A/B
  /// baseline and Interpreted runs the reference tree interpreters (the
  /// parity oracle). Results are bit-identical on every tier.
  rt::EvalTier Tier = rt::EvalTier::Block;
  /// Default analyzer options for plans prepared without explicit
  /// options. Per-loop knobs (probe bindings, hoistable context) go
  /// through prepare(Loop, Opts).
  analysis::AnalyzerOptions Analyzer;
};

/// One loop's analyze-once artifacts: the plan, its cascades compiled and
/// cost-ordered at plan time, the analysis-time factorization stats, and
/// an execution count for reporting. Immutable after prepare() except for
/// the two atomic counters, which is what lets any number of concurrent
/// runPrepared() calls execute against it.
struct PreparedLoop {
  analysis::LoopPlan Plan;
  rt::PlanCascades Cascades;
  /// The loop body lowered once to statement code (compiled tiers only;
  /// null on EvalTier::Interpreted). Never serialized.
  std::unique_ptr<const rt::CompiledBody> Body;
  factor::FactorStats FactorStats;
  /// The analyzer options the plan was produced under — folded into the
  /// plan key when the session serializes this loop (savePlans).
  analysis::AnalyzerOptions AOpts;
  /// Total executions against this plan (reporting).
  std::atomic<uint64_t> Executions{0};
  /// Executions running against this plan right now — the lifetime
  /// refcount behind the deferred-reclaim contract: a plan (current or
  /// retired) is never destroyed while this is nonzero.
  std::atomic<uint32_t> InFlight{0};
};

/// The analyze-once / execute-many driver for one program.
///
/// Concurrency contract (the serving layer, serve/Engine.h, builds on
/// exactly this — see src/session/README.md for the long form):
///
///  - **Analysis is exclusive.** prepare(), invalidate(), and run() /
///    runBatch() on an *unprepared* loop analyze, which interns new
///    expressions, predicates and USRs into the shared ir::Program /
///    sym::Context / pdag::PredContext / usr::USRContext. None of these
///    may overlap any other call into the session (or into any session
///    sharing those contexts).
///  - **Prepared execution is concurrent.** runPrepared() (and run() /
///    runBatch() on already-prepared loops, which route through the same
///    machinery) only *reads* the shared contexts and the PreparedLoop;
///    every mutation lands in caller-owned Memory/Bindings, in a leased
///    per-execution rt::ExecContext, or in internally-synchronized
///    session caches (HOIST-USR memo, compile caches, context pool).
///    Any number of threads may therefore call runPrepared()
///    concurrently — against the same loop or different ones — as long
///    as each brings its own Memory/Bindings and no analysis overlaps.
///
/// Plan lifetime: the reference returned by prepare() stays valid while
/// the loop's plan is current. A re-prepare (prepare(Loop, Opts)) or
/// invalidate() *retires* the old plan instead of destroying it: retired
/// plans stay alive while any execution is in flight against them and
/// are reclaimed lazily by the next analysis-exclusive call (prepare /
/// invalidate), i.e. exactly when the concurrency contract already
/// guarantees no execution is running. Callers holding a PreparedLoop
/// reference across a re-prepare must re-lookup before the *next*
/// exclusive phase after that.
class Session {
public:
  /// Builds a session serving \p Prog. \p Ctx must be the USR context the
  /// program was built against; both must outlive the session.
  Session(ir::Program &Prog, usr::USRContext &Ctx,
          SessionOptions Opts = SessionOptions());
  ~Session();

  /// Returns the cached plan for \p Loop, analyzing it (with the
  /// session's default analyzer options) on first use. See the class
  /// comment for the returned reference's lifetime. Throws
  /// std::invalid_argument when first-use analysis would register a
  /// second prepared loop with the same IR label (labels are the serving
  /// layer's loop ids; silent duplicates would mis-route requests), and
  /// support::ValidationError when the loop nest fails front-door
  /// structural validation (ir/Validate.h) — untrusted programs never
  /// reach the analyzer or the interpreter's asserts.
  const PreparedLoop &prepare(const ir::DoLoop &Loop);

  /// Analyzes \p Loop with explicit options and (re)caches the result.
  /// Always re-analyzes: call it once up front when a loop needs
  /// non-default options, then run() against the cache. The previous
  /// plan, if any, is retired (kept alive until no execution references
  /// it, reclaimed at a later exclusive phase — see the class comment),
  /// so references returned by earlier prepare() calls survive the
  /// re-prepare itself but must be re-looked-up afterwards. Duplicate
  /// labels throw std::invalid_argument as in prepare(Loop).
  const PreparedLoop &prepare(const ir::DoLoop &Loop,
                              const analysis::AnalyzerOptions &Opts);

  /// Drops the cached plan (e.g. after the program was mutated): the plan
  /// is retired, then reclaimed like a re-prepared one. Analysis-
  /// exclusive like prepare().
  void invalidate(const ir::DoLoop &Loop);

  /// True when a plan for \p Loop is already cached, i.e. runPrepared()
  /// would execute without analyzing. Safe concurrently with executions
  /// (never with analysis).
  bool isPrepared(const ir::DoLoop &Loop) const;

  /// Finds an already-prepared loop by its IR label (the serving layer's
  /// loop id). Returns nullptr when no prepared loop carries \p Label.
  /// Labels are unique among prepared loops: prepare() rejects
  /// duplicates, so the match is unambiguous.
  const ir::DoLoop *findPreparedLoop(std::string_view Label) const;

  /// Executes \p Loop under its cached plan (preparing it on first use):
  /// cascades pre-sorted at plan time, pooled frames, HOIST-USR cache.
  /// Because of the may-analyze first use, run() is analysis-exclusive;
  /// use runPrepared() from concurrent callers.
  rt::ExecStats run(const ir::DoLoop &Loop, rt::Memory &M, sym::Bindings &B);

  /// Executes \p Loop under an *already cached* plan, or returns nullopt
  /// when the loop was never prepared. Unlike run(), this never analyzes
  /// and therefore never mutates the shared IR/symbol/predicate/USR
  /// contexts — the execute side of the concurrency contract above. Safe
  /// for any number of concurrent callers (each with its own
  /// Memory/Bindings); the serving layer fans one hot loop out over its
  /// whole worker pool through this entry point.
  /// \p Cancel (optional) aborts the execution cooperatively: when the
  /// token is already fired on entry the call returns an aborted
  /// rt::ExecStats (Aborted == Cancelled/Expired) without touching the
  /// caller's Memory, the plan's Executions counter, or any session
  /// state; when it fires mid-run the governor unwinds at the next
  /// stage/exact-test/chunk boundary, leaving Memory either untouched or
  /// reflecting only fully-completed work.
  std::optional<rt::ExecStats>
  runPrepared(const ir::DoLoop &Loop, rt::Memory &M, sym::Bindings &B,
              const support::CancelToken *Cancel = nullptr);

  /// Executes \p Loop \p Repeats times back-to-back against the same
  /// memory and bindings; returns per-execution stats. Execution 2..N is
  /// the steady state the session exists for: zero per-execution
  /// re-setup.
  std::vector<rt::ExecStats> runBatch(const ir::DoLoop &Loop, rt::Memory &M,
                                      sym::Bindings &B, unsigned Repeats);

  /// runBatch() with a caller hook invoked before every element:
  /// BetweenElements(E, M, B) may rebind scalars/arrays (the per-request
  /// data refresh shape). Rebinding between elements bumps the bindings
  /// stamp, so element E+1 pays a full frame re-bind and stays exact;
  /// untouched bindings keep the zero-re-setup steady state.
  std::vector<rt::ExecStats>
  runBatch(const ir::DoLoop &Loop, rt::Memory &M, sym::Bindings &B,
           unsigned Repeats,
           const std::function<void(unsigned, rt::Memory &, sym::Bindings &)>
               &BetweenElements);

  /// Sequential execution of \p Loop (the timing baseline) on the same
  /// body engine the planned path uses: the loop's compiled body on the
  /// compiled tiers (the prepared one, or one lowered for this call when
  /// the loop is not prepared), the reference interpreter on
  /// EvalTier::Interpreted and for a demoted body. Leaves \p M and \p B
  /// exactly as rt::interpSequential would. The returned stats carry only
  /// the body-run split (CompiledBodyRuns / InterpBodyRuns /
  /// GuardDemotions) and TotalSeconds. Safe concurrently with other
  /// executions, never with analysis.
  rt::ExecStats runSequential(const ir::DoLoop &Loop, rt::Memory &M,
                              sym::Bindings &B);

  /// BOUNDS-COMP against the session pool (Fig. 7a).
  bool computeBounds(const usr::USR *S, sym::Bindings &B, int64_t &Lo,
                     int64_t &Hi);

  /// Serializes every currently prepared plan to \p Out as a versioned
  /// .hplan stream (plan/Plan.h). Loops in deterministic (label) order;
  /// probe-analyzed plans are skipped. Analysis-exclusive (may compile
  /// through the shared caches). Returns the number of loops written.
  size_t savePlans(std::ostream &Out);

  /// Loads a .hplan stream and *stages* its verified plans: the next
  /// prepare(Loop) (default-options path) whose loop label matches a
  /// staged plan re-derives the plan key from its own loop and options
  /// and, when both the primary and the verify key match, adopts the
  /// staged plan instead of re-analyzing — the warm-start fast path.
  /// Any mismatch falls back to full analysis with a recorded Diag;
  /// loaded bytes are never trusted over re-derivation. Loading
  /// re-interns tables and compiles through the shared caches, so this
  /// is analysis-exclusive. Throws support::ValidationError on stream
  /// integrity anomalies (the session state is unchanged in that case
  /// except for interned-but-unreferenced table nodes). Only plans whose
  /// label names a loop of this session's program are decoded and staged;
  /// a stream saved from another program stages nothing, records one
  /// PlanKeyMismatch Diag and leaves every context untouched.
  /// Equivalent to loadPlans(plan::frame(In)).
  plan::LoadResult loadPlans(std::istream &In);
  /// loadPlans() over an already framed stream (plan::frame), so one read
  /// of a plan-cache file can be offered to many sessions.
  plan::LoadResult loadPlans(const std::vector<plan::Chunk> &Chunks);

  /// Plans adopted from a loaded stream instead of analyzed (warm starts).
  size_t numPlansWarmStarted() const { return PlansWarmStarted; }
  /// Staged plans whose primary key matched a live loop but whose verify
  /// key did not — detected primary-hash collisions (never adopted).
  size_t numPlanKeyCollisions() const { return PlanKeyCollisions; }
  /// Staged plans not yet adopted by a prepare() call.
  size_t numStagedPlans() const { return StagedPlans.size(); }
  /// Structured diagnostics recorded by loadPlans and by rejected
  /// adoptions (stale keys, collisions, unresolvable join anchors).
  const std::vector<support::Diag> &planDiags() const { return PlanDiags; }

  /// The codegen-affecting session option, as folded into plan keys.
  plan::CodegenKey codegenKey() const { return Opts.Tier; }

  /// The session-owned worker pool (sized by SessionOptions::Threads).
  ThreadPool &pool() { return Pool; }
  /// The HOIST-USR exact-test memo cache (collision-verified, internally
  /// synchronized — shared by all concurrent executions).
  rt::HoistCache &hoistCache() { return Hoist; }
  /// The session-wide compiled-USR cache (warmed at plan time).
  rt::USRCompileCache &usrCompileCache() { return UsrCompile; }
  /// The options the session was constructed with.
  const SessionOptions &options() const { return Opts; }
  /// Number of loops with a cached (current, not retired) plan.
  size_t numPreparedLoops() const { return Plans.size(); }
  /// Number of distinct predicates lowered by the shared compile cache.
  size_t numCompiledPreds() const { return Compile.size(); }
  /// Number of independence USRs lowered to interval-run bytecode.
  size_t numCompiledUSRs() const { return UsrCompile.size(); }
  /// Number of pooled per-predicate evaluation frames, summed over every
  /// execution context the session has created.
  size_t numPooledFrames() const HALO_EXCLUDES(CtxMutex);
  /// Stack slots the exact-depth frame sizing saved across every pooled
  /// predicate and USR frame (vs. the old code-length-based bound),
  /// summed over every execution context.
  size_t pooledFrameSlotsSaved() const HALO_EXCLUDES(CtxMutex);
  /// Number of rt::ExecContexts created so far — its high-water mark is
  /// the session's peak execution concurrency.
  size_t numExecContexts() const HALO_EXCLUDES(CtxMutex);
  /// Retired (re-prepared / invalidated) plans not yet reclaimed.
  size_t numRetiredPlans() const { return Retired.size(); }

private:
  friend class ContextLease;

  PreparedLoop &prepareWith(const ir::DoLoop &Loop,
                            const analysis::AnalyzerOptions &Opts);
  /// Adoption fast path of prepare(Loop): returns the adopted plan when a
  /// staged plan matches \p Loop by label AND by both re-derived plan
  /// keys, nullptr otherwise (caller falls back to full analysis). A
  /// matching-label staged plan is consumed either way — stale entries
  /// don't get retried on every prepare.
  PreparedLoop *tryAdoptStaged(const ir::DoLoop &Loop);
  /// Lowers every independence USR the HOIST-USR fallback of \p Plan can
  /// reach into the compiled-USR cache (compiled tiers only), so no
  /// execution ever pays USR compilation and the code cache stays
  /// read-only on the concurrent execute path.
  void warmCompiledUSRs(const analysis::LoopPlan &Plan);
  /// The body code a PreparedLoop of \p Loop carries on this session's
  /// tier (null on EvalTier::Interpreted).
  std::unique_ptr<const rt::CompiledBody>
  compileBody(const ir::DoLoop &Loop) const;
  /// Frees retired plans no execution references anymore. Called from
  /// the analysis-exclusive entry points only.
  void sweepRetired();
  /// The shared execute path of run()/runPrepared(): leases a context,
  /// refcounts the plan, runs the governor. A pre-fired \p Cancel token
  /// short-circuits before any counter or lease is touched.
  rt::ExecStats execute(PreparedLoop &PL, rt::Memory &M, sym::Bindings &B,
                        const support::CancelToken *Cancel = nullptr);

  ir::Program &Prog;
  usr::USRContext &Ctx;
  SessionOptions Opts;
  ThreadPool Pool;
  rt::PredCompileCache Compile;
  rt::HoistCache Hoist;
  /// Compiled independence USRs (exact-test fallbacks), warmed at plan
  /// time for hoistable plans and shared across executions.
  rt::USRCompileCache UsrCompile;
  std::unordered_map<const ir::DoLoop *, std::unique_ptr<PreparedLoop>>
      Plans;
  /// Re-prepared / invalidated plans kept alive for in-flight executions
  /// and stale references; swept by the next exclusive phase.
  std::vector<std::unique_ptr<PreparedLoop>> Retired;

  /// Loaded-and-verified plans waiting for a matching live loop, keyed by
  /// loop label (the serving layer's loop id). Mutated only on the
  /// analysis-exclusive paths (loadPlans / prepare).
  std::unordered_map<std::string, plan::StagedLoop> StagedPlans;
  std::vector<support::Diag> PlanDiags;
  size_t PlansWarmStarted = 0;
  size_t PlanKeyCollisions = 0;

  /// Execution-context pool: Contexts owns every context ever created
  /// (so stats can walk them), Free lists the ones available for lease.
  /// CtxMutex is the only lock an execution takes inside the session —
  /// held for the two pointer swaps of checkout/return, never across the
  /// execution itself.
  mutable support::Mutex CtxMutex;
  std::vector<std::unique_ptr<rt::ExecContext>> Contexts
      HALO_GUARDED_BY(CtxMutex);
  std::vector<rt::ExecContext *> Free HALO_GUARDED_BY(CtxMutex);
};

} // namespace session
} // namespace halo

#endif // HALO_SESSION_SESSION_H
