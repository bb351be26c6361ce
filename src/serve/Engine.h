//===- serve/Engine.h - Concurrent multi-program serving engine -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// halo::serve::Engine — the analyze-once / execute-MANY-CLIENTS layer.
///
/// The paper's HOIST-USR amortization argument (Sec. 5) pays off when one
/// analysis serves many executions; the session layer (session/Session.h)
/// made that one-program and single-threaded. The engine makes it
/// concurrent and multi-program:
///
///  - it keeps a program table: addProgram() gives each program exactly
///    one session, which owns every cache the program's requests use —
///    its plans and its predicate-compile, USR-compile and HOIST-USR
///    caches (internally synchronized for the execute path — see the
///    contract in rt/CompiledCascade.h) — so one analysis, one compile
///    cache and one plan-cache decode serve all of the program's
///    traffic;
///  - submit()/submitBatch() enqueue execution requests onto a bounded
///    MPMC work queue (support/ThreadPool.h BoundedWorkQueue) drained by
///    a pool of worker threads; push-side backpressure (submit blocks at
///    capacity, trySubmit sheds load) bounds memory under overload;
///  - ServeStats aggregates the per-execution rt::ExecStats into
///    engine-wide totals.
///
/// Concurrency contract (machine-checked: the locks below are
/// support/Sync.h capabilities, the guarded fields carry HALO_GUARDED_BY,
/// and CI's thread-safety job compiles the tree with
/// -Werror=thread-safety — see docs/CONCURRENCY.md for the full
/// capability map):
///
///  1. addProgram()/prepare() take the engine's config lock *exclusively*
///     — analysis interns into the program's shared symbol/predicate/USR
///     contexts, so it must never overlap an execution of that program.
///     A condition-variable gate parks workers (no spinning) while an
///     exclusive phase is pending or active, giving warm-up writer
///     preference over a saturated serving plane.
///  2. Workers take the config lock *shared* per request and hold no
///     other engine lock while executing, so one hot prepared loop is
///     served by every worker at once.
///  3. Requests execute through Session::runPrepared(), which never
///     analyzes and is safe for concurrent callers: immutable
///     PreparedLoop plans, per-execution rt::ExecContext leases, and
///     internally-synchronized session caches (see session/Session.h).
///  4. Per-request stats land in per-worker accumulators (no shared
///     counters on the execute path) and are merged by stats().
///
/// Each request brings its own rt::Memory / sym::Bindings (the request's
/// dataset); results are therefore bit-identical to running the same
/// request sequentially through a lone Session (tests/serve_test.cpp pins
/// this under ThreadSanitizer, including the many-clients-one-loop case).
///
/// Robustness layer (see src/serve/README.md for the long form): every
/// future resolves with a classified Status (never an exception);
/// requests carry deadlines and cancellation tokens, shed at dequeue and
/// polled at the governor's stage/exact-test/chunk boundaries; transient
/// retry-safe failures are retried with bounded backoff; and a per-loop
/// circuit breaker demotes a repeatedly-failing loop to the
/// always-correct sequential tier, probing for recovery after a
/// deterministic cooldown. A seedable fault-injection registry
/// (support/FaultInjection.h) drives the chaos suite pinning all of this.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SERVE_ENGINE_H
#define HALO_SERVE_ENGINE_H

#include "session/Session.h"
#include "support/CancelToken.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace halo {
namespace serve {

/// Handle for one registered program (index into the engine's program
/// table; returned by Engine::addProgram).
using ProgramId = uint32_t;

/// Engine sizing knobs, fixed at construction.
struct EngineOptions {
  /// Worker threads draining the request queue. This is the execution
  /// concurrency — even a single (program, loop) can be served by all
  /// workers at once.
  unsigned Workers = 2;
  /// Bounded request-queue capacity (the backpressure point).
  size_t QueueCapacity = 256;
  /// Template for every program's session. Threads defaults to 1 here
  /// (unlike a standalone session): serving-side parallelism comes from
  /// workers, not from fan-out inside one request.
  session::SessionOptions Session;

  /// Warm-start: path of a .hplan plan-cache stream (plan/Plan.h). The
  /// engine reads and frames the file once, at the first addProgram(),
  /// and offers the framed stream to each program's session as
  /// addProgram() creates it (under the same writer-preference exclusive
  /// gate prepare() takes); the file is not read again, so replacing or
  /// deleting it later changes nothing for this engine. A session decodes
  /// only the plans whose label names a loop of its program — a stream
  /// saved from another program costs it a label peek. Prepared loops
  /// whose label and re-derived plan key match a loaded plan skip full
  /// analysis; everything else cold-starts exactly as without the file. A
  /// missing, stale (version-skewed) or corrupt file degrades to a cold
  /// start — it never fails addProgram() or prepare(). Empty (default)
  /// disables warm-start.
  std::string PlanCachePath;

  /// Retries per repeat for *transient, retry-safe* failures (a failure
  /// observed before the repeat touched the request's memory, e.g. losing
  /// the plan-retirement race during a concurrent re-prepare). 0 disables
  /// retrying.
  unsigned MaxRetries = 3;
  /// Backoff before the first retry; doubles per attempt. The sleeping
  /// worker is off-duty, which is exactly the point: a transient failure
  /// signals contention somewhere.
  std::chrono::microseconds RetryBackoff{50};
  /// Circuit breaker: consecutive ExecError / mid-run-Expired outcomes on
  /// one prepared loop that trip its breaker open (the loop is then
  /// served by the always-correct sequential tier). 0 disables the
  /// breaker.
  unsigned BreakerThreshold = 5;
  /// Degraded requests served while open before the breaker half-opens
  /// and probes the normal tier again. Counted in requests (not time) so
  /// breaker tests and replayed chaos runs are deterministic.
  unsigned BreakerCooldown = 8;

  EngineOptions() { Session.Threads = 1; }
};

/// Structured outcome of a served request: every future resolves with
/// exactly one of these — no error ever travels as an exception through a
/// future.
enum class Status : uint8_t {
  /// Served by the normal (planned) tier.
  Ok = 0,
  /// Never executed: shed at capacity, refused at shutdown, or failed
  /// request validation (unknown program, unprepared loop, null dataset).
  Rejected,
  /// The request's deadline passed — at dequeue (shed before any work) or
  /// mid-run (the execution unwound at a cancellation boundary).
  Expired,
  /// The caller's CancelToken fired.
  Cancelled,
  /// The execute path failed (exception, exhausted retries, or a vanished
  /// plan). Feeds the loop's circuit breaker.
  ExecError,
  /// Served correctly by the degraded sequential tier while the loop's
  /// circuit breaker is open. Results are exact; only the execution
  /// strategy differs.
  DegradedOk,
};

/// Stable display name of \p S ("Ok", "Rejected", ...).
const char *statusName(Status S);

/// One execution request. The caller owns \p M and \p B (the request's
/// dataset) and must keep them alive and untouched until the response
/// future resolves.
struct Request {
  ProgramId Program = 0;
  const ir::DoLoop *Loop = nullptr;
  rt::Memory *M = nullptr;
  sym::Bindings *B = nullptr;
  /// Executions of the loop to run back-to-back (a mini runBatch); the
  /// whole batch runs on one worker without re-dispatch.
  unsigned Repeats = 1;
  /// Absolute deadline (steady clock). Default (epoch) means none. An
  /// expired request is shed at dequeue before any work; one expiring
  /// mid-run unwinds at the next cancellation boundary, leaving the
  /// request's memory either untouched or with only whole repeats
  /// applied.
  std::chrono::steady_clock::time_point Deadline{};
  /// Caller-held cancellation token (optional; must outlive the response
  /// future). The engine derives its per-request token from this, so
  /// firing it cancels the request wherever it currently is.
  const support::CancelToken *Cancel = nullptr;
};

/// What a request resolves to.
struct Response {
  /// True iff the request was served with correct results (St is Ok or
  /// DegradedOk) — the coarse yes/no view of \p St.
  bool OK = false;
  /// Structured outcome classification (see Status).
  Status St = Status::Rejected;
  /// Why the request failed (set iff OK is false): unknown program id,
  /// loop never prepared, null dataset, expired, cancelled, exec error.
  std::string Error;
  /// Transient-failure retries this request consumed across its repeats.
  unsigned Retries = 0;
  /// Per-repeat execution stats, in order. Populated only when OK is
  /// true (a failed request never carries a partial success payload).
  /// Degraded (sequential-tier) repeats carry timing-only entries.
  std::vector<rt::ExecStats> Stats;
};

/// Serving totals (a snapshot; see Engine::stats). Each engine worker
/// accumulates one of these rows; stats() merges them into the
/// engine-wide row.
struct ShardStats {
  uint64_t Completed = 0;  ///< Requests served successfully (Ok or
                           ///< DegradedOk).
  uint64_t Failed = 0;     ///< Requests that failed validation after
                           ///< the program lookup (unprepared loop, no
                           ///< dataset) or ended ExecError.
  uint64_t Executions = 0; ///< Normal-tier loop executions (sum of served
                           ///< request repeats; degraded repeats count in
                           ///< DegradedExecs instead).
  uint64_t Expired = 0;    ///< Requests shed or unwound on a deadline.
  uint64_t Cancelled = 0;  ///< Requests stopped by a caller's token.
  uint64_t Retried = 0;    ///< Transient-failure retry attempts.
  uint64_t ExecErrors = 0; ///< Requests classified ExecError.
  uint64_t BreakerOpen = 0;   ///< Circuit-breaker open transitions.
  uint64_t DegradedExecs = 0; ///< Sequential-tier executions served while
                              ///< a breaker was open (or probing peers).
  rt::ExecStats Exec;      ///< All per-execution stats, accumulated.
  size_t Programs = 0;      ///< Registered programs (one session each).
  size_t PreparedLoops = 0; ///< Plans cached across the sessions.
  size_t CompiledPreds = 0; ///< Predicates lowered by the sessions' caches.
  size_t CompiledUSRs = 0;  ///< USRs lowered by the sessions' caches.
  size_t PooledFrames = 0;  ///< Pooled predicate frames, all sessions.
  size_t ExecContexts = 0;  ///< Execution contexts the sessions created —
                            ///< per session, the high-water mark of its
                            ///< concurrent executions.
  size_t PlansWarmStarted = 0; ///< Plans adopted from the engine's plan
                               ///< cache (EngineOptions::PlanCachePath)
                               ///< instead of analyzed.

  ShardStats &operator+=(const ShardStats &O) {
    Completed += O.Completed;
    Failed += O.Failed;
    Executions += O.Executions;
    Expired += O.Expired;
    Cancelled += O.Cancelled;
    Retried += O.Retried;
    ExecErrors += O.ExecErrors;
    BreakerOpen += O.BreakerOpen;
    DegradedExecs += O.DegradedExecs;
    Exec += O.Exec;
    Programs += O.Programs;
    PreparedLoops += O.PreparedLoops;
    CompiledPreds += O.CompiledPreds;
    CompiledUSRs += O.CompiledUSRs;
    PooledFrames += O.PooledFrames;
    ExecContexts += O.ExecContexts;
    PlansWarmStarted += O.PlansWarmStarted;
    return *this;
  }
};

/// Engine-wide serving totals (a snapshot; see Engine::stats).
struct ServeStats {
  uint64_t Submitted = 0;  ///< Requests accepted onto the queue.
  uint64_t Rejected = 0;   ///< trySubmit loads shed at capacity.
  uint64_t Unroutable = 0; ///< Requests naming no registered program, or
                           ///< a null loop.
  uint64_t Expired = 0;    ///< Deadline-shed/unwound requests.
  uint64_t Cancelled = 0;  ///< Token-stopped requests.
  uint64_t Retried = 0;    ///< Transient-failure retries.
  uint64_t BreakerOpen = 0;    ///< Breaker open transitions.
  uint64_t DegradedExecs = 0;  ///< Degraded-tier executions.
  size_t QueueDepth = 0;     ///< Requests queued right now.
  size_t PeakQueueDepth = 0; ///< Queue high-water mark since construction.
  /// Exactly one entry: the engine-wide row. It stays a vector, under its
  /// old per-shard name, only because perfbench/src/ServeMix.cpp reads
  /// it; once perfbench drops its shard-skew metric this can become a
  /// single ShardStats.
  std::vector<ShardStats> Shards;

  /// Sums the entries of Shards (the engine-wide row).
  ShardStats totals() const {
    ShardStats T;
    for (const ShardStats &S : Shards)
      T += S;
    return T;
  }
};

/// The thread-safe multi-program serving engine. See the file comment for
/// the program-table/queue architecture and the concurrency contract.
class Engine {
public:
  explicit Engine(EngineOptions Opts = EngineOptions());
  /// Runs shutdown(), then joins the workers. No accepted request's
  /// future is ever abandoned.
  ~Engine();

  /// Explicit orderly shutdown: closes the queue (new submits are refused
  /// and resolve Rejected) and waits until every already-accepted request
  /// has been served. Idempotent, and safe to race with drain() or with
  /// the destructor — the close/drain/shutdown ordering contract lives on
  /// BoundedWorkQueue. Must not be called from a worker (it drains).
  void shutdown();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Registers a program for serving and returns its handle: creates the
  /// program's one session and offers it the plan cache
  /// (EngineOptions::PlanCachePath). \p Prog and \p Ctx must outlive the
  /// engine. Takes the config lock exclusively (waits for in-flight
  /// requests; see the concurrency contract).
  ProgramId addProgram(ir::Program &Prog, usr::USRContext &Ctx)
      HALO_EXCLUDES(ConfigLock);

  /// Analyzes \p Loop once, in its program's session, and registers it
  /// for serving (the warm-up step: plans, compiled cascades, compiled
  /// USRs and frames are all built here, so no served request ever
  /// analyzes). Takes the config lock exclusively. Invalid \p Program
  /// throws std::out_of_range; a label collision (a *different* loop of
  /// the same program already prepared under this IR label) throws the
  /// session's std::invalid_argument, before any analysis, instead of
  /// silently re-routing the label's traffic.
  const session::PreparedLoop &
  prepare(ProgramId Program, const ir::DoLoop &Loop,
          const analysis::AnalyzerOptions &Opts) HALO_EXCLUDES(ConfigLock);
  /// Same with the session's default analyzer options.
  const session::PreparedLoop &
  prepare(ProgramId Program, const ir::DoLoop &Loop)
      HALO_EXCLUDES(ConfigLock);

  /// Finds a prepared loop by (program, IR label) — the engine's loop-id
  /// addressing for clients that do not hold IR pointers. Returns nullptr
  /// for unknown ids. The program's session collision-checks labels at
  /// prepare time (Session::findPreparedLoop), so a non-null result is the
  /// unique loop serving that label.
  const ir::DoLoop *findLoop(ProgramId Program, std::string_view Label)
      const HALO_EXCLUDES(ConfigLock);

  /// Enqueues \p R, blocking while the queue is at capacity
  /// (backpressure). The future resolves once a worker served the
  /// request; an engine being destroyed resolves it with an error.
  std::future<Response> submit(Request R) HALO_EXCLUDES(FinMutex);

  /// Non-blocking submit: refuses (returns false, counts a rejection)
  /// when the queue is full instead of waiting. On success \p Out is the
  /// response future.
  bool trySubmit(Request R, std::future<Response> &Out)
      HALO_EXCLUDES(FinMutex);

  /// Enqueues every request in order (blocking semantics of submit()).
  std::vector<std::future<Response>> submitBatch(std::vector<Request> Rs);

  /// Blocks until every accepted request has been served. Must not be
  /// called from a worker (i.e. from inside a response future chain) or
  /// while holding an ExclusiveHold.
  void drain() HALO_EXCLUDES(FinMutex);

  /// RAII handle over an exclusive pause of the serving plane, as
  /// prepare()'s warm-up critical section takes one: while it lives,
  /// workers are parked on the writer-preference gate (blocked on a
  /// condition variable, not spinning) and the holder may mutate the
  /// registered programs' shared contexts safely. Released on
  /// destruction.
  class ExclusiveHold {
  public:
    ExclusiveHold(ExclusiveHold &&) noexcept = default;
    ExclusiveHold(const ExclusiveHold &) = delete;
    ExclusiveHold &operator=(const ExclusiveHold &) = delete;
    ExclusiveHold &operator=(ExclusiveHold &&) = delete;
    ~ExclusiveHold();

  private:
    friend class Engine;
    explicit ExclusiveHold(Engine &E);
    struct Impl;
    std::unique_ptr<Impl> I;
  };

  /// Pauses serving (exclusive config lock + parked workers) until the
  /// returned hold is destroyed. Do not submit-and-wait, drain(), or call
  /// stats() while holding it.
  ExclusiveHold quiesce() HALO_EXCLUDES(ConfigLock);

  /// Snapshot of the engine-wide serving counters.
  ServeStats stats() const HALO_EXCLUDES(ConfigLock);

private:
  /// One worker's accumulator row: the per-request counters of ShardStats
  /// (its gauge fields stay zero in worker rows; stats() fills them from
  /// the sessions). The mutex is owned by that worker in practice
  /// (contention-free on the serving path) and taken by stats() snapshots
  /// only.
  struct WorkerCounters {
    support::Mutex M;
    ShardStats Row HALO_GUARDED_BY(M);
  };
  /// RAII writer-preference section: raises the gate (parking workers),
  /// takes the config lock exclusively, releases both on destruction.
  class HALO_SCOPED_CAPABILITY ExclusiveSection;

  /// Per-prepared-loop health: the closed -> open -> half-open circuit
  /// breaker demoting a misbehaving loop to the sequential tier. Entries
  /// are created (and reset) at prepare time under the exclusive config
  /// lock and only read (atomics) on the serving path.
  struct Breaker {
    /// 0 closed, 1 open, 2 half-open (probe in flight).
    std::atomic<uint8_t> State{0};
    /// Consecutive breaker-relevant failures (ExecError / mid-run
    /// Expired) while closed; reset by any Ok.
    std::atomic<uint32_t> Fails{0};
    /// Degraded requests served since the breaker opened; reaching
    /// EngineOptions::BreakerCooldown triggers the half-open probe.
    std::atomic<uint32_t> OpenServed{0};
  };
  /// One registered program. Its session holds the program's IR and
  /// contexts and every cache its requests use; it exists from
  /// addProgram() on. Entries are appended, and their breakers inserted
  /// or reset, only under the exclusive config lock; the serving path
  /// reads them under the shared lock.
  struct ProgramEntry {
    std::unique_ptr<session::Session> Sess;
    /// Prepared loop -> circuit breaker (node-based: entries never move).
    std::map<const ir::DoLoop *, Breaker> Breakers;
  };

  const session::PreparedLoop &
  prepareImpl(ProgramId Program, const ir::DoLoop &Loop,
              const analysis::AnalyzerOptions *AOpts)
      HALO_EXCLUDES(ConfigLock);
  Response process(const Request &R) HALO_EXCLUDES(ConfigLock);
  /// The unit of work a worker dequeues: process() under a top-level
  /// catch-all so no exception can cross the drained-task boundary and
  /// kill the worker; always resolves the promise and always counts the
  /// request finished.
  void serveTask(const Request &R,
                 const std::shared_ptr<std::promise<Response>> &Prom);
  void finishOne() HALO_EXCLUDES(FinMutex);
  /// The long-running per-worker drain loop (records worker identity so
  /// process() can find its accumulator without shared state).
  void drainLoop(unsigned Worker);
  /// The calling worker's accumulator row.
  WorkerCounters &myCounters();

  EngineOptions Opts;
  /// Exclusive for addProgram/prepare (analysis mutates shared contexts),
  /// shared for request processing and stats snapshots.
  mutable support::SharedMutex ConfigLock;
  /// Writer-preference gate for ConfigLock: PendingExclusive is nonzero
  /// while an exclusive section is pending or active; workers park on
  /// GateCv before taking new shared locks. Without the gate, glibc's
  /// reader-preferring rwlock would let a saturated serving plane starve
  /// warm-up forever; with a condvar (instead of the yield-spin this
  /// replaced) the parked workers burn no CPU. The counter is atomic so
  /// the steady-state fast path is one relaxed-cost load with no mutex;
  /// decrements happen under GateM (a waiter between its predicate check
  /// and its sleep holds GateM, so the wakeup cannot be lost).
  mutable support::Mutex GateM;
  mutable support::CondVar GateCv;
  std::atomic<unsigned> PendingExclusive{0};
  /// The program table, indexed by ProgramId.
  std::vector<ProgramEntry> Programs HALO_GUARDED_BY(ConfigLock);
  /// The framed EngineOptions::PlanCachePath stream: unset until the
  /// first addProgram() with a path set, empty when the file was
  /// unreadable or failed to decode. Read and written only under the
  /// exclusive config lock.
  std::optional<std::vector<plan::Chunk>> PlanCache
      HALO_GUARDED_BY(ConfigLock);
  /// One accumulator row per worker, created up front (index == worker).
  std::vector<std::unique_ptr<WorkerCounters>> PerWorker;
  BoundedWorkQueue Queue;

  /// Request accounting for drain(): Accepted counts queue admissions,
  /// Finished counts fulfilled futures (served or shed after admission).
  mutable support::Mutex FinMutex;
  support::CondVar FinCv;
  uint64_t Accepted HALO_GUARDED_BY(FinMutex) = 0;
  uint64_t Finished HALO_GUARDED_BY(FinMutex) = 0;
  uint64_t RejectedCount HALO_GUARDED_BY(FinMutex) = 0;
  uint64_t UnroutableCount HALO_GUARDED_BY(FinMutex) = 0;

  /// Declared last: destroyed (joined) first, while Queue still exists.
  ThreadPool Workers;
};

} // namespace serve
} // namespace halo

#endif // HALO_SERVE_ENGINE_H
