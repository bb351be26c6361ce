//===- serve/Engine.cpp - Concurrent multi-program serving engine ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace halo;
using namespace halo::serve;

const char *halo::serve::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "Ok";
  case Status::Rejected:
    return "Rejected";
  case Status::Expired:
    return "Expired";
  case Status::Cancelled:
    return "Cancelled";
  case Status::ExecError:
    return "ExecError";
  case Status::DegradedOk:
    return "DegradedOk";
  }
  return "?";
}

namespace {

EngineOptions sanitized(EngineOptions O) {
  O.Workers = std::max(1u, O.Workers);
  O.QueueCapacity = std::max<size_t>(1, O.QueueCapacity);
  return O;
}

/// Breaker state encoding (Engine::Breaker::State).
constexpr uint8_t BrClosed = 0, BrOpen = 1, BrHalfOpen = 2;

/// Identity of the engine worker running on this thread, recorded by
/// drainLoop. Worker threads belong to exactly one engine for their whole
/// lifetime, so a (engine, index) pair never goes stale while the thread
/// runs.
thread_local const void *TlEngine = nullptr;
thread_local unsigned TlWorker = 0;

} // namespace

//===----------------------------------------------------------------------===//
// Exclusive sections (warm-up / quiesce) and the writer-preference gate
//===----------------------------------------------------------------------===//

/// Raises PendingExclusive for its whole lifetime (workers park on the
/// gate, burning no CPU) and holds the config lock exclusively. The gate
/// stays raised until release so a stream of back-to-back exclusive
/// sections keeps its writer preference.
class HALO_SCOPED_CAPABILITY Engine::ExclusiveSection {
public:
  explicit ExclusiveSection(Engine &E) HALO_ACQUIRE(E.ConfigLock) : E(E) {
    // Raising needs no GateM: it only makes workers (start to) wait,
    // it never wakes one.
    E.PendingExclusive.fetch_add(1, std::memory_order_release);
    E.ConfigLock.lock();
  }
  ~ExclusiveSection() HALO_RELEASE() {
    E.ConfigLock.unlock();
    {
      // Decrement under GateM: a worker between its predicate check and
      // its sleep holds GateM, so this transition cannot slip past it
      // (no lost wakeup).
      support::MutexLock G(E.GateM);
      E.PendingExclusive.fetch_sub(1, std::memory_order_release);
    }
    E.GateCv.notify_all();
  }
  ExclusiveSection(const ExclusiveSection &) = delete;
  ExclusiveSection &operator=(const ExclusiveSection &) = delete;

private:
  Engine &E;
};

struct Engine::ExclusiveHold::Impl {
  // A scoped capability stored as a member outlives the constructor's
  // scope, which the analysis cannot track (it models scoped locks as
  // strictly block-scoped) — the one deliberate escape hatch in the
  // serving plane. The capability is still released exactly once, by
  // ~Impl running ~ExclusiveSection.
  explicit Impl(Engine &E) HALO_NO_THREAD_SAFETY_ANALYSIS : Section(E) {}
  ExclusiveSection Section;
};

Engine::ExclusiveHold::ExclusiveHold(Engine &E)
    : I(std::make_unique<Impl>(E)) {}
Engine::ExclusiveHold::~ExclusiveHold() = default;

Engine::ExclusiveHold Engine::quiesce() { return ExclusiveHold(*this); }

//===----------------------------------------------------------------------===//
// Construction / shutdown
//===----------------------------------------------------------------------===//

Engine::Engine(EngineOptions O)
    : Opts(sanitized(std::move(O))), Queue(Opts.QueueCapacity),
      Workers(Opts.Workers, ThreadPool::SingleThread::Spawn) {
  PerWorker.reserve(Opts.Workers);
  for (unsigned W = 0; W != Opts.Workers; ++W)
    PerWorker.push_back(std::make_unique<WorkerCounters>());
  // Every worker becomes a drainer of the request queue for the engine's
  // whole lifetime; the pool is dedicated to that (one drainLoop per
  // worker, which also stamps the thread with its accumulator index).
  for (unsigned W = 0; W != Opts.Workers; ++W)
    Workers.run([this, W] { drainLoop(W); });
}

Engine::~Engine() {
  // Orderly close -> drain -> join (the ordering contract documented on
  // BoundedWorkQueue): refuse new requests, wait until the workers have
  // served everything already accepted, then the ThreadPool member's
  // destructor joins them.
  shutdown();
}

void Engine::shutdown() {
  // close() is idempotent and never re-notifies, and drain() merely
  // waits on the Finished/Accepted accounting — so shutdown() racing
  // another shutdown(), a drain(), or the destructor all settle on the
  // same quiescent state.
  Queue.close();
  drain();
}

void Engine::drainLoop(unsigned Worker) {
  TlEngine = this;
  TlWorker = Worker;
  while (std::function<void()> Task = Queue.pop())
    Task();
}

Engine::WorkerCounters &Engine::myCounters() {
  // Off-worker callers (never expected) fall back to row 0; the per-row
  // mutex keeps even that case safe, merely contended.
  const unsigned W = TlEngine == this ? TlWorker : 0;
  return *PerWorker[W];
}

//===----------------------------------------------------------------------===//
// Warm-up (config-exclusive)
//===----------------------------------------------------------------------===//

ProgramId Engine::addProgram(ir::Program &Prog, usr::USRContext &Ctx) {
  ExclusiveSection Cfg(*this);
  auto Sess = std::make_unique<session::Session>(Prog, Ctx, Opts.Session);
  // Warm-start: offer the plan cache to the fresh session while we hold
  // the exclusive gate (loading interns into the shared contexts). The
  // file is read and framed once, by the first program registered; later
  // sessions get the framed chunks, and a session of a program the stream
  // was not saved from decodes none of it. Every failure mode — absent
  // file, version skew, corruption — degrades to a cold start; prepare()
  // then simply finds nothing to adopt.
  if (!Opts.PlanCachePath.empty()) {
    if (!PlanCache) {
      PlanCache.emplace();
      std::ifstream PlanIn(Opts.PlanCachePath, std::ios::binary);
      if (PlanIn) {
        try {
          *PlanCache = plan::frame(PlanIn);
        } catch (const support::ValidationError &) {
          // Unreadable: every session of this engine starts cold.
        }
      }
    }
    try {
      if (!PlanCache->empty())
        (void)Sess->loadPlans(*PlanCache);
    } catch (const support::ValidationError &) {
      // A stream that fails to decode is dropped, so no later session
      // retries it; the next savePlans regenerates it.
      PlanCache->clear();
    }
  }
  Programs.push_back(ProgramEntry{std::move(Sess), {}});
  return static_cast<ProgramId>(Programs.size() - 1);
}

const session::PreparedLoop &
Engine::prepareImpl(ProgramId Program, const ir::DoLoop &Loop,
                    const analysis::AnalyzerOptions *AOpts) {
  ExclusiveSection Cfg(*this);
  ProgramEntry &PE = Programs.at(Program);
  // The session rejects a second loop under a prepared label before any
  // analysis: the label is the findLoop address.
  const session::PreparedLoop &PL =
      AOpts ? PE.Sess->prepare(Loop, *AOpts) : PE.Sess->prepare(Loop);
  // A fresh (or re-)prepare starts the loop with a closed breaker: the
  // failure history belongs to the plan that produced it, and this call
  // just replaced the plan.
  auto [BIt, Fresh] = PE.Breakers.try_emplace(&Loop);
  if (!Fresh) {
    Breaker &Br = BIt->second;
    Br.State.store(BrClosed, std::memory_order_relaxed);
    Br.Fails.store(0, std::memory_order_relaxed);
    Br.OpenServed.store(0, std::memory_order_relaxed);
  }
  return PL;
}

const session::PreparedLoop &
Engine::prepare(ProgramId Program, const ir::DoLoop &Loop,
                const analysis::AnalyzerOptions &AOpts) {
  return prepareImpl(Program, Loop, &AOpts);
}

const session::PreparedLoop &Engine::prepare(ProgramId Program,
                                             const ir::DoLoop &Loop) {
  return prepareImpl(Program, Loop, nullptr);
}

const ir::DoLoop *Engine::findLoop(ProgramId Program,
                                   std::string_view Label) const {
  support::SharedLock Cfg(ConfigLock);
  return Program < Programs.size()
             ? Programs[Program].Sess->findPreparedLoop(Label)
             : nullptr;
}

//===----------------------------------------------------------------------===//
// Request processing (config-shared, no engine lock across execution)
//===----------------------------------------------------------------------===//

void Engine::finishOne() {
  {
    support::MutexLock L(FinMutex);
    ++Finished;
  }
  FinCv.notify_all();
}

Response Engine::process(const Request &R) {
  Response Resp;
  WorkerCounters &WC = myCounters();

  // Per-request cancellation token: with a deadline, derive a child that
  // latches whichever fires first (the deadline or the caller's token);
  // without one, the caller's token is used directly. Stack-lived — the
  // session's context lease clears its pointer before the context is
  // pooled again.
  std::optional<support::CancelToken> TokStore;
  const support::CancelToken *Tok = R.Cancel;
  if (R.Deadline != std::chrono::steady_clock::time_point{})
    Tok = &TokStore.emplace(R.Deadline, R.Cancel);

  // Dequeue shed: a request that is already dead is classified and
  // counted without touching the gate, the config lock, or any session.
  if (support::stopRequested(Tok)) {
    const bool Exp =
        Tok->state() == support::CancelToken::State::Expired;
    Resp.St = Exp ? Status::Expired : Status::Cancelled;
    Resp.Error = Exp ? "deadline expired before execution"
                     : "cancelled before execution";
    support::MutexLock L(WC.M);
    ++(Exp ? WC.Row.Expired : WC.Row.Cancelled);
    return Resp;
  }

  // Writer-preference gate: park (condition variable, no CPU) while an
  // exclusive warm-up/quiesce section is pending or active. glibc's
  // rwlock lets new readers barge past a waiting writer, so without the
  // gate a saturated serving plane would starve prepare() forever. The
  // steady state pays one atomic load; only a raised gate touches GateM.
  if (PendingExclusive.load(std::memory_order_acquire) != 0) {
    support::MutexLock G(GateM);
    while (PendingExclusive.load(std::memory_order_acquire) != 0)
      GateCv.wait(GateM);
  }
  // Shared: excludes addProgram/prepare (which intern into the shared
  // contexts) but runs concurrently with every other request — including
  // requests for the same loop.
  support::SharedLock Cfg(ConfigLock);
  if (R.Program >= Programs.size() || !R.Loop) {
    support::MutexLock L(FinMutex);
    ++UnroutableCount;
    Resp.Error = R.Loop ? "unknown program id" : "null loop";
    return Resp;
  }
  ProgramEntry &PE = Programs[R.Program];
  session::Session &Sess = *PE.Sess;
  auto CountFailed = [&] {
    support::MutexLock L(WC.M);
    ++WC.Row.Failed;
  };
  if (!Sess.isPrepared(*R.Loop)) {
    CountFailed();
    Resp.Error = "loop was never prepared on this engine";
    return Resp;
  }
  if (!R.M || !R.B) {
    CountFailed();
    Resp.Error = "request carries no memory/bindings";
    return Resp;
  }
  const unsigned Repeats = std::max(1u, R.Repeats);
  Resp.Stats.reserve(Repeats);

  // Degraded tier: the always-correct sequential interpreter, serving
  // while the loop's breaker is open (or while a half-open probe is in
  // flight on another worker). Results are exact — only the execution
  // strategy (and its stats payload, timing-only) differ.
  auto ServeDegraded = [&]() -> Response {
    for (unsigned E = 0; E != Repeats; ++E) {
      if (support::stopRequested(Tok)) {
        const bool Exp =
            Tok->state() == support::CancelToken::State::Expired;
        support::MutexLock L(WC.M);
        ShardStats &SC = WC.Row;
        ++(Exp ? SC.Expired : SC.Cancelled);
        SC.DegradedExecs += E;
        Resp.Stats.clear();
        Resp.St = Exp ? Status::Expired : Status::Cancelled;
        Resp.Error = Exp ? "deadline expired during degraded execution"
                         : "cancelled during degraded execution";
        return Resp;
      }
      Resp.Stats.push_back(Sess.runSequential(*R.Loop, *R.M, *R.B));
    }
    {
      support::MutexLock L(WC.M);
      ++WC.Row.Completed;
      WC.Row.DegradedExecs += Repeats;
    }
    Resp.OK = true;
    Resp.St = Status::DegradedOk;
    return Resp;
  };

  // Per-loop circuit breaker. Entries exist for every prepared loop (made
  // at prepare time under the exclusive lock); a zero threshold disables
  // the machinery entirely.
  Breaker *Br = nullptr;
  if (Opts.BreakerThreshold) {
    auto BIt = PE.Breakers.find(R.Loop);
    if (BIt != PE.Breakers.end())
      Br = &BIt->second;
  }
  bool Probe = false;
  if (Br) {
    const uint8_t BS = Br->State.load(std::memory_order_acquire);
    if (BS == BrOpen) {
      // Count this request toward the cooldown; the one that crosses it
      // CASes open -> half-open and probes the normal tier itself (the
      // CAS elects exactly one prober among racing workers).
      const uint32_t Served =
          Br->OpenServed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (Served >= Opts.BreakerCooldown) {
        uint8_t Expect = BrOpen;
        if (Br->State.compare_exchange_strong(Expect, BrHalfOpen,
                                              std::memory_order_acq_rel))
          Probe = true;
      }
      if (!Probe)
        return ServeDegraded();
    } else if (BS == BrHalfOpen) {
      // A probe is in flight; peers stay degraded until it settles.
      return ServeDegraded();
    }
  }

  // Breaker outcome feedback. Every path out of the normal tier MUST
  // settle the breaker when Probe is set — a half-open breaker nobody
  // resolves would pin the loop on the degraded tier forever.
  enum class BrOutcome { Success, Failure, Inconclusive };
  uint64_t BreakerOpened = 0;
  auto FeedBreaker = [&](BrOutcome O) {
    if (!Br)
      return;
    switch (O) {
    case BrOutcome::Success:
      Br->Fails.store(0, std::memory_order_relaxed);
      if (Probe) {
        // Healthy again: close and forget the failure history.
        Br->OpenServed.store(0, std::memory_order_relaxed);
        Br->State.store(BrClosed, std::memory_order_release);
      }
      return;
    case BrOutcome::Inconclusive:
      // Cancelled / shed before the tier could prove anything. A probe
      // re-opens already ripe, so the next request re-probes at once.
      if (Probe) {
        Br->OpenServed.store(Opts.BreakerCooldown,
                             std::memory_order_relaxed);
        Br->State.store(BrOpen, std::memory_order_release);
      }
      return;
    case BrOutcome::Failure: {
      if (Probe) {
        // Failed probe: back to open for a full fresh cooldown.
        Br->OpenServed.store(0, std::memory_order_relaxed);
        Br->State.store(BrOpen, std::memory_order_release);
        ++BreakerOpened;
        return;
      }
      const uint32_t F =
          Br->Fails.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (F >= Opts.BreakerThreshold) {
        uint8_t Expect = BrClosed;
        if (Br->State.compare_exchange_strong(Expect, BrOpen,
                                              std::memory_order_acq_rel)) {
          Br->OpenServed.store(0, std::memory_order_relaxed);
          Br->Fails.store(0, std::memory_order_relaxed);
          ++BreakerOpened;
        }
      }
      return;
    }
    }
  };

  rt::ExecStats Acc;
  uint64_t ExecsDone = 0;
  // Abort epilogue: account whole repeats that DID complete, drop the
  // partial Stats payload (a non-OK response never carries one), and
  // classify. Only a mid-run expiry is the loop's fault (too slow), so
  // only that feeds the breaker as a failure.
  auto FinishAborted = [&](bool Exp, bool MidRun) -> Response {
    FeedBreaker(MidRun && Exp ? BrOutcome::Failure
                              : BrOutcome::Inconclusive);
    support::MutexLock L(WC.M);
    ShardStats &SC = WC.Row;
    ++(Exp ? SC.Expired : SC.Cancelled);
    SC.Executions += ExecsDone;
    SC.Exec += Acc;
    SC.Retried += Resp.Retries;
    SC.BreakerOpen += BreakerOpened;
    Resp.Stats.clear();
    Resp.St = Exp ? Status::Expired : Status::Cancelled;
    Resp.Error = Exp ? "deadline expired during execution"
                     : "cancelled during execution";
    return Resp;
  };

  Status Out = Status::Ok;
  std::string ErrMsg;
  try {
    for (unsigned E = 0; E != Repeats && Out == Status::Ok; ++E) {
      for (unsigned Attempt = 0;; ++Attempt) {
        if (support::stopRequested(Tok))
          return FinishAborted(Tok->state() ==
                                   support::CancelToken::State::Expired,
                               /*MidRun=*/false);
        // Never analyzes (the loop is prepared): shared contexts stay
        // read-only and the session hands this worker its own
        // ExecContext, per the concurrency contract. No engine lock is
        // held beyond the shared config lock. The injected transient
        // fault fires BEFORE the repeat touches the request's memory —
        // the same retry-safe shape as losing the plan to a concurrent
        // re-prepare.
        std::optional<rt::ExecStats> St;
        if (!support::faultHit("serve.process.transient"))
          St = Sess.runPrepared(*R.Loop, *R.M, *R.B, Tok);
        if (St && St->Aborted != rt::ExecStats::AbortReason::None)
          return FinishAborted(St->Aborted ==
                                   rt::ExecStats::AbortReason::Expired,
                               /*MidRun=*/true);
        if (St) {
          Acc += *St;
          Resp.Stats.push_back(*St);
          ++ExecsDone;
          break;
        }
        // Transient failure observed before this repeat ran (vanished
        // plan or injected fault): bounded retry with doubling backoff.
        if (Attempt >= Opts.MaxRetries) {
          Out = Status::ExecError;
          ErrMsg = "transient execution failure persisted through " +
                   std::to_string(Attempt) + " retries";
          break;
        }
        ++Resp.Retries;
        const auto Backoff = Opts.RetryBackoff * (1u << Attempt);
        if (Backoff.count() > 0)
          std::this_thread::sleep_for(Backoff);
      }
    }
  } catch (const std::exception &Ex) {
    Out = Status::ExecError;
    ErrMsg = Ex.what();
  } catch (...) {
    Out = Status::ExecError;
    ErrMsg = "unknown execution failure";
  }

  FeedBreaker(Out == Status::Ok ? BrOutcome::Success : BrOutcome::Failure);
  {
    // Publish once per request into this worker's own accumulator row —
    // never a shared counter, so N workers on one hot loop do not
    // contend.
    support::MutexLock L(WC.M);
    ShardStats &SC = WC.Row;
    SC.Executions += ExecsDone;
    SC.Exec += Acc;
    SC.Retried += Resp.Retries;
    SC.BreakerOpen += BreakerOpened;
    if (Out == Status::Ok) {
      ++SC.Completed;
    } else {
      ++SC.Failed;
      ++SC.ExecErrors;
    }
  }
  if (Out == Status::Ok) {
    Resp.OK = true;
    Resp.St = Status::Ok;
  } else {
    Resp.Stats.clear();
    Resp.St = Status::ExecError;
    Resp.Error = std::move(ErrMsg);
  }
  return Resp;
}

void Engine::serveTask(const Request &R,
                       const std::shared_ptr<std::promise<Response>> &Prom) {
  // A task that throws never reached process()'s own accounting; count
  // it here so chaos-run stats stay coherent.
  auto CountTaskFailure = [this] {
    WorkerCounters &WC = myCounters();
    support::MutexLock L(WC.M);
    ++WC.Row.Failed;
    ++WC.Row.ExecErrors;
  };
  Response Resp;
  try {
    // Worker-infrastructure fault point, distinct from faults inside the
    // execute path (which process() classifies itself).
    support::faultAt("serve.worker.task");
    Resp = process(R);
  } catch (const std::exception &Ex) {
    Resp.St = Status::ExecError;
    Resp.Error = std::string("worker task failed: ") + Ex.what();
    CountTaskFailure();
  } catch (...) {
    Resp.St = Status::ExecError;
    Resp.Error = "worker task failed: unknown exception";
    CountTaskFailure();
  }
  Prom->set_value(std::move(Resp));
  finishOne();
}

std::future<Response> Engine::submit(Request R) {
  auto Prom = std::make_shared<std::promise<Response>>();
  std::future<Response> Fut = Prom->get_future();
  {
    support::MutexLock L(FinMutex);
    ++Accepted;
  }
  const bool Queued = Queue.push([this, R, Prom] { serveTask(R, Prom); });
  if (!Queued) {
    // Engine shutting down (or the injected queue.push fault): resolve
    // the future instead of abandoning it. Nothing was admitted, so this
    // counts as rejected, not submitted.
    {
      support::MutexLock L(FinMutex);
      --Accepted;
      ++RejectedCount;
    }
    FinCv.notify_all();
    Response Resp;
    Resp.Error = "engine is shut down";
    Prom->set_value(std::move(Resp));
  }
  return Fut;
}

bool Engine::trySubmit(Request R, std::future<Response> &Out) {
  auto Prom = std::make_shared<std::promise<Response>>();
  std::future<Response> Fut = Prom->get_future();
  {
    support::MutexLock L(FinMutex);
    ++Accepted;
  }
  const bool Queued =
      Queue.tryPush([this, R, Prom] { serveTask(R, Prom); });
  if (!Queued) {
    {
      support::MutexLock L(FinMutex);
      --Accepted; // Nothing admitted; undo for drain accounting.
      ++RejectedCount;
    }
    // The transient ++Accepted may have parked a drain(); re-evaluate.
    FinCv.notify_all();
    return false;
  }
  Out = std::move(Fut);
  return true;
}

std::vector<std::future<Response>> Engine::submitBatch(
    std::vector<Request> Rs) {
  std::vector<std::future<Response>> Out;
  Out.reserve(Rs.size());
  for (Request &R : Rs)
    Out.push_back(submit(R));
  return Out;
}

void Engine::drain() {
  support::MutexLock L(FinMutex);
  while (Finished < Accepted)
    FinCv.wait(FinMutex);
}

ServeStats Engine::stats() const {
  support::SharedLock Cfg(ConfigLock);
  ServeStats Out;
  {
    support::MutexLock L(FinMutex);
    Out.Submitted = Accepted;
    Out.Rejected = RejectedCount;
    Out.Unroutable = UnroutableCount;
  }
  Out.QueueDepth = Queue.size();
  Out.PeakQueueDepth = Queue.peakDepth();
  ShardStats T;
  T.Programs = Programs.size();
  for (const ProgramEntry &PE : Programs) {
    const session::Session &S = *PE.Sess;
    T.PreparedLoops += S.numPreparedLoops();
    T.CompiledPreds += S.numCompiledPreds();
    T.CompiledUSRs += S.numCompiledUSRs();
    T.PooledFrames += S.numPooledFrames();
    T.ExecContexts += S.numExecContexts();
    T.PlansWarmStarted += S.numPlansWarmStarted();
  }
  // Merge every worker's accumulator row. A worker holds its row mutex
  // only for the += at the end of a request, so this snapshot neither
  // blocks nor skews serving.
  for (const std::unique_ptr<WorkerCounters> &WCP : PerWorker) {
    WorkerCounters &WC = *WCP;
    support::MutexLock L(WC.M);
    T += WC.Row;
  }
  Out.Expired = T.Expired;
  Out.Cancelled = T.Cancelled;
  Out.Retried = T.Retried;
  Out.BreakerOpen = T.BreakerOpen;
  Out.DegradedExecs = T.DegradedExecs;
  Out.Shards.push_back(std::move(T));
  return Out;
}
