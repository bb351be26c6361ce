//===- rt/Executor.cpp - Runtime: the execution governor ------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/Executor.h"

#include "pdag/PredEval.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "usr/USREval.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

using namespace halo;
using namespace halo::rt;
using namespace halo::ir;
using analysis::ArrayPlan;
using analysis::LoopPlan;
using analysis::TestCascade;
using sym::SymbolId;

namespace {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// HoistCache
//===----------------------------------------------------------------------===//

std::optional<bool> HoistCache::emptiness(const usr::USR *S,
                                          sym::Bindings &B,
                                          const sym::Context &Ctx,
                                          bool &WasHit,
                                          USRCompileCache *Compiled,
                                          ThreadPool *Pool,
                                          usr::USREvalStats *Stats,
                                          USRFramePool *Frames,
                                          const support::CancelToken *Cancel,
                                          bool BlockGates) {
  // Hash the values of the USR's free symbols (scalars + index arrays)
  // twice with independent mixings: H keys the cache, H2 verifies the hit
  // so a primary collision cannot silently return a wrong emptiness
  // answer. Both streams are framed — each symbol contributes its id and
  // each array its length before the values — so boundary-shifted inputs
  // (values migrating between adjacent arrays, or a value moving from
  // one unbound scalar's slot to another's) can never alias one stream.
  size_t H = 0;
  uint64_t H2 = 0x9e3779b97f4a7c15ULL;
  auto mix2 = [&H2](uint64_t V) {
    H2 = (H2 ^ V) * 0x100000001b3ULL; // FNV-1a-style, distinct from H.
  };
  for (sym::SymbolId Id : S->freeSymbols()) {
    const sym::Symbol &Info = Ctx.symbolInfo(Id);
    hashCombine(H, static_cast<size_t>(Id));
    mix2(static_cast<uint64_t>(Id));
    if (Info.IsArray) {
      const sym::ArrayBinding *A = B.array(Id);
      if (!A)
        return std::nullopt;
      hashCombine(H, A->Vals.size());
      hashCombine(H, static_cast<size_t>(A->Lo));
      hashRange(H, A->Vals.begin(), A->Vals.end());
      mix2(static_cast<uint64_t>(A->Vals.size()));
      mix2(static_cast<uint64_t>(A->Lo));
      for (int64_t V : A->Vals)
        mix2(static_cast<uint64_t>(V));
    } else {
      auto V = B.scalar(Id);
      if (!V)
        continue; // Bound variables of inner recurrences.
      hashCombine(H, static_cast<size_t>(*V));
      mix2(static_cast<uint64_t>(*V));
    }
  }
  Key K{S, static_cast<uint64_t>(H)};
  {
    // Probe under the lock; the (expensive) miss evaluation runs outside
    // it so concurrent executions never serialize on each other's exact
    // tests.
    support::MutexLock L(M);
    auto It = Cache.find(K);
    if (It != Cache.end() && It->second.Verify == H2) {
      WasHit = true;
      return It->second.Empty;
    }
    if (It != Cache.end())
      ++Collisions; // Same primary hash, different inputs: re-evaluate.
  }
  WasHit = false;
  // An aborted miss evaluation yields nullopt — no answer — so the `if
  // (V)` below can never cache a half-evaluated emptiness result on
  // behalf of a cancelled request.
  if (support::stopRequested(Cancel))
    return std::nullopt;
  auto V = Compiled ? Compiled->emptiness(S, B, Pool, Stats, Frames, Cancel,
                                          BlockGates)
                    : usr::evalUSREmpty(S, B, 1u << 22, Stats);
  if (support::stopRequested(Cancel))
    return std::nullopt;
  if (V) {
    support::MutexLock L(M);
    Cache[K] = Entry{H2, *V}; // Most recent inputs win the slot.
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Planned execution (the governor)
//===----------------------------------------------------------------------===//

namespace {

/// Runtime decision for one array: privatized (with static or dynamic
/// last value), and how its reductions update.
struct ArrayDecision {
  bool UseSLV = false;
  bool UseDLV = false;
  bool ReductionPrivate = false;
  /// BOUNDS-COMP's touched span [RedLo, RedHi] of a privately reduced
  /// array, when it was computed; private buffers cover only that span.
  bool HasSpan = false;
  int64_t RedLo = 0, RedHi = -1;
};

/// The body engine \p Tier selects: the compiled body, or null for the
/// reference interpreter (the interpreted tier, and a demoted body).
const CompiledBody *bodyEngine(const CompiledBody *Body, EvalTier Tier) {
  assert((Body || Tier == EvalTier::Interpreted) &&
         "the compiled tiers need the loop's compiled body");
  return Tier != EvalTier::Interpreted && Body && Body->lowered() ? Body
                                                                  : nullptr;
}

/// Counts \p Runs body runs on the engine \p Code names.
void countBodyRuns(const CompiledBody *Code, EvalTier Tier, uint64_t Runs,
                   ExecStats &Stats) {
  if (Code) {
    Stats.CompiledBodyRuns += Runs;
    return;
  }
  Stats.InterpBodyRuns += Runs;
  if (Tier != EvalTier::Interpreted)
    Stats.GuardDemotions += Runs;
}

/// Evaluates a cascade and returns the stage depth used (-1 static, -2
/// all failed). The interpreted tier walks the stages in cascade order;
/// the compiled tiers walk \p CC, cost-ordered at plan time, and run
/// O(N)+ stages through the chunked parallel and-reduction. \p Cancel
/// adds a poll before every stage: a fired token aborts the cascade and
/// returns -3 (no stage answer — distinct from -2 "all stages failed",
/// which routes to fallbacks).
int runCascade(const TestCascade &C, const CompiledCascade &CC,
               sym::Bindings &B, ThreadPool &Pool, ExecStats &Stats,
               FramePool &Frames, const support::CancelToken *Cancel,
               EvalTier Tier) {
  if (C.StaticallyTrue)
    return -1;

  // The tree-walking interpreter: the interpreted tier's reference path
  // and the demotion target of a stage whose lowering tripped a resource
  // guard. Each stage evaluation is counted once, by the governor.
  auto Interp = [&](const pdag::CascadeStage &St) {
    pdag::EvalStats ES;
    auto V = pdag::tryEvalPred(St.P, B, &ES);
    Stats.PredicateLeafEvals += ES.LeafEvals;
    ++Stats.InterpPredEvals;
    return V && *V;
  };
  if (Tier == EvalTier::Interpreted) {
    for (const pdag::CascadeStage &St : C.Stages) {
      if (support::stopRequested(Cancel))
        return -3; // Aborted: no stage answer (distinct from -2).
      if (Interp(St))
        return St.Depth;
    }
    return -2;
  }

  const pdag::BlockEval BE = Tier == EvalTier::Block ? pdag::BlockEval::Auto
                                                     : pdag::BlockEval::Off;
  for (const CompiledCascade::Stage &St : CC.Stages) {
    // Stage-boundary cancellation poll: the serving path runs inline
    // (1-thread sessions), so this — not the parallel chunk boundary —
    // is where a deadline fires between pieces of predicate work.
    if (support::stopRequested(Cancel))
      return -3;
    if (!St.Code) {
      // CompiledPred::compile returned null: same answer, only slower.
      ++Stats.GuardDemotions;
      if (Interp(*St.Source))
        return St.Source->Depth;
      continue;
    }
    pdag::EvalStats ES;
    // O(1) stages run inline; O(N)+ stages fan their root LoopAll range
    // out across the pool with the exact early-exit and-reduction.
    // Pooled frames skip per-execution frame allocation and, with
    // unchanged bindings, symbol re-binding.
    auto &PF = Frames.frameFor(St.Code);
    std::optional<bool> V =
        St.Code->loopDepth() >= 1
            ? St.Code->evalParallelPooled(PF, B, Pool, &ES, 4096, Cancel, BE)
            : St.Code->evalPooled(PF, B, &ES, BE);
    Stats.PredicateLeafEvals += ES.LeafEvals;
    Stats.PredMemoHits += ES.MemoHits;
    Stats.FrameBinds += ES.FrameBinds;
    Stats.FrameRebindsSkipped += ES.FrameRebindsSkipped;
    Stats.BlockEvals += ES.BlockEvals;
    Stats.ScalarEvals += ES.ScalarEvals;
    Stats.LanesPoisoned += ES.LanesPoisoned;
    ++Stats.CompiledPredEvals;
    if (V && *V)
      return St.Source->Depth;
  }
  return -2;
}

//===----------------------------------------------------------------------===//
// Parallel execution: planned or speculative
//===----------------------------------------------------------------------===//

/// Runs iterations [Lo, Hi] of \p Plan's loop across \p Pool, one
/// contiguous block per worker, with each array handled as \p Decisions
/// says, then merges the worker-private views into \p M. Blocks run on
/// \p Code (frames from \p Ctx), or on the interpreter when it is null. A
/// \p Speculate run (LRPD, contract in src/rt/README.md) returns false
/// with \p M untouched when it finds a cross-iteration flow dependence.
bool runParallel(const LoopPlan &Plan,
                 const std::map<SymbolId, ArrayDecision> &Decisions,
                 bool Speculate, int64_t Lo, int64_t Hi, Memory &M,
                 const sym::Bindings &B, ThreadPool &Pool,
                 const CompiledBody *Code, EvalTier Tier, ExecContext &Ctx,
                 ExecStats &Stats) {
  const DoLoop &Loop = *Plan.Loop;
  const unsigned NT = Pool.numThreads();

  // Per-worker private views and reduction buffers.
  std::map<SymbolId, std::vector<PrivateArray>> Views;
  std::map<SymbolId, std::vector<ReductionBuffer>> RedBufs;
  for (const auto &KV : Decisions) {
    const std::vector<double> *Shared = M.find(KV.first);
    if (!Shared)
      continue;
    const ArrayDecision &D = KV.second;
    const size_t N = Shared->size();
    if (D.UseSLV || D.UseDLV) {
      std::vector<PrivateArray> &Vs = Views[KV.first];
      Vs.resize(NT);
      for (PrivateArray &P : Vs) {
        P.Buf = *Shared; // Copy-in.
        if (D.UseSLV)
          P.Written.assign(N, 0);
        if (D.UseDLV)
          P.LastIter.assign(N, -1);
        if (Speculate)
          P.ExposedRead.assign(N, 0);
      }
    }
    if (D.ReductionPrivate) {
      // BOUNDS-COMP's span, clipped to the array; the whole array when
      // it did not run.
      int64_t SLo = 0, SHi = static_cast<int64_t>(N) - 1;
      if (D.HasSpan) {
        SLo = std::max<int64_t>(SLo, D.RedLo);
        SHi = std::min<int64_t>(SHi, D.RedHi);
      }
      const size_t Span = SHi >= SLo ? static_cast<size_t>(SHi - SLo + 1) : 0;
      Stats.ReductionSpanElems += Span;
      std::vector<ReductionBuffer> &Bufs = RedBufs[KV.first];
      Bufs.resize(NT);
      for (ReductionBuffer &RB : Bufs) {
        RB.Lo = SLo;
        RB.Buf.assign(Span, 0.0);
      }
    }
  }

  if (Code && Ctx.BodyFrames.size() < NT)
    Ctx.BodyFrames.resize(NT);
  std::vector<uint8_t> WorkerConflict(NT, 0), WorkerRan(NT, 0);
  Pool.parallelForBlocked(
      Lo, Hi + 1, [&](int64_t BLo, int64_t BHi, unsigned T) {
        WorkerViews V;
        V.Speculative = Speculate;
        for (auto &KV : Views)
          V.Private[KV.first] = &KV.second[T];
        for (auto &KV : RedBufs)
          V.RedBuf[KV.first] = &KV.second[T];
        WorkerRan[T] = 1;
        if (Code) {
          WorkerConflict[T] = Code->runBlock(Ctx.BodyFrames[T], M, B, V,
                                             Plan.Civ, BLo, BHi);
          return;
        }
        ExecState St(M, B);
        static_cast<WorkerViews &>(St) = std::move(V);
        // Seed CIVs from the precomputed entry values.
        for (const summary::CivDesc &D : Plan.Civ.Civs)
          if (const sym::ArrayBinding *A = St.B.array(D.EntryArr))
            if (A->inBounds(BLo))
              St.B.setScalar(D.Civ, A->at(BLo));
        for (int64_t I = BLo; I < BHi && !St.Conflict; ++I) {
          St.CurrentIter = I;
          St.B.setScalar(Loop.getVar(), I);
          for (const Stmt *C : Loop.getBody())
            interpStmt(C, St);
        }
        WorkerConflict[T] = St.Conflict;
      });
  countBodyRuns(Code, Tier,
                static_cast<uint64_t>(
                    std::count(WorkerRan.begin(), WorkerRan.end(), 1)),
                Stats);

  if (Speculate &&
      (std::count(WorkerConflict.begin(), WorkerConflict.end(), 1) ||
       std::any_of(Views.begin(), Views.end(), [](const auto &KV) {
         return flowAcrossWorkers(KV.second);
       })))
    return false;

  // Merge: reductions sum over each buffer's span; privatized views apply
  // in block (= iteration) order, so the last writer wins — SLV by its
  // written mask, DLV by its last-iteration marks.
  for (auto &KV : RedBufs) {
    std::vector<double> &Shared = *M.find(KV.first);
    const int64_t N = static_cast<int64_t>(Shared.size());
    for (const ReductionBuffer &RB : KV.second) {
      const int64_t Size = static_cast<int64_t>(RB.Buf.size());
      assert(RB.Lo >= 0 && RB.Lo + Size <= N &&
             "reduction buffer outside its array");
      for (int64_t I = std::max<int64_t>(0, -RB.Lo);
           I < Size && RB.Lo + I < N; ++I)
        Shared[static_cast<size_t>(RB.Lo + I)] +=
            RB.Buf[static_cast<size_t>(I)];
    }
  }
  for (auto &KV : Views) {
    std::vector<double> &Shared = *M.find(KV.first);
    for (const PrivateArray &P : KV.second)
      for (size_t I = 0; I < Shared.size(); ++I)
        if (P.Written.empty() ? P.LastIter[I] >= 0 : P.Written[I] != 0)
          Shared[I] = P.Buf[I];
  }
  return true;
}

} // namespace

void rt::runSequentialBody(const DoLoop &Loop, const CompiledBody *Body,
                           EvalTier Tier, Memory &M, sym::Bindings &B,
                           ExecContext &Ctx, ExecStats &Stats) {
  const CompiledBody *Code = bodyEngine(Body, Tier);
  countBodyRuns(Code, Tier, 1, Stats);
  if (!Code) {
    interpSequential(Loop, M, B);
    return;
  }
  if (Ctx.BodyFrames.empty())
    Ctx.BodyFrames.resize(1);
  Code->runSequential(Ctx.BodyFrames[0], M, B);
}

ExecStats rt::runPlanned(const LoopPlan &Plan, const PlanCascades &Pre,
                         const CompiledBody *Body, Memory &M,
                         sym::Bindings &B, ThreadPool &Pool, ExecContext &Ctx,
                         HoistCache &Hoist, USRCompileCache &UsrCompile,
                         EvalTier Tier) {
  assert(Pre.Arrays.size() == Plan.Arrays.size() &&
         "plan cascades must be built from this plan");
  support::faultAt("rt.exec");
  const support::CancelToken *Cancel = Ctx.Cancel;
  ExecStats Stats;
  double T0 = nowSeconds();
  const DoLoop &Loop = *Plan.Loop;

  // Classifies a fired token into the stats and finalizes timing. Every
  // abort below fires *between* units of work: either nothing ran yet, or
  // only complete phases (CIV slice, decided predicates) ran — the
  // caller's Memory is never left mid-loop-body.
  auto finishAborted = [&]() -> ExecStats {
    Stats.Aborted =
        Cancel->state() == support::CancelToken::State::Expired
            ? ExecStats::AbortReason::Expired
            : ExecStats::AbortReason::Cancelled;
    Stats.TotalSeconds = nowSeconds() - T0;
    return Stats;
  };
  if (support::stopRequested(Cancel))
    return finishAborted();

  // Loops proven dependent (or abandoned by the static-only baseline)
  // execute sequentially without any dynamic machinery.
  if (Plan.Class == analysis::LoopClass::StaticSeq ||
      (!Plan.RuntimeTestsEnabled &&
       Plan.Class != analysis::LoopClass::StaticPar)) {
    runSequentialBody(Loop, Body, Tier, M, B, Ctx, Stats);
    Stats.TotalSeconds = nowSeconds() - T0;
    return Stats;
  }

  // CIV-COMP.
  if (!Plan.Civ.empty()) {
    double TS = nowSeconds();
    interpCivSlice(Loop, Plan.Civ, M, B);
    Stats.CivSliceSeconds = nowSeconds() - TS;
  }

  // Per-array decisions.
  std::map<SymbolId, ArrayDecision> Decisions;
  bool AllOk = true;
  bool AbortRun = false;
  double TP = nowSeconds();
  for (size_t PI = 0; PI < Plan.Arrays.size() && !AbortRun; ++PI) {
    const ArrayPlan &AP = Plan.Arrays[PI];
    if (AP.ReadOnly)
      continue;
    if (support::stopRequested(Cancel)) {
      AbortRun = true;
      break;
    }
    const PlanCascades::ArrayCascades &AC = Pre.Arrays[PI];
    auto Casc = [&](const TestCascade &C, const CompiledCascade &CC) -> int {
      int D = runCascade(C, CC, B, Pool, Stats, Ctx.Frames, Cancel, Tier);
      if (D == -3)
        AbortRun = true;
      return D;
    };
    ArrayDecision D;
    // Exact USR evaluation is deployed only when its cost amortizes
    // across repeated executions (Sec. 5: "If we can amortize the cost of
    // the exact test ... we use direct evaluation of IND-USR, otherwise
    // we use TLS"). HoistCache misses evaluate through the compiled
    // interval-run engine on the compiled tiers and through the reference
    // interpreter on the interpreted one; each evaluation is counted
    // once, here, on whichever path it took.
    USRCompileCache *UC =
        Tier == EvalTier::Interpreted ? nullptr : &UsrCompile;
    auto ExactEmpty = [&](const usr::USR *S) -> bool {
      if (!S || !Plan.Hoistable)
        return false;
      double TE = nowSeconds();
      usr::USREvalStats US;
      bool Hit = false;
      std::optional<bool> V = Hoist.emptiness(
          S, B, UsrCompile.symCtx(), Hit, UC, &Pool, &US, &Ctx.UsrFrames,
          Cancel, Tier == EvalTier::Block);
      // A demoted evaluation ran on the interpreter even though the
      // compiled cache was consulted — count it in the interpreted column
      // so the compiled/interpreted split stays truthful.
      bool Demoted = US.GuardDemotions > 0;
      if (!Hit)
        ++(UC && !Demoted ? Stats.CompiledUSREvals : Stats.InterpUSREvals);
      Stats.GuardDemotions += US.GuardDemotions;
      Stats.USRRunsProduced += US.RunsProduced;
      Stats.USRPointsAvoided += US.PointsAvoided;
      Stats.BlockEvals += US.GateBlockEvals;
      Stats.ScalarEvals += US.GateScalarEvals;
      Stats.LanesPoisoned += US.GateLanesPoisoned;
      Stats.ExactTestSeconds += nowSeconds() - TE;
      Stats.UsedExactTest = true;
      // An exact-test boundary is also a cancellation boundary: a fired
      // token means V is nullopt (no answer), which must abort the run
      // rather than read as "not independent" and route to fallbacks.
      if (support::stopRequested(Cancel))
        AbortRun = true;
      return V.value_or(false);
    };

    // Flow independence.
    int FD = Casc(AP.Flow, AC.Flow);
    if (AbortRun)
      break;
    if (FD == -2 && !ExactEmpty(AP.FlowUSR)) {
      AllOk = false;
      break;
    }
    Stats.CascadeDepthUsed = std::max(Stats.CascadeDepthUsed, FD);

    // Output independence, else privatization.
    int OD = Casc(AP.Output, AC.Output);
    if (OD == -2) {
      int PD = Casc(AP.Priv, AC.Priv);
      if (PD == -2 && !ExactEmpty(AP.OutputUSR)) {
        AllOk = false;
        break;
      }
      if (PD != -2) {
        int SD = Casc(AP.Slv, AC.Slv);
        (SD != -2 ? D.UseSLV : D.UseDLV) = true;
        Stats.CascadeDepthUsed =
            std::max(Stats.CascadeDepthUsed, std::max(PD, SD));
      }
    } else {
      Stats.CascadeDepthUsed = std::max(Stats.CascadeDepthUsed, OD);
    }
    if (AbortRun)
      break;

    // Reductions.
    if (AP.HasReduction) {
      if (AP.ExtRedUSR) { // EXT-RRED: direct writes coexist.
        int ED = Casc(AP.ExtRedFlow, AC.ExtRedFlow);
        if (ED == -2 && !ExactEmpty(AP.ExtRedUSR)) {
          AllOk = false;
          break;
        }
      }
      int RD = Casc(AP.RRed, AC.RRed);
      if (AbortRun)
        break;
      D.ReductionPrivate = (RD == -2); // Injective => direct updates.
      // BOUNDS-COMP sizes the private reduction copies (Fig. 7a); a
      // failed evaluation keeps them whole-array.
      if (D.ReductionPrivate && AP.NeedsBoundsComp && AP.BoundsUSR) {
        double TB = nowSeconds();
        D.HasSpan = interpBounds(AP.BoundsUSR, B, Pool, D.RedLo, D.RedHi);
        Stats.BoundsCompSeconds += nowSeconds() - TB;
      }
    }
    Decisions[AP.Array] = D;
  }
  Stats.PredicateSeconds =
      nowSeconds() - TP - Stats.ExactTestSeconds - Stats.BoundsCompSeconds;

  // Last poll before committing to body execution (parallel, speculative
  // or sequential): once a body starts, it runs to completion so the
  // caller's Memory is never partially updated.
  if (AbortRun || support::stopRequested(Cancel))
    return finishAborted();

  // When the tests could not clear every array, speculate (LRPD) with
  // every array the loop may write buffered, and run sequentially on a
  // conflict or when runtime tests are off.
  const bool Speculate = !AllOk;
  if (Speculate) {
    Stats.UsedTLS = Plan.RuntimeTestsEnabled;
    Decisions.clear();
    for (const ArrayPlan &AP : Plan.Arrays)
      if (!AP.ReadOnly)
        Decisions[AP.Array].UseDLV = true;
  }
  const int64_t Lo = sym::eval(Loop.getLo(), B);
  const int64_t Hi = sym::eval(Loop.getHi(), B);
  if (Lo <= Hi) {
    if ((!Speculate || Stats.UsedTLS) &&
        runParallel(Plan, Decisions, Speculate, Lo, Hi, M, B, Pool,
                    bodyEngine(Body, Tier), Tier, Ctx, Stats)) {
      Stats.RanParallel = true;
      Stats.TLSSucceeded = Speculate;
    } else {
      runSequentialBody(Loop, Body, Tier, M, B, Ctx, Stats);
    }
  }
  Stats.TotalSeconds = nowSeconds() - T0;
  return Stats;
}
