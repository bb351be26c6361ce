//===- bench/BenchUtil.h - Shared harness helpers --------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and execution helpers shared by the table/figure harnesses.
/// Each harness regenerates one table or figure of the paper's evaluation
/// (see docs/BENCHMARKS.md, one section per harness).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCH_BENCHUTIL_H
#define HALO_BENCH_BENCHUTIL_H

#include "session/Session.h"
#include "suite/Suite.h"

#include <chrono>
#include <cstdio>
#include <string>

namespace halo {
namespace benchutil {

inline double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// One benchmark's timing under a given thread count and analyzer options.
struct BenchTiming {
  double SeqSeconds = 0;       ///< All loops, sequential interpretation.
  double ParSeconds = 0;       ///< All loops under their plans.
  double TestOverheadSec = 0;  ///< Predicate + CIV + bounds + exact time.
  bool AnyTLS = false;
  /// Cascade evaluation counters from the best parallel repetition (the
  /// compiled/interpreted split and the invariant-memoization win).
  uint64_t PredMemoHits = 0;
  uint64_t CompiledPredEvals = 0;
  uint64_t InterpPredEvals = 0;
  /// Frame-pool effectiveness across the best repetition.
  uint64_t FrameBinds = 0;
  uint64_t FrameRebindsSkipped = 0;
  /// Exact-test (HOIST-USR) evaluations by engine, and the enumeration
  /// work the compiled interval-run engine avoided.
  uint64_t CompiledUSREvals = 0;
  uint64_t InterpUSREvals = 0;
  uint64_t USRPointsAvoided = 0;
};

/// Builds a session for \p B sized for \p Threads workers on evaluation
/// tier \p Tier: every bench harness runs through halo::Session, which
/// owns the plan cache, compiled cascades, HOIST-USR cache, frame pool and
/// thread pool.
inline session::Session makeSession(suite::Benchmark &B, unsigned Threads,
                                    rt::EvalTier Tier = rt::EvalTier::Block) {
  session::SessionOptions SO;
  SO.Threads = Threads;
  SO.Tier = Tier;
  return session::Session(B.prog(), B.usr(), SO);
}

/// Prepares every measured loop of \p B in \p S once (the paper's static
/// phase), probing with a dataset at \p Scale.
inline void prepareBenchmark(session::Session &S, suite::Benchmark &B,
                             int64_t Scale, bool RuntimeTests = true) {
  rt::Memory M;
  sym::Bindings Bd;
  B.Setup(M, Bd, Scale);
  for (const suite::LoopSpec &LS : B.Loops) {
    analysis::AnalyzerOptions Opts;
    Opts.RuntimeTests = RuntimeTests;
    Opts.Probe = &Bd;
    Opts.HoistableContext = LS.Hoistable;
    S.prepare(*LS.Loop, Opts);
  }
}

/// Analyzes every loop of \p B once (into a session) and executes the
/// whole benchmark (all measured loops, in order) sequentially and under
/// the plans. Scale sizes the synthetic datasets so loop granularities
/// are large enough to amortize thread spawning (the paper makes the same
/// point about PERFECT-CLUB's outdated small datasets in Sec. 6.2).
inline BenchTiming timeBenchmark(suite::Benchmark &B, unsigned Threads,
                                 int64_t Scale,
                                 bool RuntimeTests = true,
                                 int Repeats = 3,
                                 rt::EvalTier Tier = rt::EvalTier::Block) {
  BenchTiming Out;

  // One long-lived session, as in the paper's runtime: plans, compiled
  // cascades and pooled frames are set up once and amortized across every
  // repeated execution below.
  session::Session S = makeSession(B, Threads, Tier);
  prepareBenchmark(S, B, Scale, RuntimeTests);

  double SeqBest = 1e30, ParBest = 1e30, OvAtBest = 0;
  for (int R = 0; R < Repeats; ++R) {
    {
      rt::Memory M;
      sym::Bindings Bd;
      B.Setup(M, Bd, Scale);
      double T0 = nowSeconds();
      for (const suite::LoopSpec &LS : B.Loops)
        S.runSequential(*LS.Loop, M, Bd);
      SeqBest = std::min(SeqBest, nowSeconds() - T0);
    }
    {
      rt::Memory M;
      sym::Bindings Bd;
      B.Setup(M, Bd, Scale);
      double T0 = nowSeconds();
      double Ov = 0;
      bool TLS = false;
      uint64_t Memo = 0, Compiled = 0, Interp = 0, Binds = 0, Skips = 0;
      uint64_t UsrC = 0, UsrI = 0, UsrAvoided = 0;
      for (const suite::LoopSpec &LS : B.Loops) {
        rt::ExecStats St = S.run(*LS.Loop, M, Bd);
        Ov += St.PredicateSeconds + St.CivSliceSeconds +
              St.ExactTestSeconds + St.BoundsCompSeconds;
        TLS |= St.UsedTLS;
        Memo += St.PredMemoHits;
        Compiled += St.CompiledPredEvals;
        Interp += St.InterpPredEvals;
        Binds += St.FrameBinds;
        Skips += St.FrameRebindsSkipped;
        UsrC += St.CompiledUSREvals;
        UsrI += St.InterpUSREvals;
        UsrAvoided += St.USRPointsAvoided;
      }
      double T = nowSeconds() - T0;
      if (T < ParBest) {
        ParBest = T;
        OvAtBest = Ov;
        Out.PredMemoHits = Memo;
        Out.CompiledPredEvals = Compiled;
        Out.InterpPredEvals = Interp;
        Out.FrameBinds = Binds;
        Out.FrameRebindsSkipped = Skips;
        Out.CompiledUSREvals = UsrC;
        Out.InterpUSREvals = UsrI;
        Out.USRPointsAvoided = UsrAvoided;
      }
      Out.AnyTLS |= TLS;
    }
  }
  Out.SeqSeconds = SeqBest;
  Out.ParSeconds = ParBest;
  Out.TestOverheadSec = OvAtBest;
  return Out;
}

} // namespace benchutil
} // namespace halo

#endif // HALO_BENCH_BENCHUTIL_H
