//===- perfbench/src/SuiteExec.cpp - The suite-exec workload --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Execute-many: one caller thread runs every suite loop through
// Session::runPrepared (SessionOptions::Threads = 1) in a seeded order, on
// a fresh Scale-2 dataset per op, against plans warm-started from the
// compiled .hplan set. Every op is checked against Session::runSequential
// on an identical dataset.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "session/Session.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace halo;

namespace perfbench {

namespace {

constexpr int64_t Scale = 2;
/// Passes over the 87 loops per second of --seconds. Fixed work per run:
/// the op count never follows the machine's speed.
constexpr double PassesPerSecond = 15.0;
/// Set-ups per run, each followed by an equal share of the passes.
constexpr unsigned Blocks = 10;
/// Untraced ops per reference tick.
constexpr size_t TickEvery = 4;

/// A warm-started suite: the programs and one session per program.
/// Sessions are declared after the suite so they are destroyed first.
struct WarmSuite {
  std::vector<std::unique_ptr<suite::Benchmark>> Suite;
  std::vector<std::unique_ptr<session::Session>> Sessions;
  uint64_t PlanBytes = 0;
  size_t WarmStarted = 0;
  /// Per program: loadPlans plus the adopting prepare calls.
  std::vector<Timed> WarmMs;
};

/// Builds the suite and warm-starts every program from \p PlansDir.
/// Returns an empty string on success, else what failed.
std::string warmStart(const std::string &PlansDir, WarmSuite &W) {
  W.Suite = suite::buildAllBenchmarks();
  session::SessionOptions SO;
  SO.Threads = 1;
  for (auto &B : W.Suite) {
    auto S = std::make_unique<session::Session>(B->prog(), B->usr(), SO);
    const std::string Path = PlansDir + "/" + planFileName(B->Name);
    std::ifstream F(Path, std::ios::binary);
    if (!F)
      return "cannot read " + Path;
    std::stringstream Bytes;
    Bytes << F.rdbuf();
    W.PlanBytes += Bytes.str().size();
    const int64_t T0 = nowNs();
    try {
      Span Sp("plan.load");
      plan::LoadResult LR = S->loadPlans(Bytes);
      if (LR.Rejected)
        return Path + ": plans rejected";
    } catch (const std::exception &E) {
      return Path + ": " + E.what();
    }
    for (const suite::LoopSpec &LS : B->Loops) {
      Span Sp("plan.adopt");
      S->prepare(*LS.Loop);
    }
    W.WarmMs.push_back({msBetween(T0, nowNs()), T0});
    if (S->numPlansWarmStarted() != B->Loops.size() ||
        S->numPlanKeyCollisions() != 0)
      return B->Name + ": " + std::to_string(S->numPlansWarmStarted()) +
             " of " + std::to_string(B->Loops.size()) + " plans warm-started";
    W.WarmStarted += S->numPlansWarmStarted();
    W.Sessions.push_back(std::move(S));
  }
  return "";
}

} // namespace

void runSuiteExec(const Config &C, Result &R) {
  const unsigned Passes = std::max(
      Blocks, static_cast<unsigned>(std::lround(C.Seconds * PassesPerSecond)));
  Rng G(C.Seed);
  std::vector<size_t> Order;

  // The run is Blocks blocks, each a fresh set-up (suite build + warm
  // start) followed by its share of the passes: set-up samples spread over
  // the whole run instead of one burst of the host's speed. Traced runs
  // alternate untraced and traced passes (same op mix in both halves);
  // end-to-end figures always come from untraced passes.
  Figures F;
  std::vector<double> OpMs, TracedOpMs, SeqMs, OverheadMs, Ratio;
  rt::ExecStats Sum;
  uint64_t Par = 0, Tls = 0, Exact = 0, DepthN = 0, TracedOps = 0;
  double DepthSum = 0;
  uint64_t OpId = 0;
  WarmSuite W;
  RefClock Ref;
  for (unsigned Blk = 0; Blk < Blocks; ++Blk) {
    Tracer::enable(C.Trace);
    Tracer::setOp(0);
    W = WarmSuite();
    const int64_t T0 = nowNs();
    std::string Err = warmStart(C.PlansDir, W);
    F.SetupS.push_back(1e-3 * msBetween(T0, nowNs()));
    if (!Err.empty()) {
      R.fail("warm start: " + Err);
      return;
    }
    F.Warm.insert(F.Warm.end(), W.WarmMs.begin(), W.WarmMs.end());
    // suite_prepare_ref: the whole suite's warm start, which is what
    // preparing the suite costs when its plans are cached.
    F.Prepares.push_back(W.WarmMs);
    const std::vector<LoopRef> Loops = allLoops(W.Suite);
    std::vector<std::set<sym::SymbolId>> RedTargets;
    for (const LoopRef &L : Loops)
      RedTargets.push_back(reductionTargets(
          W.Sessions[L.Prog]->prepare(*W.Suite[L.Prog]->Loops[L.Loop].Loop)
              .Plan));
    if (Order.empty())
      for (size_t I = 0; I < Loops.size(); ++I)
        Order.push_back(I);

    const unsigned BlockPasses =
        Passes / Blocks + (Blk < Passes % Blocks ? 1u : 0u);
    for (unsigned P = 0; P < BlockPasses * (C.Trace ? 2u : 1u); ++P) {
      const bool Traced = C.Trace && P % 2 == 1;
      Tracer::enable(Traced);
      if (!Traced)
        G.shuffle(Order);
      for (size_t Idx : Order) {
        const LoopRef &L = Loops[Idx];
        suite::Benchmark &B = *W.Suite[L.Prog];
        const ir::DoLoop &Loop = *B.Loops[L.Loop].Loop;
        session::Session &S = *W.Sessions[L.Prog];
        Tracer::setOp(++OpId);
        Span OpSpan("suite-exec.op");
        rt::Memory M, SM;
        sym::Bindings Bd, SB;
        {
          Span Sp("suite.dataset");
          B.Setup(M, Bd, Scale);
          B.Setup(SM, SB, Scale);
        }
        ++R.Attempted;
        std::optional<rt::ExecStats> St;
        int64_t T0, T1;
        {
          Span Sp("rt.run_prepared");
          T0 = nowNs();
          St = S.runPrepared(Loop, M, Bd);
          T1 = nowNs();
        }
        int64_t T2, T3;
        {
          Span Sp("rt.run_sequential");
          T2 = nowNs();
          if (C.InjectSeqMs > 0)
            busyWaitMs(C.InjectSeqMs);
          S.runSequential(Loop, SM, SB);
          T3 = nowNs();
        }
        std::string Why;
        {
          Span Sp("check");
          if (!St)
            Why = "loop not prepared";
          else if (St->Aborted != rt::ExecStats::AbortReason::None)
            Why = "execution aborted";
          else
            Why = compareMemory(M, SM, RedTargets[Idx]);
        }
        if (!Why.empty()) {
          ++R.Failed;
          R.fail(B.Name + "/" + B.Loops[L.Loop].Name + ": " + Why);
          continue;
        }
        const double Ms = msBetween(T0, T1);
        if (!Traced) {
          OpMs.push_back(Ms);
          F.Ops.push_back({Ms, T0});
          if (OpMs.size() % TickEvery == 0)
            Ref.tick();
          continue;
        }
        TracedOpMs.push_back(Ms);
        const double Seq = msBetween(T2, T3);
        SeqMs.push_back(Seq);
        OverheadMs.push_back(Ms - Seq);
        Ratio.push_back(Seq > 0 ? Ms / Seq : 0);
        Sum += *St;
        ++TracedOps;
        Par += St->RanParallel;
        Tls += St->UsedTLS;
        Exact += St->UsedExactTest;
        if (St->CascadeDepthUsed >= 0) {
          DepthSum += St->CascadeDepthUsed;
          ++DepthN;
        }
      }
    }
  }
  Tracer::enable(false);

  F.Busy = F.Ops;
  F.Done = F.Ops.size();
  F.PlanBytes = W.PlanBytes;
  addEndToEnd(R, F, Ref);

  if (!C.Trace)
    return;
  auto &Ly = R.Layer;
  auto Spans = Tracer::aggregate();
  Ly["plan.load_ms_p50"] = median(Spans["plan.load"].TotalMs);
  Ly["plan.adopt_ms_p50"] = median(Spans["plan.adopt"].TotalMs);
  Ly["plan.bytes"] = static_cast<double>(W.PlanBytes);
  Ly["plan.warm_started"] = static_cast<double>(W.WarmStarted);
  size_t Preds = 0, Usrs = 0;
  for (auto &S : W.Sessions) {
    Preds += S->numCompiledPreds();
    Usrs += S->numCompiledUSRs();
  }
  Ly["session.compiled_preds"] = static_cast<double>(Preds);
  Ly["session.compiled_usrs"] = static_cast<double>(Usrs);
  Ly["rt.overhead_ms_p50"] = median(OverheadMs);
  Ly["rt.seq_ms_p50"] = median(SeqMs);
  Ly["rt.par_seq_geomean"] = geomean(Ratio);
  addExecStats(Ly, Sum, TracedOps, Par, Tls, Exact,
               DepthN ? DepthSum / static_cast<double>(DepthN) : 0);
  addTraceOverhead(R, OpMs, TracedOpMs);
  addSelfTimeTable(R, Spans);
}

} // namespace perfbench
