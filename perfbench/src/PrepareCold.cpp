//===- perfbench/src/PrepareCold.cpp - The prepare-cold workload ----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Compile: for each suite loop, in seeded order, one op builds the suite
// fresh and runs Session::prepare on that loop in new contexts (analyzer
// defaults, as serve::Engine and halo_planc use them, so every plan can be
// saved), then savePlans. After each pass, per program, the warm start:
// loadPlans of the compiled .hplan plus the adopting prepare calls, in
// fresh contexts.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "factor/Factor.h"
#include "session/Session.h"
#include "summary/Independence.h"
#include "summary/Summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace halo;

namespace perfbench {

namespace {

/// Seconds of --seconds per cold pass over the suite (one pass takes
/// 11-14 s on the reference machine). A pass is the unit of work: the op
/// count never follows the machine's speed.
constexpr double SecondsPerPass = 12.0;
/// suite_prepare_ref is a median over passes, so a run makes at least this
/// many, whatever --seconds asks for.
constexpr unsigned MinPasses = 3;
/// Warm starts of the whole suite after each pass (warm_ref_p50 samples
/// them all).
constexpr unsigned WarmRepeats = 3;
/// Loops listed in the slowest-cold-prepare table.
constexpr size_t SlowestShown = 12;

session::SessionOptions sessionOptions() {
  session::SessionOptions SO;
  SO.Threads = 1;
  return SO;
}

/// HybridAnalyzer::lastFactorStats, summed over the traced loops.
struct FactorCounts {
  uint64_t FmUses = 0;
  uint64_t BudgetBailouts = 0;
  uint64_t RulesFired = 0;

  void add(const factor::FactorStats &S) {
    FmUses += S.FourierMotzkinUses;
    BudgetBailouts += S.BudgetBailouts;
    RulesFired += S.GateRule + S.UnionRule + S.SubtractRule +
                  S.IntersectRule + S.RecurRule + S.MonotonicityRule +
                  S.InvariantOverRule + S.LmadDisjointRule +
                  S.LmadIncludedRule + S.FillsArrayRule;
  }
};

/// Traced only: the analysis layer's public calls on \p LoopIdx of a fresh
/// suite, timed apart from Session::prepare. Returns the
/// HybridAnalyzer::analyze time in ms.
double traceAnalysis(const LoopRef &L, FactorCounts &FC) {
  double AnalyzeMs;
  {
    auto Suite = suite::buildAllBenchmarks();
    suite::Benchmark &B = *Suite[L.Prog];
    analysis::HybridAnalyzer A(B.usr(), B.prog());
    const int64_t T0 = nowNs();
    {
      Span Sp("analysis.analyze");
      (void)A.analyze(*B.Loops[L.Loop].Loop);
    }
    AnalyzeMs = msBetween(T0, nowNs());
    FC.add(A.lastFactorStats());
  }
  // The summary and the independence equations factorized one by one, in
  // their own fresh contexts.
  auto Suite = suite::buildAllBenchmarks();
  suite::Benchmark &B = *Suite[L.Prog];
  const ir::DoLoop &Loop = *B.Loops[L.Loop].Loop;
  usr::USRContext &Ctx = B.usr();
  summary::CivPlan Civ;
  summary::RegionSummary Iter;
  {
    Span Sp("analysis.summary");
    summary::SummaryBuilder SB(Ctx, B.prog());
    Iter = SB.summarizeIteration(Loop, Civ);
  }
  const summary::LoopSpace Space{Loop.getVar(), Loop.getLo(), Loop.getHi()};
  for (const auto &KV : Iter.Arrays) {
    const summary::AccessTriple &T = KV.second;
    const usr::USR *WF = T.WF ? T.WF : Ctx.empty();
    const usr::USR *RW = T.RW ? T.RW : Ctx.empty();
    const usr::USR *Writes = Ctx.union2(WF, RW);
    if (Writes->isEmptySet())
      continue;
    factor::Factorizer F(Ctx, analysis::AnalyzerOptions().Factor);
    if (const ir::ArrayDecl *D = B.prog().findArrayDecl(KV.first))
      if (D->Size)
        F.setArraySize(D->Size);
    const usr::USR *Flow = summary::buildFlowIndepUSR(Ctx, Space, T);
    const usr::USR *Out = summary::buildOutputIndepUSR(Ctx, Space, Writes);
    Span Sp("analysis.factor");
    (void)F.factor(Flow);
    (void)F.factor(Out);
  }
  return AnalyzeMs;
}

/// New contexts for one program: a fresh suite build and a session on it.
/// The session is declared after the suite so it is destroyed first.
struct Fresh {
  std::vector<std::unique_ptr<suite::Benchmark>> Suite;
  std::unique_ptr<session::Session> S;

  void build(size_t Prog) {
    Suite = suite::buildAllBenchmarks();
    S = std::make_unique<session::Session>(Suite[Prog]->prog(),
                                           Suite[Prog]->usr(),
                                           sessionOptions());
  }
};

/// Reads every program's .hplan file from \p PlansDir into \p Plans.
/// Returns an empty string on success, else what failed.
std::string
readPlans(const std::string &PlansDir,
          const std::vector<std::unique_ptr<suite::Benchmark>> &Suite,
          std::vector<std::string> &Plans) {
  for (const auto &B : Suite) {
    const std::string Path = PlansDir + "/" + planFileName(B->Name);
    std::ifstream F(Path, std::ios::binary);
    if (!F)
      return "cannot read " + Path;
    std::stringstream Bytes;
    Bytes << F.rdbuf();
    Plans.push_back(Bytes.str());
  }
  return "";
}

/// After a pass: WarmRepeats times, warm-start every program in fresh
/// contexts from its compiled plans (loadPlans plus the adopting prepare
/// calls), checking that every plan is adopted and has the class the
/// pass's cold prepare computed. Ticks \p Ref (when given) after each warm
/// start.
void warmStarts(const std::vector<std::string> &Plans,
                const std::vector<std::string> &ColdClass,
                std::vector<Timed> &WarmMs, size_t &WarmStarted, RefClock *Ref,
                Result &R) {
  for (unsigned Rep = 0; Rep < WarmRepeats; ++Rep) {
    size_t Idx = 0;
    WarmStarted = 0;
    for (size_t Prog = 0; Prog < Plans.size(); ++Prog) {
      Fresh W;
      W.build(Prog);
      suite::Benchmark &B = *W.Suite[Prog];
      std::istringstream In(Plans[Prog]);
      std::vector<const session::PreparedLoop *> PLs;
      const int64_t T0 = nowNs();
      try {
        {
          Span Sp("plan.load");
          W.S->loadPlans(In);
        }
        for (const suite::LoopSpec &LS : B.Loops) {
          Span Sp("plan.adopt");
          PLs.push_back(&W.S->prepare(*LS.Loop));
        }
      } catch (const std::exception &E) {
        R.fail(B.Name + ": warm start: " + E.what());
        return;
      }
      WarmMs.push_back({msBetween(T0, nowNs()), T0});
      if (Ref)
        Ref->tick();
      if (W.S->numPlansWarmStarted() != B.Loops.size() ||
          W.S->numPlanKeyCollisions() != 0)
        R.fail(B.Name + ": " + std::to_string(W.S->numPlansWarmStarted()) +
               " of " + std::to_string(B.Loops.size()) +
               " plans warm-started");
      for (const session::PreparedLoop *PL : PLs)
        if (PL->Plan.classString() != ColdClass[Idx++])
          R.fail(B.Name + ": warm plan class differs from the cold one");
      WarmStarted += W.S->numPlansWarmStarted();
    }
  }
}

} // namespace

void runPrepareCold(const Config &C, Result &R) {
  const std::vector<std::unique_ptr<suite::Benchmark>> Ref =
      suite::buildAllBenchmarks();
  const std::vector<LoopRef> Loops = allLoops(Ref);
  const unsigned Passes = std::max(
      MinPasses, static_cast<unsigned>(std::lround(C.Seconds / SecondsPerPass)));
  std::vector<std::string> Plans;
  if (std::string Err = readPlans(C.PlansDir, Ref, Plans); !Err.empty()) {
    R.fail(Err);
    return;
  }

  Rng G(C.Seed);
  std::vector<size_t> Order(Loops.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Figures F;
  for (const std::string &P : Plans)
    F.PlanBytes += P.size();
  std::vector<double> OpMs, TracedOpMs, LowerMs;
  std::vector<Timed> TracedWarmMs;
  std::vector<std::vector<double>> PerLoopMs(Loops.size());
  std::vector<std::string> ColdClass(Loops.size());
  FactorCounts FC;
  size_t CompiledPreds = 0, CompiledUsrs = 0, WarmStarted = 0;
  uint64_t OpId = 0;
  RefClock Clock;
  // Every op gets new contexts: a fresh suite build and a fresh session on
  // its program, so no op's cost depends on the ops before it. Building
  // them is the op's set-up (setup_s), timed apart from the op. After each
  // pass every program is warm-started from its compiled plans. A traced
  // run adds one traced pass after the untraced ones.
  for (unsigned P = 0; P < Passes + (C.Trace ? 1u : 0u); ++P) {
    const bool Traced = P == Passes;
    Tracer::enable(Traced);
    Tracer::setOp(0);
    G.shuffle(Order);
    std::vector<Timed> Pass;
    for (size_t Idx : Order) {
      const LoopRef &L = Loops[Idx];
      Tracer::setOp(++OpId);
      double AnalyzeMs = 0;
      if (Traced)
        AnalyzeMs = traceAnalysis(L, FC);
      Fresh Fr;
      const int64_t S0 = nowNs();
      {
        Span Sp("suite.build");
        Fr.build(L.Prog);
      }
      if (!Traced)
        F.SetupS.push_back(1e-3 * msBetween(S0, nowNs()));
      Span OpSpan("prepare-cold.op");
      suite::Benchmark &B = *Fr.Suite[L.Prog];
      const suite::LoopSpec &LS = B.Loops[L.Loop];
      ++R.Attempted;
      const session::PreparedLoop *PL = nullptr;
      std::string Why;
      int64_t T0 = 0, T1 = 0;
      try {
        {
          Span Sp("session.prepare");
          T0 = nowNs();
          PL = &Fr.S->prepare(*LS.Loop);
          T1 = nowNs();
        }
        // Every cold plan must save; the warm starts load the compiled set.
        std::ostringstream Out;
        Span Sp("plan.save");
        Fr.S->savePlans(Out);
      } catch (const std::exception &E) {
        Why = E.what();
      }
      if (!PL || !Why.empty()) {
        ++R.Failed;
        R.fail(B.Name + "/" + LS.Name + ": " + Why);
        continue;
      }
      ColdClass[Idx] = PL->Plan.classString();
      const double Ms = msBetween(T0, T1);
      if (Traced) {
        TracedOpMs.push_back(Ms);
        LowerMs.push_back(Ms - AnalyzeMs);
        CompiledPreds += Fr.S->numCompiledPreds();
        CompiledUsrs += Fr.S->numCompiledUSRs();
      } else {
        OpMs.push_back(Ms);
        Pass.push_back({Ms, T0});
        PerLoopMs[Idx].push_back(Ms);
        Clock.tick();
      }
    }
    if (!Traced) {
      F.Ops.insert(F.Ops.end(), Pass.begin(), Pass.end());
      F.Prepares.push_back(Pass);
    }
    Tracer::enable(C.Trace);
    Tracer::setOp(0);
    warmStarts(Plans, ColdClass, Traced ? TracedWarmMs : F.Warm, WarmStarted,
               Traced ? nullptr : &Clock, R);
  }
  Tracer::enable(false);

  // The paper's categories are defined under a probe dataset and the
  // loop's hoistable context (the analysis tests/suite_test.cpp checks);
  // default-options plans, the ones that can be saved, do not use either.
  // Each loop is therefore also analyzed that way, untimed, and checked.
  for (const LoopRef &L : Loops) {
    auto Suite = suite::buildAllBenchmarks();
    suite::Benchmark &B = *Suite[L.Prog];
    const suite::LoopSpec &LS = B.Loops[L.Loop];
    rt::Memory M;
    sym::Bindings Bd;
    B.Setup(M, Bd, 1);
    analysis::AnalyzerOptions AO;
    AO.Probe = &Bd;
    AO.HoistableContext = LS.Hoistable;
    analysis::HybridAnalyzer A(B.usr(), B.prog(), AO);
    const std::string Why = checkPaperClass(A.analyze(*LS.Loop), LS.PaperClass);
    if (!Why.empty())
      R.fail(B.Name + "/" + LS.Name + ": " + Why);
  }

  F.Busy = F.Ops;
  F.Done = F.Ops.size();
  addEndToEnd(R, F, Clock);
  char Buf[160];
  for (size_t I = 0; I < F.Prepares.size(); ++I) {
    double PassMs = 0;
    for (const Timed &T : F.Prepares[I])
      PassMs += T.Ms;
    std::snprintf(Buf, sizeof(Buf), "cold pass %zu: %.3f s", I, 1e-3 * PassMs);
    R.line(Buf);
  }
  std::vector<std::pair<double, size_t>> Slowest;
  for (size_t I = 0; I < Loops.size(); ++I)
    Slowest.push_back({median(PerLoopMs[I]), I});
  std::sort(Slowest.rbegin(), Slowest.rend());
  R.line("slowest cold prepares (median ms over passes):");
  for (size_t I = 0; I < Slowest.size() && I < SlowestShown; ++I) {
    const LoopRef &L = Loops[Slowest[I].second];
    std::snprintf(Buf, sizeof(Buf), "  %-10s %-16s %10.3f",
                  Ref[L.Prog]->Name.c_str(),
                  Ref[L.Prog]->Loops[L.Loop].Name.c_str(), Slowest[I].first);
    R.line(Buf);
  }

  if (!C.Trace)
    return;
  auto &Ly = R.Layer;
  auto Spans = Tracer::aggregate();
  Ly["analysis.analyze_ms_p50"] = median(Spans["analysis.analyze"].TotalMs);
  Ly["analysis.analyze_s_sum"] =
      1e-3 * Spans["analysis.analyze"].totalSumMs();
  Ly["analysis.summary_ms_p50"] = median(Spans["analysis.summary"].TotalMs);
  Ly["analysis.factor_s_sum"] = 1e-3 * Spans["analysis.factor"].totalSumMs();
  Ly["factor.fm_uses"] = static_cast<double>(FC.FmUses);
  Ly["factor.budget_bailouts"] = static_cast<double>(FC.BudgetBailouts);
  Ly["factor.rules_fired"] = static_cast<double>(FC.RulesFired);
  Ly["session.lower_ms_p50"] = median(LowerMs);
  Ly["session.compiled_preds"] = static_cast<double>(CompiledPreds);
  Ly["session.compiled_usrs"] = static_cast<double>(CompiledUsrs);
  Ly["plan.save_ms_p50"] = median(Spans["plan.save"].TotalMs);
  Ly["plan.load_ms_p50"] = median(Spans["plan.load"].TotalMs);
  Ly["plan.adopt_ms_p50"] = median(Spans["plan.adopt"].TotalMs);
  Ly["plan.bytes"] = static_cast<double>(F.PlanBytes);
  Ly["plan.warm_started"] = static_cast<double>(WarmStarted);
  addTraceOverhead(R, OpMs, TracedOpMs);
  addSelfTimeTable(R, Spans);
}

} // namespace perfbench
