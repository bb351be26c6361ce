//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

using namespace halo;

namespace perfbench {

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::fail(const std::string &Why) {
  Correct = false;
  // Keep the log readable when a defect fails every op.
  if (Lines.size() < 64)
    Lines.push_back("CHECK FAILED: " + Why);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double tail(std::vector<double> V, double &Percentile, size_t &Count) {
  Count = V.size();
  Percentile = 100;
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (V.size() < 11)
    return V.back();
  const size_t Rank = V.size() - 11; // Exactly ten samples above it.
  Percentile = 100.0 * static_cast<double>(V.size() - 10) /
               static_cast<double>(V.size());
  return V[Rank];
}

void addEndToEnd(Result &R, const Figures &F, const RefClock &Ref) {
  std::vector<double> OpMs, OpInRef, WarmMs, WarmRef, PrepS, PrepRef;
  for (const Timed &T : F.Ops) {
    OpMs.push_back(T.Ms);
    OpInRef.push_back(Ref.inRef(T.Ms, T.AtNs));
  }
  for (const Timed &T : F.Warm) {
    WarmMs.push_back(T.Ms);
    WarmRef.push_back(Ref.inRef(T.Ms, T.AtNs));
  }
  for (const std::vector<Timed> &Parts : F.Prepares) {
    double Ms = 0, InRef = 0;
    for (const Timed &T : Parts) {
      Ms += T.Ms;
      InRef += Ref.inRef(T.Ms, T.AtNs);
    }
    PrepS.push_back(1e-3 * Ms);
    PrepRef.push_back(InRef);
  }
  double BusyMs = 0, BusyRef = 0;
  for (const Timed &T : F.Busy) {
    BusyMs += T.Ms;
    BusyRef += Ref.inRef(T.Ms, T.AtNs);
  }
  const double Done = static_cast<double>(F.Done) * F.Streams;
  double P = 0;
  size_t N = 0;
  const double TailRef = tail(OpInRef, P, N);
  R.metric("setup_s", median(F.SetupS), "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("op_ref_p50", median(OpInRef), "ref");
  R.metric("op_ref_tail", TailRef, "ref");
  R.metric("ops_per_ref", BusyRef > 0 ? Done / BusyRef : 0, "1/ref");
  R.metric("suite_prepare_ref", median(PrepRef), "ref");
  R.metric("warm_ref_p50", median(WarmRef), "ref");
  R.metric("plan_mb", static_cast<double>(F.PlanBytes) / (1024.0 * 1024.0),
           "MB");
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "ref tick: median %.4f ms over %zu ticks; op_ref_tail is "
                "p%.2f of %zu op samples",
                Ref.medianMs(), Ref.ticks(), P, N);
  R.line(Buf);
  double TP = 0;
  size_t TN = 0;
  std::snprintf(Buf, sizeof(Buf),
                "as measured: op_ms_p50 %.4f ms, op_ms_tail %.3f ms, "
                "ops_per_s %.2f, suite_prepare_s %.4f s, warm_ms_p50 %.4f ms",
                median(OpMs), tail(OpMs, TP, TN),
                BusyMs > 0 ? 1e3 * Done / BusyMs : 0, median(PrepS),
                median(WarmMs));
  R.line(Buf);
}

double geomean(const std::vector<double> &V) {
  double S = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      S += std::log(X);
      ++N;
    }
  return N ? std::exp(S / static_cast<double>(N)) : 0;
}

void addExecStats(std::map<std::string, double> &Ly, const rt::ExecStats &Sum,
                  uint64_t Ops, uint64_t Par, uint64_t Tls, uint64_t Exact,
                  double CascadeDepthMean) {
  const double N = Ops ? static_cast<double>(Ops) : 1.0;
  const double Tests = Sum.PredicateSeconds + Sum.CivSliceSeconds +
                       Sum.ExactTestSeconds + Sum.BoundsCompSeconds;
  Ly["rt.pred_ms_sum"] = 1e3 * Sum.PredicateSeconds;
  Ly["rt.civ_ms_sum"] = 1e3 * Sum.CivSliceSeconds;
  Ly["rt.exact_ms_sum"] = 1e3 * Sum.ExactTestSeconds;
  Ly["rt.bounds_ms_sum"] = 1e3 * Sum.BoundsCompSeconds;
  Ly["rt.rtov_pct"] =
      Sum.TotalSeconds > 0 ? 100.0 * Tests / Sum.TotalSeconds : 0;
  Ly["rt.par_pct"] = 100.0 * static_cast<double>(Par) / N;
  Ly["rt.tls_pct"] = 100.0 * static_cast<double>(Tls) / N;
  Ly["rt.exact_test_pct"] = 100.0 * static_cast<double>(Exact) / N;
  Ly["rt.cascade_depth_mean"] = CascadeDepthMean;
  Ly["rt.compiled_pred_evals"] = static_cast<double>(Sum.CompiledPredEvals);
  Ly["rt.interp_pred_evals"] = static_cast<double>(Sum.InterpPredEvals);
  Ly["rt.block_evals"] = static_cast<double>(Sum.BlockEvals);
  Ly["rt.scalar_evals"] = static_cast<double>(Sum.ScalarEvals);
  Ly["rt.lanes_poisoned"] = static_cast<double>(Sum.LanesPoisoned);
  Ly["rt.guard_demotions"] = static_cast<double>(Sum.GuardDemotions);
  Ly["rt.usr_compiled_evals"] = static_cast<double>(Sum.CompiledUSREvals);
  Ly["rt.usr_points_avoided"] = static_cast<double>(Sum.USRPointsAvoided);
  const uint64_t Binds = Sum.FrameBinds + Sum.FrameRebindsSkipped;
  Ly["session.frame_reuse_pct"] =
      Binds ? 100.0 * static_cast<double>(Sum.FrameRebindsSkipped) /
                  static_cast<double>(Binds)
            : 0;
}

void addTraceOverhead(Result &R, const std::vector<double> &UntracedMs,
                      const std::vector<double> &TracedMs) {
  const double U = median(UntracedMs), T = median(TracedMs);
  const double Pct = U > 0 ? 100.0 * (T / U - 1.0) : 0;
  R.Layer["trace.overhead_pct"] = Pct;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "tracing overhead: op_ms_p50 %.4f ms traced vs %.4f ms "
                "untraced (%+.2f%%, %zu vs %zu ops)",
                T, U, Pct, TracedMs.size(), UntracedMs.size());
  R.line(Buf);
}

void addSelfTimeTable(Result &R, const std::map<std::string, SpanAgg> &Spans) {
  char Buf[200];
  R.line("self time by span (traced ops only):");
  std::snprintf(Buf, sizeof(Buf), "  %-26s %9s %12s %12s %12s", "span",
                "count", "self_p50_ms", "self_sum_ms", "total_sum_ms");
  R.line(Buf);
  std::set<uint64_t> Ops;
  for (const SpanRec &S : Tracer::allSpans())
    if (S.Op != 0) // Op 0: set-up and other work outside any op.
      Ops.insert(S.Op);
  std::map<std::string, double> ByLayer;
  for (const auto &KV : Spans) {
    std::snprintf(Buf, sizeof(Buf), "  %-26s %9zu %12.4f %12.3f %12.3f",
                  KV.first.c_str(), KV.second.SelfMs.size(),
                  median(KV.second.SelfMs), KV.second.selfSumMs(),
                  KV.second.totalSumMs());
    R.line(Buf);
    ByLayer[KV.first.substr(0, KV.first.find('.'))] += KV.second.selfSumMs();
  }
  std::snprintf(Buf, sizeof(Buf), "self time by layer (%zu traced ops):",
                Ops.size());
  R.line(Buf);
  for (const auto &KV : ByLayer) {
    std::snprintf(Buf, sizeof(Buf), "  %-26s %12.3f ms", KV.first.c_str(),
                  KV.second);
    R.line(Buf);
  }
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void RefClock::tick() {
  // The first round only brings the code and the allocator's free lists
  // back into the caches, which the op before it may have evicted; the
  // second is timed.
  work();
  const int64_t T0 = nowNs();
  work();
  Ticks.push_back({T0, msBetween(T0, nowNs())});
}

void RefClock::work() {
  // Fixed rows of small coefficients; every pair with opposite signs in
  // column 0 is combined to cancel it, and duplicates are dropped by hash.
  Rng G(0x5eedULL);
  std::vector<std::vector<int64_t>> Rows;
  for (size_t I = 0; I < RowCount; ++I) {
    Rows.emplace_back(RowWidth);
    for (int64_t &X : Rows.back())
      X = static_cast<int64_t>(G.below(19)) - 9;
    if (Rows.back()[0] == 0)
      Rows.back()[0] = 1;
  }
  std::unordered_set<uint64_t> Seen;
  std::vector<std::vector<int64_t>> Out;
  for (const auto &A : Rows)
    for (const auto &B : Rows) {
      if (A[0] <= 0 || B[0] >= 0)
        continue;
      std::vector<int64_t> N(RowWidth);
      uint64_t H = 1469598103934665603ULL; // FNV-1a.
      for (size_t K = 1; K < RowWidth; ++K) {
        N[K] = -B[0] * A[K] + A[0] * B[K];
        H = (H ^ static_cast<uint64_t>(N[K])) * 1099511628211ULL;
      }
      if (Seen.insert(H).second)
        Out.push_back(std::move(N));
    }
  Sink += Out.size();
}

double RefClock::medianMs() const {
  std::vector<double> Ms;
  for (const Tick &T : Ticks)
    Ms.push_back(T.Ms);
  return median(Ms);
}

double RefClock::localMs(int64_t AtNs) const {
  const size_t N = Ticks.size();
  if (N <= Window)
    return medianMs();
  const size_t At = static_cast<size_t>(
      std::lower_bound(Ticks.begin(), Ticks.end(), AtNs,
                       [](const Tick &T, int64_t Ns) { return T.AtNs < Ns; }) -
      Ticks.begin());
  // The Window ticks nearest in time: widen towards the nearer side.
  size_t Lo = At, Hi = At; // [Lo, Hi)
  while (Hi - Lo < Window) {
    if (Lo == 0)
      ++Hi;
    else if (Hi == N || AtNs - Ticks[Lo - 1].AtNs < Ticks[Hi].AtNs - AtNs)
      --Lo;
    else
      ++Hi;
  }
  std::vector<double> Ms;
  for (size_t I = Lo; I < Hi; ++I)
    Ms.push_back(Ticks[I].Ms);
  return median(Ms);
}

void RefClock::absorb(const RefClock &Other) {
  Ticks.insert(Ticks.end(), Other.Ticks.begin(), Other.Ticks.end());
  std::sort(Ticks.begin(), Ticks.end(),
            [](const Tick &A, const Tick &B) { return A.AtNs < B.AtNs; });
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<LoopRef>
allLoops(const std::vector<std::unique_ptr<suite::Benchmark>> &Suite) {
  std::vector<LoopRef> Out;
  for (size_t P = 0; P < Suite.size(); ++P)
    for (size_t L = 0; L < Suite[P]->Loops.size(); ++L)
      Out.push_back(LoopRef{P, L});
  return Out;
}

std::string compareMemory(const rt::Memory &Got, const rt::Memory &Want,
                          const std::set<sym::SymbolId> &ReductionTargets) {
  if (Got.arrays().size() != Want.arrays().size())
    return "array count differs";
  for (const auto &KV : Want.arrays()) {
    auto It = Got.arrays().find(KV.first);
    if (It == Got.arrays().end())
      return "array " + std::to_string(KV.first) + " missing";
    const std::vector<double> &W = KV.second, &G = It->second;
    if (W.size() != G.size())
      return "array " + std::to_string(KV.first) + " size differs";
    if (!ReductionTargets.count(KV.first)) {
      if (!W.empty() &&
          std::memcmp(W.data(), G.data(), W.size() * sizeof(double)) != 0)
        return "array " + std::to_string(KV.first) + " not bit-identical";
      continue;
    }
    for (size_t I = 0; I < W.size(); ++I)
      if (!(std::fabs(W[I] - G[I]) <= 1e-9 * (1.0 + std::fabs(W[I]))))
        return "reduction array " + std::to_string(KV.first) + "[" +
               std::to_string(I) + "] outside tolerance";
  }
  return "";
}

std::set<sym::SymbolId> reductionTargets(const analysis::LoopPlan &Plan) {
  std::set<sym::SymbolId> Out;
  for (const analysis::ArrayPlan &AP : Plan.Arrays)
    if (AP.HasReduction)
      Out.insert(AP.Array);
  return Out;
}

std::string checkPaperClass(const analysis::LoopPlan &Plan,
                            const std::string &Paper) {
  using analysis::LoopClass;
  using analysis::Technique;
  bool Ok;
  if (Paper == "STATIC-PAR")
    Ok = Plan.Class == LoopClass::StaticPar;
  else if (Paper == "STATIC-SEQ")
    Ok = Plan.Class == LoopClass::StaticSeq;
  else if (Paper == "TLS")
    Ok = Plan.Class == LoopClass::TLS;
  else if (Paper.find("HOIST-USR") != std::string::npos)
    Ok = Plan.Class == LoopClass::HoistUSR;
  else if (Paper.find("CIV") != std::string::npos)
    Ok = Plan.Techniques.count(Technique::CivAgg) &&
         Plan.Class == LoopClass::Predicated;
  else if (Paper.find("BOUNDS-COMP") != std::string::npos)
    Ok = Plan.Techniques.count(Technique::BoundsComp) &&
         Plan.Class == LoopClass::Predicated;
  else
    Ok = Plan.Class == LoopClass::Predicated && Plan.ReportFlowDepth <= 1 &&
         Plan.ReportOutDepth <= 1;
  return Ok ? "" : "paper=" + Paper + " computed=" + Plan.classString();
}

void busyWaitMs(double Ms) {
  const int64_t End = nowNs() + static_cast<int64_t>(Ms * 1e6);
  while (nowNs() < End) {
  }
}

std::string planFileName(const std::string &ProgramName) {
  std::string Out = ProgramName;
  for (char &C : Out)
    if (!((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
          (C >= '0' && C <= '9')))
      C = '_';
  return Out + ".hplan";
}

} // namespace perfbench
