//===- perfbench/src/main.cpp - HALO benchmark entry point ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// usage:
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --plans DIR
//   perfbench selftest --plans DIR
//
// `run` prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced (--trace 0), every per-layer metric traced (--trace 1).
// --plans names the per-program .hplan set `halo_planc compile --suite`
// writes (the warm-start input of suite-exec and serve-mix). `selftest`
// checks that time added inside one layer's span lands in that layer's
// self time only.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace halo;
using namespace perfbench;

namespace {

/// Every per-layer metric, in print order, with its unit. A traced run of
/// any workload prints all of them; the ones its workload does not
/// exercise read 0 and are listed on the "not exercised" line.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"analysis.analyze_ms_p50", "ms"},
    {"analysis.analyze_s_sum", "s"},
    {"analysis.summary_ms_p50", "ms"},
    {"analysis.factor_s_sum", "s"},
    {"factor.fm_uses", "count"},
    {"factor.budget_bailouts", "count"},
    {"factor.rules_fired", "count"},
    {"session.lower_ms_p50", "ms"},
    {"session.compiled_preds", "count"},
    {"session.compiled_usrs", "count"},
    {"session.frame_reuse_pct", "%"},
    {"plan.save_ms_p50", "ms"},
    {"plan.load_ms_p50", "ms"},
    {"plan.adopt_ms_p50", "ms"},
    {"plan.bytes", "bytes"},
    {"plan.warm_started", "count"},
    {"rt.overhead_ms_p50", "ms"},
    {"rt.seq_ms_p50", "ms"},
    {"rt.par_seq_geomean", "ratio"},
    {"rt.rtov_pct", "%"},
    {"rt.pred_ms_sum", "ms"},
    {"rt.civ_ms_sum", "ms"},
    {"rt.exact_ms_sum", "ms"},
    {"rt.bounds_ms_sum", "ms"},
    {"rt.par_pct", "%"},
    {"rt.tls_pct", "%"},
    {"rt.exact_test_pct", "%"},
    {"rt.cascade_depth_mean", "count"},
    {"rt.compiled_pred_evals", "count"},
    {"rt.interp_pred_evals", "count"},
    {"rt.block_evals", "count"},
    {"rt.scalar_evals", "count"},
    {"rt.lanes_poisoned", "count"},
    {"rt.guard_demotions", "count"},
    {"rt.usr_compiled_evals", "count"},
    {"rt.usr_points_avoided", "count"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.handoff_ms_p50", "ms"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.reprepare_ms_p50", "ms"},
    {"serve.peak_queue_depth", "count"},
    {"serve.retried", "count"},
    {"serve.degraded_execs", "count"},
    {"serve.exec_contexts", "count"},
    {"serve.shard_exec_skew", "ratio"},
    {"trace.overhead_pct", "%"},
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench run --workload suite-exec|serve-mix|"
               "prepare-cold --seed N --seconds S --trace 0|1 --plans DIR\n"
               "       perfbench selftest --plans DIR\n",
               Msg);
  return 2;
}

void printJson(const Result &R, const MetricList &Ms) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &M : Ms) {
    // JSON has no NaN or infinity; a non-finite figure is a defect.
    const double V = std::isfinite(M.second.first) ? M.second.first : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (First ? "" : ", ") + std::string("\"") + M.first +
           "\": {\"value\": " + Buf + ", \"unit\": \"" + M.second.second +
           "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

int cmdRun(const Config &C) {
  Result R;
  if (C.Workload == "suite-exec")
    runSuiteExec(C, R);
  else if (C.Workload == "serve-mix")
    runServeMix(C, R);
  else if (C.Workload == "prepare-cold")
    runPrepareCold(C, R);
  else
    return usage("unknown workload");
  if (R.Attempted == 0) {
    // Nothing ran (set-up failed): no result to print.
    for (const std::string &L : R.Lines)
      std::fprintf(stderr, "%s\n", L.c_str());
    std::fprintf(stderr, "perfbench: %s: no op was attempted\n",
                 C.Workload.c_str());
    return 1;
  }
  for (const auto &M : R.Metrics)
    if (!std::isfinite(M.second.first))
      R.fail(M.first + " is not finite");
  std::printf("workload %s seed %llu seconds %u trace %d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());
  if (!C.Trace) {
    for (const auto &M : R.Metrics)
      std::printf("  %-24s %14.6f %s\n", M.first.c_str(), M.second.first,
                  M.second.second.c_str());
    printJson(R, R.Metrics);
    return 0;
  }
  MetricList Ly;
  std::string Missing;
  for (const auto &[Name, Unit] : LayerMetrics) {
    auto It = R.Layer.find(Name);
    if (It == R.Layer.end())
      Missing += std::string(" ") + Name;
    const double V = It == R.Layer.end() ? 0 : It->second;
    std::printf("  %-26s %16.6f %s\n", Name, V, Unit);
    Ly.push_back({Name, {V, Unit}});
  }
  std::printf("not exercised by %s (reported as 0):%s\n", C.Workload.c_str(),
              Missing.empty() ? " none" : Missing.c_str());
  printJson(R, Ly);
  return 0;
}

/// Runs a short traced suite-exec twice, once with a busy-wait added inside
/// the benchmark's own rt.run_sequential span, and checks that the added
/// time shows up in that span's self time and in no other span's.
int cmdSelfTest(const std::string &PlansDir) {
  constexpr double InjectMs = 2.0;
  auto Run = [&](double Inject) {
    Config C;
    C.Workload = "suite-exec";
    C.Seconds = 1;
    C.Trace = true;
    C.PlansDir = PlansDir;
    C.InjectSeqMs = Inject;
    Tracer::clear();
    Result R;
    runSuiteExec(C, R);
    std::map<std::string, double> Self;
    for (const auto &KV : Tracer::aggregate())
      Self[KV.first] = KV.second.selfSumMs();
    return std::make_pair(R, Self);
  };
  auto [Base, BaseSelf] = Run(0);
  auto [Slow, SlowSelf] = Run(InjectMs);
  if (!Base.Correct || !Slow.Correct)
    return std::fprintf(stderr, "selftest: workload checks failed\n"), 1;
  const double Calls = static_cast<double>(Slow.Attempted) / 2.0;
  const double Added = InjectMs * Calls;
  bool Ok = true;
  for (const auto &KV : SlowSelf) {
    const double Delta = KV.second - BaseSelf[KV.first];
    const bool Target = KV.first == "rt.run_sequential";
    // The target must gain the injected time (allowing the machine's
    // noise on the rest of its self time); no other span may gain more
    // than a tenth of it.
    const bool Pass = Target ? Delta >= 0.9 * Added && Delta <= 1.5 * Added
                             : Delta <= 0.1 * Added;
    std::printf("selftest: %-22s self %+10.3f ms (injected %.3f ms) %s\n",
                KV.first.c_str(), Delta, Target ? Added : 0.0,
                Pass ? "ok" : "FAIL");
    Ok &= Pass;
  }
  std::printf("selftest: %s\n", Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing command");
  const std::string Cmd = Argv[1];
  Config C;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 2; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      const unsigned long S = std::strtoul(V.c_str(), &End, 10);
      HaveSeconds = End && *End == '\0' && S >= 1 && S <= 600;
      C.Seconds = static_cast<unsigned>(S);
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      C.Trace = V == "1";
    } else if (A == "--plans") {
      C.PlansDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  try {
    if (Cmd == "run") {
      if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
          C.PlansDir.empty())
        return usage("run needs --workload, --seed, --seconds, --trace and "
                     "--plans");
      return cmdRun(C);
    }
    if (Cmd == "selftest")
      return C.PlansDir.empty() ? usage("selftest needs --plans")
                                : cmdSelfTest(C.PlansDir);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  return usage("unknown command");
}
