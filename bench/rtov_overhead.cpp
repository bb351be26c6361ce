//===- bench/rtov_overhead.cpp - Runtime-test overhead (RTov) -------------===//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
// Measures, per runtime-assisted benchmark, the share of the parallel
// runtime spent in predicate cascades, CIV slices, bounds computation and
// exact tests — the paper's claim is "under 1% of the parallel runtime"
// except track (47%), gromacs (3.4%) and calculix (8.5%).
//
// Three sections:
//  1. a micro-benchmark of one O(N) cascade stage at N = 1e6 comparing the
//     tree-walking interpreter against the compiled bytecode evaluator
//     (serial and chunked-parallel), the direct measure of the
//     compile-once/run-many win;
//  2. the analyze-once / execute-many benchmark: the same plan executed
//     repeatedly through halo::Session, reporting 1st-execution vs
//     steady-state per-execution predicate overhead (frame binding and
//     cascade sorting amortize away) with exact result parity against the
//     reference interpreter path;
//  3. the per-benchmark RTov table, reported for both evaluators so the
//     compiled/interpreted split is visible end to end.
//===----------------------------------------------------------------------===//
#include "bench/BenchUtil.h"

#include "pdag/PredCompile.h"
#include "pdag/PredEval.h"
#include "usr/USRCompile.h"
#include "usr/USREval.h"

#include <algorithm>
#include <utility>

using namespace halo;
using namespace halo::benchutil;

namespace {

double bestOf(int Reps, const std::function<double()> &Run) {
  double Best = 1e30;
  for (int R = 0; R < Reps; ++R)
    Best = std::min(Best, Run());
  return Best;
}

double medianOf(int Samples, const std::function<double()> &Run) {
  std::vector<double> T(static_cast<size_t>(Samples));
  for (double &X : T)
    X = Run();
  std::sort(T.begin(), T.end());
  return T[static_cast<size_t>(Samples) / 2];
}

/// Per-section results destined for BENCH_rtov.json: section -> key ->
/// value (times in ns/exec, ratios dimensionless, counters raw). Written
/// once at exit so the perf trajectory is machine-trackable across PRs.
std::map<std::string, std::map<std::string, double>> GJson;

void writeJson(const char *Path) {
  FILE *F = std::fopen(Path, "w");
  if (!F)
    return;
  std::fprintf(F, "{\n");
  size_t SI = 0;
  for (const auto &S : GJson) {
    std::fprintf(F, "  \"%s\": {", S.first.c_str());
    size_t KI = 0;
    for (const auto &KV : S.second)
      std::fprintf(F, "%s\n    \"%s\": %.3f", KI++ ? "," : "",
                   KV.first.c_str(), KV.second);
    std::fprintf(F, "\n  }%s\n", ++SI < GJson.size() ? "," : "");
  }
  std::fprintf(F, "}\n");
  std::fclose(F);
}

/// One O(N) cascade stage at N = 1e6: the Fig. 3b shape
/// ALL(i=1..N-1: NS >= 0 and IB(i) <= IB(i+1)) with an invariant conjunct
/// (memoized by the compiled evaluator) and a monotone index array.
void microBench() {
  sym::Context Sym;
  pdag::PredContext P(Sym);
  const int64_t N = 1000000;
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const sym::Expr *Ii = Sym.symRef(I);
  const pdag::Pred *Body =
      P.and2(P.ge0(Sym.symRef(Sym.symbol("NS"))),
             P.le(Sym.arrayRef(IB, Ii), Sym.arrayRef(IB, Sym.addConst(Ii, 1))));
  const pdag::Pred *Stage =
      P.loopAll(I, Sym.intConst(1), Sym.addConst(Sym.symRef(Sym.symbol("n")), -1),
                Body);

  sym::Bindings B;
  B.setScalar(Sym.symbol("n"), N);
  B.setScalar(Sym.symbol("NS"), 7);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.resize(static_cast<size_t>(N));
  for (int64_t K = 0; K < N; ++K)
    A.Vals[static_cast<size_t>(K)] = K / 2;
  B.setArray(IB, A);

  auto CP = pdag::CompiledPred::compile(Stage, Sym);

  // Randomized first-failure parity, aborting: plant a violation (false)
  // and/or a truncation (the IB(i+1) read at the new end goes OOB:
  // conservative unknown) at random iterations. The OUTCOME encodes
  // which iteration decided first — interpreter, scalar bytecode and
  // block tier must agree bit for bit, serial and chunked-parallel.
  {
    ThreadPool Pool(4);
    uint64_t Seed = 0x5eedULL;
    auto Next = [&Seed] {
      Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
      return Seed >> 33;
    };
    for (int T = 0; T < 32; ++T) {
      sym::ArrayBinding A2 = A;
      if (Next() % 2) // False lane: IB(k) > IB(k+1) at iteration k.
        A2.Vals[1 + Next() % static_cast<uint64_t>(N - 2)] = -1;
      if (Next() % 2) // Poison lane: reads past the new end are OOB.
        A2.Vals.resize(1 + Next() % static_cast<uint64_t>(N - 1));
      sym::Bindings B2 = B;
      B2.setArray(IB, A2);
      auto Ref = pdag::tryEvalPred(Stage, B2);
      if (CP->eval(B2, nullptr, pdag::BlockEval::Off) != Ref ||
          CP->eval(B2, nullptr, pdag::BlockEval::Force) != Ref ||
          CP->evalParallel(B2, Pool, nullptr, 4096, nullptr,
                           pdag::BlockEval::Force) != Ref)
        std::abort(); // First-failure parity violated.
    }
  }

  const int Reps = 5;
  double Interp = medianOf(Reps, [&] {
    double T0 = nowSeconds();
    bool R = pdag::tryEvalPred(Stage, B).value_or(false);
    if (!R)
      std::abort();
    return nowSeconds() - T0;
  });
  pdag::EvalStats ScalStats;
  double Scalar = medianOf(Reps, [&] {
    ScalStats = pdag::EvalStats();
    double T0 = nowSeconds();
    bool R = CP->eval(B, &ScalStats, pdag::BlockEval::Off).value_or(false);
    if (!R)
      std::abort();
    return nowSeconds() - T0;
  });
  pdag::EvalStats BlkStats;
  double Block = medianOf(Reps, [&] {
    BlkStats = pdag::EvalStats();
    double T0 = nowSeconds();
    bool R = CP->eval(B, &BlkStats, pdag::BlockEval::Force).value_or(false);
    if (!R)
      std::abort();
    return nowSeconds() - T0;
  });
  if (ScalStats.BlockEvals != 0 || BlkStats.BlockEvals == 0)
    std::abort(); // The tier toggle must actually route.

  std::printf("=== Compiled cascade stage, O(N) at N=1e6 (median of %d) ===\n",
              Reps);
  std::printf("%-22s %10s %9s %10s %8s %9s %9s\n", "EVALUATOR", "ms",
              "ns/iter", "speedup", "blockEv", "scalarEv", "poisoned");
  std::printf("%-22s %10.2f %9.2f %10s %8s %9s %9s\n", "interpreter",
              1e3 * Interp, 1e9 * Interp / N, "1.00x", "-", "-", "-");
  std::printf("%-22s %10.2f %9.2f %9.2fx %8llu %9llu %9llu\n",
              "compiled scalar, 1t", 1e3 * Scalar, 1e9 * Scalar / N,
              Interp / Scalar,
              static_cast<unsigned long long>(ScalStats.BlockEvals),
              static_cast<unsigned long long>(ScalStats.ScalarEvals),
              static_cast<unsigned long long>(ScalStats.LanesPoisoned));
  std::printf("%-22s %10.2f %9.2f %9.2fx %8llu %9llu %9llu\n",
              "compiled block, 1t", 1e3 * Block, 1e9 * Block / N,
              Interp / Block,
              static_cast<unsigned long long>(BlkStats.BlockEvals),
              static_cast<unsigned long long>(BlkStats.ScalarEvals),
              static_cast<unsigned long long>(BlkStats.LanesPoisoned));
  std::printf("block tier vs scalar bytecode (1 thread): %.2fx\n",
              Scalar / Block);
  double Par4 = 0;
  for (unsigned T : {2u, 4u}) {
    ThreadPool Pool(T);
    double Par = medianOf(Reps, [&] {
      double T0 = nowSeconds();
      bool R = CP->evalParallel(B, Pool).value_or(false);
      if (!R)
        std::abort();
      return nowSeconds() - T0;
    });
    if (T == 4)
      Par4 = Par;
    std::printf("compiled block, %ut    %10.2f %9.2f %9.2fx\n", T, 1e3 * Par,
                1e9 * Par / N, Interp / Par);
  }
  std::printf("bytecode=%zu instrs, memo-hits/eval=%llu\n\n", CP->codeSize(),
              static_cast<unsigned long long>(BlkStats.MemoHits));

  auto &J = GJson["loopall_n1e6"];
  J["interp_ns_per_exec"] = 1e9 * Interp;
  J["scalar_ns_per_exec"] = 1e9 * Scalar;
  J["block_ns_per_exec"] = 1e9 * Block;
  J["block_par4_ns_per_exec"] = 1e9 * Par4;
  J["speedup_block_vs_scalar"] = Scalar / Block;
  J["speedup_block_vs_interp"] = Interp / Block;
  J["block_evals"] = static_cast<double>(BlkStats.BlockEvals);
  J["scalar_evals"] = static_cast<double>(ScalStats.ScalarEvals);
  J["lanes_poisoned"] = static_cast<double>(BlkStats.LanesPoisoned);
}

/// The execute-many fixture: one loop writing three symbolically-strided
/// arrays (each needs its O(1) predicate s_k >= 1) plus a Fig. 3(b)-style
/// monotone block write (the O(N) monotonicity predicate over IB). The
/// cascade therefore evaluates several compiled stages per execution —
/// exactly the per-execution frame-bind cost the session's pooled frames
/// amortize away.
struct ReuseFixture {
  sym::Context Sym;
  pdag::PredContext P{Sym};
  usr::USRContext U{Sym, P};
  ir::Program Prog{Sym, P};
  ir::DoLoop *L = nullptr;
  sym::SymbolId A = 0, IB = 0;
  sym::SymbolId X[3] = {0, 0, 0};
  int64_t N = 256;

  ReuseFixture() {
    ir::Subroutine *Main = Prog.makeSubroutine("main");
    A = Sym.symbol("A", 0, /*IsArray=*/true);
    IB = Sym.symbol("IB", 0, /*IsArray=*/true);
    Main->declareArray(
        ir::ArrayDecl{A, Sym.mulConst(Sym.symRef("N"), 8), false});
    Main->declareArray(ir::ArrayDecl{IB, nullptr, true});
    sym::SymbolId I = Sym.symbol("i", 1);
    sym::SymbolId J = Sym.symbol("j", 2);
    L = Prog.make<ir::DoLoop>("blocks", I, Sym.intConst(1), Sym.symRef("N"),
                              1);
    for (int K = 0; K < 3; ++K) {
      std::string Name = "X" + std::to_string(K);
      X[K] = Sym.symbol(Name, 0, /*IsArray=*/true);
      Main->declareArray(ir::ArrayDecl{
          X[K], Sym.mul(Sym.symRef("N"), Sym.symRef("s" + std::to_string(K))),
          false});
      // X_k[(i-1) * s_k]: output independence needs s_k >= 1 (O(1)).
      const sym::Expr *Off = Sym.mul(Sym.addConst(Sym.symRef(I), -1),
                                     Sym.symRef("s" + std::to_string(K)));
      L->append(Prog.make<ir::AssignStmt>(
          ir::ArrayAccess{X[K], Off}, std::vector<ir::ArrayAccess>{}, false,
          2));
    }
    ir::DoLoop *Inner = Prog.make<ir::DoLoop>("blocks_j", J, Sym.intConst(1),
                                              Sym.intConst(4), 2);
    const sym::Expr *Off = Sym.addConst(
        Sym.add(Sym.arrayRef(IB, Sym.symRef(I)), Sym.symRef(J)), -2);
    Inner->append(Prog.make<ir::AssignStmt>(
        ir::ArrayAccess{A, Off}, std::vector<ir::ArrayAccess>{}, false, 4));
    L->append(Inner);
  }

  void setup(rt::Memory &M, sym::Bindings &B) {
    B.setScalar(Sym.symbol("N"), N);
    for (int K = 0; K < 3; ++K) {
      B.setScalar(Sym.symbol("s" + std::to_string(K)), 1);
      M.alloc(X[K], static_cast<size_t>(N));
    }
    sym::ArrayBinding AB;
    AB.Lo = 1;
    for (int64_t K = 0; K < N; ++K)
      AB.Vals.push_back(1 + K * 4); // Monotone, disjoint blocks.
    B.setArray(IB, AB);
    M.alloc(A, static_cast<size_t>(4 * N + 16));
  }

  session::Session makeSession(unsigned Threads, rt::EvalTier Tier) {
    session::SessionOptions SO;
    SO.Threads = Threads;
    SO.Tier = Tier;
    return session::Session(Prog, U, SO);
  }
};

/// Per-execution predicate overhead of the 1st vs steady-state execution
/// of one cached plan. The 1st execution of a fresh session pays frame
/// binding (and worker-frame copies under a multi-thread pool); from the
/// 2nd on, the bindings stamp is unchanged, so the pooled frames are
/// reused without any re-binding.
void sessionReuseBench() {
  ReuseFixture F;
  const int KFresh = 50;   // Fresh sessions averaged for the 1st-exec column.
  const int MSteady = 500; // Executions per session for the steady column.

  std::printf("=== Analyze-once / execute-many: per-execution predicate "
              "overhead (N=%lld) ===\n",
              static_cast<long long>(F.N));
  std::printf("%-8s %-14s %-14s %-9s %-8s %-8s %s\n", "THREADS",
              "1st-exec(us)", "steady(us)", "speedup", "binds", "reuses",
              "parity");

  for (unsigned Threads : {1u, 4u}) {
    // Reference: the tree-walking interpreter path over the same data and
    // execution count (fresh per-evaluation state by construction).
    rt::Memory MRef;
    sym::Bindings BRef;
    F.setup(MRef, BRef);
    {
      session::Session SRef =
          F.makeSession(Threads, rt::EvalTier::Interpreted);
      for (int E = 0; E < MSteady; ++E)
        SRef.run(*F.L, MRef, BRef);
    }

    // 1st-execution column: execution #1 of KFresh fresh sessions.
    double FirstSum = 0;
    for (int K = 0; K < KFresh; ++K) {
      session::Session S = F.makeSession(Threads, rt::EvalTier::Block);
      rt::Memory M;
      sym::Bindings B;
      F.setup(M, B);
      S.prepare(*F.L); // Analyze/compile outside the measured execution.
      FirstSum += S.run(*F.L, M, B).PredicateSeconds;
    }

    // Steady-state column: executions 2..MSteady of one session.
    session::Session S = F.makeSession(Threads, rt::EvalTier::Block);
    rt::Memory M;
    sym::Bindings B;
    F.setup(M, B);
    double SteadySum = 0;
    uint64_t Binds = 0, Reuses = 0;
    bool AllParallel = true;
    for (int E = 0; E < MSteady; ++E) {
      rt::ExecStats St = S.run(*F.L, M, B);
      if (E > 0) {
        SteadySum += St.PredicateSeconds;
        Binds += St.FrameBinds;
        Reuses += St.FrameRebindsSkipped;
      }
      AllParallel &= St.RanParallel;
    }
    if (!AllParallel)
      std::abort(); // The monotone predicate must pass on every execution.

    // Exact result parity vs. the interpreter reference, on every
    // written array.
    bool Parity = true;
    for (sym::SymbolId Arr : {F.A, F.X[0], F.X[1], F.X[2]}) {
      const auto &Ref = std::as_const(MRef).arrays().at(Arr);
      const auto &Got = std::as_const(M).arrays().at(Arr);
      Parity &= Ref.size() == Got.size() &&
                std::equal(Ref.begin(), Ref.end(), Got.begin());
    }

    double FirstUs = 1e6 * FirstSum / KFresh;
    double SteadyUs = 1e6 * SteadySum / (MSteady - 1);
    auto &J = GJson["session_reuse_n256"];
    J["first_exec_ns_t" + std::to_string(Threads)] = 1e3 * FirstUs;
    J["steady_ns_t" + std::to_string(Threads)] = 1e3 * SteadyUs;
    std::printf("%-8u %-14.2f %-14.2f %6.2fx   %-8llu %-8llu %s\n", Threads,
                FirstUs, SteadyUs, FirstUs / SteadyUs,
                static_cast<unsigned long long>(Binds),
                static_cast<unsigned long long>(Reuses),
                Parity ? "exact" : "MISMATCH");
    if (!Parity)
      std::abort();
  }
  std::printf("\n");
}

/// The compiled-USR half of the compile-once story: the HOIST-USR
/// emptiness test on the Fig. 3(b)-style OIND equation, interpreted
/// (point materialization, Θ(N²) on the triangular prefix) vs the
/// interval-run bytecode engine. Aborts on an answer mismatch — this is
/// the CI-smoke parity check for the compiled exact-test path.
void usrMicroBench() {
  sym::Context Sym;
  pdag::PredContext P(Sym);
  usr::USRContext U(Sym, P);
  const int64_t N = 2048;
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  auto WF = [&](sym::SymbolId V) {
    return U.interval(
        Sym.mulConst(Sym.addConst(Sym.arrayRef(IB, Sym.symRef(V)), -1), 32),
        Sym.intConst(32));
  };
  const usr::USR *Prior =
      U.recur(K, Sym.intConst(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
  const usr::USR *OInd = U.recur(I, Sym.intConst(1), Sym.symRef("N"),
                                 U.intersect(WF(I), Prior));

  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), N);
  sym::ArrayBinding A;
  A.Lo = 1;
  for (int64_t X = 0; X < N; ++X)
    A.Vals.push_back(1 + X * 2); // Monotone, disjoint blocks: empty OIND.
  B.setArray(IB, A);

  sym::Bindings BI = B;
  double T0 = nowSeconds();
  auto InterpAns = usr::evalUSREmpty(OInd, BI);
  double Interp = nowSeconds() - T0;

  auto CU = usr::CompiledUSR::compile(OInd, Sym);
  usr::CompiledUSR::PooledFrame PF;
  usr::USREvalStats St;
  double Best = 1e30;
  std::optional<bool> Ans;
  for (int R = 0; R < 3; ++R) {
    sym::Bindings BC = B; // Fresh stamp per repetition: no frame reuse.
    St = usr::USREvalStats();
    T0 = nowSeconds();
    Ans = CU->evalEmptyPooled(PF, BC, 1u << 22, &St);
    Best = std::min(Best, nowSeconds() - T0);
  }
  if (!InterpAns || InterpAns != Ans)
    std::abort(); // Compiled/interpreted emptiness must agree.

  std::printf("=== HOIST-USR exact test, Fig. 3(b) OIND at N=%lld ===\n",
              static_cast<long long>(N));
  std::printf("%-26s %10s %10s\n", "EVALUATOR", "ms", "speedup");
  std::printf("%-26s %10.2f %10s\n", "interpreted evalUSREmpty",
              1e3 * Interp, "1.00x");
  std::printf("%-26s %10.2f %9.0fx\n", "compiled interval runs", 1e3 * Best,
              Interp / Best);
  std::printf("runs/eval=%llu, points-avoided/eval=%llu, answer=%s\n\n",
              static_cast<unsigned long long>(St.RunsProduced),
              static_cast<unsigned long long>(St.PointsAvoided),
              *Ans ? "empty (independent)" : "not-empty");
  auto &J = GJson["usr_oind_n2048"];
  J["interp_ns_per_exec"] = 1e9 * Interp;
  J["compiled_ns_per_exec"] = 1e9 * Best;
  J["speedup_compiled_vs_interp"] = Interp / Best;
}

/// The USR half of the block tier: a gated root recurrence whose gate is
/// probed once per iteration — batched W iterations per dispatch when
/// BlockGates is on, one predicate evaluation per iteration when off.
/// The gate is false everywhere (empty result), so the emptiness sweep
/// pays the full N gate probes: the directly-measured gate-batching win.
/// Aborts if batched and scalar sweeps (or the interpreter) disagree.
void usrGateSweepBench() {
  sym::Context Sym;
  pdag::PredContext P(Sym);
  usr::USRContext U(Sym, P);
  const int64_t N = 1000000;
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  const usr::USR *Body =
      U.gate(P.gt(Sym.arrayRef(IB, Sym.symRef(I)), Sym.intConst(1 << 30)),
             U.interval(Sym.symRef(I), Sym.intConst(1)));
  const usr::USR *R = U.recur(I, Sym.intConst(1), Sym.symRef("N"), Body);

  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), N);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.resize(static_cast<size_t>(N));
  for (int64_t X = 0; X < N; ++X)
    A.Vals[static_cast<size_t>(X)] = X % 4096; // Never clears the gate.
  B.setArray(IB, A);

  auto CU = usr::CompiledUSR::compile(R, Sym);
  const int Reps = 5;
  usr::USREvalStats StB, StS;
  std::optional<bool> AnsB, AnsS;
  double Block = medianOf(Reps, [&] {
    StB = usr::USREvalStats();
    double T0 = nowSeconds();
    AnsB = CU->evalEmpty(B, 1u << 22, &StB, /*BlockGates=*/true);
    return nowSeconds() - T0;
  });
  double Scalar = medianOf(Reps, [&] {
    StS = usr::USREvalStats();
    double T0 = nowSeconds();
    AnsS = CU->evalEmpty(B, 1u << 22, &StS, /*BlockGates=*/false);
    return nowSeconds() - T0;
  });
  sym::Bindings BI = B;
  if (AnsB != AnsS || AnsB != usr::evalUSREmpty(R, BI) ||
      AnsB != std::optional<bool>(true))
    std::abort(); // Batched/scalar/interpreted sweeps must agree.
  if (StB.GateBlockEvals == 0 || StS.GateBlockEvals != 0)
    std::abort(); // The BlockGates toggle must actually route.

  std::printf("=== USR gated recurrence sweep at N=1e6 (median of %d) ===\n",
              Reps);
  std::printf("%-26s %10s %9s %10s %9s\n", "GATE SWEEP", "ms", "ns/iter",
              "speedup", "gateEv");
  std::printf("%-26s %10.2f %9.2f %10s %9llu\n", "scalar (1/iteration)",
              1e3 * Scalar, 1e9 * Scalar / N, "1.00x",
              static_cast<unsigned long long>(StS.GateScalarEvals));
  std::printf("%-26s %10.2f %9.2f %9.2fx %9llu\n", "batched (W/dispatch)",
              1e3 * Block, 1e9 * Block / N, Scalar / Block,
              static_cast<unsigned long long>(StB.GateBlockEvals));
  std::printf("\n");

  auto &J = GJson["usr_gate_sweep_n1e6"];
  J["scalar_ns_per_exec"] = 1e9 * Scalar;
  J["block_ns_per_exec"] = 1e9 * Block;
  J["speedup_block_vs_scalar"] = Scalar / Block;
  J["gate_block_evals"] = static_cast<double>(StB.GateBlockEvals);
  J["gate_lanes_poisoned"] = static_cast<double>(StB.GateLanesPoisoned);
}

} // namespace

int main() {
  microBench();
  sessionReuseBench();
  usrMicroBench();
  usrGateSweepBench();

  std::printf("=== Runtime-test overhead (RTov, %% of parallel runtime) ===\n");
  std::printf("%-12s %-10s %-10s %-12s %-10s %-6s %-6s %-12s %s\n", "BENCH",
              "RTov%", "interpRTov%", "paper-RTov%", "memo-hits", "usrC",
              "usrI", "usr-avoided", "NOTE");
  const std::map<std::string, const char *> PaperRTov = {
      {"flo52", "0%"},   {"bdna", "0%"},     {"arc2d", ".2%"},
      {"dyfesm", ".3%"}, {"mdg", "0%"},      {"trfd", "0%"},
      {"track", "47%"},  {"spec77", "0%"},   {"ocean", ".1%"},
      {"qcd", "0%"},     {"nasa7", ".03%"},  {"wupwise", "0%"},
      {"apsi", ".2%"},   {"zeusmp", ".01%"}, {"gromacs", "3.4%"},
      {"calculix", "8.5%"}};
  auto Benches = suite::buildAllBenchmarks();
  for (auto &B : Benches) {
    auto It = PaperRTov.find(B->Name);
    if (It == PaperRTov.end())
      continue;
    BenchTiming T = timeBenchmark(*B, 4, 8, true);
    BenchTiming TI =
        timeBenchmark(*B, 4, 8, true, 3, rt::EvalTier::Interpreted);
    // Both engine paths must be governor-counted symmetrically: the
    // compiled session never falls back to interpreted exact tests and
    // vice versa.
    if (T.InterpUSREvals != 0 || TI.CompiledUSREvals != 0)
      std::abort();
    std::printf("%-12s %-10.2f %-10.2f %-12s %-10llu %-6llu %-6llu %-12llu "
                "%s\n",
                B->Name.c_str(), 100.0 * T.TestOverheadSec / T.ParSeconds,
                100.0 * TI.TestOverheadSec / TI.ParSeconds, It->second,
                static_cast<unsigned long long>(T.PredMemoHits),
                static_cast<unsigned long long>(T.CompiledUSREvals),
                static_cast<unsigned long long>(TI.InterpUSREvals),
                static_cast<unsigned long long>(T.USRPointsAvoided),
                T.AnyTLS ? "TLS used" : "");
  }
  writeJson("BENCH_rtov.json");
  return 0;
}
