//===- bench/compile_time.cpp - Sec. 3.6 compile-time microbench ----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Sec. 3.6: factorization is worst-case exponential but the typical USR
// is sparse in the operators that cause it, and Fourier-Motzkin is only
// exponential in the number of *eliminated* symbols (typically one).
// These benchmarks measure factorization wall time over growing summary
// shapes and the FM eliminator over a growing number of bound symbols,
// plus the lowering of the suite's runtime tests to bytecode (the cost a
// warm start pays again to verify its cached plans).
//
//===----------------------------------------------------------------------===//

#include "factor/Factor.h"
#include "fuzz/Generator.h"
#include "pdag/FourierMotzkin.h"
#include "rt/CompiledCascade.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "summary/Independence.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <sstream>

using namespace halo;

namespace {

/// Factorize a union of K gated subtraction terms (Fig. 4 shapes).
void BM_FactorGatedUnion(benchmark::State &State) {
  int64_t K = State.range(0);
  for (auto _ : State) {
    sym::Context Sym;
    pdag::PredContext P(Sym);
    usr::USRContext U(Sym, P);
    std::vector<const usr::USR *> Terms;
    for (int64_t J = 0; J < K; ++J) {
      const pdag::Pred *G =
          P.ne(Sym.symRef("g" + std::to_string(J)), Sym.intConst(1));
      const usr::USR *S = U.subtract(
          U.interval(Sym.intConst(0), Sym.symRef("a" + std::to_string(J))),
          U.interval(Sym.intConst(0), Sym.symRef("b" + std::to_string(J))));
      Terms.push_back(U.gate(G, S));
    }
    factor::Factorizer F(U);
    auto *Pred = F.factor(U.unionN(Terms));
    benchmark::DoNotOptimize(Pred);
  }
  State.SetComplexityN(K);
}

/// Factorize the triangular output-independence equation over an index
/// array (the expensive shape; exercises the monotonicity rule).
void BM_FactorTriangularOInd(benchmark::State &State) {
  for (auto _ : State) {
    sym::Context Sym;
    pdag::PredContext P(Sym);
    usr::USRContext U(Sym, P);
    sym::SymbolId I = Sym.symbol("i", 1);
    sym::SymbolId K = Sym.symbol("k", 2);
    sym::SymbolId IB = Sym.symbol("IB", 0, true);
    auto WF = [&](sym::SymbolId V) {
      return U.interval(Sym.arrayRef(IB, Sym.symRef(V)), Sym.intConst(8));
    };
    const usr::USR *Prior =
        U.recur(K, Sym.intConst(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
    const usr::USR *OInd = U.recur(I, Sym.intConst(1), Sym.symRef("N"),
                                   U.intersect(WF(I), Prior));
    factor::Factorizer F(U);
    auto *Pred = F.factor(OInd);
    benchmark::DoNotOptimize(Pred);
  }
}

/// Fourier-Motzkin elimination over a growing number of bound symbols
/// (worst-case exponential — the paper eliminates one in practice).
void BM_FourierMotzkinSymbols(benchmark::State &State) {
  int64_t K = State.range(0);
  for (auto _ : State) {
    sym::Context Sym;
    pdag::PredContext P(Sym);
    sym::RangeEnv Env;
    const sym::Expr *E = Sym.symRef("c");
    for (int64_t J = 0; J < K; ++J) {
      sym::SymbolId V = Sym.symbol("v" + std::to_string(J), 1);
      Env.bind(V, Sym.intConst(1), Sym.symRef("N" + std::to_string(J)));
      E = Sym.add(E, Sym.mul(Sym.symRef(V),
                             Sym.symRef("a" + std::to_string(J))));
    }
    auto *Pred = pdag::reduceGE0(P, E, Env);
    benchmark::DoNotOptimize(Pred);
  }
  State.SetComplexityN(K);
}

/// Full prepare() of an FM-heavy fuzzed nest (seed 7: inner recurrences
/// drive the eliminator, and its deep predicates make cascade extraction
/// a large share too) — the cost a plan cache avoids on restart.
void BM_PrepareColdFMHeavy(benchmark::State &State) {
  fuzz::GenOptions GO;
  GO.Seed = 7;
  for (auto _ : State) {
    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx());
    benchmark::DoNotOptimize(&S.prepare(*C->Loop));
  }
}

/// The same nest warm-started from a serialized .hplan stream: load
/// re-interns and re-compiles bytecode (verified against the stream) but
/// skips analysis entirely. The BENCHMARKS.md plan-cache row is the ratio
/// of this to BM_PrepareColdFMHeavy.
void BM_PrepareWarmStart(benchmark::State &State) {
  fuzz::GenOptions GO;
  GO.Seed = 7;
  std::string Bytes;
  {
    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx());
    S.prepare(*C->Loop);
    std::ostringstream OS(std::ios::binary);
    S.savePlans(OS);
    Bytes = OS.str();
  }
  for (auto _ : State) {
    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx());
    std::istringstream IS(Bytes, std::ios::binary);
    S.loadPlans(IS);
    benchmark::DoNotOptimize(&S.prepare(*C->Loop));
  }
}

/// Lowers every distinct cascade stage and runtime-test USR of the 27
/// suite programs into fresh compile caches: the predicate and USR
/// compilers alone, which a warm start runs once per cached plan to check
/// it against the stream's digest. Analysis (cold prepare of every loop)
/// runs once, outside the timed region.
void BM_LowerSuiteCascades(benchmark::State &State) {
  struct Program {
    std::unique_ptr<suite::Benchmark> B;
    std::unique_ptr<session::Session> S;
    std::vector<const pdag::Pred *> Stages;
    std::vector<const usr::USR *> Usrs;
  };
  std::vector<Program> Progs;
  for (auto &B : suite::buildAllBenchmarks()) {
    Program P;
    session::SessionOptions SO;
    SO.Threads = 1;
    P.S = std::make_unique<session::Session>(B->prog(), B->usr(), SO);
    std::set<const pdag::Pred *> Stages;
    std::set<const usr::USR *> Usrs;
    for (const suite::LoopSpec &LS : B->Loops)
      for (const analysis::ArrayPlan &A : P.S->prepare(*LS.Loop).Plan.Arrays) {
        for (const analysis::TestCascade *C :
             {&A.Flow, &A.Output, &A.Priv, &A.Slv, &A.RRed, &A.ExtRedFlow})
          for (const pdag::CascadeStage &St : C->Stages)
            Stages.insert(St.P);
        for (const usr::USR *U :
             {A.FlowUSR, A.OutputUSR, A.ExtRedUSR, A.BoundsUSR})
          if (U)
            Usrs.insert(U);
      }
    P.Stages.assign(Stages.begin(), Stages.end());
    P.Usrs.assign(Usrs.begin(), Usrs.end());
    P.B = std::move(B);
    Progs.push_back(std::move(P));
  }
  size_t Objects = 0;
  for (auto _ : State) {
    Objects = 0;
    for (const Program &P : Progs) {
      const sym::Context &Sym = P.B->usr().symCtx();
      rt::PredCompileCache Preds(Sym);
      rt::USRCompileCache Usrs(Sym, Preds);
      for (const pdag::Pred *St : P.Stages)
        benchmark::DoNotOptimize(Preds.get(St));
      for (const usr::USR *U : P.Usrs)
        benchmark::DoNotOptimize(Usrs.get(U));
      Objects += Preds.size() + Usrs.size();
    }
  }
  State.counters["objects"] = static_cast<double>(Objects);
}

} // namespace

BENCHMARK(BM_FactorGatedUnion)->RangeMultiplier(2)->Range(2, 64)->Complexity();
BENCHMARK(BM_FactorTriangularOInd);
BENCHMARK(BM_FourierMotzkinSymbols)->DenseRange(1, 5)->Complexity();
BENCHMARK(BM_PrepareColdFMHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrepareWarmStart)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LowerSuiteCascades)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
