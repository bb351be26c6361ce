//===- suite/Suite.h - The 26-benchmark reproduction suite -----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic reconstructions of the PERFECT-CLUB / SPEC89/92/2000/2006
/// benchmarks evaluated in the paper (Tables 1-3). We do not have the
/// Fortran sources or datasets; as src/suite/README.md describes, each
/// benchmark is rebuilt in the mini-IR around the loop patterns the
/// paper describes (SOLVH_DO20, CORREC_DO711/900, TRANX2_DO2100,
/// EXTEND_DO400, MXMULT_DO10, INL1130_DO1, ...), with workload weights
/// (the LSC column) taken from the tables.
///
/// Each LoopSpec records the paper's classification string so the table
/// harnesses can print computed-vs-paper side by side, and each benchmark
/// provides a Setup function that allocates memory/bindings at a given
/// scale so the figure harnesses can size datasets.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUITE_SUITE_H
#define HALO_SUITE_SUITE_H

#include "analysis/Analyzer.h"
#include "ir/Program.h"
#include "rt/Executor.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace halo {
namespace suite {

/// One analyzed/measured loop of a benchmark.
struct LoopSpec {
  std::string Name;         ///< Paper's loop name, e.g. "SOLVH_do20".
  double LscPercent = 0;    ///< Contribution to sequential coverage.
  std::string PaperClass;   ///< Column five of Tables 1-3.
  const ir::DoLoop *Loop = nullptr;
  bool Hoistable = false;   ///< Exact tests amortize across executions.
};

/// One benchmark: its own contexts, program, loops and data setup.
class Benchmark {
public:
  std::string Name;
  std::string SuiteName; ///< "PERFECT", "SPEC92", "SPEC2000/2006".
  double SeqCoveragePct = 0; ///< The SC column.
  std::vector<LoopSpec> Loops;

  /// Populates memory and bindings for a run at the given scale
  /// (Scale 1 corresponds to a small validation dataset).
  std::function<void(rt::Memory &, sym::Bindings &, int64_t Scale)> Setup;

  sym::Context &sym() { return *SymCtx; }
  pdag::PredContext &pred() { return *PredCtx; }
  usr::USRContext &usr() { return *UsrCtx; }
  ir::Program &prog() { return *Prog; }

  Benchmark() {
    SymCtx = std::make_unique<sym::Context>();
    PredCtx = std::make_unique<pdag::PredContext>(*SymCtx);
    UsrCtx = std::make_unique<usr::USRContext>(*SymCtx, *PredCtx);
    Prog = std::make_unique<ir::Program>(*SymCtx, *PredCtx);
  }

private:
  std::unique_ptr<sym::Context> SymCtx;
  std::unique_ptr<pdag::PredContext> PredCtx;
  std::unique_ptr<usr::USRContext> UsrCtx;
  std::unique_ptr<ir::Program> Prog;
};

/// Helper DSL for writing benchmark programs compactly.
class BenchBuilder {
public:
  explicit BenchBuilder(Benchmark &B)
      : B(B), Sym(B.sym()), P(B.pred()), Prog(B.prog()),
        Main(Prog.makeSubroutine("main")) {}

  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
  const sym::Expr *sv(sym::SymbolId Id) { return Sym.symRef(Id); }

  /// Declares a data array with a known size expression.
  sym::SymbolId dataArray(const std::string &N, const sym::Expr *Size) {
    sym::SymbolId Id = Sym.symbol(N, 0, /*IsArray=*/true);
    Main->declareArray(ir::ArrayDecl{Id, Size, false});
    return Id;
  }
  /// Declares an assumed-size data array (size unknown at compile time —
  /// triggers BOUNDS-COMP for reductions).
  sym::SymbolId assumedSizeArray(const std::string &N) {
    sym::SymbolId Id = Sym.symbol(N, 0, /*IsArray=*/true);
    Main->declareArray(ir::ArrayDecl{Id, nullptr, false});
    return Id;
  }
  /// Declares an integer index array (readable in subscripts).
  sym::SymbolId indexArray(const std::string &N) {
    sym::SymbolId Id = Sym.symbol(N, 0, /*IsArray=*/true);
    Main->declareArray(ir::ArrayDecl{Id, nullptr, true});
    return Id;
  }

  ir::DoLoop *loop(const std::string &Label, const std::string &Var,
                   const sym::Expr *Lo, const sym::Expr *Hi, int Depth) {
    sym::SymbolId V = Sym.symbol(Var, Depth);
    return Prog.make<ir::DoLoop>(Label, V, Lo, Hi, Depth);
  }

  ir::AssignStmt *assign(sym::SymbolId W, const sym::Expr *WOff,
                         std::vector<ir::ArrayAccess> Reads = {},
                         unsigned Work = 0) {
    return Prog.make<ir::AssignStmt>(ir::ArrayAccess{W, WOff},
                                     std::move(Reads), false, Work);
  }
  ir::AssignStmt *readOnly(std::vector<ir::ArrayAccess> Reads,
                           unsigned Work = 0) {
    return Prog.make<ir::AssignStmt>(std::nullopt, std::move(Reads), false,
                                     Work);
  }
  /// `W(off) += f(reads)`: the added value must not read the accumulator
  /// itself (associativity is what makes private-copy merging valid).
  ir::AssignStmt *reduce(sym::SymbolId W, const sym::Expr *WOff,
                         std::vector<ir::ArrayAccess> Reads = {},
                         unsigned Work = 0) {
    return Prog.make<ir::AssignStmt>(ir::ArrayAccess{W, WOff},
                                     std::move(Reads), true, Work);
  }

  ir::Subroutine *mainSub() { return Main; }

  Benchmark &B;
  sym::Context &Sym;
  pdag::PredContext &P;
  ir::Program &Prog;
  ir::Subroutine *Main;
};

/// Builds all benchmarks of one suite.
std::vector<std::unique_ptr<Benchmark>> buildPerfectClub();
std::vector<std::unique_ptr<Benchmark>> buildSpec92();
std::vector<std::unique_ptr<Benchmark>> buildSpec2000();

/// Builds every benchmark (Tables 1 + 2 + 3).
std::vector<std::unique_ptr<Benchmark>> buildAllBenchmarks();

//===----------------------------------------------------------------------===//
// Shared loop-pattern constructors (used by several benchmarks)
//===----------------------------------------------------------------------===//

/// A trivially parallel stencil-ish loop: X[i-1] = f(Y[i-1]) (STATIC-PAR).
ir::DoLoop *makeStaticParLoop(BenchBuilder &BB, const std::string &Label,
                              const std::string &Var, sym::SymbolId X,
                              sym::SymbolId Y, const sym::Expr *N,
                              unsigned Work);

/// Strided writes X[(i-1)*S] with a symbolic stride: output independence
/// needs the O(1) predicate S >= 1 (extracted via Fourier-Motzkin).
ir::DoLoop *makeSymbolicStrideLoop(BenchBuilder &BB, const std::string &Label,
                                   const std::string &Var, sym::SymbolId X,
                                   const std::string &StrideSym,
                                   const sym::Expr *N, unsigned Work);

/// Block writes X[IB(i)-1 .. IB(i)+LEN-2] through an index array: output
/// independence via the monotonicity rule, an O(N) predicate (Sec. 3.3).
ir::DoLoop *makeMonotonicBlockLoop(BenchBuilder &BB, const std::string &Label,
                                   const std::string &Var, sym::SymbolId X,
                                   sym::SymbolId IB, const sym::Expr *Len,
                                   const sym::Expr *N, unsigned Work);

/// Flow dependence X[i] = f(X[i-1]): proven dependent on probe data
/// (STATIC-SEQ).
ir::DoLoop *makeSeqChainLoop(BenchBuilder &BB, const std::string &Label,
                             const std::string &Var, sym::SymbolId X,
                             const sym::Expr *N, unsigned Work);

/// Fully irregular subscripted-subscript accesses X[IDX(i)] = f(X[JDX(i)]):
/// no predicate exists; falls back to TLS (or HOIST-USR when hoistable).
ir::DoLoop *makeIrregularLoop(BenchBuilder &BB, const std::string &Label,
                              const std::string &Var, sym::SymbolId X,
                              sym::SymbolId IDX, sym::SymbolId JDX,
                              const sym::Expr *N, unsigned Work);

//===----------------------------------------------------------------------===//
// Data generators for Setup functions
//===----------------------------------------------------------------------===//

/// 1-based arithmetic ramp: {start, start+step, ...} of length n.
inline sym::ArrayBinding rampArray(int64_t N, int64_t Start, int64_t Step) {
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.reserve(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    A.Vals.push_back(Start + I * Step);
  return A;
}

/// 1-based constant array of length n.
inline sym::ArrayBinding constArray(int64_t N, int64_t V) {
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.assign(static_cast<size_t>(N), V);
  return A;
}

/// 1-based pseudo-random permutation of [0, n) (injective subscripts).
inline sym::ArrayBinding permutationArray(int64_t N, uint64_t Seed) {
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.resize(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    A.Vals[static_cast<size_t>(I)] = I;
  uint64_t S = Seed;
  for (int64_t I = N - 1; I > 0; --I) {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    int64_t J = static_cast<int64_t>((S >> 33) % (I + 1));
    std::swap(A.Vals[static_cast<size_t>(I)], A.Vals[static_cast<size_t>(J)]);
  }
  return A;
}

} // namespace suite
} // namespace halo

#endif // HALO_SUITE_SUITE_H
