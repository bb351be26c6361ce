//===- analysis/Analyzer.h - Hybrid loop analysis driver -------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-loop pipeline of Sec. 5: summarize accesses, build the
/// independence equations, classify statically where possible, and extract
/// the cascade of runtime tests plus the parallelization techniques
/// (privatization, static/dynamic last value, static/runtime/extended
/// reduction, BOUNDS-COMP, CIV precomputation) that the runtime needs.
///
/// The resulting LoopPlan is both the machine-readable execution plan for
/// the rt module and the source of the classification strings reported in
/// the paper's Tables 1-3 (STATIC-PAR, STATIC-SEQ, FI/OI O(1)/O(N),
/// HOIST-USR, TLS, ...).
///
/// `AnalyzerOptions::RuntimeTests = false` yields the commercial-compiler
/// proxy baseline: only statically-proven loops parallelize (the
/// `Static-Auto` column of `bench_fig_timing`, docs/BENCHMARKS.md).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_ANALYSIS_ANALYZER_H
#define HALO_ANALYSIS_ANALYZER_H

#include "factor/Factor.h"
#include "pdag/PredSimplify.h"
#include "summary/Independence.h"
#include "summary/Summary.h"

#include <set>
#include <string>

namespace halo {
namespace analysis {

/// Overall loop classification (column five of Tables 1-3).
enum class LoopClass {
  StaticPar,  ///< Proven independent at compile time.
  StaticSeq,  ///< Dependence demonstrated; run sequentially.
  Predicated, ///< Parallel under a runtime predicate cascade.
  HoistUSR,   ///< Needs exact USR evaluation, hoistable/memoizable.
  TLS,        ///< Falls back to speculative execution (LRPD).
};

/// Parallelization techniques (the abbreviations of Sec. 6).
enum class Technique {
  Priv,
  SLV,
  DLV,
  SRed,
  RRed,
  ExtRed,
  BoundsComp,
  CivAgg,
  Mon,
  UMEG,
};

/// One runtime test: a cascade of increasingly expensive sufficient
/// conditions. Empty stages with StaticallyTrue unset mean "no predicate
/// found" (fall back to exact test / TLS).
struct TestCascade {
  std::vector<pdag::CascadeStage> Stages;
  bool StaticallyTrue = false;
  /// Worst-case complexity of the first (cheapest) stage, -1 if none.
  int FirstDepth() const {
    return Stages.empty() ? -1 : Stages.front().Depth;
  }
};

/// Per-array analysis result and runtime strategy.
struct ArrayPlan {
  sym::SymbolId Array = 0;
  bool ReadOnly = false;

  /// Flow/anti independence (Eq. 3).
  TestCascade Flow;
  const usr::USR *FlowUSR = nullptr;

  /// Output independence (Eq. 2) of the non-reduction writes.
  TestCascade Output;
  const usr::USR *OutputUSR = nullptr;

  /// Conditional privatization: valid when the per-iteration exposed
  /// reads are empty (then output dependences are removed by private
  /// copies).
  TestCascade Priv;
  /// Static-last-value validity (all writes covered by iteration N's).
  TestCascade Slv;
  bool LiveOut = true;

  /// Reduction treatment (Sec. 4).
  bool HasReduction = false;
  /// Injectivity of the reduction subscripts: direct updates are safe.
  TestCascade RRed;
  /// True when a non-trivial runtime injectivity test was deployed.
  bool RRedDeployed = false;
  /// Flow independence between reduction and non-reduction accesses
  /// (EXT-RRED requirement).
  TestCascade ExtRedFlow;
  const usr::USR *ExtRedUSR = nullptr;
  /// Reduction array bounds unknown at compile time: evaluate at runtime.
  bool NeedsBoundsComp = false;
  const usr::USR *BoundsUSR = nullptr;
};

/// Complete result of analyzing one loop.
struct LoopPlan {
  const ir::DoLoop *Loop = nullptr;
  LoopClass Class = LoopClass::StaticPar;
  std::set<Technique> Techniques;
  std::vector<ArrayPlan> Arrays;
  summary::CivPlan Civ;
  /// True when exact-test fallback may be hoisted/memoized across
  /// repeated executions of the loop (set from the benchmark context).
  bool Hoistable = false;
  /// Whether dynamic validation (predicates, exact tests, TLS) may be
  /// used at all; false for the static-only baseline.
  bool RuntimeTestsEnabled = true;
  /// Reporting depths for the classification string (-1 = no runtime
  /// flow/output test needed). When a probe dataset was supplied these
  /// reflect the first stage that actually succeeds — the same notion the
  /// paper's tables report.
  int ReportFlowDepth = -1;
  int ReportOutDepth = -1;
  bool ReportNeedsFlow = false;
  bool ReportNeedsOut = false;

  /// Max cascade depth over all arrays' first stages (0 = O(1) tests,
  /// 1 = O(N), ...), -1 when no runtime test is needed.
  int maxTestDepth() const;
  /// The paper's classification string, e.g. "STATIC-PAR", "FI O(1)",
  /// "F/OI O(1)/O(N)", "HOIST-USR", "TLS".
  std::string classString() const;
  /// Technique abbreviations, e.g. "PRIV,SLV,MON".
  std::string techniqueString() const;
};

struct AnalyzerOptions {
  factor::FactorOptions Factor;
  /// Enable runtime predicates; off = static-only (ifort/xlf_r proxy).
  bool RuntimeTests = true;
  /// Upper bound on the complexity of generated runtime tests (Sec. 3.6:
  /// "the run-time complexity of the dynamic tests can be upper bounded
  /// during compilation"; the paper never needs more than O(N)). Stages
  /// beyond this loop depth are dropped; loops left without a usable
  /// predicate fall back to exact tests or TLS.
  int MaxPredDepth = 1;
  /// Apply the UMEG-preserving reshaping (Fig. 8b) before factorization.
  bool UMEGReshape = true;
  /// Apply invariant hoisting / cascade separation (Sec. 3.5).
  bool CascadeSeparation = true;
  /// Sample bindings used to demonstrate dependence when no sufficient
  /// predicate exists (distinguishes STATIC-SEQ from exact-test loops).
  const sym::Bindings *Probe = nullptr;
  /// Marks the loop's exact test as hoistable (amortized over repeated
  /// executions), switching the fallback from TLS to HOIST-USR.
  bool HoistableContext = false;
};

/// Runs the full hybrid analysis pipeline on one loop.
class HybridAnalyzer {
public:
  HybridAnalyzer(usr::USRContext &Ctx, ir::Program &Prog,
                 AnalyzerOptions Opts = AnalyzerOptions());

  LoopPlan analyze(const ir::DoLoop &Loop);

  const factor::FactorStats &lastFactorStats() const { return LastStats; }

private:
  TestCascade makeCascade(const pdag::Pred *P) const;
  TestCascade factorToCascade(factor::Factorizer &F, const usr::USR *S);
  const ir::ArrayDecl *findDeclInProgram(sym::SymbolId Id);

  usr::USRContext &Ctx;
  pdag::PredContext &P;
  sym::Context &Sym;
  ir::Program &Prog;
  AnalyzerOptions Opts;
  factor::FactorStats LastStats;
  /// Iteration bounds of the loop under analysis (for vacuous-stage
  /// filtering in makeCascade).
  const sym::Expr *CurLo = nullptr;
  const sym::Expr *CurHi = nullptr;
};

} // namespace analysis
} // namespace halo

#endif // HALO_ANALYSIS_ANALYZER_H
