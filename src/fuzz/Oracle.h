//===- fuzz/Oracle.h - Differential oracles for generated loops -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's ground truth. Three independent oracles check every
/// generated case:
///
///  1. **Brute-force dependence oracle.** traceLoop() walks the loop nest
///     exactly like the interpreter (control flow, CIV updates, call-site
///     aliasing) but records, per iteration and array, the *sets* of
///     touched 0-based offsets — exposed reads, non-reduction writes,
///     reduction updates — instead of moving doubles. The paper's
///     independence properties (flow/output independence Eqs. 2-3,
///     privatizability, static last value, reduction injectivity,
///     extended-reduction separation) are then decided exactly, and every
///     claim the analyzer's runtime machinery makes — a cascade stage that
///     evaluates true, an independence USR that evaluates empty — is
///     compared against the exact answer. A claim contradicting the trace
///     is a soundness bug (P0): the analyzer would have parallelized a
///     dependent loop.
///
///  2. **Execution parity oracle.** The case runs end to end through the
///     sequential reference interpreter and through session::Session in
///     each of the three evaluation tiers (rt::EvalTier: block, scalar,
///     interpreted). All four final memory images must agree —
///     bit-exactly for non-reduction arrays, within a small tolerance for
///     reduction targets (parallel merge reorders floating-point adds).
///     Cascade stages are additionally cross-checked compiled-vs-
///     interpreted, tri-state, stage by stage.
///
///     A forced-speculation leg (every runtime test failing) must match
///     too, and its TLSSucceeded must equal noCrossIterationFlow.
///
///  3. **Front-door oracle.** Hostile cases must be rejected by the
///     structured validation gates (ir/Validate.h) — structural diags at
///     Session::prepare, binding diags from collectInputDiags — and never
///     reach execution; benign cases must pass both gates. Acceptance of
///     a hostile case or rejection of a benign one is reported.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_FUZZ_ORACLE_H
#define HALO_FUZZ_ORACLE_H

#include "fuzz/Generator.h"
#include "sym/Eval.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace halo {
namespace fuzz {

/// Per-iteration, per-array access sets (0-based element offsets).
struct IterAccesses {
  /// Reads of elements not previously written in the same iteration by a
  /// non-reduction write (the paper's RO ∪ RW read set).
  std::set<int64_t> ExposedReads;
  /// Non-reduction writes (WF ∪ RW).
  std::set<int64_t> Writes;
  /// Reduction updates (the RED set of Sec. 4).
  std::set<int64_t> RedWrites;
  /// Reduction updates of elements the iteration had not written
  /// before by a non-reduction write.
  std::set<int64_t> ExposedRedWrites;
};

/// Exact cross-iteration access record of one loop execution.
struct TraceResult {
  bool Ok = true;
  std::string Error;
  /// Iters[k] maps array symbol -> access sets of the (k+1)-th executed
  /// outer iteration.
  std::vector<std::map<sym::SymbolId, IterAccesses>> Iters;
};

/// Walks \p Loop under \p B (scalars + index arrays; data values are never
/// needed — subscripts and gates only read integers) and materializes the
/// per-iteration access sets. \p B is taken by value: CIV updates mutate
/// the walker's copy exactly like the interpreter's.
TraceResult traceLoop(const ir::Program &Prog, const ir::DoLoop &Loop,
                      sym::Bindings B);

/// Exact property deciders over a trace, for one array. These are the
/// brute-force counterparts of the analyzer's independence equations.
bool flowIndependent(const TraceResult &T, sym::SymbolId Array);
bool outputIndependent(const TraceResult &T, sym::SymbolId Array);
bool privatizable(const TraceResult &T, sym::SymbolId Array);
bool slvValid(const TraceResult &T, sym::SymbolId Array);
bool redInjective(const TraceResult &T, sym::SymbolId Array);
bool extRedSeparated(const TraceResult &T, sym::SymbolId Array);
/// The speculation verdict over every array: true iff no exposed read or
/// exposed reduction update hits an element an earlier iteration wrote.
bool noCrossIterationFlow(const TraceResult &T);

/// Oracle knobs.
struct OracleOptions {
  /// Session worker threads for the parity runs.
  unsigned Threads = 3;
  /// Relative/absolute tolerance for reduction-target arrays.
  double Tolerance = 1e-9;
};

/// Everything checkCase() observed about one case.
struct OracleResult {
  /// Analyzer claims contradicted by the brute-force trace (P0).
  std::vector<std::string> Soundness;
  /// End-state or per-stage engine disagreements.
  std::vector<std::string> Parity;
  /// Front-door anomalies and oracle-internal failures (benign case
  /// rejected, hostile case accepted, unexpected exception, trace error).
  std::vector<std::string> Other;

  /// The validation gates rejected the case (expected iff hostile).
  bool ValidationRejected = false;
  /// Diag mnemonics reported by the gates (support::diagCodeName).
  std::vector<std::string> DiagCodes;
  /// Plan classification of the compiled session ("" when not analyzed).
  std::string ClassString;
  /// Guard demotions summed over every engine run (reporting).
  uint64_t GuardDemotions = 0;

  bool ok() const {
    return Soundness.empty() && Parity.empty() && Other.empty();
  }
  /// Category of the first failure: "soundness", "parity", "front-door",
  /// or "" when ok. The minimizer preserves this signature.
  std::string failureKind() const {
    if (!Soundness.empty())
      return "soundness";
    if (!Parity.empty())
      return "parity";
    if (!Other.empty())
      return "front-door";
    return "";
  }
};

/// Runs every oracle against \p C. Never throws: all engine exceptions are
/// captured into the result.
OracleResult checkCase(GeneratedCase &C, const OracleOptions &O = {});

} // namespace fuzz
} // namespace halo

#endif // HALO_FUZZ_ORACLE_H
