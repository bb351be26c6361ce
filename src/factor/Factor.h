//===- factor/Factor.h - The logic-inference factorization -----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central contribution (Sec. 3, Fig. 5): the language
/// translation `F : USR -> PDAG` with `F(S) ==> S = empty`, implemented as
/// a logic-inference algorithm that pattern matches the shape of the
/// independence summary:
///
///   FACTOR(q # S)      = not(q) or FACTOR(S)
///   FACTOR(S1 u S2)    = FACTOR(S1) and FACTOR(S2)
///   FACTOR(S1 - S2)    = FACTOR(S1) or INCLUDED(S1, S2)
///   FACTOR(S1 n S2)    = FACTOR(S1) or FACTOR(S2) or DISJOINT(S1, S2)
///   FACTOR(U_i S_i)    = AND_i FACTOR(S_i)        (with FM elimination)
///   FACTOR(S ./ call)  = FACTOR(S) ./ call
///
/// plus the specialized DISJOINT / INCLUDED inference rules (1)-(5) of
/// Fig. 5, the LMAD-level predicate extraction of Sec. 3.2 / Fig. 6, and
/// the monotonicity rule of Sec. 3.3 for the output-independence pattern
/// `U_i (S_i  n  U_{k<i} S_k) = empty`.
///
/// Every produced predicate is *sufficient*: if it evaluates true, the set
/// is empty. This is the soundness invariant the property tests check
/// against exact USR evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_FACTOR_FACTOR_H
#define HALO_FACTOR_FACTOR_H

#include "lmad/LMADCompare.h"
#include "usr/USR.h"

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

namespace halo {
namespace factor {

/// Feature toggles — each maps to one of the design choices benchmarked by
/// the ablation harness (`bench_ablations`, docs/BENCHMARKS.md).
struct FactorOptions {
  /// The Sec. 3.3 monotonicity rule for U_i(S_i n U_{k<i} S_k).
  bool Monotonicity = true;
  /// Rule (1): loop-invariant overestimates for recurrence disjointness.
  bool InvariantOverestimates = true;
  /// Fourier-Motzkin elimination of recurrence variables (Fig. 6b).
  bool FourierMotzkin = true;
  /// LMAD-level approximation rules (INCLUDED_APP / DISJOINT_APP).
  bool LmadApproximation = true;
  /// Work budget: total FACTOR/DISJOINT/INCLUDED rule applications per
  /// factorization before the engine degrades to `false` (sound — every
  /// emitted predicate is merely sufficient, and the runtime exact test
  /// still covers the loop). Bounds analysis time on adversarial
  /// summaries with quadratically many distinct leaf pairs.
  uint64_t MaxSteps = 1 << 17;
};

/// Per-rule firing counters (diagnostics and ablation reporting).
struct FactorStats {
  uint64_t GateRule = 0;
  uint64_t UnionRule = 0;
  uint64_t SubtractRule = 0;
  uint64_t IntersectRule = 0;
  uint64_t RecurRule = 0;
  uint64_t MonotonicityRule = 0;
  uint64_t InvariantOverRule = 0;
  uint64_t LmadDisjointRule = 0;
  uint64_t LmadIncludedRule = 0;
  uint64_t FillsArrayRule = 0;
  uint64_t FourierMotzkinUses = 0;
  /// Times the factorization bailed out on an exhausted step or node
  /// budget (nonzero means some cascade stages degraded to `false`).
  uint64_t BudgetBailouts = 0;
};

/// The factorization engine. One instance per analyzed loop/array; holds
/// memoization tables keyed on interned node identity (the contract is in
/// src/factor/README.md).
class Factorizer {
public:
  Factorizer(usr::USRContext &Ctx, FactorOptions Opts = FactorOptions());

  /// Sets the declared size (element count) of the array the summaries
  /// range over; enables the FILLS_ARR rule (5).
  void setArraySize(const sym::Expr *Size) { ArraySize = Size; }

  /// F(S): a sufficient predicate for S = empty.
  const pdag::Pred *factor(const usr::USR *S);

  /// Sufficient predicate for S1 n S2 = empty.
  const pdag::Pred *disjoint(const usr::USR *S1, const usr::USR *S2);

  /// Sufficient predicate for S1 subset-of S2.
  const pdag::Pred *included(const usr::USR *S1, const usr::USR *S2);

  const FactorStats &stats() const { return Stats; }

private:
  const pdag::Pred *factorImpl(const usr::USR *S, int Depth);
  const pdag::Pred *disjointImpl(const usr::USR *A, const usr::USR *B,
                                 int Depth);
  const pdag::Pred *disjointHomo(const usr::USR *U, const usr::USR *S,
                                 int Depth);
  const pdag::Pred *disjointApprox(const usr::USR *A, const usr::USR *B);
  const pdag::Pred *includedImpl(const usr::USR *A, const usr::USR *B,
                                 int Depth);
  const pdag::Pred *includedHomo(const usr::USR *S, const usr::USR *U,
                                 int Depth);
  const pdag::Pred *includedApprox(const usr::USR *A, const usr::USR *B);

  /// The Sec. 3.3 monotonicity rule; null when the pattern does not match.
  const pdag::Pred *tryMonotonicity(const usr::RecurUSR *R);

  /// Wraps a per-iteration predicate into a loop conjunction, first trying
  /// Fourier-Motzkin elimination of the loop variable; the FM result is
  /// OR-ed in so the cascade can pick the O(1) side.
  const pdag::Pred *wrapLoop(sym::SymbolId Var, const sym::Expr *Lo,
                             const sym::Expr *Hi, const pdag::Pred *Body);

  /// LMAD-set overestimate of S (drops gates, subtrahends, one intersect
  /// operand; aggregates recurrences). Null on failure; otherwise points
  /// into the memo and lives as long as the Factorizer.
  const lmad::KeyedSet *overestimateLMADs(const usr::USR *S);

  /// Conditional LMAD-set *underestimate* (P, set): when P holds the set
  /// is contained in S's denotation. Set points into the memo.
  struct CondSet {
    const pdag::Pred *Cond;
    const lmad::KeyedSet *Set;
  };
  std::optional<CondSet> underestimateLMADs(const usr::USR *S);

  /// Cheap predicate under which S is empty (gate negations, empty ranges,
  /// negative spans) — used as the P_C component of the *_APP rules
  /// without recursing into the full factorization.
  const pdag::Pred *shallowEmptyPred(const usr::USR *S);

  /// Symbolic interval hull [Lo, Hi] of a set of LMADs (min/max chains).
  lmad::Interval intervalHull(const lmad::LMADSet &Set);

  usr::USRContext &Ctx;
  pdag::PredContext &P;
  sym::Context &Sym;
  FactorOptions Opts;
  FactorStats Stats;
  const sym::Expr *ArraySize = nullptr;

  bool overBudget();

  static constexpr int MaxDepth = 48;
  /// Hard cap on predicate-node growth per factorization (worst-case
  /// exponential inputs degrade to `false` instead of hanging, Sec. 3.6).
  size_t NodeBudget;
  /// Rule applications spent so far (checked against Opts.MaxSteps).
  uint64_t Steps = 0;
  std::unordered_map<const usr::USR *, const pdag::Pred *> FactorMemo;
  std::unordered_map<uint64_t, const pdag::Pred *> DisjointMemo;
  std::unordered_map<uint64_t, const pdag::Pred *> IncludedMemo;
  /// Per-node memos of the LMAD-level helpers; see src/factor/README.md.
  std::unordered_map<const usr::USR *, const pdag::Pred *> ShallowMemo;
  std::unordered_map<const usr::USR *, const lmad::KeyedSet *> OverMemo;
  std::unordered_map<const usr::USR *, std::optional<CondSet>> UnderMemo;
  /// Owns every set the two LMAD memos point to (a deque never moves them).
  std::deque<lmad::KeyedSet> LmadSets;
  lmad::PairMemo LmadPairs;
};

} // namespace factor
} // namespace halo

#endif // HALO_FACTOR_FACTOR_H
