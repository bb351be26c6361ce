//===- pdag/FourierMotzkin.h - Symbolic bound-variable elimination -*-C++-*-=//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic Fourier-Motzkin-like eliminator of Fig. 6(b): given an
/// integer expression `expr` and a range environment binding loop indexes,
/// produce a *sufficient* predicate for `expr >= 0` (resp. `> 0`) in which
/// the bounded symbols have been eliminated:
///
///   expr = a*i + b, i in [L, U], i not in b:
///     (a >= 0 and a*L + b >= 0)  or  (a < 0 and a*U + b >= 0)
///
/// where the sign conditions on `a` recurse (they may themselves mention
/// bounded symbols of smaller exponent), guaranteeing termination at
/// worst-case exponential cost — the paper notes this is only exponential in
/// the number of *eliminated* symbols, typically one (the outermost loop
/// index).
///
/// The canonical use (loop CORREC_DO711 of bdna, Sec. 3.2): eliminating i
/// from `IX(1)+1-IX(2)-i > 0` with i in [1, NOP] yields
/// `IX(2)+NOP <= IX(1)`.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_FOURIERMOTZKIN_H
#define HALO_PDAG_FOURIERMOTZKIN_H

#include "pdag/Pred.h"
#include "support/IdMap.h"
#include "sym/Range.h"

#include <utility>
#include <vector>

namespace halo {
namespace pdag {

/// The eliminator for one fixed range environment, with memos that outlive
/// a call. Every reduction it makes is a pure function of the node it
/// reduces and the environment, so a result computed for one call answers
/// the same node in any later call over the same ranges: a factorizer keeps
/// one reducer per loop range it wraps (src/pdag/README.md,
/// "Fourier-Motzkin memo per loop range").
///
/// Each top-level call (reduceGE0 / reducePred) gets its own work budget.
/// A call that exhausts it returns a weaker, still sufficient, result, and
/// the reducer then drops both memos, so no later call reuses an entry
/// computed on a spent budget.
class RangeReducer {
public:
  RangeReducer(PredContext &Ctx, const sym::RangeEnv &Env);

  /// Sufficient predicate for `E >= 0` with the bound symbols eliminated
  /// where possible. Symbols that occur inside opaque atoms (array
  /// subscripts) survive in the result.
  const Pred *reduceGE0(const sym::Expr *E);

  /// Applies the eliminator to every comparison leaf of \p P, strengthening
  /// the predicate so that the bound symbols disappear. `>=` leaves that
  /// keep a bound symbol, equalities, congruences and nested scopes over a
  /// bound symbol strengthen to false.
  const Pred *reducePred(const Pred *P);

private:
  /// Sufficient predicate for E >= 0 (the recursive step of Fig. 6b).
  const Pred *eliminate(const sym::Expr *E, int Depth);
  const Pred *reduceNode(const Pred *P);
  const Pred *reduceUncached(const Pred *P);
  const sym::Range *lookup(sym::SymbolId S) const;
  bool touchesEnv(const Pred *Q) const;
  /// Starts a top-level call with a fresh budget.
  void beginCall() { Steps = 0; }
  /// Ends a top-level call; drops the memos if it ran out of budget.
  void endCall();

  PredContext &Ctx;
  sym::Context &Sym;
  /// The bound symbols and their ranges, sorted by symbol.
  std::vector<std::pair<sym::SymbolId, sym::Range>> Bound;
  /// Eliminator steps spent by the current top-level call.
  uint64_t Steps = 0;
  /// Expression ID -> ID of its eliminate() result.
  support::IdMap<uint32_t> ExprMemo;
  /// Predicate ID -> ID of its reducePred() result.
  support::IdMap<uint32_t> PredMemo;
};

/// One-shot reduceGE0 over \p Env (a fresh RangeReducer).
const Pred *reduceGE0(PredContext &Ctx, const sym::Expr *E,
                      const sym::RangeEnv &Env);

/// Sufficient predicate for `E > 0` (the paper's REDUCE_GT_0).
const Pred *reduceGT0(PredContext &Ctx, const sym::Expr *E,
                      const sym::RangeEnv &Env);

/// One-shot reducePred over \p Env (a fresh RangeReducer). Leaves that
/// cannot be reduced strengthen to false; the caller decides whether to
/// wrap the input in a loop conjunction.
const Pred *reducePred(PredContext &Ctx, const Pred *P,
                       const sym::RangeEnv &Env);

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_FOURIERMOTZKIN_H
