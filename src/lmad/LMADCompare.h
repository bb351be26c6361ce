//===- lmad/LMADCompare.h - Disjoint/included LMAD predicates --*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts sufficient predicates from LMAD comparisons (Sec. 3.2, Fig. 6a):
///
///  - 1-D disjointness: interleaved non-overlapping accesses
///    (`gcd(d1,d2) does not divide t1-t2`) or disjoint interval
///    overestimates (`t1 > t2+s2 or t2 > t1+s1`).
///  - 1-D inclusion: `d2 | d1 and d2 | t1-t2 and t1 >= t2 and
///    t1+s1 <= t2+s2`.
///  - Multi-dimensional disjointness: flatten to 1-D, unify dimensions,
///    project the (equal-stride) outer dimension with well-formedness
///    predicates, and recurse on inner/outer parts.
///  - FILLS_ARR: the predicate under which an LMAD covers the whole
///    declared array (rule (5) of Fig. 5).
///
/// All results are *sufficient* conditions: predicate true implies the set
/// relation holds. They may mention loop variables; the factorization layer
/// eliminates those with Fourier-Motzkin or wraps them in loop nodes.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_LMAD_LMADCOMPARE_H
#define HALO_LMAD_LMADCOMPARE_H

#include "lmad/LMAD.h"
#include "pdag/Pred.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace halo {
namespace lmad {

/// Sufficient predicate for `A intersect B == empty` (1-D inputs; callers
/// with multi-dimensional inputs use disjointLMAD).
const pdag::Pred *disjointLMAD1D(pdag::PredContext &Ctx, const LMAD &A,
                                 const LMAD &B);

/// Sufficient predicate for `A subset-of B` on 1-D LMADs.
const pdag::Pred *includedLMAD1D(pdag::PredContext &Ctx, const LMAD &A,
                                 const LMAD &B);

/// Sufficient predicate for `A intersect B == empty`, any ranks
/// (the DISJOINT_LMAD algorithm of Fig. 6a).
const pdag::Pred *disjointLMAD(pdag::PredContext &Ctx, const LMAD &A,
                               const LMAD &B);

/// Sufficient predicate for `A subset-of B`, any ranks (flattens B to a
/// dense 1-D underestimate when possible).
const pdag::Pred *includedLMAD(pdag::PredContext &Ctx, const LMAD &A,
                               const LMAD &B);

/// Sufficient predicate for `L covers [0, Size-1]` — the whole declared
/// array, 0-based linearized (FILLS_ARR, rule (5) of Fig. 5).
const pdag::Pred *fillsArray(pdag::PredContext &Ctx, const LMAD &L,
                             const sym::Expr *Size);

/// Conditional dense 1-D *underestimate* (P, L1d): when P holds, L1d is a
/// stride-1 LMAD whose set is contained in (here: equal to) L's. Used as
/// the inclusion target bDc in INCLUDED_APP.
struct CondLMAD {
  const pdag::Pred *Cond;
  LMAD Descriptor;
};
CondLMAD denseUnderestimate(pdag::PredContext &Ctx, const LMAD &L);

//===-- Set-of-LMAD lifts (footnote 2 of the paper) -----------------------==/

/// An LMAD set whose descriptors carry their ids in one PairMemo, so a
/// set lift keys each pair on two integers instead of hashing descriptors.
struct KeyedSet {
  LMADSet LMADs;
  std::vector<uint32_t> Ids; ///< Ids[I] is the PairMemo id of LMADs[I].
};

/// Memo of the per-pair predicates behind the set lifts: disjointLMAD and
/// includedLMAD of each ordered pair. Descriptors get dense ids by
/// structure (their components are interned expressions, so equal LMADs
/// share an id) and a pair is keyed on its two ids packed into 64 bits.
/// A pair predicate is a pure function of the two descriptors, and every
/// node it builds is hash-consed, so a hit skips only work that would
/// intern nothing new. One memo serves one PredContext. Nothing iterates
/// its tables, so their hash order never reaches a result.
class PairMemo {
public:
  /// Appends \p L to \p S together with its id.
  void append(KeyedSet &S, const LMAD &L);

  /// disjointLMAD(A.LMADs[I], B.LMADs[J]), computed once per id pair.
  const pdag::Pred *disjoint(pdag::PredContext &Ctx, const KeyedSet &A,
                             size_t I, const KeyedSet &B, size_t J);
  /// includedLMAD(A.LMADs[I], B.LMADs[J]), computed once per id pair.
  const pdag::Pred *included(pdag::PredContext &Ctx, const KeyedSet &A,
                             size_t I, const KeyedSet &B, size_t J);

private:
  struct LMADHash {
    size_t operator()(const LMAD &L) const;
  };
  std::unordered_map<LMAD, uint32_t, LMADHash> Ids;
  std::unordered_map<uint64_t, const pdag::Pred *> Disjoint;
  std::unordered_map<uint64_t, const pdag::Pred *> Included;
};

/// AND over all pairs: every LMAD of A disjoint from every LMAD of B.
const pdag::Pred *disjointSets(pdag::PredContext &Ctx, PairMemo &Memo,
                               const KeyedSet &A, const KeyedSet &B);

/// Every LMAD of A included in at least one LMAD of B.
const pdag::Pred *includedSets(pdag::PredContext &Ctx, PairMemo &Memo,
                               const KeyedSet &A, const KeyedSet &B);

} // namespace lmad
} // namespace halo

#endif // HALO_LMAD_LMADCOMPARE_H
