//===- pdag/Pred.h - The PDAG predicate language ---------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predicate language of Section 3 of the paper: an interned DAG whose
/// leaves are boolean expressions over symbolic integers and whose interior
/// nodes are n-ary and/or, irreducible loop-level conjunctions
/// `AND_{i=lo..hi} P(i)`, and untranslatable call sites.
///
/// Leaves are canonicalized so that structural equality catches most
/// semantic equality:
///  - comparisons are normalized to `e >= 0`, `e == 0`, `e != 0` with the
///    coefficient gcd divided out (integer tightening),
///  - divisibility tests `d | e` fold when d is constant,
///  - `and`/`or` constructors flatten, sort, deduplicate, detect
///    complementary literals, and fold constants.
///
/// The language is *closed under the factorization rules* of Fig. 5: every
/// predicate the translation scheme F emits is representable without
/// approximation, which is the property that makes the predicate program
/// less conservative than flattened-predicate approaches (Sec. 3).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_PRED_H
#define HALO_PDAG_PRED_H

#include "sym/Expr.h"

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace halo {
namespace pdag {

enum class PredKind : uint8_t {
  True,
  False,
  Cmp,      // e >= 0 | e == 0 | e != 0
  Divides,  // d | e  (optionally negated)
  And,      // n-ary conjunction
  Or,       // n-ary disjunction
  LoopAll,  // AND_{var=lo..hi} body   (irreducible loop conjunction)
  CallSite, // predicate behind an untranslatable call site
};

class PredContext;

/// Immutable, interned predicate node.
class Pred {
public:
  virtual ~Pred() = default;

  PredKind getKind() const { return Kind; }
  uint32_t getId() const { return Id; }

  bool isTrue() const { return Kind == PredKind::True; }
  bool isFalse() const { return Kind == PredKind::False; }

  /// Sorted set of symbols this predicate reads (transitively).
  const std::vector<sym::SymbolId> &freeSymbols() const { return FreeSyms; }
  bool dependsOn(sym::SymbolId S) const;
  /// True iff no free symbol is (re)defined at loop depth >= LoopDepth.
  bool isInvariantAtDepth(int LoopDepth, const sym::Context &Ctx) const;

  /// Maximum nesting depth of LoopAll nodes: 0 means an O(1) predicate,
  /// 1 means O(N), 2 means O(N^2), ... (the paper's complexity classes,
  /// Sec. 3.5/3.6).
  int loopDepth() const { return LoopDepthCache; }

  void print(std::ostream &OS, const sym::Context &Ctx) const;
  std::string toString(const sym::Context &Ctx) const;

protected:
  Pred(PredKind K, std::vector<sym::SymbolId> Free, int LoopDepth)
      : Kind(K), FreeSyms(std::move(Free)), LoopDepthCache(LoopDepth) {}

private:
  PredKind Kind;
  uint32_t Id = 0;
  std::vector<sym::SymbolId> FreeSyms;
  int LoopDepthCache;
  friend class PredContext;
};

/// Relation of a canonical comparison leaf against zero.
enum class CmpRel : uint8_t { GE0, EQ0, NE0 };

/// Comparison leaf `E rel 0`.
class CmpPred : public Pred {
public:
  const sym::Expr *getExpr() const { return E; }
  CmpRel getRel() const { return Rel; }

  static bool classof(const Pred *P) { return P->getKind() == PredKind::Cmp; }

private:
  CmpPred(const sym::Expr *E, CmpRel Rel, std::vector<sym::SymbolId> Free)
      : Pred(PredKind::Cmp, std::move(Free), 0), E(E), Rel(Rel) {}
  const sym::Expr *E;
  CmpRel Rel;
  friend class PredContext;
};

/// Divisibility leaf `Divisor | Value` (negated when Neg is set) — used by
/// the interleaved-access disjointness test of Sec. 3.2.
class DividesPred : public Pred {
public:
  const sym::Expr *getDivisor() const { return Divisor; }
  const sym::Expr *getValue() const { return Value; }
  bool isNegated() const { return Neg; }

  static bool classof(const Pred *P) {
    return P->getKind() == PredKind::Divides;
  }

private:
  DividesPred(const sym::Expr *D, const sym::Expr *V, bool Neg,
              std::vector<sym::SymbolId> Free)
      : Pred(PredKind::Divides, std::move(Free), 0), Divisor(D), Value(V),
        Neg(Neg) {}
  const sym::Expr *Divisor;
  const sym::Expr *Value;
  bool Neg;
  friend class PredContext;
};

/// N-ary and/or with sorted, deduplicated children.
class NaryPred : public Pred {
public:
  const std::vector<const Pred *> &getChildren() const { return Children; }
  bool isAnd() const { return getKind() == PredKind::And; }

  static bool classof(const Pred *P) {
    return P->getKind() == PredKind::And || P->getKind() == PredKind::Or;
  }

private:
  NaryPred(PredKind K, std::vector<const Pred *> C,
           std::vector<sym::SymbolId> Free, int LoopDepth)
      : Pred(K, std::move(Free), LoopDepth), Children(std::move(C)) {}
  std::vector<const Pred *> Children;
  friend class PredContext;
};

/// Irreducible loop-level conjunction `AND_{Var=Lo..Hi} Body` (e.g. the
/// paper's `AND_{i=1..N-1} NS <= 32*(IB(i+1)-IA(i)-IB(i)+1)` from Fig. 3b).
/// An empty iteration range (Lo > Hi) makes the node true.
class LoopAllPred : public Pred {
public:
  sym::SymbolId getVar() const { return Var; }
  const sym::Expr *getLo() const { return Lo; }
  const sym::Expr *getHi() const { return Hi; }
  const Pred *getBody() const { return Body; }

  static bool classof(const Pred *P) {
    return P->getKind() == PredKind::LoopAll;
  }

private:
  LoopAllPred(sym::SymbolId Var, const sym::Expr *Lo, const sym::Expr *Hi,
              const Pred *Body, std::vector<sym::SymbolId> Free,
              int LoopDepth)
      : Pred(PredKind::LoopAll, std::move(Free), LoopDepth), Var(Var), Lo(Lo),
        Hi(Hi), Body(Body) {}
  sym::SymbolId Var;
  const sym::Expr *Lo;
  const sym::Expr *Hi;
  const Pred *Body;
  friend class PredContext;
};

/// Predicate guarded by an untranslatable call site (the `P ./ CallSite`
/// nodes of Fig. 5). The callee name is kept for diagnostics; static
/// reasoning treats the node as opaque.
class CallSitePred : public Pred {
public:
  const std::string &getCallee() const { return Callee; }
  const Pred *getBody() const { return Body; }

  static bool classof(const Pred *P) {
    return P->getKind() == PredKind::CallSite;
  }

private:
  CallSitePred(std::string Callee, const Pred *Body,
               std::vector<sym::SymbolId> Free, int LoopDepth)
      : Pred(PredKind::CallSite, std::move(Free), LoopDepth),
        Callee(std::move(Callee)), Body(Body) {}
  std::string Callee;
  const Pred *Body;
  friend class PredContext;
};

/// Owns and interns predicates; provides canonicalizing constructors.
class PredContext {
public:
  explicit PredContext(sym::Context &SymCtx);
  ~PredContext();
  PredContext(const PredContext &) = delete;
  PredContext &operator=(const PredContext &) = delete;

  sym::Context &symCtx() { return SymCtx; }
  const sym::Context &symCtx() const { return SymCtx; }

  const Pred *getTrue() const { return TruePred; }
  const Pred *getFalse() const { return FalsePred; }
  const Pred *boolConst(bool B) const { return B ? TruePred : FalsePred; }

  //===-- Leaves ----------------------------------------------------------==/

  /// e >= 0 (canonicalized: gcd division with integer tightening).
  const Pred *ge0(const sym::Expr *E);
  /// e == 0 / e != 0 (canonicalized; infeasible congruences fold).
  const Pred *eq0(const sym::Expr *E);
  const Pred *ne0(const sym::Expr *E);
  /// d | e, optionally negated. Constant cases fold.
  const Pred *divides(const sym::Expr *D, const sym::Expr *E,
                      bool Neg = false);

  //===-- Comparison sugar --------------------------------------------------/

  const Pred *le(const sym::Expr *A, const sym::Expr *B); // A <= B
  const Pred *lt(const sym::Expr *A, const sym::Expr *B); // A <  B
  const Pred *ge(const sym::Expr *A, const sym::Expr *B); // A >= B
  const Pred *gt(const sym::Expr *A, const sym::Expr *B); // A >  B
  const Pred *eq(const sym::Expr *A, const sym::Expr *B); // A == B
  const Pred *ne(const sym::Expr *A, const sym::Expr *B); // A != B

  //===-- Connectives -------------------------------------------------------/

  const Pred *and2(const Pred *A, const Pred *B);
  const Pred *or2(const Pred *A, const Pred *B);
  const Pred *andN(std::vector<const Pred *> Cs);
  const Pred *orN(std::vector<const Pred *> Cs);

  /// AND_{Var=Lo..Hi} Body. Folds invariant bodies to
  /// `(Lo > Hi) or Body`, unrolls small constant ranges, and interns the
  /// irreducible rest.
  const Pred *loopAll(sym::SymbolId Var, const sym::Expr *Lo,
                      const sym::Expr *Hi, const Pred *Body);

  const Pred *callSite(const std::string &Callee, const Pred *Body);

  /// Exact negation; returns nullptr when the complement is not cheaply
  /// representable (LoopAll / CallSite). Callers fall back to the weaker
  /// factorization path in that case (see Sec. 3.1: F(S) alone is still a
  /// sufficient condition for a gated set to be empty).
  const Pred *tryNot(const Pred *P);

  /// Substitutes scalar symbols inside every leaf (used to instantiate a
  /// recurrence body at i, i+1, lo, hi...). Bound variables of LoopAll
  /// nodes are renamed on capture.
  const Pred *substitute(const Pred *P,
                         const std::map<sym::SymbolId, const sym::Expr *> &M);

  size_t numPreds() const { return Nodes.size(); }

private:
  const Pred *intern(std::unique_ptr<Pred> N, size_t Hash);
  const Pred *makeNary(PredKind K, std::vector<const Pred *> Cs);
  const Pred *makeCmp(const sym::Expr *E, CmpRel Rel);
  /// The uncached complement of a Cmp or Divides leaf (tryNot caches it).
  const Pred *negateLeaf(const Pred *P);

  sym::Context &SymCtx;
  std::vector<std::unique_ptr<Pred>> Nodes;
  std::unordered_multimap<size_t, const Pred *> InternTable;
  /// Leaf -> its complement, filled by tryNot.
  std::unordered_map<const Pred *, const Pred *> LeafNegations;
  const Pred *TruePred = nullptr;
  const Pred *FalsePred = nullptr;
};

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_PRED_H
