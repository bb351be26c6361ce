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

#include "support/InternSet.h"
#include "sym/Expr.h"

#include <memory>
#include <optional>
#include <ostream>
#include <string>
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
  /// Sec. 3.5/3.6). Saturated at sym::MaxNestDepth.
  int loopDepth() const { return LoopDepth; }

  /// Nesting depth of the predicate DAG: 1 for a leaf (True, False, Cmp,
  /// Divides), else 1 + the deepest child (saturated at
  /// sym::MaxNestDepth). Leaf expressions do not count; they carry their
  /// own sym::Expr::nestDepth. Set at construction.
  unsigned nestDepth() const { return NestDepth; }

  void print(std::ostream &OS, const sym::Context &Ctx) const;
  std::string toString(const sym::Context &Ctx) const;

protected:
  /// A leaf: loop depth 0, nesting depth 1.
  Pred(PredKind K, uint32_t Id, std::vector<sym::SymbolId> Free)
      : Pred(K, Id, std::move(Free), 0, 0) {}
  /// An interior node over children whose deepest LoopAll nesting is
  /// \p LoopDepth and whose deepest nesting depth is \p DeepestChild.
  Pred(PredKind K, uint32_t Id, std::vector<sym::SymbolId> Free,
       unsigned LoopDepth, unsigned DeepestChild)
      : Id(Id), LoopDepth(static_cast<uint16_t>(
                    std::min(LoopDepth, sym::MaxNestDepth))),
        NestDepth(sym::nestDepthAbove(DeepestChild)),
        FreeSyms(std::move(Free)), Kind(K) {}

private:
  // Kind comes last so that the leaf subclasses pack their one-byte
  // relation and their complement reference into the tail padding; the
  // two depths share the four bytes after Id.
  uint32_t Id;
  uint16_t LoopDepth;
  uint16_t NestDepth;
  std::vector<sym::SymbolId> FreeSyms;
  PredKind Kind;
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
  CmpPred(uint32_t Id, const sym::Expr *E, CmpRel Rel,
          std::vector<sym::SymbolId> Free)
      : Pred(PredKind::Cmp, Id, std::move(Free)), Rel(Rel), E(E) {}
  CmpRel Rel;
  /// ID + 1 of the complement once PredContext::tryNot has computed it.
  mutable uint32_t ComplementRef = 0;
  const sym::Expr *E;
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
  DividesPred(uint32_t Id, const sym::Expr *D, const sym::Expr *V, bool Neg,
              std::vector<sym::SymbolId> Free)
      : Pred(PredKind::Divides, Id, std::move(Free)), Neg(Neg), Divisor(D),
        Value(V) {}
  bool Neg;
  /// ID + 1 of the complement once PredContext::tryNot has computed it.
  mutable uint32_t ComplementRef = 0;
  const sym::Expr *Divisor;
  const sym::Expr *Value;
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
  NaryPred(PredKind K, uint32_t Id, std::vector<const Pred *> C,
           std::vector<sym::SymbolId> Free, unsigned LoopDepth,
           unsigned DeepestChild)
      : Pred(K, Id, std::move(Free), LoopDepth, DeepestChild),
        Children(std::move(C)) {}
  /// ID + 1 of the simplified form once pdag::simplify has computed it.
  mutable uint32_t SimplifiedRef = 0;
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
  LoopAllPred(uint32_t Id, sym::SymbolId Var, const sym::Expr *Lo,
              const sym::Expr *Hi, const Pred *Body,
              std::vector<sym::SymbolId> Free)
      : Pred(PredKind::LoopAll, Id, std::move(Free), Body->loopDepth() + 1u,
             Body->nestDepth()),
        Var(Var), Lo(Lo), Hi(Hi), Body(Body) {}
  sym::SymbolId Var;
  /// ID + 1 of the simplified form once pdag::simplify has computed it.
  mutable uint32_t SimplifiedRef = 0;
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
  CallSitePred(uint32_t Id, std::string Callee, const Pred *Body,
               std::vector<sym::SymbolId> Free)
      : Pred(PredKind::CallSite, Id, std::move(Free), Body->loopDepth(),
             Body->nestDepth()),
        Callee(std::move(Callee)), Body(Body) {}
  /// ID + 1 of the simplified form once pdag::simplify has computed it.
  mutable uint32_t SimplifiedRef = 0;
  std::string Callee;
  const Pred *Body;
  friend class PredContext;
};

/// Owns and interns predicates; provides canonicalizing constructors. Each
/// constructor probes the intern table with its key before it builds
/// anything, so a repeat construction allocates nothing.
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
  /// The node with ID \p Id.
  const Pred *node(uint32_t Id) const { return Nodes[Id]; }

  /// The simplify cache (src/pdag/README.md, "Simplify cache"): the
  /// result pdag::simplify's rewrite recorded for \p P, or null. A leaf
  /// simplifies to itself and is answered without a record.
  const Pred *simplified(const Pred *P) const;
  /// Records \p R as the simplified form of the interior node \p P.
  void setSimplified(const Pred *P, const Pred *R);

private:
  const Pred *makeBool(PredKind K);
  /// The canonical And/Or of the \p N children at \p Cs, built in
  /// NaryScratch; the children vector is copied out only on an intern miss.
  const Pred *makeNary(PredKind K, const Pred *const *Cs, size_t N);
  const Pred *makeCmp(const sym::Expr *E, CmpRel Rel);
  /// The uncached complement of a Cmp or Divides leaf (tryNot caches it
  /// on the leaf).
  const Pred *negateLeaf(const Pred *P);
  /// The SimplifiedRef field of an interior (And, Or, LoopAll, CallSite)
  /// node.
  static uint32_t &simplifiedRef(const Pred *P);

  sym::Context &SymCtx;
  support::InternSet<Pred> Nodes;
  sym::SymSetBuilder FreeSyms;
  /// makeNary's flattened, sorted children (reused across calls).
  std::vector<const Pred *> NaryScratch;
  const Pred *TruePred = nullptr;
  const Pred *FalsePred = nullptr;
};

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_PRED_H
