//===- usr/USR.h - Uniform set representation language ---------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The USR (uniform set representation) language of Sec. 2: a scoped,
/// closed-under-composition DAG language for sets of array indexes.
/// Leaves are LMAD sets; interior nodes represent exactly the operations
/// that fall outside the LMAD algebra:
///
///  - irreducible set operations: union, intersection, subtraction,
///  - control flow: gates (`pred # S` — the summary exists iff the
///    predicate holds), call sites across which summaries cannot be
///    translated,
///  - total and partial loop recurrences (`U_{i=lo..hi} S(i)`; a partial
///    recurrence `U_{k=1..i-1} S(k)` is a recurrence whose upper bound
///    mentions an outer variable).
///
/// Keeping these operations *in the language* instead of approximating at
/// construction time is the paper's key representational idea (Sec. 1.1):
/// conservative approximation is deferred to predicate-extraction time,
/// where an accurate independence summary is still available to pattern
/// match (e.g. footnote 4 of the paper).
///
/// Smart constructors canonicalize aggressively; in particular, a
/// recurrence over a leaf whose LMADs aggregate in closed form folds to a
/// gated leaf (`lo <= hi # aggregated-LMADs`), which is how quasi-affine
/// accesses never reach an irreducible recurrence node.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_USR_USR_H
#define HALO_USR_USR_H

#include "lmad/LMAD.h"
#include "pdag/Pred.h"
#include "support/InternSet.h"

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace halo {
namespace usr {

enum class USRKind : uint8_t {
  Empty,
  Leaf,      // set of LMADs
  Union,     // n-ary
  Intersect, // binary
  Subtract,  // binary
  Gate,      // pred # S
  CallSite,  // S across an untranslatable call
  Recur,     // U_{var=lo..hi} body
};

class USRContext;

/// Immutable, interned USR node.
class USR {
public:
  virtual ~USR() = default;

  USRKind getKind() const { return Kind; }
  uint32_t getId() const { return Id; }
  bool isEmptySet() const { return Kind == USRKind::Empty; }

  /// Nesting depth of the USR DAG: 1 for Empty and Leaf, else 1 + the
  /// deepest child USR (saturated at sym::MaxNestDepth). Gate predicates
  /// and LMAD expressions do not count; they carry their own depths. Set
  /// at construction.
  unsigned nestDepth() const { return NestDepth; }

  const std::vector<sym::SymbolId> &freeSymbols() const { return FreeSyms; }
  bool dependsOn(sym::SymbolId S) const;
  bool isInvariantAtDepth(int LoopDepth, const sym::Context &Ctx) const;

  void print(std::ostream &OS, const sym::Context &Ctx) const;
  std::string toString(const sym::Context &Ctx) const;

protected:
  /// \p DeepestChild is the deepest child's nesting depth (0 for a leaf).
  USR(USRKind K, uint32_t Id, std::vector<sym::SymbolId> Free,
      unsigned DeepestChild)
      : Kind(K), NestDepth(sym::nestDepthAbove(DeepestChild)), Id(Id),
        FreeSyms(std::move(Free)) {}

private:
  USRKind Kind;
  uint16_t NestDepth; ///< Fills the padding after Kind.
  uint32_t Id;
  std::vector<sym::SymbolId> FreeSyms;
  friend class USRContext;
};

/// The empty set (the right-hand side of every independence equation).
class EmptyUSR : public USR {
public:
  static bool classof(const USR *U) { return U->getKind() == USRKind::Empty; }

private:
  explicit EmptyUSR(uint32_t Id) : USR(USRKind::Empty, Id, {}, 0) {}
  friend class USRContext;
};

/// A set of LMADs over one array's linearized index space.
class LeafUSR : public USR {
public:
  const lmad::LMADSet &getLMADs() const { return LMADs; }

  static bool classof(const USR *U) { return U->getKind() == USRKind::Leaf; }

private:
  LeafUSR(uint32_t Id, lmad::LMADSet L, std::vector<sym::SymbolId> Free)
      : USR(USRKind::Leaf, Id, std::move(Free), 0), LMADs(std::move(L)) {}
  lmad::LMADSet LMADs;
  friend class USRContext;
};

/// N-ary union with sorted, deduplicated, non-empty children.
class UnionUSR : public USR {
public:
  const std::vector<const USR *> &getChildren() const { return Children; }

  static bool classof(const USR *U) { return U->getKind() == USRKind::Union; }

private:
  UnionUSR(uint32_t Id, std::vector<const USR *> C,
           std::vector<sym::SymbolId> Free)
      : USR(USRKind::Union, Id, std::move(Free), deepestOf(C)),
        Children(std::move(C)) {}
  static unsigned deepestOf(const std::vector<const USR *> &C) {
    unsigned D = 0;
    for (const USR *U : C)
      D = std::max(D, U->nestDepth());
    return D;
  }
  std::vector<const USR *> Children;
  friend class USRContext;
};

/// Binary intersection / subtraction.
class BinaryUSR : public USR {
public:
  const USR *getLHS() const { return LHS; }
  const USR *getRHS() const { return RHS; }
  bool isIntersect() const { return getKind() == USRKind::Intersect; }

  static bool classof(const USR *U) {
    return U->getKind() == USRKind::Intersect ||
           U->getKind() == USRKind::Subtract;
  }

private:
  BinaryUSR(USRKind K, uint32_t Id, const USR *L, const USR *R,
            std::vector<sym::SymbolId> Free)
      : USR(K, Id, std::move(Free), std::max(L->nestDepth(), R->nestDepth())),
        LHS(L), RHS(R) {}
  const USR *LHS;
  const USR *RHS;
  friend class USRContext;
};

/// `pred # S`: the set is S when the gate holds, empty otherwise.
class GateUSR : public USR {
public:
  const pdag::Pred *getGate() const { return Gate; }
  const USR *getChild() const { return Child; }

  static bool classof(const USR *U) { return U->getKind() == USRKind::Gate; }

private:
  GateUSR(uint32_t Id, const pdag::Pred *G, const USR *C,
          std::vector<sym::SymbolId> Free)
      : USR(USRKind::Gate, Id, std::move(Free), C->nestDepth()), Gate(G),
        Child(C) {}
  const pdag::Pred *Gate;
  const USR *Child;
  friend class USRContext;
};

/// A summary that could not be translated across a call site; kept for
/// diagnostics, treated as opaque by most reasoning.
class CallSiteUSR : public USR {
public:
  const std::string &getCallee() const { return Callee; }
  const USR *getChild() const { return Child; }

  static bool classof(const USR *U) {
    return U->getKind() == USRKind::CallSite;
  }

private:
  CallSiteUSR(uint32_t Id, std::string Callee, const USR *C,
              std::vector<sym::SymbolId> Free)
      : USR(USRKind::CallSite, Id, std::move(Free), C->nestDepth()),
        Callee(std::move(Callee)), Child(C) {}
  std::string Callee;
  const USR *Child;
  friend class USRContext;
};

/// `U_{Var=Lo..Hi} Body` — a recurrence that failed exact LMAD
/// aggregation. Partial recurrences (`U_{k=1..i-1}`) are recurrences whose
/// Hi mentions an enclosing loop's variable.
class RecurUSR : public USR {
public:
  sym::SymbolId getVar() const { return Var; }
  const sym::Expr *getLo() const { return Lo; }
  const sym::Expr *getHi() const { return Hi; }
  const USR *getBody() const { return Body; }

  static bool classof(const USR *U) { return U->getKind() == USRKind::Recur; }

private:
  RecurUSR(uint32_t Id, sym::SymbolId Var, const sym::Expr *Lo,
           const sym::Expr *Hi, const USR *Body,
           std::vector<sym::SymbolId> Free)
      : USR(USRKind::Recur, Id, std::move(Free), Body->nestDepth()), Var(Var),
        Lo(Lo), Hi(Hi), Body(Body) {}
  sym::SymbolId Var;
  const sym::Expr *Lo;
  const sym::Expr *Hi;
  const USR *Body;
  friend class USRContext;
};

/// Owns and interns USR nodes; provides the canonicalizing constructors.
/// Each constructor probes the intern table with its key before it builds
/// anything, so a repeat construction allocates nothing.
class USRContext {
public:
  USRContext(sym::Context &SymCtx, pdag::PredContext &PredCtx);
  ~USRContext();
  USRContext(const USRContext &) = delete;
  USRContext &operator=(const USRContext &) = delete;

  sym::Context &symCtx() { return SymCtx; }
  pdag::PredContext &predCtx() { return PredCtx; }

  const USR *empty() const { return EmptyNode; }

  /// Leaf over a set of LMADs (deduplicated; the empty set folds).
  const USR *leaf(lmad::LMADSet L);
  const USR *leaf(const lmad::LMAD &L) { return leaf(lmad::LMADSet{L}); }
  /// Convenience: contiguous [offset, offset+len-1] leaf.
  const USR *interval(const sym::Expr *Offset, const sym::Expr *Len);

  const USR *union2(const USR *A, const USR *B);
  const USR *unionN(std::vector<const USR *> Cs);
  const USR *intersect(const USR *A, const USR *B);
  const USR *subtract(const USR *A, const USR *B);
  const USR *gate(const pdag::Pred *G, const USR *S);
  const USR *callSite(const std::string &Callee, const USR *S);

  /// `U_{Var=Lo..Hi} Body`. Folds invariant bodies and leaf bodies whose
  /// LMADs aggregate in closed form to `(Lo <= Hi) # folded`; otherwise
  /// interns an irreducible recurrence node.
  const USR *recur(sym::SymbolId Var, const sym::Expr *Lo,
                   const sym::Expr *Hi, const USR *Body);

  /// Substitutes scalar symbols in every embedded expression/predicate;
  /// renames recurrence variables on capture.
  const USR *substitute(const USR *S,
                        const std::map<sym::SymbolId, const sym::Expr *> &M);

  size_t numNodes() const { return Nodes.size(); }
  /// The node with ID \p Id.
  const USR *node(uint32_t Id) const { return Nodes[Id]; }

private:
  const USR *makeBinary(USRKind K, const USR *A, const USR *B);

  sym::Context &SymCtx;
  pdag::PredContext &PredCtx;
  support::InternSet<USR> Nodes;
  sym::SymSetBuilder FreeSyms;
  const USR *EmptyNode = nullptr;
};

} // namespace usr
} // namespace halo

#endif // HALO_USR_USR_H
