//===- sym/Expr.h - Canonical symbolic integer expressions -----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned symbolic integer expressions in sum-of-products canonical form.
///
/// Every expression is one of:
///  - IntConst  : a 64-bit integer literal,
///  - SymRef    : a scalar symbol (loop index, program input, CIV value...),
///  - ArrayRef  : a read of an integer index array at a symbolic index
///                (e.g. IB(i)); treated as an opaque term by the algebra,
///  - Min / Max / FloorDiv / Mod : non-polynomial atoms,
///  - Mul       : a product of >= 2 atoms (sorted, with repetition),
///  - Add       : sum of monomials with integer coefficients plus a constant.
///
/// Construction canonicalizes aggressively (products of sums are expanded,
/// like monomials merged, constants folded), so two expressions are
/// semantically syntactically-equal iff they are the same pointer. This is
/// the property the factorization algorithm's pattern matching relies on:
/// e.g. `a <= b` is decided by checking whether `b - a` folds to a
/// non-negative constant.
///
/// The paper's analyses need to know which symbols a predicate may read and
/// whether they vary with a given loop; each Symbol carries a DefLevel (the
/// depth of the innermost loop that (re)defines it; 0 = invariant input) and
/// each Expr caches its free-symbol set.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SYM_EXPR_H
#define HALO_SYM_EXPR_H

#include "support/Casting.h"
#include "support/InternSet.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace halo {
namespace sym {

using SymbolId = uint32_t;

/// A named integer symbol (scalar or index array).
struct Symbol {
  SymbolId Id = 0;
  std::string Name;
  /// True for index arrays (IB, IA, IX, ...) referenced via ArrayRef.
  bool IsArray = false;
  /// Depth of the innermost loop whose iterations (re)define this symbol;
  /// 0 means the symbol is invariant over the whole analyzed region.
  int DefLevel = 0;
  /// For index arrays: the values are known to be non-decreasing in the
  /// subscript (e.g. CIV prefix arrays, Sec. 3.3). Range analysis may then
  /// bound A(idx) by A(bound(idx)).
  bool MonotoneArray = false;
};

enum class ExprKind : uint8_t {
  IntConst,
  SymRef,
  ArrayRef,
  Min,
  Max,
  FloorDiv,
  Mod,
  Mul,
  Add,
};

class Context;

/// Saturation value of the nesting depth every sym::Expr, pdag::Pred and
/// usr::USR node stores: a node whose depth reads MaxNestDepth is at least
/// that deep.
inline constexpr unsigned MaxNestDepth = UINT16_MAX;

/// The nesting depth of a node whose deepest child has depth
/// \p DeepestChild (0 for a leaf): 1 + DeepestChild, saturated at
/// MaxNestDepth.
inline uint16_t nestDepthAbove(unsigned DeepestChild) {
  return static_cast<uint16_t>(std::min(DeepestChild + 1, MaxNestDepth));
}

/// Immutable, interned expression node. Pointer equality == structural
/// equality within one Context.
class Expr {
public:
  ExprKind getKind() const { return Kind; }
  uint32_t getId() const { return Id; }

  /// Nesting depth: 1 for IntConst and SymRef, else 1 + the deepest
  /// operand (saturated at MaxNestDepth). Set at construction, so lowering
  /// and validation caps read it instead of walking the DAG.
  unsigned nestDepth() const { return NestDepth; }

  /// Sorted set of symbols (scalars and arrays) this expression reads.
  const std::vector<SymbolId> &freeSymbols() const { return FreeSyms; }

  /// Returns true iff \p S appears in this expression.
  bool dependsOn(SymbolId S) const;

  /// Returns true iff every free symbol has DefLevel < \p LoopDepth, i.e.
  /// the expression is invariant w.r.t. the loop at that nesting depth.
  bool isInvariantAtDepth(int LoopDepth, const Context &Ctx) const;

  void print(std::ostream &OS, const Context &Ctx) const;
  std::string toString(const Context &Ctx) const;

  virtual ~Expr() = default;

protected:
  Expr(ExprKind K, uint32_t Id, std::vector<SymbolId> FreeSyms,
       uint16_t NestDepth)
      : Kind(K), NestDepth(NestDepth), Id(Id), FreeSyms(std::move(FreeSyms)) {
  }

private:
  ExprKind Kind;
  uint16_t NestDepth; ///< Fills the padding after Kind.
  uint32_t Id;
  std::vector<SymbolId> FreeSyms;

  friend class Context;
};

/// Integer literal.
class IntConstExpr : public Expr {
public:
  int64_t getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::IntConst;
  }

private:
  IntConstExpr(uint32_t Id, int64_t V)
      : Expr(ExprKind::IntConst, Id, {}, 1), Value(V) {}
  int64_t Value;
  friend class Context;
};

/// Reference to a scalar symbol.
class SymRefExpr : public Expr {
public:
  SymbolId getSymbol() const { return Sym; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::SymRef;
  }

private:
  SymRefExpr(uint32_t Id, SymbolId S)
      : Expr(ExprKind::SymRef, Id, {S}, 1), Sym(S) {}
  SymbolId Sym;
  friend class Context;
};

/// Read of integer array \p Arr at symbolic \p Index, e.g. IB(i+1).
class ArrayRefExpr : public Expr {
public:
  SymbolId getArray() const { return Arr; }
  const Expr *getIndex() const { return Index; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::ArrayRef;
  }

private:
  ArrayRefExpr(uint32_t Id, SymbolId Arr, const Expr *Index,
               std::vector<SymbolId> Free)
      : Expr(ExprKind::ArrayRef, Id, std::move(Free),
             nestDepthAbove(Index->nestDepth())),
        Arr(Arr), Index(Index) {}
  SymbolId Arr;
  const Expr *Index;
  friend class Context;
};

/// Binary min/max over sorted operands (atoms for the polynomial algebra).
class MinMaxExpr : public Expr {
public:
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }
  bool isMin() const { return getKind() == ExprKind::Min; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Min || E->getKind() == ExprKind::Max;
  }

private:
  MinMaxExpr(ExprKind K, uint32_t Id, const Expr *L, const Expr *R,
             std::vector<SymbolId> Free)
      : Expr(K, Id, std::move(Free),
             nestDepthAbove(std::max(L->nestDepth(), R->nestDepth()))),
        LHS(L), RHS(R) {}
  const Expr *LHS;
  const Expr *RHS;
  friend class Context;
};

/// Floor division or modulus by a positive integer constant.
class DivModExpr : public Expr {
public:
  const Expr *getOperand() const { return Operand; }
  int64_t getDivisor() const { return Divisor; }
  bool isDiv() const { return getKind() == ExprKind::FloorDiv; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::FloorDiv || E->getKind() == ExprKind::Mod;
  }

private:
  DivModExpr(ExprKind K, uint32_t Id, const Expr *Op, int64_t D,
             std::vector<SymbolId> Free)
      : Expr(K, Id, std::move(Free), nestDepthAbove(Op->nestDepth())),
        Operand(Op), Divisor(D) {}
  const Expr *Operand;
  int64_t Divisor;
  friend class Context;
};

/// Product of >= 2 atom factors, sorted by expression id (with repetition,
/// so i*i is representable).
class MulExpr : public Expr {
public:
  const std::vector<const Expr *> &getFactors() const { return Factors; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Mul; }

private:
  MulExpr(uint32_t Id, std::vector<const Expr *> F, std::vector<SymbolId> Free)
      : Expr(ExprKind::Mul, Id, std::move(Free), depthOver(F)),
        Factors(std::move(F)) {}
  static uint16_t depthOver(const std::vector<const Expr *> &F) {
    unsigned D = 0;
    for (const Expr *E : F)
      D = std::max(D, E->nestDepth());
    return nestDepthAbove(D);
  }
  std::vector<const Expr *> Factors;
  friend class Context;
};

/// A monomial: integer coefficient times a product (an atom or MulExpr).
struct Monomial {
  const Expr *Prod = nullptr;
  int64_t Coeff = 0;
};

/// Sum of monomials plus constant. Terms are sorted by Prod id, coefficients
/// are nonzero, and the node is only created when it cannot fold to a
/// simpler form.
class AddExpr : public Expr {
public:
  const std::vector<Monomial> &getTerms() const { return Terms; }
  int64_t getConstant() const { return Constant; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Add; }

private:
  AddExpr(uint32_t Id, std::vector<Monomial> T, int64_t C,
          std::vector<SymbolId> Free)
      : Expr(ExprKind::Add, Id, std::move(Free), depthOver(T)),
        Terms(std::move(T)), Constant(C) {}
  static uint16_t depthOver(const std::vector<Monomial> &T) {
    unsigned D = 0;
    for (const Monomial &M : T)
      D = std::max(D, M.Prod->nestDepth());
    return nestDepthAbove(D);
  }
  std::vector<Monomial> Terms;
  int64_t Constant;
  friend class Context;
};

/// Linear-combination view used internally by the builders: a sum of
/// monomials plus a constant. Any expression can be viewed this way.
struct LinearForm {
  std::vector<Monomial> Terms;
  int64_t Constant = 0;
};

/// Non-owning linear form of an interned expression (Context::linearView):
/// an AddExpr's own ID-sorted terms, the single term `1*E` of any other
/// non-constant atom or product, or no term for a constant. Valid while
/// the viewed node lives.
class LinearView {
public:
  const Monomial *begin() const { return Data ? Data : &Single; }
  const Monomial *end() const { return begin() + Size; }
  size_t size() const { return Size; }
  const Monomial &operator[](size_t I) const { return begin()[I]; }
  int64_t constant() const { return Constant; }

private:
  const Monomial *Data = nullptr; ///< Null: the terms are Single (or none).
  size_t Size = 0;
  Monomial Single;
  int64_t Constant = 0;
  friend class Context;
};

/// Sorted union of two sorted symbol sets.
std::vector<SymbolId> unionSyms(const std::vector<SymbolId> &A,
                                const std::vector<SymbolId> &B);

/// Builds the free-symbol set of a new node from its operands' sets in one
/// reused buffer: add() each set, then take() their sorted union as one
/// exact-size vector, the node's only allocation for it. Each context keeps
/// one for its node builders.
///
/// A symbol enters the buffer once: an ID-indexed array stamps each symbol
/// with the epoch of the take() it was added for, so take() sorts only the
/// distinct symbols, never the concatenation. The stamps are 16-bit; when
/// the epoch wraps, take() clears the array and starts over at epoch 1.
class SymSetBuilder {
public:
  void add(const std::vector<SymbolId> &Syms) {
    for (SymbolId S : Syms)
      mark(S);
  }
  /// add() without \p Skip (a bound variable).
  void addExcept(const std::vector<SymbolId> &Syms, SymbolId Skip) {
    for (SymbolId S : Syms)
      if (S != Skip)
        mark(S);
  }
  /// The sorted, deduplicated union of every set added since the last
  /// take(); leaves the builder empty.
  std::vector<SymbolId> take() {
    std::sort(Buf.begin(), Buf.end());
    std::vector<SymbolId> Out(Buf.begin(), Buf.end());
    Buf.clear();
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
    return Out;
  }

private:
  void mark(SymbolId S) {
    if (S >= Stamp.size())
      Stamp.resize(std::max<size_t>(S + 1, 2 * Stamp.size()), 0);
    if (Stamp[S] == Epoch)
      return;
    Stamp[S] = Epoch;
    Buf.push_back(S);
  }

  std::vector<SymbolId> Buf;
  /// Epoch of the take() each symbol was last added for (0: never).
  std::vector<uint16_t> Stamp;
  uint16_t Epoch = 1;
};

/// Owns and interns all expressions and symbols. Every constructor hashes
/// its key and probes the intern table before it builds anything, so a
/// repeat construction allocates nothing and returns the existing node.
class Context {
public:
  Context();
  ~Context();
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  //===-- Symbols ---------------------------------------------------------==/

  /// Creates (or retrieves) the symbol named \p Name.
  SymbolId symbol(const std::string &Name, int DefLevel = 0,
                  bool IsArray = false);
  /// Creates a fresh symbol with a unique suffixed name (for recurrence
  /// bound variables, CIV instances, ...).
  SymbolId freshSymbol(const std::string &Base, int DefLevel = 0);
  const Symbol &symbolInfo(SymbolId Id) const;
  /// Looks up an existing symbol by name; returns false when absent (never
  /// creates). Used by the plan loader to re-resolve serialized names
  /// against a live context before deciding to adopt.
  bool findSymbol(const std::string &Name, SymbolId &Out) const;
  /// Number of symbols interned so far.
  size_t numSymbols() const { return Symbols.size(); }
  /// Updates the definition level of an existing symbol.
  void setDefLevel(SymbolId Id, int DefLevel);
  /// Marks an index array as value-monotone (non-decreasing in subscript).
  void setMonotoneArray(SymbolId Id, bool Monotone = true);

  //===-- Constructors ----------------------------------------------------==/

  const Expr *intConst(int64_t V);
  const Expr *symRef(SymbolId S);
  const Expr *symRef(const std::string &Name);
  const Expr *arrayRef(SymbolId Arr, const Expr *Index);

  const Expr *add(const Expr *A, const Expr *B);
  const Expr *sub(const Expr *A, const Expr *B);
  const Expr *neg(const Expr *A);
  const Expr *mul(const Expr *A, const Expr *B);
  const Expr *mulConst(const Expr *A, int64_t C);
  const Expr *addConst(const Expr *A, int64_t C);
  const Expr *min(const Expr *A, const Expr *B);
  const Expr *max(const Expr *A, const Expr *B);
  const Expr *floorDiv(const Expr *A, int64_t D);
  const Expr *mod(const Expr *A, int64_t D);

  /// Builds the canonical expression for a linear form.
  const Expr *fromLinear(LinearForm LF);
  /// Views \p E as a linear form (never fails).
  LinearForm toLinear(const Expr *E) const;
  /// Views \p E as a linear form without copying its terms.
  LinearView linearView(const Expr *E) const;

  //===-- Queries ---------------------------------------------------------==/

  /// If \p E is a constant, returns its value.
  std::optional<int64_t> constValue(const Expr *E) const;
  /// True iff every monomial coefficient and the constant of \p E are
  /// divisible by \p D (a syntactic sufficient condition for D | E).
  bool definitelyDivisibleBy(const Expr *E, int64_t D) const;
  /// GCD of all monomial coefficients of E (ignoring the constant);
  /// 0 when E is constant.
  int64_t coeffGcd(const Expr *E) const;

  /// Splits \p E as A*sym + B with \p Sym not occurring in B. Fails (returns
  /// nullopt) when Sym occurs inside a non-polynomial atom (ArrayRef index,
  /// Min/Max/Div/Mod operand). Used by the Fourier-Motzkin eliminator.
  struct LinearSplit {
    const Expr *A;
    const Expr *B;
  };
  std::optional<LinearSplit> splitLinearIn(const Expr *E, SymbolId Sym);

  /// Substitutes scalar symbols by expressions (simultaneously) and rebuilds
  /// canonically. Symbols not in \p Map are unchanged.
  const Expr *substitute(const Expr *E,
                         const std::map<SymbolId, const Expr *> &Map);

  /// Number of interned expression nodes (diagnostics / benchmarks).
  size_t numExprs() const { return Nodes.size(); }
  /// The node with ID \p Id.
  const Expr *node(uint32_t Id) const { return Nodes[Id]; }

private:
  /// Interns the sum of \p N canonical terms (ID-sorted, one per product,
  /// nonzero coefficients) plus \p Constant; folds to a constant or to the
  /// lone product where the canonical form is not an AddExpr.
  const Expr *makeSum(const Monomial *Terms, size_t N, int64_t Constant);
  const Expr *makeProduct(std::vector<const Expr *> Factors);
  const Expr *makeMinMax(ExprKind K, const Expr *A, const Expr *B);
  const Expr *makeDivMod(ExprKind K, const Expr *A, int64_t D);

  support::InternSet<Expr> Nodes;
  /// Merge buffer of add() and mulConst(): terms reach an AddExpr's own
  /// vector only on an intern miss.
  std::vector<Monomial> TermScratch;
  SymSetBuilder FreeSyms;
  std::vector<Symbol> Symbols;
  std::unordered_map<std::string, SymbolId> SymbolByName;
  unsigned FreshCounter = 0;
};

/// Convenience: A - B == 0 test via canonical difference.
inline bool structurallyEqual(const Expr *A, const Expr *B) { return A == B; }

std::ostream &operator<<(std::ostream &OS,
                         const std::pair<const Expr *, const Context *> &P);

} // namespace sym
} // namespace halo

#endif // HALO_SYM_EXPR_H
