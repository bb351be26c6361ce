//===- ir/Program.h - Structured mini-IR for analyzed programs -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small structured program representation standing in for the Polaris
/// Fortran77 front end (see src/ir/README.md). The analysis
/// consumes structured control flow walked in program order, which is all
/// the paper's data-flow equations (Fig. 2) need: statements, IF/ELSE
/// branches (gates), DO loops (recurrences), CALLs with array reshaping
/// (call-site translation) and conditionally-incremented induction
/// variables (Sec. 3.3).
///
/// Array subscripts are 0-based linearized element offsets; multi-
/// dimensional accesses like HE(j, id) are expressed by the front end as
/// offset expressions (e.g. 32*(id-1) + j-1), exactly the form in which
/// the paper's LMADs see them.
///
/// The same IR is *executed* by the rt interpreter, so the analyzed
/// program and the measured program are one object.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_IR_PROGRAM_H
#define HALO_IR_PROGRAM_H

#include "pdag/Pred.h"
#include "sym/Expr.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace halo {
namespace ir {

enum class StmtKind : uint8_t {
  Assign,
  DoLoop,
  If,
  Call,
  CivIncr,
};

/// One array access: array symbol + 0-based linearized offset expression.
struct ArrayAccess {
  sym::SymbolId Array = 0;
  const sym::Expr *Offset = nullptr;
};

class Stmt {
public:
  virtual ~Stmt() = default;
  StmtKind getKind() const { return Kind; }

protected:
  explicit Stmt(StmtKind K) : Kind(K) {}

private:
  StmtKind Kind;
};

/// `W = f(R1, ..., Rk)` or a reduction update `W op= f(...)`. The executor
/// computes a deterministic combination of the read values; WorkCost adds
/// synthetic per-execution work so kernels can model the paper's loop
/// granularities (the GR column of Tables 1-3).
class AssignStmt : public Stmt {
public:
  AssignStmt(std::optional<ArrayAccess> Write, std::vector<ArrayAccess> Reads,
             bool IsReduction, unsigned WorkCost)
      : Stmt(StmtKind::Assign), Write(Write), Reads(std::move(Reads)),
        IsReduction(IsReduction), WorkCost(WorkCost) {}

  const std::optional<ArrayAccess> &getWrite() const { return Write; }
  const std::vector<ArrayAccess> &getReads() const { return Reads; }
  /// Reduction updates (`A(s) = A(s) + e`) are summarized separately
  /// (Sec. 4) and executed with reduction semantics.
  bool isReduction() const { return IsReduction; }
  unsigned getWorkCost() const { return WorkCost; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Assign;
  }

private:
  std::optional<ArrayAccess> Write;
  std::vector<ArrayAccess> Reads;
  bool IsReduction;
  unsigned WorkCost;
};

/// `DO Var = Lo, Hi` with unit step.
class DoLoop : public Stmt {
public:
  DoLoop(std::string Label, sym::SymbolId Var, const sym::Expr *Lo,
         const sym::Expr *Hi, int Depth)
      : Stmt(StmtKind::DoLoop), Label(std::move(Label)), Var(Var), Lo(Lo),
        Hi(Hi), Depth(Depth) {}

  const std::string &getLabel() const { return Label; }
  sym::SymbolId getVar() const { return Var; }
  const sym::Expr *getLo() const { return Lo; }
  const sym::Expr *getHi() const { return Hi; }
  /// 1-based loop nesting depth (outermost analyzed loop = 1).
  int getDepth() const { return Depth; }
  const std::vector<const Stmt *> &getBody() const { return Body; }
  void append(const Stmt *S) { Body.push_back(S); }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::DoLoop;
  }

private:
  std::string Label;
  sym::SymbolId Var;
  const sym::Expr *Lo;
  const sym::Expr *Hi;
  int Depth;
  std::vector<const Stmt *> Body;
};

/// `IF (Cond) THEN ... ELSE ... ENDIF`; the condition becomes a gate.
class IfStmt : public Stmt {
public:
  explicit IfStmt(const pdag::Pred *Cond) : Stmt(StmtKind::If), Cond(Cond) {}

  const pdag::Pred *getCond() const { return Cond; }
  const std::vector<const Stmt *> &getThen() const { return Then; }
  const std::vector<const Stmt *> &getElse() const { return Else; }
  void appendThen(const Stmt *S) { Then.push_back(S); }
  void appendElse(const Stmt *S) { Else.push_back(S); }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::If; }

private:
  const pdag::Pred *Cond;
  std::vector<const Stmt *> Then;
  std::vector<const Stmt *> Else;
};

class Subroutine;

/// `CALL Callee(...)`: formal arrays bind to caller arrays at a linear
/// offset (array reshaping is transparent at the LMAD level); formal
/// scalars bind to caller expressions.
class CallStmt : public Stmt {
public:
  struct ArrayArg {
    sym::SymbolId Formal;        // Callee-side array symbol.
    sym::SymbolId Actual;        // Caller-side array symbol.
    const sym::Expr *Offset;     // Linearized offset of the actual slice.
  };
  struct ScalarArg {
    sym::SymbolId Formal;
    const sym::Expr *Actual;
  };

  CallStmt(const Subroutine *Callee, std::vector<ArrayArg> Arrays,
           std::vector<ScalarArg> Scalars)
      : Stmt(StmtKind::Call), Callee(Callee), Arrays(std::move(Arrays)),
        Scalars(std::move(Scalars)) {}

  const Subroutine *getCallee() const { return Callee; }
  const std::vector<ArrayArg> &getArrayArgs() const { return Arrays; }
  const std::vector<ScalarArg> &getScalarArgs() const { return Scalars; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Call; }

private:
  const Subroutine *Callee;
  std::vector<ArrayArg> Arrays;
  std::vector<ScalarArg> Scalars;
};

/// `Civ = Civ + Amount` — a conditionally-incremented induction variable
/// update (Sec. 3.3 / Fig. 7b). Amount must be non-negative for the CIV
/// aggregation machinery to derive monotone prefix values.
class CivIncrStmt : public Stmt {
public:
  CivIncrStmt(sym::SymbolId Civ, const sym::Expr *Amount)
      : Stmt(StmtKind::CivIncr), Civ(Civ), Amount(Amount) {}

  sym::SymbolId getCiv() const { return Civ; }
  const sym::Expr *getAmount() const { return Amount; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::CivIncr;
  }

private:
  sym::SymbolId Civ;
  const sym::Expr *Amount;
};

/// Declared array: data arrays hold doubles at runtime; index arrays hold
/// integers and may appear in subscripts (IB, IA, IX...).
struct ArrayDecl {
  sym::SymbolId Name = 0;
  const sym::Expr *Size = nullptr; // Element count; null = assumed-size.
  bool IsIndex = false;
};

/// A subroutine: declarations plus a structured statement list.
class Subroutine {
public:
  explicit Subroutine(std::string Name) : Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  const std::vector<const Stmt *> &getBody() const { return Body; }
  void append(const Stmt *S) { Body.push_back(S); }

  void declareArray(ArrayDecl D) { Arrays.push_back(D); }
  const std::vector<ArrayDecl> &getArrays() const { return Arrays; }
  const ArrayDecl *findArray(sym::SymbolId Id) const {
    for (const ArrayDecl &D : Arrays)
      if (D.Name == Id)
        return &D;
    return nullptr;
  }

private:
  std::string Name;
  std::vector<const Stmt *> Body;
  std::vector<ArrayDecl> Arrays;
};

/// Owns subroutines and statements; one Program per benchmark.
class Program {
public:
  Program(sym::Context &Sym, pdag::PredContext &Pred)
      : SymCtx(Sym), PredCtx(Pred) {}

  sym::Context &symCtx() { return SymCtx; }
  pdag::PredContext &predCtx() { return PredCtx; }
  const sym::Context &symCtx() const { return SymCtx; }
  const pdag::PredContext &predCtx() const { return PredCtx; }

  Subroutine *makeSubroutine(const std::string &Name) {
    Subs.push_back(std::make_unique<Subroutine>(Name));
    return Subs.back().get();
  }
  Subroutine *findSubroutine(const std::string &Name) {
    for (auto &S : Subs)
      if (S->getName() == Name)
        return S.get();
    return nullptr;
  }

  /// Finds an array declaration by symbol anywhere in the program (array
  /// symbols are global to a benchmark program).
  const ArrayDecl *findArrayDecl(sym::SymbolId Id) const {
    for (const auto &S : Subs)
      if (const ArrayDecl *D = S->findArray(Id))
        return D;
    return nullptr;
  }

  /// Every DO loop of the program, nested and callee loops included, in
  /// creation order (the program owns every statement).
  std::vector<const DoLoop *> loops() const {
    std::vector<const DoLoop *> Ls;
    for (const auto &S : Stmts)
      if (S->getKind() == StmtKind::DoLoop)
        Ls.push_back(static_cast<const DoLoop *>(S.get()));
    return Ls;
  }

  template <typename T, typename... Args> T *make(Args &&...As) {
    auto Node = std::make_unique<T>(std::forward<Args>(As)...);
    T *Raw = Node.get();
    Stmts.push_back(std::move(Node));
    return Raw;
  }

private:
  sym::Context &SymCtx;
  pdag::PredContext &PredCtx;
  std::vector<std::unique_ptr<Subroutine>> Subs;
  std::vector<std::unique_ptr<Stmt>> Stmts;
};

} // namespace ir
} // namespace halo

#endif // HALO_IR_PROGRAM_H
