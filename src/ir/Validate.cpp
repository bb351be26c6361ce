//===- ir/Validate.cpp - Front-door validation of untrusted IR ------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "ir/Validate.h"

#include "support/Casting.h"

#include <unordered_set>

namespace halo {
namespace ir {

namespace {

using support::Diag;

/// True when a node of nesting depth \p Depth is deeper than \p Cap. A
/// depth saturated at sym::MaxNestDepth counts as deeper than any cap.
bool deeperThan(unsigned Depth, unsigned Cap) {
  return Depth > Cap || Depth >= sym::MaxNestDepth;
}

/// Calls \p F on each child predicate of \p P.
template <typename Fn> void forEachChild(const pdag::Pred *P, Fn F) {
  switch (P->getKind()) {
  case pdag::PredKind::True:
  case pdag::PredKind::False:
  case pdag::PredKind::Cmp:
  case pdag::PredKind::Divides:
    break;
  case pdag::PredKind::And:
  case pdag::PredKind::Or:
    for (const pdag::Pred *C : cast<pdag::NaryPred>(P)->getChildren())
      F(C);
    break;
  case pdag::PredKind::LoopAll:
    F(cast<pdag::LoopAllPred>(P)->getBody());
    break;
  case pdag::PredKind::CallSite:
    F(cast<pdag::CallSitePred>(P)->getBody());
    break;
  }
}

class Validator {
public:
  Validator(const Program &P, const ValidateLimits &Lim)
      : Prog(P), Sym(P.symCtx()), Lim(Lim) {}

  std::vector<Diag> run(const DoLoop &L) {
    walkStmt(&L, 0);
    return std::move(Diags);
  }

private:
  std::string symName(sym::SymbolId Id) { return Sym.symbolInfo(Id).Name; }

  void report(Diag::Code C, std::string Msg) {
    Diags.emplace_back(C, std::move(Msg));
  }

  /// Depth + null check of one expression; \p What names the syntactic
  /// slot for diagnostics. Returns false when the expression is unusable.
  bool checkExpr(const sym::Expr *E, const char *What) {
    if (!E) {
      report(Diag::Code::MalformedAccess, std::string("null ") + What);
      return false;
    }
    if (deeperThan(E->nestDepth(), Lim.MaxExprDepth)) {
      if (DeepExprs.insert(E).second)
        report(Diag::Code::ExprTooDeep,
               std::string(What) + " nested deeper than " +
                   std::to_string(Lim.MaxExprDepth));
      return false;
    }
    // Every index array read inside the expression must be declared.
    for (sym::SymbolId S : E->freeSymbols())
      if (Sym.symbolInfo(S).IsArray)
        checkArrayDeclared(S, "index array");
    return true;
  }

  void checkArrayDeclared(sym::SymbolId Id, const char *What) {
    if (Prog.findArrayDecl(Id))
      return;
    for (const auto &Scope : FormalArrayScopes)
      if (Scope.count(Id))
        return;
    if (UndeclaredReported.insert(Id).second)
      report(Diag::Code::UndeclaredArray,
             std::string(What) + " '" + symName(Id) + "' is not declared");
  }

  void checkPred(const pdag::Pred *P) {
    if (!P) {
      report(Diag::Code::MalformedAccess, "null IF condition");
      return;
    }
    if (deeperThan(P->nestDepth(), Lim.MaxPredDepth)) {
      if (DeepPreds.insert(P).second)
        report(Diag::Code::PredTooDeep,
               "IF condition nested deeper than " +
                   std::to_string(Lim.MaxPredDepth));
      return;
    }
    // Leaf expressions: iterative DAG walk with a visited set.
    std::vector<const pdag::Pred *> Stack{P};
    std::unordered_set<const pdag::Pred *> Seen;
    while (!Stack.empty()) {
      const pdag::Pred *N = Stack.back();
      Stack.pop_back();
      if (!Seen.insert(N).second)
        continue;
      if (const auto *C = dyn_cast<pdag::CmpPred>(N)) {
        checkExpr(C->getExpr(), "comparison operand");
      } else if (const auto *D = dyn_cast<pdag::DividesPred>(N)) {
        checkExpr(D->getDivisor(), "divisibility divisor");
        checkExpr(D->getValue(), "divisibility operand");
      } else if (const auto *LA = dyn_cast<pdag::LoopAllPred>(N)) {
        checkExpr(LA->getLo(), "loop-all lower bound");
        checkExpr(LA->getHi(), "loop-all upper bound");
      }
      forEachChild(N, [&](const pdag::Pred *Ch) { Stack.push_back(Ch); });
    }
  }

  void checkAccess(const ArrayAccess &A, bool IsWrite) {
    const char *What = IsWrite ? "write subscript" : "read subscript";
    if (!checkExpr(A.Offset, What))
      return;
    checkArrayDeclared(A.Array, "array");
    std::optional<int64_t> Off = Sym.constValue(A.Offset);
    if (!Off)
      return;
    if (*Off < 0) {
      report(Diag::Code::OobSubscript,
             std::string(What) + " of '" + symName(A.Array) +
                 "' is the negative constant " + std::to_string(*Off));
      return;
    }
    if (const ArrayDecl *D = Prog.findArrayDecl(A.Array))
      if (D->Size)
        if (std::optional<int64_t> Sz = Sym.constValue(D->Size))
          if (*Off >= *Sz)
            report(Diag::Code::OobSubscript,
                   std::string(What) + " of '" + symName(A.Array) +
                       "' is constant " + std::to_string(*Off) +
                       " but the array has " + std::to_string(*Sz) +
                       " elements");
  }

  void walkStmts(const std::vector<const Stmt *> &Body, unsigned Depth) {
    for (const Stmt *S : Body)
      walkStmt(S, Depth);
  }

  void walkStmt(const Stmt *S, unsigned Depth) {
    if (!S) {
      report(Diag::Code::MalformedAccess, "null statement");
      return;
    }
    if (Depth > Lim.MaxStmtDepth) {
      if (!StmtDepthReported) {
        StmtDepthReported = true;
        report(Diag::Code::MalformedAccess,
               "statement nesting deeper than " +
                   std::to_string(Lim.MaxStmtDepth));
      }
      return;
    }
    switch (S->getKind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (A->getWrite())
        checkAccess(*A->getWrite(), /*IsWrite=*/true);
      for (const ArrayAccess &R : A->getReads())
        checkAccess(R, /*IsWrite=*/false);
      break;
    }
    case StmtKind::DoLoop: {
      const auto *L = cast<DoLoop>(S);
      bool BoundsOk = checkExpr(L->getLo(), "loop lower bound");
      BoundsOk &= checkExpr(L->getHi(), "loop upper bound");
      if (BoundsOk) {
        std::optional<int64_t> Lo = Sym.constValue(L->getLo());
        std::optional<int64_t> Hi = Sym.constValue(L->getHi());
        if (Lo && Hi && *Hi < *Lo)
          report(Diag::Code::NonPositiveTrip,
                 "loop '" + L->getLabel() + "' has constant bounds " +
                     std::to_string(*Lo) + ".." + std::to_string(*Hi) +
                     " (empty by construction)");
      }
      bool Reused = false;
      for (sym::SymbolId V : LoopVarStack)
        if (V == L->getVar()) {
          Reused = true;
          break;
        }
      if (Reused)
        report(Diag::Code::DuplicateLoopVar,
               "loop '" + L->getLabel() + "' reuses enclosing loop variable '" +
                   symName(L->getVar()) + "'");
      LoopVarStack.push_back(L->getVar());
      walkStmts(L->getBody(), Depth + 1);
      LoopVarStack.pop_back();
      break;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      checkPred(I->getCond());
      walkStmts(I->getThen(), Depth + 1);
      walkStmts(I->getElse(), Depth + 1);
      break;
    }
    case StmtKind::CivIncr: {
      const auto *C = cast<CivIncrStmt>(S);
      for (sym::SymbolId V : LoopVarStack)
        if (V == C->getCiv())
          report(Diag::Code::CivIsLoopVar,
                 "CIV increment targets loop variable '" +
                     symName(C->getCiv()) + "'");
      if (checkExpr(C->getAmount(), "CIV increment amount"))
        if (std::optional<int64_t> Amt = Sym.constValue(C->getAmount()))
          if (*Amt < 0)
            report(Diag::Code::NegativeCivStep,
                   "CIV '" + symName(C->getCiv()) +
                       "' has negative constant increment " +
                       std::to_string(*Amt));
      break;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      const Subroutine *Callee = C->getCallee();
      if (!Callee) {
        report(Diag::Code::MissingCallee,
               "CALL statement has no resolvable subroutine");
        break;
      }
      bool Cyclic = false;
      for (const Subroutine *Sub : CallStack)
        if (Sub == Callee) {
          Cyclic = true;
          break;
        }
      if (Cyclic) {
        report(Diag::Code::CallCycle,
               "recursive call chain through subroutine '" +
                   Callee->getName() + "'");
        break;
      }
      std::unordered_set<sym::SymbolId> Formals;
      for (const CallStmt::ArrayArg &AA : C->getArrayArgs()) {
        checkExpr(AA.Offset, "call array-argument offset");
        checkArrayDeclared(AA.Actual, "actual array argument");
        Formals.insert(AA.Formal);
      }
      for (const CallStmt::ScalarArg &SA : C->getScalarArgs())
        checkExpr(SA.Actual, "call scalar argument");
      CallStack.push_back(Callee);
      FormalArrayScopes.push_back(std::move(Formals));
      walkStmts(Callee->getBody(), Depth + 1);
      FormalArrayScopes.pop_back();
      CallStack.pop_back();
      break;
    }
    }
  }

  const Program &Prog;
  const sym::Context &Sym;
  const ValidateLimits &Lim;
  std::vector<Diag> Diags;
  std::vector<sym::SymbolId> LoopVarStack;
  std::vector<const Subroutine *> CallStack;
  std::vector<std::unordered_set<sym::SymbolId>> FormalArrayScopes;
  std::unordered_set<const sym::Expr *> DeepExprs;
  std::unordered_set<const pdag::Pred *> DeepPreds;
  std::unordered_set<sym::SymbolId> UndeclaredReported;
  bool StmtDepthReported = false;
};

/// Collects, over the whole nest, (a) the scalars execution itself defines
/// (loop variables, CIV targets, callee formal scalars, LoopAll bound
/// variables) and (b) every free symbol of every expression/predicate.
/// Assumes the nest already passed structural validation (bounded depth).
class InputScanner {
public:
  explicit InputScanner(const Program &P) : Prog(P) {}

  void scanStmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (A->getWrite())
        addExpr(A->getWrite()->Offset);
      for (const ArrayAccess &R : A->getReads())
        addExpr(R.Offset);
      break;
    }
    case StmtKind::DoLoop: {
      const auto *L = cast<DoLoop>(S);
      addExpr(L->getLo());
      addExpr(L->getHi());
      Defined.insert(L->getVar());
      for (const Stmt *B : L->getBody())
        scanStmt(B);
      break;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      scanPred(I->getCond());
      for (const Stmt *B : I->getThen())
        scanStmt(B);
      for (const Stmt *B : I->getElse())
        scanStmt(B);
      break;
    }
    case StmtKind::CivIncr: {
      const auto *C = cast<CivIncrStmt>(S);
      Defined.insert(C->getCiv());
      addExpr(C->getAmount());
      break;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      if (!C->getCallee())
        return;
      for (const CallStmt::ArrayArg &AA : C->getArrayArgs()) {
        addExpr(AA.Offset);
        AliasedFormals.insert(AA.Formal);
      }
      for (const CallStmt::ScalarArg &SA : C->getScalarArgs()) {
        addExpr(SA.Actual);
        Defined.insert(SA.Formal);
      }
      if (VisitedSubs.insert(C->getCallee()).second)
        for (const Stmt *B : C->getCallee()->getBody())
          scanStmt(B);
      break;
    }
    }
  }

  void scanPred(const pdag::Pred *P) {
    if (!P)
      return;
    if (const auto *C = dyn_cast<pdag::CmpPred>(P)) {
      addExpr(C->getExpr());
    } else if (const auto *D = dyn_cast<pdag::DividesPred>(P)) {
      addExpr(D->getDivisor());
      addExpr(D->getValue());
    } else if (const auto *LA = dyn_cast<pdag::LoopAllPred>(P)) {
      addExpr(LA->getLo());
      addExpr(LA->getHi());
      Defined.insert(LA->getVar());
      scanPred(LA->getBody());
    } else if (const auto *CS = dyn_cast<pdag::CallSitePred>(P)) {
      scanPred(CS->getBody());
    } else if (const auto *N = dyn_cast<pdag::NaryPred>(P)) {
      for (const pdag::Pred *Ch : N->getChildren())
        scanPred(Ch);
    }
  }

  void addExpr(const sym::Expr *E) {
    if (!E)
      return;
    for (sym::SymbolId S : E->freeSymbols())
      Referenced.insert(S);
  }

  const Program &Prog;
  std::unordered_set<sym::SymbolId> Referenced;
  std::unordered_set<sym::SymbolId> Defined;
  std::unordered_set<sym::SymbolId> AliasedFormals;
  std::unordered_set<const Subroutine *> VisitedSubs;
};

} // namespace

std::vector<support::Diag> collectLoopDiags(const Program &P, const DoLoop &L,
                                            const ValidateLimits &Lim) {
  Validator V(P, Lim);
  return V.run(L);
}

void validateLoop(const Program &P, const DoLoop &L,
                  const ValidateLimits &Lim) {
  std::vector<support::Diag> Ds = collectLoopDiags(P, L, Lim);
  if (!Ds.empty())
    throw support::ValidationError(std::move(Ds));
}

std::vector<support::Diag> collectInputDiags(const Program &P, const DoLoop &L,
                                             const sym::Bindings &B) {
  InputScanner S(P);
  S.scanStmt(&L);
  const sym::Context &Sym = P.symCtx();
  std::vector<support::Diag> Ds;
  for (sym::SymbolId Id : S.Referenced) {
    if (S.Defined.count(Id))
      continue;
    const sym::Symbol &Info = Sym.symbolInfo(Id);
    if (Info.IsArray) {
      if (!B.array(Id))
        Ds.emplace_back(support::Diag::Code::UnboundScalar,
                        "index array '" + Info.Name + "' has no binding");
    } else if (!B.scalar(Id)) {
      Ds.emplace_back(support::Diag::Code::UnboundScalar,
                      "scalar '" + Info.Name + "' has no binding");
    }
  }
  return Ds;
}

} // namespace ir
} // namespace halo
