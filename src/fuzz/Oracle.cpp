//===- fuzz/Oracle.cpp - Differential oracles for generated loops ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "ir/Validate.h"
#include "pdag/PredCompile.h"
#include "pdag/PredEval.h"
#include "plan/Plan.h"
#include "rt/Executor.h"
#include "rt/Interp.h"
#include "session/Session.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "usr/USREval.h"

#include <cmath>
#include <sstream>
#include <string>

using namespace halo;
using namespace halo::fuzz;

//===----------------------------------------------------------------------===//
// Brute-force trace
//===----------------------------------------------------------------------===//

namespace {

/// Mirrors rt::interpStmt's control flow but records access sets instead
/// of moving data. Subscripts and gates only read integers (scalars, loop
/// variables, CIVs, index arrays), so no rt::Memory is needed.
class TraceWalker {
public:
  TraceWalker(sym::Bindings &B, TraceResult &T) : B(B), T(T) {}

  void outer(const ir::DoLoop &L) {
    auto Lo = sym::tryEval(L.getLo(), B);
    auto Hi = sym::tryEval(L.getHi(), B);
    if (!Lo || !Hi) {
      fail("unevaluable outer loop bounds");
      return;
    }
    for (int64_t I = *Lo; I <= *Hi && T.Ok; ++I) {
      B.setScalar(L.getVar(), I);
      T.Iters.emplace_back();
      Cur = &T.Iters.back();
      for (const ir::Stmt *S : L.getBody())
        stmt(S);
    }
  }

private:
  void fail(const std::string &Msg) {
    if (T.Ok) {
      T.Ok = false;
      T.Error = Msg;
    }
  }

  std::optional<int64_t> evalOff(const sym::Expr *E) {
    auto V = sym::tryEval(E, B);
    if (!V)
      fail("unevaluable subscript in trace");
    return V;
  }

  std::pair<sym::SymbolId, int64_t> resolve(sym::SymbolId Arr,
                                            int64_t Off) const {
    auto It = Alias.find(Arr);
    while (It != Alias.end()) {
      Off += It->second.second;
      Arr = It->second.first;
      It = Alias.find(Arr);
    }
    return {Arr, Off};
  }

  void read(sym::SymbolId Arr, int64_t Off) {
    auto [Base, Idx] = resolve(Arr, Off);
    IterAccesses &A = (*Cur)[Base];
    if (!A.Writes.count(Idx))
      A.ExposedReads.insert(Idx);
  }

  void write(sym::SymbolId Arr, int64_t Off, bool IsReduction) {
    auto [Base, Idx] = resolve(Arr, Off);
    IterAccesses &A = (*Cur)[Base];
    if (IsReduction && !A.Writes.count(Idx))
      A.ExposedRedWrites.insert(Idx);
    (IsReduction ? A.RedWrites : A.Writes).insert(Idx);
  }

  void stmt(const ir::Stmt *S) {
    if (!T.Ok)
      return;
    switch (S->getKind()) {
    case ir::StmtKind::Assign: {
      const auto *A = cast<ir::AssignStmt>(S);
      for (const ir::ArrayAccess &R : A->getReads())
        if (auto Off = evalOff(R.Offset))
          read(R.Array, *Off);
      if (A->getWrite())
        if (auto Off = evalOff(A->getWrite()->Offset))
          write(A->getWrite()->Array, *Off, A->isReduction());
      return;
    }
    case ir::StmtKind::DoLoop: {
      const auto *L = cast<ir::DoLoop>(S);
      auto Lo = sym::tryEval(L->getLo(), B);
      auto Hi = sym::tryEval(L->getHi(), B);
      if (!Lo || !Hi) {
        fail("unevaluable inner loop bounds");
        return;
      }
      auto Saved = B.scalar(L->getVar());
      for (int64_t I = *Lo; I <= *Hi && T.Ok; ++I) {
        B.setScalar(L->getVar(), I);
        for (const ir::Stmt *C : L->getBody())
          stmt(C);
      }
      if (Saved)
        B.setScalar(L->getVar(), *Saved);
      return;
    }
    case ir::StmtKind::If: {
      const auto *I = cast<ir::IfStmt>(S);
      auto C = pdag::tryEvalPred(I->getCond(), B);
      if (!C) {
        fail("unevaluable gate predicate in trace");
        return;
      }
      for (const ir::Stmt *X : (*C ? I->getThen() : I->getElse()))
        stmt(X);
      return;
    }
    case ir::StmtKind::Call: {
      const auto *C = cast<ir::CallStmt>(S);
      std::vector<std::pair<sym::SymbolId, std::optional<int64_t>>> SavedSc;
      for (const ir::CallStmt::ScalarArg &A : C->getScalarArgs()) {
        auto V = sym::tryEval(A.Actual, B);
        if (!V) {
          fail("unevaluable scalar argument in trace");
          return;
        }
        SavedSc.emplace_back(A.Formal, B.scalar(A.Formal));
        B.setScalar(A.Formal, *V);
      }
      std::vector<
          std::pair<sym::SymbolId, std::optional<std::pair<sym::SymbolId,
                                                           int64_t>>>>
          SavedAl;
      for (const ir::CallStmt::ArrayArg &A : C->getArrayArgs()) {
        auto Off = sym::tryEval(A.Offset, B);
        if (!Off) {
          fail("unevaluable array-argument offset in trace");
          return;
        }
        auto It = Alias.find(A.Formal);
        SavedAl.emplace_back(
            A.Formal,
            It == Alias.end()
                ? std::nullopt
                : std::optional<std::pair<sym::SymbolId, int64_t>>(
                      It->second));
        Alias[A.Formal] = {A.Actual, *Off};
      }
      for (const ir::Stmt *X : C->getCallee()->getBody())
        stmt(X);
      for (auto &KV : SavedAl) {
        if (KV.second)
          Alias[KV.first] = *KV.second;
        else
          Alias.erase(KV.first);
      }
      for (auto &KV : SavedSc) {
        if (KV.second)
          B.setScalar(KV.first, *KV.second);
        else
          B.clearScalar(KV.first);
      }
      return;
    }
    case ir::StmtKind::CivIncr: {
      const auto *CI = cast<ir::CivIncrStmt>(S);
      auto Amt = sym::tryEval(CI->getAmount(), B);
      if (!Amt) {
        fail("unevaluable CIV amount in trace");
        return;
      }
      B.setScalar(CI->getCiv(), B.scalar(CI->getCiv()).value_or(0) + *Amt);
      return;
    }
    }
  }

  sym::Bindings &B;
  TraceResult &T;
  std::map<sym::SymbolId, std::pair<sym::SymbolId, int64_t>> Alias;
  std::map<sym::SymbolId, IterAccesses> *Cur = nullptr;
};

/// offset -> set of iteration indices touching it, per access category.
struct PerElement {
  std::map<int64_t, std::set<size_t>> W, ER, RW;
};

PerElement perElement(const TraceResult &T, sym::SymbolId Array) {
  PerElement P;
  for (size_t I = 0; I < T.Iters.size(); ++I) {
    auto It = T.Iters[I].find(Array);
    if (It == T.Iters[I].end())
      continue;
    for (int64_t O : It->second.Writes)
      P.W[O].insert(I);
    for (int64_t O : It->second.ExposedReads)
      P.ER[O].insert(I);
    for (int64_t O : It->second.RedWrites)
      P.RW[O].insert(I);
  }
  return P;
}

/// True iff some i in A and j in B with i != j exist.
bool crossIter(const std::set<size_t> &A, const std::set<size_t> &B) {
  if (A.empty() || B.empty())
    return false;
  return A.size() > 1 || B.size() > 1 || *A.begin() != *B.begin();
}

} // namespace

TraceResult fuzz::traceLoop(const ir::Program &Prog, const ir::DoLoop &Loop,
                            sym::Bindings B) {
  (void)Prog;
  TraceResult T;
  TraceWalker W(B, T);
  W.outer(Loop);
  return T;
}

bool fuzz::flowIndependent(const TraceResult &T, sym::SymbolId Array) {
  PerElement P = perElement(T, Array);
  for (const auto &KV : P.W) {
    auto It = P.ER.find(KV.first);
    if (It != P.ER.end() && crossIter(It->second, KV.second))
      return false;
  }
  return true;
}

bool fuzz::outputIndependent(const TraceResult &T, sym::SymbolId Array) {
  PerElement P = perElement(T, Array);
  for (const auto &KV : P.W)
    if (KV.second.size() > 1)
      return false;
  return true;
}

bool fuzz::privatizable(const TraceResult &T, sym::SymbolId Array) {
  for (const auto &Iter : T.Iters) {
    auto It = Iter.find(Array);
    if (It != Iter.end() && !It->second.ExposedReads.empty())
      return false;
  }
  return true;
}

bool fuzz::slvValid(const TraceResult &T, sym::SymbolId Array) {
  if (T.Iters.empty())
    return true;
  const auto &Last = T.Iters.back();
  auto LIt = Last.find(Array);
  const std::set<int64_t> *LastW =
      LIt == Last.end() ? nullptr : &LIt->second.Writes;
  for (size_t I = 0; I + 1 < T.Iters.size(); ++I) {
    auto It = T.Iters[I].find(Array);
    if (It == T.Iters[I].end())
      continue;
    for (int64_t O : It->second.Writes)
      if (!LastW || !LastW->count(O))
        return false;
  }
  return true;
}

bool fuzz::redInjective(const TraceResult &T, sym::SymbolId Array) {
  PerElement P = perElement(T, Array);
  for (const auto &KV : P.RW)
    if (KV.second.size() > 1)
      return false;
  return true;
}

bool fuzz::extRedSeparated(const TraceResult &T, sym::SymbolId Array) {
  PerElement P = perElement(T, Array);
  for (const auto &KV : P.RW) {
    auto WIt = P.W.find(KV.first);
    if (WIt != P.W.end() && crossIter(KV.second, WIt->second))
      return false;
    auto RIt = P.ER.find(KV.first);
    if (RIt != P.ER.end() && crossIter(KV.second, RIt->second))
      return false;
  }
  return true;
}

bool fuzz::noCrossIterationFlow(const TraceResult &T) {
  std::map<sym::SymbolId, std::set<int64_t>> Written; // By earlier iters.
  for (const auto &Iter : T.Iters)
    for (const auto &KV : Iter) {
      std::set<int64_t> &W = Written[KV.first];
      for (const std::set<int64_t> *R :
           {&KV.second.ExposedReads, &KV.second.ExposedRedWrites})
        for (int64_t O : *R)
          if (W.count(O))
            return false;
      W.insert(KV.second.Writes.begin(), KV.second.Writes.end());
      W.insert(KV.second.RedWrites.begin(), KV.second.RedWrites.end());
    }
  return true;
}

//===----------------------------------------------------------------------===//
// Claim evaluation and the full differential check
//===----------------------------------------------------------------------===//

namespace {

std::string arrayName(const GeneratedCase &C, sym::SymbolId Id) {
  return C.sym().symbolInfo(Id).Name;
}

/// Evaluates one cascade under \p B: returns true when StaticallyTrue or
/// any stage evaluates true through the reference interpreter. Every stage
/// is also cross-checked against its compiled bytecode (scalar and block
/// tiers) — tri-state disagreement is an engine parity bug.
bool cascadeClaims(const analysis::TestCascade &TC, sym::Bindings &B,
                   sym::Context &Sym, const char *What,
                   const std::string &Arr, OracleResult &Res) {
  if (TC.StaticallyTrue)
    return true;
  bool Claim = false;
  for (size_t I = 0; I < TC.Stages.size(); ++I) {
    const pdag::Pred *P = TC.Stages[I].P;
    auto Interp = pdag::tryEvalPred(P, B);
    auto CP = pdag::CompiledPred::compile(P, Sym);
    if (CP) {
      for (pdag::BlockEval BE :
           {pdag::BlockEval::Off, pdag::BlockEval::Auto}) {
        pdag::EvalStats ES;
        auto Comp = CP->eval(B, &ES, BE);
        if (Comp.has_value() != Interp.has_value() ||
            (Comp && *Comp != *Interp)) {
          std::ostringstream OS;
          OS << "stage parity: " << What << " stage " << I << " of " << Arr
             << " interp="
             << (Interp ? (*Interp ? "true" : "false") : "none")
             << " compiled"
             << (BE == pdag::BlockEval::Auto ? "(block)" : "(scalar)")
             << "=" << (Comp ? (*Comp ? "true" : "false") : "none");
          Res.Parity.push_back(OS.str());
        }
      }
    } else {
      ++Res.GuardDemotions;
    }
    if (Interp && *Interp)
      Claim = true;
  }
  return Claim;
}

/// Emptiness claim of an independence USR through the reference
/// interpreter (a bounded evaluation failure is "no claim").
bool usrClaimsEmpty(const usr::USR *S, const sym::Bindings &B) {
  if (!S)
    return false;
  sym::Bindings Local(B);
  auto V = usr::evalUSREmpty(S, Local);
  return V && *V;
}

void soundness(OracleResult &Res, const char *Claim, const std::string &Arr,
               const char *Truth) {
  Res.Soundness.push_back(std::string("claim '") + Claim + "' on array " +
                          Arr + " contradicted by trace: " + Truth);
}

/// Checks every claim of \p Plan against the exact trace.
void checkClaims(const analysis::LoopPlan &Plan, const TraceResult &T,
                 sym::Bindings &B, GeneratedCase &C, OracleResult &Res) {
  sym::Context &Sym = C.sym();
  for (const analysis::ArrayPlan &AP : Plan.Arrays) {
    if (AP.ReadOnly)
      continue;
    std::string Arr = arrayName(C, AP.Array);
    if (cascadeClaims(AP.Flow, B, Sym, "flow", Arr, Res) ||
        usrClaimsEmpty(AP.FlowUSR, B))
      if (!flowIndependent(T, AP.Array))
        soundness(Res, "flow-independent", Arr,
                  "cross-iteration read/write overlap");
    if (cascadeClaims(AP.Output, B, Sym, "output", Arr, Res) ||
        usrClaimsEmpty(AP.OutputUSR, B))
      if (!outputIndependent(T, AP.Array))
        soundness(Res, "output-independent", Arr,
                  "cross-iteration write/write overlap");
    bool PrivClaim = cascadeClaims(AP.Priv, B, Sym, "priv", Arr, Res);
    if (PrivClaim)
      if (!privatizable(T, AP.Array))
        soundness(Res, "privatizable", Arr, "iteration with exposed reads");
    // The SLV cascade is built over first-writes (WF) only and is consumed
    // by the analyzer solely in conjunction with privatization (no exposed
    // reads implies every write is a first-write, making the WF test
    // exact). Judged in isolation it is vacuously true for RW-only arrays,
    // so mirror the conditioning; the cascade is still evaluated
    // unconditionally for compiled-vs-interpreted parity.
    if (cascadeClaims(AP.Slv, B, Sym, "slv", Arr, Res) && PrivClaim)
      if (!slvValid(T, AP.Array))
        soundness(Res, "static-last-value", Arr,
                  "write not covered by the final iteration");
    if (AP.HasReduction) {
      if (cascadeClaims(AP.RRed, B, Sym, "rred", Arr, Res))
        if (!redInjective(T, AP.Array))
          soundness(Res, "reduction-injective", Arr,
                    "two iterations update one element");
      if (cascadeClaims(AP.ExtRedFlow, B, Sym, "extred", Arr, Res) ||
          usrClaimsEmpty(AP.ExtRedUSR, B))
        if (!extRedSeparated(T, AP.Array))
          soundness(Res, "extred-separated", Arr,
                    "reduction and ordinary access share an element");
    }
  }
}

/// Compares two memory images. Arrays in \p RedArrays use the tolerance,
/// everything else must match bit for bit.
void compareMemory(const rt::Memory &Want, const rt::Memory &Got,
                   const std::set<sym::SymbolId> &RedArrays, double Tol,
                   const GeneratedCase &C, const char *Config,
                   OracleResult &Res) {
  for (const auto &KV : Want.arrays()) {
    auto It = Got.arrays().find(KV.first);
    if (It == Got.arrays().end() || It->second.size() != KV.second.size()) {
      Res.Parity.push_back(std::string("end state: array ") +
                           arrayName(C, KV.first) + " missing/resized in " +
                           Config);
      continue;
    }
    bool Red = RedArrays.count(KV.first) > 0;
    for (size_t I = 0; I < KV.second.size(); ++I) {
      double A = KV.second[I], Bv = It->second[I];
      bool Bad = Red ? std::abs(A - Bv) >
                           Tol * std::max(1.0, std::max(std::abs(A),
                                                        std::abs(Bv)))
                     : A != Bv;
      if (Bad) {
        std::ostringstream OS;
        OS << "end state: " << arrayName(C, KV.first) << "[" << I
           << "] sequential=" << A << " " << Config << "=" << Bv;
        Res.Parity.push_back(OS.str());
        break; // One element per array is enough signal.
      }
    }
  }
}

/// Names one engine configuration in a failure: \p Config plus the body
/// engine the run actually used (a compiled tier whose body was demoted
/// ran the interpreter; an empty iteration space runs no body).
std::string engineLabel(const std::string &Config, const rt::ExecStats &ES) {
  const char *Body = ES.CompiledBodyRuns ? "compiled"
                     : ES.InterpBodyRuns ? "interpreted"
                                         : "no";
  return Config + " (" + Body + " body)";
}

} // namespace

OracleResult fuzz::checkCase(GeneratedCase &C, const OracleOptions &O) {
  OracleResult Res;
  if (!C.Loop) {
    Res.Other.push_back("generator produced no loop");
    return Res;
  }

  rt::Memory M;
  sym::Bindings B;
  C.bind(M, B);

  // --- Front door -------------------------------------------------------
  std::vector<support::Diag> Diags =
      ir::collectLoopDiags(C.prog(), *C.Loop);
  bool Structural = !Diags.empty();
  if (!Structural) {
    std::vector<support::Diag> In =
        ir::collectInputDiags(C.prog(), *C.Loop, B);
    Diags.insert(Diags.end(), In.begin(), In.end());
  }
  for (const support::Diag &D : Diags)
    Res.DiagCodes.push_back(support::diagCodeName(D.Kind));
  if (!Diags.empty()) {
    Res.ValidationRejected = true;
    if (!C.Opts.Hostile)
      Res.Other.push_back("benign case rejected by validation: " +
                          Diags.front().Message);
    if (Structural) {
      // The session front door must reject with the structured error —
      // anything else (acceptance, assert, foreign exception) is a bug.
      try {
        session::SessionOptions SO;
        SO.Threads = 1;
        session::Session S(C.prog(), C.usrCtx(), SO);
        S.prepare(*C.Loop);
        Res.Other.push_back(
            "Session::prepare accepted a structurally invalid program");
      } catch (const support::ValidationError &) {
        // Expected.
      } catch (const std::exception &E) {
        Res.Other.push_back(
            std::string("Session::prepare threw a non-structured error: ") +
            E.what());
      }
    }
    return Res;
  }
  if (C.Opts.Hostile) {
    Res.Other.push_back("hostile case passed both validation gates: " +
                        C.HostileNote);
    return Res; // Running it could legitimately trip interpreter asserts.
  }

  // --- Analysis + claim differential ------------------------------------
  analysis::AnalyzerOptions AO;
  AO.HoistableContext = true; // Exercise the exact-test path too.
  session::SessionOptions SOBase;
  SOBase.Threads = O.Threads;
  SOBase.Analyzer = AO;

  try {
    session::Session SCompiled(C.prog(), C.usrCtx(), SOBase);
    const session::PreparedLoop &PL = SCompiled.prepare(*C.Loop);
    Res.ClassString = PL.Plan.classString();

    TraceResult T = traceLoop(C.prog(), *C.Loop, B);
    if (!T.Ok) {
      Res.Other.push_back("trace failed on a benign case: " + T.Error);
      return Res;
    }

    // Claims are judged under the bindings the governor evaluates them
    // with: after CIV-COMP populated the civ pseudo-arrays.
    {
      rt::Memory MC;
      sym::Bindings BC;
      C.bind(MC, BC);
      if (!PL.Plan.Civ.empty())
        rt::interpCivSlice(*C.Loop, PL.Plan.Civ, MC, BC);
      checkClaims(PL.Plan, T, BC, C, Res);
    }

    // --- Execution parity -----------------------------------------------
    std::set<sym::SymbolId> RedArrays = C.ReductionArrays;
    for (const auto &Iter : T.Iters)
      for (const auto &KV : Iter)
        if (!KV.second.RedWrites.empty())
          RedArrays.insert(KV.first);

    rt::Memory MSeq;
    sym::Bindings BSeq;
    C.bind(MSeq, BSeq);
    rt::interpSequential(*C.Loop, MSeq, BSeq);

    for (rt::EvalTier Tier : rt::AllEvalTiers) {
      session::SessionOptions SO = SOBase;
      SO.Tier = Tier;
      session::Session S(C.prog(), C.usrCtx(), SO);
      rt::Memory MX;
      sym::Bindings BX;
      C.bind(MX, BX);
      rt::ExecStats ES = S.run(*C.Loop, MX, BX);
      Res.GuardDemotions += ES.GuardDemotions;
      compareMemory(MSeq, MX, RedArrays, O.Tolerance, C,
                    engineLabel(rt::evalTierName(Tier), ES).c_str(), Res);
    }

    // --- Forced speculation ---------------------------------------------
    // A plan copy with every runtime test failing and no exact-test USRs
    // must speculate. A commit and a sequential rerun are both bit-exact.
    {
      analysis::LoopPlan Spec = PL.Plan;
      Spec.Class = analysis::LoopClass::TLS;
      bool Writes = false;
      for (analysis::ArrayPlan &AP : Spec.Arrays) {
        for (analysis::TestCascade *TC : {&AP.Flow, &AP.Output, &AP.Priv,
                                          &AP.Slv, &AP.RRed, &AP.ExtRedFlow})
          *TC = analysis::TestCascade{};
        AP.FlowUSR = AP.OutputUSR = AP.ExtRedUSR = nullptr;
        Writes |= !AP.ReadOnly;
      }
      // A loop that writes nothing never speculates.
      const bool Expect =
          Writes && !T.Iters.empty() && noCrossIterationFlow(T);
      rt::PredCompileCache Preds(C.sym());
      rt::USRCompileCache Usrs(C.sym(), Preds);
      rt::PlanCascades Pre = rt::PlanCascades::build(Spec, Preds);
      std::unique_ptr<const rt::CompiledBody> Body =
          rt::CompiledBody::compile(*C.Loop, C.sym());
      for (unsigned Threads : {1u, O.Threads}) {
        ThreadPool Pool(Threads);
        rt::ExecContext Ctx;
        rt::HoistCache Hoist;
        rt::Memory MX;
        sym::Bindings BX;
        C.bind(MX, BX);
        rt::ExecStats ES = rt::runPlanned(Spec, Pre, Body.get(), MX, BX,
                                          Pool, Ctx, Hoist, Usrs,
                                          rt::EvalTier::Block);
        std::string Config = engineLabel(
            "forced speculation, threads=" + std::to_string(Threads), ES);
        compareMemory(MSeq, MX, {}, 0, C, Config.c_str(), Res);
        if (ES.TLSSucceeded != Expect)
          (Expect ? Res.Parity : Res.Soundness)
              .push_back(Config + ": TLSSucceeded=" +
                         std::to_string(ES.TLSSucceeded) + ", trace has " +
                         (Expect ? "no" : "a") +
                         " cross-iteration flow dependence");
      }
    }

    // --- Plan-cache round trip ------------------------------------------
    // Serialize the prepared plan, regenerate the case from its own recipe
    // (fresh contexts: a process restart in miniature), load into a fresh
    // session and execute through the adopted plan. The warm-started run
    // must be adopted — not silently re-analyzed — and must agree with the
    // sequential reference exactly like the fresh-compile configs.
    {
      std::stringstream PS(std::ios::in | std::ios::out |
                           std::ios::binary);
      {
        session::Session SSave(C.prog(), C.usrCtx(), SOBase);
        SSave.prepare(*C.Loop);
        SSave.savePlans(PS);
      }
      std::unique_ptr<GeneratedCase> C2 = fuzz::generate(C.Opts);
      session::Session SLoad(C2->prog(), C2->usrCtx(), SOBase);
      plan::LoadResult LR = SLoad.loadPlans(PS);
      for (const support::Diag &D : LR.Diags)
        Res.Other.push_back(std::string("plan round trip: ") +
                            support::diagCodeName(D.Kind) + ": " +
                            D.Message);
      rt::Memory MX;
      sym::Bindings BX;
      C2->bind(MX, BX);
      rt::ExecStats ES = SLoad.run(*C2->Loop, MX, BX);
      Res.GuardDemotions += ES.GuardDemotions;
      if (SLoad.numPlansWarmStarted() != 1) {
        std::string Msg =
            "plan round trip: loaded plan was not adopted";
        for (const support::Diag &D : SLoad.planDiags())
          Msg += std::string("; ") + support::diagCodeName(D.Kind) + ": " +
                 D.Message;
        Res.Other.push_back(Msg);
      }
      compareMemory(MSeq, MX, RedArrays, O.Tolerance, C,
                    engineLabel("plan-roundtrip", ES).c_str(), Res);
    }
  } catch (const std::exception &E) {
    Res.Other.push_back(std::string("engine threw on a benign case: ") +
                        E.what());
  }
  return Res;
}
