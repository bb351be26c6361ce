//===- plan/Codec.cpp - .hplan table/bytecode encode + verify-load --------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Save side: walk every prepared loop's plan, register the structures it
// references (symbols, expressions, predicates, USRs) in deduplicated
// postorder tables, and emit the plan records plus the length and digest
// of each compiled node's canonical bytecode encoding.
//
// Load side: re-intern the tables into the live contexts, re-compile
// through the session's real compile caches (populating them — that is
// the warm start), encode the *fresh* compiles with the same encoder and
// compare length and digest against the file records. The file carries no
// bytecode; only fresh compiles ever run.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"
#include "plan/Plan.h"
#include "plan/Wire.h"

#include <array>
#include <ostream>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace halo {
namespace plan {

using wire::ByteReader;
using wire::ByteWriter;

namespace {
/// Null reference on the wire (optional expr / USR slots).
constexpr uint32_t NullRef = 0xFFFFFFFFu;
} // namespace

//===----------------------------------------------------------------------===//
// Pre-order IF collection (CivJoin anchor resolution)
//===----------------------------------------------------------------------===//

namespace {
void collectIfs(const std::vector<const ir::Stmt *> &Ss,
                std::vector<const ir::IfStmt *> &Out,
                std::set<const ir::Subroutine *> &Active) {
  for (const ir::Stmt *S : Ss) {
    switch (S->getKind()) {
    case ir::StmtKind::If: {
      auto *I = static_cast<const ir::IfStmt *>(S);
      Out.push_back(I);
      collectIfs(I->getThen(), Out, Active);
      collectIfs(I->getElse(), Out, Active);
      break;
    }
    case ir::StmtKind::DoLoop:
      collectIfs(static_cast<const ir::DoLoop *>(S)->getBody(), Out, Active);
      break;
    case ir::StmtKind::Call: {
      const ir::Subroutine *Sub =
          static_cast<const ir::CallStmt *>(S)->getCallee();
      if (Sub && Active.insert(Sub).second) {
        collectIfs(Sub->getBody(), Out, Active);
        Active.erase(Sub);
      }
      break;
    }
    case ir::StmtKind::Assign:
    case ir::StmtKind::CivIncr:
      break;
    }
  }
}
} // namespace

std::vector<const ir::IfStmt *> collectIfStmts(const ir::DoLoop &L) {
  std::vector<const ir::IfStmt *> Out;
  std::set<const ir::Subroutine *> Active;
  collectIfs(L.getBody(), Out, Active);
  return Out;
}

//===----------------------------------------------------------------------===//
// Compiled-object encoders (digested, never stored)
//===----------------------------------------------------------------------===//

/// Friend of CompiledPred / CompiledUSR: encodes the compiled tables into
/// a deterministic byte string, symbols and gate predicates as file-table
/// indices (\p SM, \p PM map a live node to its index). Used symmetrically
/// at save (digest the cached compile) and load (digest the fresh compile
/// and compare).
struct PlanCodec {
  template <class SymMap>
  static void encodePred(const pdag::CompiledPred &CP, const SymMap &SM,
                         ByteWriter &W) {
    W.u32(static_cast<uint32_t>(CP.PCode.size()));
    for (const pdag::PredInstr &I : CP.PCode) {
      W.u8(static_cast<uint8_t>(I.Opcode));
      W.u32(I.A);
      W.u32(I.B);
      W.u32(I.C);
      W.u32(I.D);
      W.u8(I.Aux);
    }
    encodeExprCode(CP.XCode, W);
    W.u32(static_cast<uint32_t>(CP.Loops.size()));
    for (const pdag::CompiledLoop &L : CP.Loops) {
      W.u32(L.LoExprBegin);
      W.u32(L.LoExprEnd);
      W.u32(L.HiExprBegin);
      W.u32(L.HiExprEnd);
      W.u32(L.VarSlot);
      W.u32(L.BodyBegin);
      W.u32(L.StepIp);
      W.u32(L.EndIp);
    }
    encodeSlots(CP.ScalarSlots, SM, W);
    encodeSlots(CP.ArraySlots, SM, W);
    W.u32(CP.NumMemoSlots);
    W.u32(CP.MainCodeEnd);
    W.u32(CP.NumSubs);
    W.i32(CP.RootLoop);
    W.u32(CP.PMaxDepth);
    W.u32(CP.XMaxDepth);
    W.u32(CP.MaxLoopNest);
    W.u8(CP.BlockOk ? 1 : 0);
    W.u8(CP.MainBlockOk ? 1 : 0);
    W.u8(CP.BodyHasVarLoad ? 1 : 0);
  }

  template <class SymMap, class PredMap>
  static void encodeUSR(const usr::CompiledUSR &CU, const SymMap &SM,
                        const PredMap &PM, ByteWriter &W) {
    W.u32(static_cast<uint32_t>(CU.Code.size()));
    for (const usr::USRInstr &I : CU.Code) {
      W.u8(static_cast<uint8_t>(I.Opcode));
      W.u32(I.A);
      W.u32(I.B);
      W.u8(I.Deciding);
    }
    encodeExprCode(CU.XCode, W);
    W.u32(static_cast<uint32_t>(CU.Lmads.size()));
    for (const usr::CompiledUSRLmad &L : CU.Lmads) {
      W.u32(L.OffsetBegin);
      W.u32(L.OffsetEnd);
      W.u32(L.DimBegin);
      W.u32(L.DimEnd);
    }
    W.u32(static_cast<uint32_t>(CU.Dims.size()));
    for (const usr::CompiledUSRDim &D : CU.Dims) {
      W.u32(D.StrideBegin);
      W.u32(D.StrideEnd);
      W.u32(D.SpanBegin);
      W.u32(D.SpanEnd);
    }
    W.u32(static_cast<uint32_t>(CU.Gates.size()));
    for (const usr::CompiledUSRGate &G : CU.Gates) {
      W.u32(G.Pred ? PM(G.Pred->source()) : NullRef);
      W.u32(G.FeedBegin);
      W.u32(G.FeedEnd);
      W.u8(G.Invariant);
      W.u32(G.MemoSlot);
    }
    W.u32(static_cast<uint32_t>(CU.GateFeeds.size()));
    for (const usr::CompiledUSRGateFeed &F : CU.GateFeeds) {
      W.u32(F.PredSlot);
      W.u32(F.OurSlot);
    }
    W.u32(static_cast<uint32_t>(CU.Recurs.size()));
    for (const usr::CompiledUSRRecur &R : CU.Recurs) {
      W.u32(R.LoBegin);
      W.u32(R.LoEnd);
      W.u32(R.HiBegin);
      W.u32(R.HiEnd);
      W.u32(R.VarSlot);
      W.u32(R.BodyBegin);
      W.u32(R.BodyEnd);
      W.u8(R.PrefixCacheable);
      W.u32(R.CacheSlot);
    }
    W.u32(static_cast<uint32_t>(CU.Calls.size()));
    for (const usr::CompiledUSRCall &C : CU.Calls) {
      W.u32(C.Begin);
      W.u32(C.End);
    }
    encodeSlots(CU.ScalarSlots, SM, W);
    encodeSlots(CU.ArraySlots, SM, W);
    W.u32(CU.MainCodeEnd);
    W.u32(CU.NumGateMemoSlots);
    W.u32(CU.XMaxDepth);
    W.i32(CU.RootRecur);
  }

  /// The gate descriptors of a compiled USR (save side registers their
  /// source predicates as PCOD records).
  static const std::vector<usr::CompiledUSRGate> &
  gates(const usr::CompiledUSR &CU) {
    return CU.Gates;
  }

private:
  static void encodeExprCode(const std::vector<pdag::ExprInstr> &XCode,
                             ByteWriter &W) {
    W.u32(static_cast<uint32_t>(XCode.size()));
    for (const pdag::ExprInstr &I : XCode) {
      W.u8(static_cast<uint8_t>(I.Opcode));
      W.u32(I.Slot);
      W.i64(I.Imm);
    }
  }
  template <class SymMap>
  static void encodeSlots(const std::vector<sym::SymbolId> &Slots,
                          const SymMap &SM, ByteWriter &W) {
    W.u32(static_cast<uint32_t>(Slots.size()));
    for (sym::SymbolId Id : Slots)
      W.u32(SM(Id));
  }
};

//===----------------------------------------------------------------------===//
// Save-side tables
//===----------------------------------------------------------------------===//

namespace {

/// Deduplicated postorder registration of everything a plan references.
/// Children always register before (and thus index below) their parents,
/// which is the topological invariant the decoder checks.
class SaveTables {
public:
  explicit SaveTables(const sym::Context &Sym) : Sym(Sym) {}

  uint32_t sym(sym::SymbolId Id) {
    auto It = SymIdx.find(Id);
    if (It != SymIdx.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(Syms.size());
    Syms.push_back(Id);
    SymIdx.emplace(Id, Idx);
    return Idx;
  }

  uint32_t expr(const sym::Expr *E) {
    auto It = ExprIdx.find(E);
    if (It != ExprIdx.end())
      return It->second;
    switch (E->getKind()) {
    case sym::ExprKind::IntConst:
      break;
    case sym::ExprKind::SymRef:
      sym(static_cast<const sym::SymRefExpr *>(E)->getSymbol());
      break;
    case sym::ExprKind::ArrayRef: {
      auto *A = static_cast<const sym::ArrayRefExpr *>(E);
      sym(A->getArray());
      expr(A->getIndex());
      break;
    }
    case sym::ExprKind::Min:
    case sym::ExprKind::Max: {
      auto *M = static_cast<const sym::MinMaxExpr *>(E);
      expr(M->getLHS());
      expr(M->getRHS());
      break;
    }
    case sym::ExprKind::FloorDiv:
    case sym::ExprKind::Mod:
      expr(static_cast<const sym::DivModExpr *>(E)->getOperand());
      break;
    case sym::ExprKind::Mul:
      for (const sym::Expr *F :
           static_cast<const sym::MulExpr *>(E)->getFactors())
        expr(F);
      break;
    case sym::ExprKind::Add:
      for (const sym::Monomial &T :
           static_cast<const sym::AddExpr *>(E)->getTerms())
        expr(T.Prod);
      break;
    }
    uint32_t Idx = static_cast<uint32_t>(Exprs.size());
    Exprs.push_back(E);
    ExprIdx.emplace(E, Idx);
    return Idx;
  }

  uint32_t pred(const pdag::Pred *P) {
    auto It = PredIdx.find(P);
    if (It != PredIdx.end())
      return It->second;
    switch (P->getKind()) {
    case pdag::PredKind::True:
    case pdag::PredKind::False:
      break;
    case pdag::PredKind::Cmp:
      expr(static_cast<const pdag::CmpPred *>(P)->getExpr());
      break;
    case pdag::PredKind::Divides: {
      auto *D = static_cast<const pdag::DividesPred *>(P);
      expr(D->getDivisor());
      expr(D->getValue());
      break;
    }
    case pdag::PredKind::And:
    case pdag::PredKind::Or:
      for (const pdag::Pred *C :
           static_cast<const pdag::NaryPred *>(P)->getChildren())
        pred(C);
      break;
    case pdag::PredKind::LoopAll: {
      auto *L = static_cast<const pdag::LoopAllPred *>(P);
      sym(L->getVar());
      expr(L->getLo());
      expr(L->getHi());
      pred(L->getBody());
      break;
    }
    case pdag::PredKind::CallSite:
      pred(static_cast<const pdag::CallSitePred *>(P)->getBody());
      break;
    }
    uint32_t Idx = static_cast<uint32_t>(Preds.size());
    Preds.push_back(P);
    PredIdx.emplace(P, Idx);
    return Idx;
  }

  uint32_t usr(const usr::USR *S) {
    auto It = UsrIdx.find(S);
    if (It != UsrIdx.end())
      return It->second;
    switch (S->getKind()) {
    case usr::USRKind::Empty:
      break;
    case usr::USRKind::Leaf:
      for (const lmad::LMAD &M :
           static_cast<const usr::LeafUSR *>(S)->getLMADs()) {
        if (M.offset())
          expr(M.offset());
        for (const lmad::Dim &D : M.dims()) {
          expr(D.Stride);
          expr(D.Span);
        }
      }
      break;
    case usr::USRKind::Union:
      for (const usr::USR *C :
           static_cast<const usr::UnionUSR *>(S)->getChildren())
        usr(C);
      break;
    case usr::USRKind::Intersect:
    case usr::USRKind::Subtract: {
      auto *B = static_cast<const usr::BinaryUSR *>(S);
      usr(B->getLHS());
      usr(B->getRHS());
      break;
    }
    case usr::USRKind::Gate: {
      auto *G = static_cast<const usr::GateUSR *>(S);
      pred(G->getGate());
      usr(G->getChild());
      break;
    }
    case usr::USRKind::CallSite:
      usr(static_cast<const usr::CallSiteUSR *>(S)->getChild());
      break;
    case usr::USRKind::Recur: {
      auto *R = static_cast<const usr::RecurUSR *>(S);
      sym(R->getVar());
      expr(R->getLo());
      expr(R->getHi());
      usr(R->getBody());
      break;
    }
    }
    uint32_t Idx = static_cast<uint32_t>(Usrs.size());
    Usrs.push_back(S);
    UsrIdx.emplace(S, Idx);
    return Idx;
  }

  /// Re-sorts every table into ascending save-context node-ID order and
  /// rebuilds the index maps. IDs are creation-ordered and children are
  /// always created before parents, so ID order is a valid topological
  /// order — and it is the order the *load* context re-creates the nodes
  /// in. Matching relative creation order is what makes the ID-sorted
  /// canonical child order of n-ary nodes (and therefore the compiled
  /// bytecode) reproduce exactly in a deterministically rebuilt program,
  /// which the load-side digest check relies on.
  void finalize() {
    std::sort(Syms.begin(), Syms.end());
    SymIdx.clear();
    for (uint32_t I = 0; I < Syms.size(); ++I)
      SymIdx.emplace(Syms[I], I);
    std::sort(Exprs.begin(), Exprs.end(),
              [](const sym::Expr *A, const sym::Expr *B) {
                return A->getId() < B->getId();
              });
    ExprIdx.clear();
    for (uint32_t I = 0; I < Exprs.size(); ++I)
      ExprIdx.emplace(Exprs[I], I);
    std::sort(Preds.begin(), Preds.end(),
              [](const pdag::Pred *A, const pdag::Pred *B) {
                return A->getId() < B->getId();
              });
    PredIdx.clear();
    for (uint32_t I = 0; I < Preds.size(); ++I)
      PredIdx.emplace(Preds[I], I);
    std::sort(Usrs.begin(), Usrs.end(),
              [](const usr::USR *A, const usr::USR *B) {
                return A->getId() < B->getId();
              });
    UsrIdx.clear();
    for (uint32_t I = 0; I < Usrs.size(); ++I)
      UsrIdx.emplace(Usrs[I], I);
  }

  std::vector<uint8_t> emitSymbols() const {
    ByteWriter W;
    W.u32(static_cast<uint32_t>(Syms.size()));
    for (sym::SymbolId Id : Syms) {
      const sym::Symbol &S = Sym.symbolInfo(Id);
      W.str(S.Name);
      W.i32(S.DefLevel);
      W.u8(S.IsArray ? 1 : 0);
      W.u8(S.MonotoneArray ? 1 : 0);
    }
    return W.take();
  }

  std::vector<uint8_t> emitExprs() const {
    ByteWriter W;
    W.u32(static_cast<uint32_t>(Exprs.size()));
    for (const sym::Expr *E : Exprs) {
      W.u8(static_cast<uint8_t>(E->getKind()));
      switch (E->getKind()) {
      case sym::ExprKind::IntConst:
        W.i64(static_cast<const sym::IntConstExpr *>(E)->getValue());
        break;
      case sym::ExprKind::SymRef:
        W.u32(SymIdx.at(static_cast<const sym::SymRefExpr *>(E)->getSymbol()));
        break;
      case sym::ExprKind::ArrayRef: {
        auto *A = static_cast<const sym::ArrayRefExpr *>(E);
        W.u32(SymIdx.at(A->getArray()));
        W.u32(ExprIdx.at(A->getIndex()));
        break;
      }
      case sym::ExprKind::Min:
      case sym::ExprKind::Max: {
        auto *M = static_cast<const sym::MinMaxExpr *>(E);
        W.u32(ExprIdx.at(M->getLHS()));
        W.u32(ExprIdx.at(M->getRHS()));
        break;
      }
      case sym::ExprKind::FloorDiv:
      case sym::ExprKind::Mod: {
        auto *D = static_cast<const sym::DivModExpr *>(E);
        W.u32(ExprIdx.at(D->getOperand()));
        W.i64(D->getDivisor());
        break;
      }
      case sym::ExprKind::Mul: {
        auto *M = static_cast<const sym::MulExpr *>(E);
        W.u32(static_cast<uint32_t>(M->getFactors().size()));
        for (const sym::Expr *F : M->getFactors())
          W.u32(ExprIdx.at(F));
        break;
      }
      case sym::ExprKind::Add: {
        auto *A = static_cast<const sym::AddExpr *>(E);
        W.u32(static_cast<uint32_t>(A->getTerms().size()));
        for (const sym::Monomial &T : A->getTerms()) {
          W.u32(ExprIdx.at(T.Prod));
          W.i64(T.Coeff);
        }
        W.i64(A->getConstant());
        break;
      }
      }
    }
    return W.take();
  }

  std::vector<uint8_t> emitPreds() const {
    ByteWriter W;
    W.u32(static_cast<uint32_t>(Preds.size()));
    for (const pdag::Pred *P : Preds) {
      W.u8(static_cast<uint8_t>(P->getKind()));
      switch (P->getKind()) {
      case pdag::PredKind::True:
      case pdag::PredKind::False:
        break;
      case pdag::PredKind::Cmp: {
        auto *C = static_cast<const pdag::CmpPred *>(P);
        W.u8(static_cast<uint8_t>(C->getRel()));
        W.u32(ExprIdx.at(C->getExpr()));
        break;
      }
      case pdag::PredKind::Divides: {
        auto *D = static_cast<const pdag::DividesPred *>(P);
        W.u32(ExprIdx.at(D->getDivisor()));
        W.u32(ExprIdx.at(D->getValue()));
        W.u8(D->isNegated() ? 1 : 0);
        break;
      }
      case pdag::PredKind::And:
      case pdag::PredKind::Or: {
        auto *N = static_cast<const pdag::NaryPred *>(P);
        W.u32(static_cast<uint32_t>(N->getChildren().size()));
        for (const pdag::Pred *C : N->getChildren())
          W.u32(PredIdx.at(C));
        break;
      }
      case pdag::PredKind::LoopAll: {
        auto *L = static_cast<const pdag::LoopAllPred *>(P);
        W.u32(SymIdx.at(L->getVar()));
        W.u32(ExprIdx.at(L->getLo()));
        W.u32(ExprIdx.at(L->getHi()));
        W.u32(PredIdx.at(L->getBody()));
        break;
      }
      case pdag::PredKind::CallSite: {
        auto *C = static_cast<const pdag::CallSitePred *>(P);
        W.str(C->getCallee());
        W.u32(PredIdx.at(C->getBody()));
        break;
      }
      }
    }
    return W.take();
  }

  std::vector<uint8_t> emitUsrs() const {
    ByteWriter W;
    W.u32(static_cast<uint32_t>(Usrs.size()));
    for (const usr::USR *S : Usrs) {
      W.u8(static_cast<uint8_t>(S->getKind()));
      switch (S->getKind()) {
      case usr::USRKind::Empty:
        break;
      case usr::USRKind::Leaf: {
        auto *L = static_cast<const usr::LeafUSR *>(S);
        W.u32(static_cast<uint32_t>(L->getLMADs().size()));
        for (const lmad::LMAD &M : L->getLMADs()) {
          W.u32(M.offset() ? ExprIdx.at(M.offset()) : NullRef);
          W.u32(static_cast<uint32_t>(M.dims().size()));
          for (const lmad::Dim &D : M.dims()) {
            W.u32(ExprIdx.at(D.Stride));
            W.u32(ExprIdx.at(D.Span));
          }
        }
        break;
      }
      case usr::USRKind::Union: {
        auto *U = static_cast<const usr::UnionUSR *>(S);
        W.u32(static_cast<uint32_t>(U->getChildren().size()));
        for (const usr::USR *C : U->getChildren())
          W.u32(UsrIdx.at(C));
        break;
      }
      case usr::USRKind::Intersect:
      case usr::USRKind::Subtract: {
        auto *B = static_cast<const usr::BinaryUSR *>(S);
        W.u32(UsrIdx.at(B->getLHS()));
        W.u32(UsrIdx.at(B->getRHS()));
        break;
      }
      case usr::USRKind::Gate: {
        auto *G = static_cast<const usr::GateUSR *>(S);
        W.u32(PredIdx.at(G->getGate()));
        W.u32(UsrIdx.at(G->getChild()));
        break;
      }
      case usr::USRKind::CallSite: {
        auto *C = static_cast<const usr::CallSiteUSR *>(S);
        W.str(C->getCallee());
        W.u32(UsrIdx.at(C->getChild()));
        break;
      }
      case usr::USRKind::Recur: {
        auto *R = static_cast<const usr::RecurUSR *>(S);
        W.u32(SymIdx.at(R->getVar()));
        W.u32(ExprIdx.at(R->getLo()));
        W.u32(ExprIdx.at(R->getHi()));
        W.u32(UsrIdx.at(R->getBody()));
        break;
      }
      }
    }
    return W.take();
  }

  std::unordered_map<sym::SymbolId, uint32_t> SymIdx;
  std::unordered_map<const sym::Expr *, uint32_t> ExprIdx;
  std::unordered_map<const pdag::Pred *, uint32_t> PredIdx;
  std::unordered_map<const usr::USR *, uint32_t> UsrIdx;

private:
  const sym::Context &Sym;
  std::vector<sym::SymbolId> Syms;
  std::vector<const sym::Expr *> Exprs;
  std::vector<const pdag::Pred *> Preds;
  std::vector<const usr::USR *> Usrs;
};

void writeCascade(ByteWriter &W, const analysis::TestCascade &C,
                  SaveTables &T) {
  W.u8(C.StaticallyTrue ? 1 : 0);
  W.u32(static_cast<uint32_t>(C.Stages.size()));
  for (const pdag::CascadeStage &St : C.Stages) {
    W.u32(T.pred(St.P));
    W.i32(St.Depth);
  }
}

void writeOrder(ByteWriter &W, const rt::CompiledCascade &CC,
                const analysis::TestCascade &TC) {
  W.u8(CC.StaticallyTrue ? 1 : 0);
  W.u32(static_cast<uint32_t>(CC.Stages.size()));
  for (const rt::CompiledCascade::Stage &St : CC.Stages) {
    uint32_t Idx = static_cast<uint32_t>(St.Source - TC.Stages.data());
    W.u32(Idx);
    W.u8(St.Code != nullptr ? 1 : 0);
  }
}

/// The code fields of a PCOD/UCOD record: the length and the digest of
/// the encoding in \p Enc.
void writeCode(ByteWriter &W, const ByteWriter &Enc) {
  const Digest D = digest(Enc.data().data(), Enc.size());
  W.u32(static_cast<uint32_t>(Enc.size()));
  W.u64(D.A);
  W.u64(D.B);
}

} // namespace

//===----------------------------------------------------------------------===//
// save
//===----------------------------------------------------------------------===//

size_t save(std::ostream &Out, const ir::Program &Prog,
            rt::PredCompileCache &Preds, rt::USRCompileCache &Usrs,
            const std::vector<SavedLoop> &Loops, CodegenKey CG) {
  const sym::Context &Sym = Prog.symCtx();
  SaveTables T(Sym);
  StructHasher HashA(Sym, PrimarySeed), HashB(Sym, VerifySeed);
  ByteWriter Enc; // One encoding buffer for every record.

  // Verify-record worklists (insertion-ordered, deduplicated).
  std::vector<std::pair<const pdag::Pred *, const pdag::CompiledPred *>>
      PredRecs;
  std::unordered_set<const pdag::Pred *> PredSeen;
  std::vector<std::pair<const usr::USR *, const usr::CompiledUSR *>> UsrRecs;
  std::unordered_set<const usr::USR *> UsrSeen;

  auto addPredRec = [&](const pdag::Pred *P) {
    if (!P || !PredSeen.insert(P).second)
      return;
    T.pred(P);
    PredRecs.emplace_back(P, Preds.get(P));
  };
  auto addUsrRec = [&](const usr::USR *S) {
    if (!S || !UsrSeen.insert(S).second)
      return;
    T.usr(S);
    const usr::CompiledUSR *CU = Usrs.get(S);
    UsrRecs.emplace_back(S, CU);
    if (CU)
      for (const usr::CompiledUSRGate &G : PlanCodec::gates(*CU))
        if (G.Pred)
          addPredRec(G.Pred->source());
  };

  std::vector<std::vector<uint8_t>> LoopPayloads;
  std::vector<uint8_t> PCodBytes;
  std::vector<uint8_t> UCodBytes;

  // The payloads are built twice over identical traversals. Pass 1 exists
  // only to register every node reachable from the plans in the tables
  // (its bytes are discarded); finalize() then re-sorts the tables into
  // save-context node-ID order so a fresh load context re-creates the
  // nodes in their original relative creation order — the property the
  // bytecode digest check on load depends on (n-ary canonical child order
  // sorts by context-local node IDs). Pass 2 re-encodes with the stable
  // indices: every lookup hits and no node is newly inserted, so the
  // sorted order stays valid.
  auto buildPayloads = [&]() {
    PredRecs.clear();
    PredSeen.clear();
    UsrRecs.clear();
    UsrSeen.clear();
    LoopPayloads.clear();

    for (const SavedLoop &SL : Loops) {
      if (!SL.Plan || !SL.Plan->Loop || !SL.FStats || !SL.AOpts ||
          !SL.Cascades)
        continue;
      // Probe-analyzed plans depend on sample bindings that are not part of
      // the stream: never serialize them.
      if (SL.AOpts->Probe)
        continue;
      const analysis::LoopPlan &LP = *SL.Plan;

      // Resolve every CivJoin anchor to its pre-order IF index up front; a
      // join outside the loop (cannot happen for analyzer output) skips the
      // loop rather than writing an unresolvable record.
      std::vector<const ir::IfStmt *> Ifs = collectIfStmts(*LP.Loop);
      std::vector<uint32_t> JoinIdx;
      bool JoinsOk = true;
      for (const summary::CivJoin &J : LP.Civ.Joins) {
        uint32_t Idx = NullRef;
        for (size_t I = 0; I < Ifs.size(); ++I)
          if (Ifs[I] == J.At) {
            Idx = static_cast<uint32_t>(I);
            break;
          }
        if (Idx == NullRef) {
          JoinsOk = false;
          break;
        }
        JoinIdx.push_back(Idx);
      }
      if (!JoinsOk)
        continue;

      ByteWriter W;
      W.str(LP.Loop->getLabel());
      W.u64(planKey(Prog, *LP.Loop, *SL.AOpts, CG, PrimarySeed));
      W.u64(planKey(Prog, *LP.Loop, *SL.AOpts, CG, VerifySeed));
      W.u8(static_cast<uint8_t>(LP.Class));
      W.u32(static_cast<uint32_t>(LP.Techniques.size()));
      for (analysis::Technique Tq : LP.Techniques)
        W.u8(static_cast<uint8_t>(Tq));
      W.u8(LP.Hoistable ? 1 : 0);
      W.u8(LP.RuntimeTestsEnabled ? 1 : 0);
      W.i32(LP.ReportFlowDepth);
      W.i32(LP.ReportOutDepth);
      W.u8(LP.ReportNeedsFlow ? 1 : 0);
      W.u8(LP.ReportNeedsOut ? 1 : 0);

      const factor::FactorStats &FS = *SL.FStats;
      for (uint64_t V :
           {FS.GateRule, FS.UnionRule, FS.SubtractRule, FS.IntersectRule,
            FS.RecurRule, FS.MonotonicityRule, FS.InvariantOverRule,
            FS.LmadDisjointRule, FS.LmadIncludedRule, FS.FillsArrayRule,
            FS.FourierMotzkinUses, FS.BudgetBailouts})
        W.u64(V);

      W.u32(static_cast<uint32_t>(LP.Civ.Civs.size()));
      for (const summary::CivDesc &D : LP.Civ.Civs) {
        W.u32(T.sym(D.Civ));
        W.u32(T.sym(D.EntryArr));
        W.u8(D.Monotone ? 1 : 0);
      }
      W.u32(static_cast<uint32_t>(LP.Civ.Joins.size()));
      for (size_t I = 0; I < LP.Civ.Joins.size(); ++I) {
        W.u32(JoinIdx[I]);
        W.u32(T.sym(LP.Civ.Joins[I].Civ));
        W.u32(T.sym(LP.Civ.Joins[I].JoinArr));
      }
      W.u32(static_cast<uint32_t>(LP.Civ.Envelopes.size()));
      for (const summary::CivEnvelope &E : LP.Civ.Envelopes) {
        W.u32(T.sym(E.Civ));
        W.u32(T.sym(E.Array));
        W.i64(E.MinRel);
      }

      W.u32(static_cast<uint32_t>(LP.Arrays.size()));
      for (size_t AI = 0; AI < LP.Arrays.size(); ++AI) {
        const analysis::ArrayPlan &AP = LP.Arrays[AI];
        W.u32(T.sym(AP.Array));
        W.u8(AP.ReadOnly ? 1 : 0);
        W.u8(AP.LiveOut ? 1 : 0);
        W.u8(AP.HasReduction ? 1 : 0);
        W.u8(AP.RRedDeployed ? 1 : 0);
        W.u8(AP.NeedsBoundsComp ? 1 : 0);

        const analysis::TestCascade *Cs[6] = {&AP.Flow, &AP.Output, &AP.Priv,
                                              &AP.Slv, &AP.RRed,
                                              &AP.ExtRedFlow};
        for (const analysis::TestCascade *C : Cs) {
          writeCascade(W, *C, T);
          for (const pdag::CascadeStage &St : C->Stages)
            addPredRec(St.P);
        }

        const usr::USR *Us[4] = {AP.FlowUSR, AP.OutputUSR, AP.ExtRedUSR,
                                 AP.BoundsUSR};
        for (const usr::USR *U : Us)
          W.u32(U ? T.usr(U) : NullRef);
        // Exact-test USRs get compiled verify records; BoundsUSR is
        // evaluated through the interpreter, so structure alone suffices.
        addUsrRec(AP.FlowUSR);
        addUsrRec(AP.OutputUSR);
        addUsrRec(AP.ExtRedUSR);

        const rt::PlanCascades::ArrayCascades &AC = SL.Cascades->Arrays[AI];
        const rt::CompiledCascade *CCs[6] = {&AC.Flow, &AC.Output, &AC.Priv,
                                             &AC.Slv, &AC.RRed,
                                             &AC.ExtRedFlow};
        for (int K = 0; K < 6; ++K)
          writeOrder(W, *CCs[K], *Cs[K]);
      }
      LoopPayloads.push_back(W.take());
    }

    // Bytecode records: structural hashes, then the length and digest of
    // the compiled node's encoding. Built before the tables are emitted:
    // slot symbols and gate predicates register here.
    auto SymMapFn = [&T](sym::SymbolId Id) { return T.sym(Id); };
    auto PredMapFn = [&T](const pdag::Pred *P) { return T.pred(P); };

    ByteWriter PCod;
    PCod.u32(static_cast<uint32_t>(PredRecs.size()));
    for (const auto &[P, CP] : PredRecs) {
      PCod.u32(T.pred(P));
      PCod.u64(HashA.pred(P));
      PCod.u64(HashB.pred(P));
      PCod.u8(CP ? 1 : 0);
      if (CP) {
        Enc.clear();
        PlanCodec::encodePred(*CP, SymMapFn, Enc);
        writeCode(PCod, Enc);
      }
    }

    ByteWriter UCod;
    UCod.u32(static_cast<uint32_t>(UsrRecs.size()));
    for (const auto &[S, CU] : UsrRecs) {
      UCod.u32(T.usr(S));
      UCod.u64(HashA.usr(S));
      UCod.u64(HashB.usr(S));
      UCod.u8(CU ? 1 : 0);
      if (CU) {
        Enc.clear();
        PlanCodec::encodeUSR(*CU, SymMapFn, PredMapFn, Enc);
        writeCode(UCod, Enc);
      }
    }

    PCodBytes = PCod.take();
    UCodBytes = UCod.take();
  };

  buildPayloads();
  T.finalize();
  buildPayloads();

  wire::writePreamble(Out,
                      static_cast<uint32_t>(6 + LoopPayloads.size()));
  wire::writeChunk(Out, ChunkSymbols, T.emitSymbols());
  wire::writeChunk(Out, ChunkExprs, T.emitExprs());
  wire::writeChunk(Out, ChunkPreds, T.emitPreds());
  wire::writeChunk(Out, ChunkUsrs, T.emitUsrs());
  wire::writeChunk(Out, ChunkPredCode, PCodBytes);
  wire::writeChunk(Out, ChunkUsrCode, UCodBytes);
  for (const std::vector<uint8_t> &P : LoopPayloads)
    wire::writeChunk(Out, ChunkLoop, P);
  return LoopPayloads.size();
}

//===----------------------------------------------------------------------===//
// load
//===----------------------------------------------------------------------===//

namespace {

/// Decoded file tables mapped onto the live contexts.
struct FileTables {
  std::vector<sym::SymbolId> Syms;
  std::vector<const sym::Expr *> Exprs;
  std::vector<const pdag::Pred *> Preds;
  std::vector<const usr::USR *> Usrs;
};

analysis::TestCascade readCascade(ByteReader &R, const FileTables &T) {
  analysis::TestCascade C;
  C.StaticallyTrue = R.u8() != 0;
  uint32_t N = R.count(8);
  C.Stages.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    pdag::CascadeStage St;
    St.P = T.Preds[R.index(static_cast<uint32_t>(T.Preds.size()), "pred")];
    St.Depth = R.i32();
    C.Stages.push_back(St);
  }
  return C;
}

struct OrderRec {
  bool StaticallyTrue = false;
  std::vector<std::pair<uint32_t, bool>> Stages; // (stage index, has code)
};

OrderRec readOrder(ByteReader &R, uint32_t NumStages) {
  OrderRec O;
  O.StaticallyTrue = R.u8() != 0;
  uint32_t N = R.count(5);
  O.Stages.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Idx = R.index(NumStages, "cascade stage");
    O.Stages.emplace_back(Idx, R.u8() != 0);
  }
  return O;
}

/// The code fields of a PCOD/UCOD record (writeCode).
struct CodeRec {
  uint32_t Len = 0;
  Digest D;
};

CodeRec readCode(ByteReader &R) {
  CodeRec C;
  C.Len = R.u32();
  C.D.A = R.u64();
  C.D.B = R.u64();
  return C;
}

/// Why the fresh encoding in \p Enc disagrees with \p C, or null.
const char *codeMismatch(const CodeRec &C, const ByteWriter &Enc) {
  if (Enc.size() != C.Len)
    return "encoded length differs from fresh compile";
  if (digest(Enc.data().data(), Enc.size()) != C.D)
    return "bytecode digest differs from fresh compile";
  return nullptr;
}

bool orderMatches(const OrderRec &O, const rt::CompiledCascade &CC,
                  const analysis::TestCascade &TC) {
  if (O.StaticallyTrue != CC.StaticallyTrue ||
      O.Stages.size() != CC.Stages.size())
    return false;
  for (size_t I = 0; I < O.Stages.size(); ++I) {
    const rt::CompiledCascade::Stage &St = CC.Stages[I];
    if (St.Source != &TC.Stages[O.Stages[I].first])
      return false;
    if ((St.Code != nullptr) != O.Stages[I].second)
      return false;
  }
  return true;
}

} // namespace

LoadResult load(const std::vector<Chunk> &Chunks, const LabelSet &Wanted,
                usr::USRContext &UC, rt::PredCompileCache &Preds,
                rt::USRCompileCache &Usrs, std::vector<StagedLoop> &Out) {
  LoadResult Res;

  const uint32_t Expect[6] = {ChunkSymbols, ChunkExprs,    ChunkPreds,
                              ChunkUsrs,    ChunkPredCode, ChunkUsrCode};
  if (Chunks.size() < 6)
    wire::corrupt("expected at least 6 chunks, found " +
                  std::to_string(Chunks.size()));
  for (int I = 0; I < 6; ++I)
    if (Chunks[I].Tag != Expect[I])
      wire::corrupt("unexpected chunk tag at position " + std::to_string(I));
  for (size_t I = 6; I < Chunks.size(); ++I)
    if (Chunks[I].Tag != ChunkLoop)
      wire::corrupt("unexpected chunk tag at position " + std::to_string(I));
  const size_t LoopCount = Chunks.size() - 6;

  // Peek each LOOP record's label (its first field) before touching any
  // context: a stream saved from another program stops here.
  std::vector<bool> Want(LoopCount);
  size_t NumWanted = 0;
  for (size_t LI = 0; LI < LoopCount; ++LI) {
    const Chunk &C = Chunks[6 + LI];
    ByteReader R(C.Payload.data(), C.Payload.size(), "LOOP");
    Want[LI] = Wanted.count(R.str()) != 0;
    NumWanted += Want[LI];
  }
  Res.Skipped = LoopCount - NumWanted;
  if (NumWanted == 0) {
    if (LoopCount != 0)
      Res.Diags.emplace_back(
          support::Diag::Code::PlanKeyMismatch,
          "none of the stream's " + std::to_string(LoopCount) +
              " loop plan(s) names a loop of this program; nothing "
              "decoded");
    return Res;
  }

  sym::Context &Sym = UC.symCtx();
  pdag::PredContext &PC = UC.predCtx();
  FileTables T;

  // --- SYMB: resolve or create; attribute drift rejects the whole file
  // semantically (the tables are shared by every loop record).
  {
    ByteReader R(Chunks[0].Payload.data(), Chunks[0].Payload.size(), "SYMB");
    uint32_t N = R.count(10);
    std::unordered_set<std::string> Names;
    for (uint32_t I = 0; I < N; ++I) {
      std::string Name = R.str();
      int32_t DefLevel = R.i32();
      bool IsArray = R.u8() != 0;
      bool Monotone = R.u8() != 0;
      if (!Names.insert(Name).second)
        wire::corrupt("SYMB: duplicate symbol name '" + Name + "'");
      if (Monotone && !IsArray)
        wire::corrupt("SYMB: monotone flag on scalar '" + Name + "'");
      sym::SymbolId Id = 0;
      if (Sym.findSymbol(Name, Id)) {
        const sym::Symbol &Info = Sym.symbolInfo(Id);
        if (Info.DefLevel != DefLevel || Info.IsArray != IsArray ||
            Info.MonotoneArray != Monotone) {
          Res.Rejected = NumWanted;
          Res.Diags.emplace_back(
              support::Diag::Code::PlanKeyMismatch,
              "symbol '" + Name +
                  "' exists with different attributes in the live "
                  "context; no plans adopted");
          return Res;
        }
      } else {
        Id = Sym.symbol(Name, DefLevel, IsArray);
        if (Monotone)
          Sym.setMonotoneArray(Id);
      }
      T.Syms.push_back(Id);
    }
    R.finish();
  }
  const uint32_t NSyms = static_cast<uint32_t>(T.Syms.size());

  // --- EXPR: rebuild bottom-up through the canonicalizing constructors.
  {
    ByteReader R(Chunks[1].Payload.data(), Chunks[1].Payload.size(), "EXPR");
    uint32_t N = R.count(2);
    T.Exprs.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      uint8_t Kind = R.u8();
      const sym::Expr *E = nullptr;
      switch (static_cast<sym::ExprKind>(Kind)) {
      case sym::ExprKind::IntConst:
        E = Sym.intConst(R.i64());
        break;
      case sym::ExprKind::SymRef:
        E = Sym.symRef(T.Syms[R.index(NSyms, "symbol")]);
        break;
      case sym::ExprKind::ArrayRef: {
        sym::SymbolId Arr = T.Syms[R.index(NSyms, "symbol")];
        const sym::Expr *Idx = T.Exprs[R.index(I, "expr")];
        if (!Sym.symbolInfo(Arr).IsArray)
          wire::corrupt("EXPR: ArrayRef through a scalar symbol");
        E = Sym.arrayRef(Arr, Idx);
        break;
      }
      case sym::ExprKind::Min:
      case sym::ExprKind::Max: {
        const sym::Expr *A = T.Exprs[R.index(I, "expr")];
        const sym::Expr *B = T.Exprs[R.index(I, "expr")];
        E = Kind == static_cast<uint8_t>(sym::ExprKind::Min) ? Sym.min(A, B)
                                                             : Sym.max(A, B);
        break;
      }
      case sym::ExprKind::FloorDiv:
      case sym::ExprKind::Mod: {
        const sym::Expr *Op = T.Exprs[R.index(I, "expr")];
        int64_t D = R.i64();
        if (D <= 0)
          wire::corrupt("EXPR: non-positive divisor");
        E = Kind == static_cast<uint8_t>(sym::ExprKind::FloorDiv)
                ? Sym.floorDiv(Op, D)
                : Sym.mod(Op, D);
        break;
      }
      case sym::ExprKind::Mul: {
        uint32_t NF = R.count(4);
        if (NF < 2)
          wire::corrupt("EXPR: product with fewer than two factors");
        E = T.Exprs[R.index(I, "expr")];
        for (uint32_t K = 1; K < NF; ++K)
          E = Sym.mul(E, T.Exprs[R.index(I, "expr")]);
        break;
      }
      case sym::ExprKind::Add: {
        uint32_t NT = R.count(12);
        sym::LinearForm LF;
        LF.Terms.reserve(NT);
        for (uint32_t K = 0; K < NT; ++K) {
          sym::Monomial M;
          M.Prod = T.Exprs[R.index(I, "expr")];
          M.Coeff = R.i64();
          LF.Terms.push_back(M);
        }
        LF.Constant = R.i64();
        E = Sym.fromLinear(std::move(LF));
        break;
      }
      default:
        wire::corrupt("EXPR: unknown node kind " + std::to_string(Kind));
      }
      T.Exprs.push_back(E);
    }
    R.finish();
  }
  const uint32_t NExprs = static_cast<uint32_t>(T.Exprs.size());

  // --- PRED
  {
    ByteReader R(Chunks[2].Payload.data(), Chunks[2].Payload.size(), "PRED");
    uint32_t N = R.count(1);
    T.Preds.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      uint8_t Kind = R.u8();
      const pdag::Pred *P = nullptr;
      switch (static_cast<pdag::PredKind>(Kind)) {
      case pdag::PredKind::True:
        P = PC.getTrue();
        break;
      case pdag::PredKind::False:
        P = PC.getFalse();
        break;
      case pdag::PredKind::Cmp: {
        uint8_t Rel = R.u8();
        const sym::Expr *E = T.Exprs[R.index(NExprs, "expr")];
        switch (Rel) {
        case static_cast<uint8_t>(pdag::CmpRel::GE0):
          P = PC.ge0(E);
          break;
        case static_cast<uint8_t>(pdag::CmpRel::EQ0):
          P = PC.eq0(E);
          break;
        case static_cast<uint8_t>(pdag::CmpRel::NE0):
          P = PC.ne0(E);
          break;
        default:
          wire::corrupt("PRED: unknown comparison relation");
        }
        break;
      }
      case pdag::PredKind::Divides: {
        const sym::Expr *D = T.Exprs[R.index(NExprs, "expr")];
        const sym::Expr *V = T.Exprs[R.index(NExprs, "expr")];
        P = PC.divides(D, V, R.u8() != 0);
        break;
      }
      case pdag::PredKind::And:
      case pdag::PredKind::Or: {
        uint32_t NC = R.count(4);
        std::vector<const pdag::Pred *> Cs;
        Cs.reserve(NC);
        for (uint32_t K = 0; K < NC; ++K)
          Cs.push_back(T.Preds[R.index(I, "pred")]);
        P = Kind == static_cast<uint8_t>(pdag::PredKind::And)
                ? PC.andN(std::move(Cs))
                : PC.orN(std::move(Cs));
        break;
      }
      case pdag::PredKind::LoopAll: {
        sym::SymbolId Var = T.Syms[R.index(NSyms, "symbol")];
        const sym::Expr *Lo = T.Exprs[R.index(NExprs, "expr")];
        const sym::Expr *Hi = T.Exprs[R.index(NExprs, "expr")];
        const pdag::Pred *Body = T.Preds[R.index(I, "pred")];
        P = PC.loopAll(Var, Lo, Hi, Body);
        break;
      }
      case pdag::PredKind::CallSite: {
        std::string Callee = R.str();
        P = PC.callSite(Callee, T.Preds[R.index(I, "pred")]);
        break;
      }
      default:
        wire::corrupt("PRED: unknown node kind " + std::to_string(Kind));
      }
      T.Preds.push_back(P);
    }
    R.finish();
  }
  const uint32_t NPreds = static_cast<uint32_t>(T.Preds.size());

  // --- USRT
  {
    ByteReader R(Chunks[3].Payload.data(), Chunks[3].Payload.size(), "USRT");
    uint32_t N = R.count(1);
    T.Usrs.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      uint8_t Kind = R.u8();
      const usr::USR *S = nullptr;
      switch (static_cast<usr::USRKind>(Kind)) {
      case usr::USRKind::Empty:
        S = UC.empty();
        break;
      case usr::USRKind::Leaf: {
        uint32_t NL = R.count(8);
        lmad::LMADSet Set;
        Set.reserve(NL);
        for (uint32_t K = 0; K < NL; ++K) {
          uint32_t OffIdx = R.u32();
          if (OffIdx != NullRef && OffIdx >= NExprs)
            wire::corrupt("USRT: out-of-range offset expr index");
          const sym::Expr *Off = OffIdx == NullRef ? nullptr : T.Exprs[OffIdx];
          uint32_t ND = R.count(8);
          std::vector<lmad::Dim> Ds;
          Ds.reserve(ND);
          for (uint32_t J = 0; J < ND; ++J) {
            lmad::Dim D;
            D.Stride = T.Exprs[R.index(NExprs, "expr")];
            D.Span = T.Exprs[R.index(NExprs, "expr")];
            Ds.push_back(D);
          }
          Set.emplace_back(std::move(Ds), Off);
        }
        S = UC.leaf(std::move(Set));
        break;
      }
      case usr::USRKind::Union: {
        uint32_t NC = R.count(4);
        std::vector<const usr::USR *> Cs;
        Cs.reserve(NC);
        for (uint32_t K = 0; K < NC; ++K)
          Cs.push_back(T.Usrs[R.index(I, "usr")]);
        S = UC.unionN(std::move(Cs));
        break;
      }
      case usr::USRKind::Intersect:
      case usr::USRKind::Subtract: {
        const usr::USR *L = T.Usrs[R.index(I, "usr")];
        const usr::USR *Rh = T.Usrs[R.index(I, "usr")];
        S = Kind == static_cast<uint8_t>(usr::USRKind::Intersect)
                ? UC.intersect(L, Rh)
                : UC.subtract(L, Rh);
        break;
      }
      case usr::USRKind::Gate: {
        const pdag::Pred *G = T.Preds[R.index(NPreds, "pred")];
        S = UC.gate(G, T.Usrs[R.index(I, "usr")]);
        break;
      }
      case usr::USRKind::CallSite: {
        std::string Callee = R.str();
        S = UC.callSite(Callee, T.Usrs[R.index(I, "usr")]);
        break;
      }
      case usr::USRKind::Recur: {
        sym::SymbolId Var = T.Syms[R.index(NSyms, "symbol")];
        const sym::Expr *Lo = T.Exprs[R.index(NExprs, "expr")];
        const sym::Expr *Hi = T.Exprs[R.index(NExprs, "expr")];
        S = UC.recur(Var, Lo, Hi, T.Usrs[R.index(I, "usr")]);
        break;
      }
      default:
        wire::corrupt("USRT: unknown node kind " + std::to_string(Kind));
      }
      T.Usrs.push_back(S);
    }
    R.finish();
  }
  const uint32_t NUsrs = static_cast<uint32_t>(T.Usrs.size());

  // Live-node -> file-index maps for re-encoding fresh compiles. First
  // mapping wins; a redundant record diverges at the digest check and the
  // affected loop falls back (sound).
  std::unordered_map<sym::SymbolId, uint32_t> SymToFile;
  for (uint32_t I = 0; I < NSyms; ++I)
    SymToFile.emplace(T.Syms[I], I);
  std::unordered_map<const pdag::Pred *, uint32_t> PredToFile;
  for (uint32_t I = 0; I < NPreds; ++I)
    PredToFile.emplace(T.Preds[I], I);
  auto SymMapFn = [&SymToFile](sym::SymbolId Id) {
    auto It = SymToFile.find(Id);
    return It == SymToFile.end() ? NullRef : It->second;
  };
  auto PredMapFn = [&PredToFile](const pdag::Pred *P) {
    auto It = PredToFile.find(P);
    return It == PredToFile.end() ? NullRef : It->second;
  };

  // --- PCOD: compile fresh through the cache (the warm start), verify
  // the structural hashes and the length and digest of the fresh
  // encoding. Divergent nodes taint every loop that references them.
  StructHasher HashA(Sym, PrimarySeed), HashB(Sym, VerifySeed);
  ByteWriter Enc; // One encoding buffer for every record.
  std::unordered_set<const pdag::Pred *> BadPreds;
  {
    ByteReader R(Chunks[4].Payload.data(), Chunks[4].Payload.size(), "PCOD");
    uint32_t N = R.count(21);
    for (uint32_t I = 0; I < N; ++I) {
      const pdag::Pred *P = T.Preds[R.index(NPreds, "pred")];
      uint64_t HA = R.u64();
      uint64_t HB = R.u64();
      bool HasCode = R.u8() != 0;
      CodeRec Code;
      if (HasCode)
        Code = readCode(R);
      const char *Cause = nullptr;
      if (HashA.pred(P) != HA || HashB.pred(P) != HB) {
        Cause = "structural hash mismatch";
      } else {
        const pdag::CompiledPred *CP = Preds.get(P);
        if ((CP != nullptr) != HasCode) {
          Cause = "compilability disagrees";
        } else if (CP) {
          Enc.clear();
          PlanCodec::encodePred(*CP, SymMapFn, Enc);
          Cause = codeMismatch(Code, Enc);
        }
      }
      if (Cause) {
        BadPreds.insert(P);
        Res.Diags.emplace_back(support::Diag::Code::PlanKeyMismatch,
                               "PCOD record " + std::to_string(I) + ": " +
                                   Cause);
      }
    }
    R.finish();
  }

  // --- UCOD
  std::unordered_set<const usr::USR *> BadUsrs;
  {
    ByteReader R(Chunks[5].Payload.data(), Chunks[5].Payload.size(), "UCOD");
    uint32_t N = R.count(21);
    for (uint32_t I = 0; I < N; ++I) {
      const usr::USR *S = T.Usrs[R.index(NUsrs, "usr")];
      uint64_t HA = R.u64();
      uint64_t HB = R.u64();
      bool HasCode = R.u8() != 0;
      CodeRec Code;
      if (HasCode)
        Code = readCode(R);
      const char *Cause = nullptr;
      if (HashA.usr(S) != HA || HashB.usr(S) != HB) {
        Cause = "structural hash mismatch";
      } else {
        const usr::CompiledUSR *CU = Usrs.get(S);
        if ((CU != nullptr) != HasCode) {
          Cause = "compilability disagrees";
        } else if (CU) {
          Enc.clear();
          PlanCodec::encodeUSR(*CU, SymMapFn, PredMapFn, Enc);
          Cause = codeMismatch(Code, Enc);
        }
      }
      if (Cause) {
        BadUsrs.insert(S);
        Res.Diags.emplace_back(support::Diag::Code::PlanKeyMismatch,
                               "UCOD record " + std::to_string(I) + ": " +
                                   Cause);
      }
    }
    R.finish();
  }

  // --- LOOP chunks
  for (size_t CI = 6; CI < Chunks.size(); ++CI) {
    if (!Want[CI - 6])
      continue;
    ByteReader R(Chunks[CI].Payload.data(), Chunks[CI].Payload.size(),
                 "LOOP");
    StagedLoop SL;
    SL.Label = R.str();
    SL.KeyA = R.u64();
    SL.KeyB = R.u64();
    analysis::LoopPlan &LP = SL.Plan;

    uint8_t Class = R.u8();
    if (Class > static_cast<uint8_t>(analysis::LoopClass::TLS))
      wire::corrupt("LOOP: unknown loop class");
    LP.Class = static_cast<analysis::LoopClass>(Class);
    uint32_t NT = R.count(1);
    for (uint32_t I = 0; I < NT; ++I) {
      uint8_t Tq = R.u8();
      if (Tq > static_cast<uint8_t>(analysis::Technique::UMEG))
        wire::corrupt("LOOP: unknown technique");
      LP.Techniques.insert(static_cast<analysis::Technique>(Tq));
    }
    LP.Hoistable = R.u8() != 0;
    LP.RuntimeTestsEnabled = R.u8() != 0;
    LP.ReportFlowDepth = R.i32();
    LP.ReportOutDepth = R.i32();
    LP.ReportNeedsFlow = R.u8() != 0;
    LP.ReportNeedsOut = R.u8() != 0;

    factor::FactorStats &FS = SL.FStats;
    for (uint64_t *V :
         {&FS.GateRule, &FS.UnionRule, &FS.SubtractRule, &FS.IntersectRule,
          &FS.RecurRule, &FS.MonotonicityRule, &FS.InvariantOverRule,
          &FS.LmadDisjointRule, &FS.LmadIncludedRule, &FS.FillsArrayRule,
          &FS.FourierMotzkinUses, &FS.BudgetBailouts})
      *V = R.u64();

    uint32_t NCivs = R.count(9);
    for (uint32_t I = 0; I < NCivs; ++I) {
      summary::CivDesc D;
      D.Civ = T.Syms[R.index(NSyms, "symbol")];
      D.EntryArr = T.Syms[R.index(NSyms, "symbol")];
      D.Monotone = R.u8() != 0;
      LP.Civ.Civs.push_back(D);
    }
    uint32_t NJoins = R.count(12);
    for (uint32_t I = 0; I < NJoins; ++I) {
      SL.JoinIfIndex.push_back(R.u32());
      summary::CivJoin J;
      J.At = nullptr; // Resolved at adoption against the live loop.
      J.Civ = T.Syms[R.index(NSyms, "symbol")];
      J.JoinArr = T.Syms[R.index(NSyms, "symbol")];
      LP.Civ.Joins.push_back(J);
    }
    uint32_t NEnv = R.count(16);
    for (uint32_t I = 0; I < NEnv; ++I) {
      summary::CivEnvelope E;
      E.Civ = T.Syms[R.index(NSyms, "symbol")];
      E.Array = T.Syms[R.index(NSyms, "symbol")];
      E.MinRel = R.i64();
      LP.Civ.Envelopes.push_back(E);
    }

    bool Tainted = false;
    uint32_t NArr = R.count(40);
    std::vector<std::array<OrderRec, 6>> Orders;
    LP.Arrays.reserve(NArr);
    Orders.reserve(NArr);
    for (uint32_t AI = 0; AI < NArr; ++AI) {
      analysis::ArrayPlan AP;
      AP.Array = T.Syms[R.index(NSyms, "symbol")];
      AP.ReadOnly = R.u8() != 0;
      AP.LiveOut = R.u8() != 0;
      AP.HasReduction = R.u8() != 0;
      AP.RRedDeployed = R.u8() != 0;
      AP.NeedsBoundsComp = R.u8() != 0;

      analysis::TestCascade *Cs[6] = {&AP.Flow, &AP.Output, &AP.Priv,
                                      &AP.Slv, &AP.RRed, &AP.ExtRedFlow};
      for (analysis::TestCascade *C : Cs) {
        *C = readCascade(R, T);
        for (const pdag::CascadeStage &St : C->Stages)
          if (BadPreds.count(St.P))
            Tainted = true;
      }

      const usr::USR **Us[4] = {&AP.FlowUSR, &AP.OutputUSR, &AP.ExtRedUSR,
                                &AP.BoundsUSR};
      for (const usr::USR **U : Us) {
        uint32_t Idx = R.u32();
        if (Idx == NullRef) {
          *U = nullptr;
          continue;
        }
        if (Idx >= NUsrs)
          wire::corrupt("LOOP: out-of-range usr index");
        *U = T.Usrs[Idx];
        if (BadUsrs.count(*U))
          Tainted = true;
      }

      std::array<OrderRec, 6> ORec;
      for (int K = 0; K < 6; ++K)
        ORec[K] = readOrder(R, static_cast<uint32_t>(Cs[K]->Stages.size()));
      Orders.push_back(std::move(ORec));
      LP.Arrays.push_back(std::move(AP));
    }
    R.finish();

    if (Tainted) {
      ++Res.Rejected;
      Res.Diags.emplace_back(
          support::Diag::Code::PlanKeyMismatch,
          "loop '" + SL.Label +
              "': bytecode verification failed for a referenced "
              "predicate/USR; falling back to full analysis");
      continue;
    }

    // Rebuild the cost-ordered compiled cascades from the staged plan
    // (pure cache hits after PCOD) and verify the serialized order.
    SL.Cascades = rt::PlanCascades::build(LP, Preds);
    bool OrderOk = SL.Cascades.Arrays.size() == LP.Arrays.size();
    for (size_t AI = 0; OrderOk && AI < LP.Arrays.size(); ++AI) {
      const analysis::ArrayPlan &AP = LP.Arrays[AI];
      const rt::PlanCascades::ArrayCascades &AC = SL.Cascades.Arrays[AI];
      const analysis::TestCascade *Cs[6] = {&AP.Flow, &AP.Output, &AP.Priv,
                                            &AP.Slv, &AP.RRed,
                                            &AP.ExtRedFlow};
      const rt::CompiledCascade *CCs[6] = {&AC.Flow, &AC.Output, &AC.Priv,
                                           &AC.Slv, &AC.RRed,
                                           &AC.ExtRedFlow};
      for (int K = 0; OrderOk && K < 6; ++K)
        OrderOk = orderMatches(Orders[AI][K], *CCs[K], *Cs[K]);
    }
    if (!OrderOk) {
      ++Res.Rejected;
      Res.Diags.emplace_back(
          support::Diag::Code::PlanKeyMismatch,
          "loop '" + SL.Label +
              "': compiled cascade order diverges from the stream; "
              "falling back to full analysis");
      continue;
    }

    Out.push_back(std::move(SL));
    ++Res.Staged;
  }
  return Res;
}

} // namespace plan
} // namespace halo
