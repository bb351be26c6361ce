//===- plan/Hash.cpp - CRC32, bytecode digest and structural plan keys ----===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The compile caches key on interned node pointers; pointers die with the
// process. The durable key hashes *structure*: symbol names and attributes
// instead of SymbolIds, node shapes instead of addresses, callee bodies
// instead of Subroutine pointers. Everything that changes what prepare()
// would produce must land in the hash; everything that doesn't (pointer
// identity, interning order) must not.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"
#include "plan/Plan.h"
#include "usr/USR.h"

#include <algorithm>
#include <array>
#include <set>

namespace halo {
namespace plan {

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

uint32_t crc32(const void *Data, size_t Len) {
  // Slicing-by-8 IEEE CRC32 (reflected, poly 0xEDB88320): T[0] is the
  // classic bytewise table, T[K][B] is byte B's CRC followed by K zero
  // bytes, so one step folds eight input bytes with eight lookups. Tables
  // built on first use — no zlib dependency.
  static const auto T = [] {
    std::array<std::array<uint32_t, 256>, 8> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
      T[0][I] = C;
    }
    for (int K = 1; K < 8; ++K)
      for (uint32_t I = 0; I < 256; ++I)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFFu];
    return T;
  }();
  auto Le32 = [](const uint8_t *B) {
    return static_cast<uint32_t>(B[0]) | static_cast<uint32_t>(B[1]) << 8 |
           static_cast<uint32_t>(B[2]) << 16 |
           static_cast<uint32_t>(B[3]) << 24;
  };
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = 0xFFFFFFFFu;
  for (; Len >= 8; P += 8, Len -= 8) {
    const uint32_t Lo = C ^ Le32(P);
    const uint32_t Hi = Le32(P + 4);
    C = T[7][Lo & 0xFFu] ^ T[6][(Lo >> 8) & 0xFFu] ^
        T[5][(Lo >> 16) & 0xFFu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xFFu] ^
        T[2][(Hi >> 8) & 0xFFu] ^ T[1][(Hi >> 16) & 0xFFu] ^ T[0][Hi >> 24];
  }
  for (; Len != 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Bytecode digest
//===----------------------------------------------------------------------===//

namespace {

// xxh64's primes and serial step: each 8-byte word is scrambled by a
// multiply-rotate-multiply before it enters the state, and the state is
// rotated and multiplied after it, so every input bit reaches every state
// bit within a few words. A final xorshift-multiply avalanche spreads the
// last words too.
constexpr uint64_t DigestP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t DigestP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t DigestP3 = 0x165667B19E3779F9ull;
constexpr uint64_t DigestP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t DigestP5 = 0x27D4EB2F165667C5ull;

inline uint64_t rotl64(uint64_t X, int R) { return (X << R) | (X >> (64 - R)); }

inline uint64_t digestStep(uint64_t H, uint64_t W) {
  W = rotl64(W * DigestP2, 31) * DigestP1;
  return rotl64(H ^ W, 27) * DigestP1 + DigestP4;
}

inline uint64_t digestAvalanche(uint64_t H) {
  H ^= H >> 33;
  H *= DigestP2;
  H ^= H >> 29;
  H *= DigestP3;
  H ^= H >> 32;
  return H;
}

} // namespace

Digest digest(const void *Data, size_t Len) {
  // Both lanes read each little-endian word once; the byte length enters
  // the starting state, so a zero-padded tail cannot alias a longer input.
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t A = PrimarySeed + DigestP5 + Len;
  uint64_t B = VerifySeed + DigestP5 + Len;
  auto Word = [](const uint8_t *Q, size_t N) {
    uint64_t W = 0;
    for (size_t I = 0; I < N; ++I)
      W |= static_cast<uint64_t>(Q[I]) << (8 * I);
    return W;
  };
  for (; Len >= 8; P += 8, Len -= 8) {
    const uint64_t W = Word(P, 8);
    A = digestStep(A, W);
    B = digestStep(B, W);
  }
  if (Len != 0) {
    const uint64_t W = Word(P, Len);
    A = digestStep(A, W);
    B = digestStep(B, W);
  }
  return {digestAvalanche(A), digestAvalanche(B)};
}

//===----------------------------------------------------------------------===//
// Structural hashing
//===----------------------------------------------------------------------===//

namespace {

inline uint64_t mix(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9E3779B97F4A7C15ull + (H << 6) + (H >> 2));
}

} // namespace

uint64_t StructHasher::foldSorted(uint64_t H, size_t Base) {
  std::sort(Scratch.begin() + Base, Scratch.end());
  for (size_t I = Base; I < Scratch.size(); ++I)
    H = mix(H, Scratch[I]);
  Scratch.resize(Base);
  return H;
}

uint64_t StructHasher::str(uint64_t H, const std::string &S) const {
  H = mix(H, S.size());
  for (char C : S)
    H = mix(H, static_cast<uint8_t>(C));
  return H;
}

// A DefLevel or monotonicity change invalidates any plan built against
// the old attributes, so they hash with the name.
uint64_t StructHasher::symbol(uint64_t H, sym::SymbolId Id) const {
  const sym::Symbol &S = Sym.symbolInfo(Id);
  H = str(H, S.Name);
  H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(S.DefLevel)));
  H = mix(H, S.IsArray ? 1 : 0);
  H = mix(H, S.MonotoneArray ? 1 : 0);
  return H;
}

uint64_t StructHasher::expr(const sym::Expr *E) {
  if (!E)
    return mix(Seed, 0xE0ull);
  if (const uint64_t *Known = ExprMemo.find(E->getId()))
    return *Known;
  uint64_t H = mix(Seed, 0xE1ull + static_cast<uint64_t>(E->getKind()));
  switch (E->getKind()) {
  case sym::ExprKind::IntConst:
    H = mix(H, static_cast<uint64_t>(
                   static_cast<const sym::IntConstExpr *>(E)->getValue()));
    break;
  case sym::ExprKind::SymRef:
    H = symbol(H, static_cast<const sym::SymRefExpr *>(E)->getSymbol());
    break;
  case sym::ExprKind::ArrayRef: {
    auto *A = static_cast<const sym::ArrayRefExpr *>(E);
    H = symbol(H, A->getArray());
    H = mix(H, expr(A->getIndex()));
    break;
  }
  case sym::ExprKind::Min:
  case sym::ExprKind::Max: {
    // Operands are canonically sorted by node id, which is an artifact
    // of interning order and differs across processes: hash the operand
    // pair order-insensitively so structurally equal nodes in two
    // contexts key identically.
    auto *M = static_cast<const sym::MinMaxExpr *>(E);
    uint64_t A = expr(M->getLHS()), B = expr(M->getRHS());
    H = mix(H, std::min(A, B));
    H = mix(H, std::max(A, B));
    break;
  }
  case sym::ExprKind::FloorDiv:
  case sym::ExprKind::Mod: {
    auto *D = static_cast<const sym::DivModExpr *>(E);
    H = mix(H, expr(D->getOperand()));
    H = mix(H, static_cast<uint64_t>(D->getDivisor()));
    break;
  }
  case sym::ExprKind::Mul: {
    // Factors are id-sorted (interning-order artifact): fold the factor
    // hash multiset in value order instead.
    auto *M = static_cast<const sym::MulExpr *>(E);
    H = mix(H, M->getFactors().size());
    const size_t Base = Scratch.size();
    for (const sym::Expr *F : M->getFactors()) {
      const uint64_t V = expr(F);
      Scratch.push_back(V);
    }
    H = foldSorted(H, Base);
    break;
  }
  case sym::ExprKind::Add: {
    // Terms are id-sorted (interning-order artifact): same treatment.
    auto *A = static_cast<const sym::AddExpr *>(E);
    H = mix(H, A->getTerms().size());
    const size_t Base = Scratch.size();
    for (const sym::Monomial &T : A->getTerms()) {
      const uint64_t V = mix(expr(T.Prod), static_cast<uint64_t>(T.Coeff));
      Scratch.push_back(V);
    }
    H = foldSorted(H, Base);
    H = mix(H, static_cast<uint64_t>(A->getConstant()));
    break;
  }
  }
  ExprMemo.insert(E->getId(), H);
  return H;
}

uint64_t StructHasher::pred(const pdag::Pred *P) {
  if (!P)
    return mix(Seed, 0xB0ull);
  if (const uint64_t *Known = PredMemo.find(P->getId()))
    return *Known;
  uint64_t H = mix(Seed, 0xB1ull + static_cast<uint64_t>(P->getKind()));
  switch (P->getKind()) {
  case pdag::PredKind::True:
  case pdag::PredKind::False:
    break;
  case pdag::PredKind::Cmp: {
    auto *C = static_cast<const pdag::CmpPred *>(P);
    H = mix(H, static_cast<uint64_t>(C->getRel()));
    H = mix(H, expr(C->getExpr()));
    break;
  }
  case pdag::PredKind::Divides: {
    auto *D = static_cast<const pdag::DividesPred *>(P);
    H = mix(H, expr(D->getDivisor()));
    H = mix(H, expr(D->getValue()));
    H = mix(H, D->isNegated() ? 1 : 0);
    break;
  }
  case pdag::PredKind::And:
  case pdag::PredKind::Or: {
    // Children are id-sorted (interning-order artifact): fold the child
    // hash set in value order for cross-process stability.
    auto *N = static_cast<const pdag::NaryPred *>(P);
    H = mix(H, N->getChildren().size());
    const size_t Base = Scratch.size();
    for (const pdag::Pred *C : N->getChildren()) {
      const uint64_t V = pred(C);
      Scratch.push_back(V);
    }
    H = foldSorted(H, Base);
    break;
  }
  case pdag::PredKind::LoopAll: {
    auto *L = static_cast<const pdag::LoopAllPred *>(P);
    H = symbol(H, L->getVar());
    H = mix(H, expr(L->getLo()));
    H = mix(H, expr(L->getHi()));
    H = mix(H, pred(L->getBody()));
    break;
  }
  case pdag::PredKind::CallSite: {
    auto *C = static_cast<const pdag::CallSitePred *>(P);
    H = str(H, C->getCallee());
    H = mix(H, pred(C->getBody()));
    break;
  }
  }
  PredMemo.insert(P->getId(), H);
  return H;
}

uint64_t StructHasher::usr(const usr::USR *S) {
  if (!S)
    return mix(Seed, 0xC0ull);
  if (const uint64_t *Known = UsrMemo.find(S->getId()))
    return *Known;
  uint64_t H = mix(Seed, 0xC1ull + static_cast<uint64_t>(S->getKind()));
  switch (S->getKind()) {
  case usr::USRKind::Empty:
    break;
  case usr::USRKind::Leaf: {
    auto *L = static_cast<const usr::LeafUSR *>(S);
    H = mix(H, L->getLMADs().size());
    for (const lmad::LMAD &M : L->getLMADs()) {
      H = mix(H, expr(M.offset()));
      H = mix(H, M.dims().size());
      for (const lmad::Dim &D : M.dims()) {
        H = mix(H, expr(D.Stride));
        H = mix(H, expr(D.Span));
      }
    }
    break;
  }
  case usr::USRKind::Union: {
    // Children are id-sorted (interning-order artifact): fold the child
    // hash set in value order for cross-process stability.
    auto *U = static_cast<const usr::UnionUSR *>(S);
    H = mix(H, U->getChildren().size());
    const size_t Base = Scratch.size();
    for (const usr::USR *C : U->getChildren()) {
      const uint64_t V = usr(C);
      Scratch.push_back(V);
    }
    H = foldSorted(H, Base);
    break;
  }
  case usr::USRKind::Intersect:
  case usr::USRKind::Subtract: {
    auto *B = static_cast<const usr::BinaryUSR *>(S);
    H = mix(H, usr(B->getLHS()));
    H = mix(H, usr(B->getRHS()));
    break;
  }
  case usr::USRKind::Gate: {
    auto *G = static_cast<const usr::GateUSR *>(S);
    H = mix(H, pred(G->getGate()));
    H = mix(H, usr(G->getChild()));
    break;
  }
  case usr::USRKind::CallSite: {
    auto *C = static_cast<const usr::CallSiteUSR *>(S);
    H = str(H, C->getCallee());
    H = mix(H, usr(C->getChild()));
    break;
  }
  case usr::USRKind::Recur: {
    auto *R = static_cast<const usr::RecurUSR *>(S);
    H = symbol(H, R->getVar());
    H = mix(H, expr(R->getLo()));
    H = mix(H, expr(R->getHi()));
    H = mix(H, usr(R->getBody()));
    break;
  }
  }
  UsrMemo.insert(S->getId(), H);
  return H;
}

namespace {

/// Statement-tree walk for hashLoop: statement shapes plus every
/// referenced array's declaration. Subroutine bodies are hashed inline at
/// the call (cycle-guarded; validateLoop rejects call cycles anyway).
class LoopHasher {
public:
  LoopHasher(const ir::Program &Prog, StructHasher &SH, uint64_t Seed)
      : Prog(Prog), SH(SH), Seed(Seed) {}

  uint64_t run(const ir::DoLoop &L) {
    uint64_t H = stmt(&L);
    // Referenced-array declarations, in name order (set iteration over
    // SymbolIds would leak interning order into the hash).
    std::vector<sym::SymbolId> Ids(ArraysSeen.begin(), ArraysSeen.end());
    std::sort(Ids.begin(), Ids.end(),
              [&](sym::SymbolId A, sym::SymbolId B) {
                return Prog.symCtx().symbolInfo(A).Name <
                       Prog.symCtx().symbolInfo(B).Name;
              });
    H = mix(H, Ids.size());
    for (sym::SymbolId Id : Ids) {
      H = SH.symbol(H, Id);
      const ir::ArrayDecl *D = Prog.findArrayDecl(Id);
      if (!D) {
        H = mix(H, 0xD0ull); // No program-level declaration.
        continue;
      }
      H = mix(H, 0xD1ull);
      H = mix(H, D->IsIndex ? 1 : 0);
      H = mix(H, D->Size ? SH.expr(D->Size) : 0xD2ull);
    }
    return H;
  }

private:
  uint64_t expr(const sym::Expr *E) {
    if (E)
      for (sym::SymbolId Id : E->freeSymbols())
        if (Prog.symCtx().symbolInfo(Id).IsArray)
          ArraysSeen.insert(Id);
    return SH.expr(E);
  }
  uint64_t pred(const pdag::Pred *P) {
    if (P)
      for (sym::SymbolId Id : P->freeSymbols())
        if (Prog.symCtx().symbolInfo(Id).IsArray)
          ArraysSeen.insert(Id);
    return SH.pred(P);
  }

  uint64_t access(uint64_t H, const ir::ArrayAccess &A) {
    ArraysSeen.insert(A.Array);
    H = SH.symbol(H, A.Array);
    H = mix(H, expr(A.Offset));
    return H;
  }

  uint64_t stmts(uint64_t H, const std::vector<const ir::Stmt *> &Ss) {
    H = mix(H, Ss.size());
    for (const ir::Stmt *S : Ss)
      H = mix(H, stmt(S));
    return H;
  }

  uint64_t stmt(const ir::Stmt *S) {
    uint64_t H = mix(Seed, 0xA1ull + static_cast<uint64_t>(S->getKind()));
    switch (S->getKind()) {
    case ir::StmtKind::Assign: {
      auto *A = static_cast<const ir::AssignStmt *>(S);
      if (A->getWrite()) {
        H = mix(H, 1);
        H = access(H, *A->getWrite());
      } else {
        H = mix(H, 0);
      }
      H = mix(H, A->getReads().size());
      for (const ir::ArrayAccess &R : A->getReads())
        H = access(H, R);
      H = mix(H, A->isReduction() ? 1 : 0);
      H = mix(H, A->getWorkCost());
      break;
    }
    case ir::StmtKind::DoLoop: {
      auto *L = static_cast<const ir::DoLoop *>(S);
      H = SH.str(H, L->getLabel());
      H = SH.symbol(H, L->getVar());
      H = mix(H, expr(L->getLo()));
      H = mix(H, expr(L->getHi()));
      H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(L->getDepth())));
      H = stmts(H, L->getBody());
      break;
    }
    case ir::StmtKind::If: {
      auto *I = static_cast<const ir::IfStmt *>(S);
      H = mix(H, pred(I->getCond()));
      H = stmts(H, I->getThen());
      H = stmts(H, I->getElse());
      break;
    }
    case ir::StmtKind::Call: {
      auto *C = static_cast<const ir::CallStmt *>(S);
      const ir::Subroutine *Sub = C->getCallee();
      H = SH.str(H, Sub ? Sub->getName() : std::string("<null>"));
      for (const auto &AA : C->getArrayArgs()) {
        ArraysSeen.insert(AA.Actual);
        H = SH.symbol(H, AA.Formal);
        H = SH.symbol(H, AA.Actual);
        H = mix(H, expr(AA.Offset));
      }
      for (const auto &SA : C->getScalarArgs()) {
        H = SH.symbol(H, SA.Formal);
        H = mix(H, expr(SA.Actual));
      }
      if (Sub && ActiveSubs.insert(Sub).second) {
        H = stmts(H, Sub->getBody());
        H = mix(H, Sub->getArrays().size());
        for (const ir::ArrayDecl &D : Sub->getArrays()) {
          H = SH.symbol(H, D.Name);
          H = mix(H, D.IsIndex ? 1 : 0);
          H = mix(H, D.Size ? expr(D.Size) : 0xD2ull);
        }
        ActiveSubs.erase(Sub);
      } else if (Sub) {
        H = mix(H, 0xA9ull); // Recursive call chain: stop (validate rejects).
      }
      break;
    }
    case ir::StmtKind::CivIncr: {
      auto *C = static_cast<const ir::CivIncrStmt *>(S);
      H = SH.symbol(H, C->getCiv());
      H = mix(H, expr(C->getAmount()));
      break;
    }
    }
    return H;
  }

  const ir::Program &Prog;
  StructHasher &SH;
  uint64_t Seed;
  std::set<sym::SymbolId> ArraysSeen;
  std::set<const ir::Subroutine *> ActiveSubs;
};

} // namespace

uint64_t hashLoop(const ir::Program &Prog, const ir::DoLoop &L,
                  uint64_t Seed) {
  StructHasher SH(Prog.symCtx(), Seed);
  LoopHasher LH(Prog, SH, Seed);
  return LH.run(L);
}

uint64_t hashOptions(const analysis::AnalyzerOptions &AO, CodegenKey CG,
                     uint64_t Seed) {
  uint64_t H = mix(Seed, 0xF1ull);
  // Format version: a new format is a new key space.
  H = mix(H, FormatVersion);
  // The evaluation tier + the block width W. The tier hashes as the three
  // (compiled predicates, compiled USRs, block) bits it replaced, so plan
  // keys written before the tier existed stay valid.
  const bool Compiled = CG != rt::EvalTier::Interpreted;
  H = mix(H, Compiled ? 1 : 0);
  H = mix(H, Compiled ? 1 : 0);
  H = mix(H, CG != rt::EvalTier::Scalar ? 1 : 0);
  H = mix(H, pdag::ExprBlockWidth);
  // Analyzer options (Probe is excluded: probe-analyzed plans are never
  // serialized; Threads is excluded: it affects scheduling, not the plan).
  H = mix(H, AO.RuntimeTests ? 1 : 0);
  H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(AO.MaxPredDepth)));
  H = mix(H, AO.UMEGReshape ? 1 : 0);
  H = mix(H, AO.CascadeSeparation ? 1 : 0);
  H = mix(H, AO.HoistableContext ? 1 : 0);
  H = mix(H, AO.Factor.Monotonicity ? 1 : 0);
  H = mix(H, AO.Factor.InvariantOverestimates ? 1 : 0);
  H = mix(H, AO.Factor.FourierMotzkin ? 1 : 0);
  H = mix(H, AO.Factor.LmadApproximation ? 1 : 0);
  H = mix(H, AO.Factor.MaxSteps);
  return H;
}

uint64_t planKey(const ir::Program &Prog, const ir::DoLoop &L,
                 const analysis::AnalyzerOptions &AO, CodegenKey CG,
                 uint64_t Seed) {
  return mix(hashLoop(Prog, L, Seed), hashOptions(AO, CG, Seed));
}

} // namespace plan
} // namespace halo
