//===- usr/USRCompile.cpp - USR interval-run bytecode compiler ------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "usr/USRCompile.h"

#include "support/Error.h"
#include "support/IdMap.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>

using namespace halo;
using namespace halo::usr;

//===----------------------------------------------------------------------===//
// Run algebra
//===----------------------------------------------------------------------===//

namespace {

/// Canonical run vectors are sorted with strictly disjoint *ranges*
/// (out[i].Hi < out[i+1].Lo): sweepRuns below resolves every range
/// overlap, so expansion concatenates sorted and cardinality is the plain
/// sum of counts.
uint64_t runCount(const Run &R) {
  return static_cast<uint64_t>((R.Hi - R.Lo) / R.Stride + 1);
}

/// Appends \p R to canonical \p Out under the sweep precondition
/// R.Lo > Out.back().Hi (strictly disjoint ranges), coalescing when R
/// continues the last run's progression. Maintains \p Card (disjointness
/// makes the delta exactly R's count).
void appendCoalesce(RunVec &Out, Run R, uint64_t &Card) {
  if (R.Lo == R.Hi)
    R.Stride = 1;
  Card += runCount(R);
  if (Out.empty()) {
    Out.push_back(R);
    return;
  }
  Run &L = Out.back();
  if (L.Stride == R.Stride && R.Lo == L.Hi + L.Stride) {
    L.Hi = R.Hi;
    return;
  }
  if (R.Lo == R.Hi && R.Lo == L.Hi + L.Stride) {
    L.Hi = R.Lo;
    return;
  }
  if (L.Lo == L.Hi && R.Lo - L.Lo == R.Stride) {
    L.Stride = R.Stride;
    L.Hi = R.Hi;
    return;
  }
  if (L.Lo == L.Hi && R.Lo == R.Hi) {
    L.Stride = R.Lo - L.Lo;
    L.Hi = R.Lo;
    return;
  }
  Out.push_back(R);
}

/// Sweeps runs sorted by Lo into canonical form, resolving *clusters* —
/// maximal groups whose ranges transitively overlap — exactly: all
/// stride-1 runs chain into one interval, congruent equal-stride runs
/// into one progression, and genuinely interleaved strides fall back to
/// pointwise expansion of the cluster (never worse than the enumerating
/// interpreter; a single member over \p Cap already proves the union's
/// cardinality exceeds it). Cluster-at-a-time resolution is what keeps
/// the sweep sound: a fragmented long strided run can reach past the
/// next input's Lo, so pairwise last-run merging is not.
/// With \p Append set, Out is extended instead of rebuilt (requires
/// In.front().Lo > Out.back().Hi).
bool sweepRuns(const std::vector<Run> &In, RunVec &Out, uint64_t &Card,
               size_t Cap, std::vector<int64_t> &Pts, bool Append = false) {
  if (!Append) {
    Out.clear();
    Card = 0;
  }
  const size_t N = In.size();
  size_t I = 0;
  while (I < N) {
    size_t J = I + 1;
    int64_t MaxHi = In[I].Hi;
    const int64_t S0 = In[I].Stride;
    const int64_t Res0 = ((In[I].Lo % S0) + S0) % S0;
    bool AllS1 = S0 == 1;
    bool SameStride = true;
    while (J < N && In[J].Lo <= MaxHi) {
      MaxHi = std::max(MaxHi, In[J].Hi);
      AllS1 &= In[J].Stride == 1;
      SameStride &= In[J].Stride == S0 &&
                    ((In[J].Lo % S0) + S0) % S0 == Res0;
      ++J;
    }
    if (J == I + 1) {
      appendCoalesce(Out, In[I], Card);
    } else if (AllS1) {
      // Chained ranges cover [Lo, MaxHi] without gaps.
      appendCoalesce(Out, Run{In[I].Lo, MaxHi, 1}, Card);
    } else if (SameStride) {
      // Congruent progressions over gap-free chained ranges: one AP.
      appendCoalesce(Out, Run{In[I].Lo, MaxHi, S0}, Card);
    } else {
      uint64_t Tot = 0;
      for (size_t K = I; K < J; ++K) {
        const uint64_t C = runCount(In[K]);
        if (C > Cap)
          return false; // Union cardinality >= C > Cap.
        Tot += C;
      }
      Pts.clear();
      Pts.reserve(Tot);
      for (size_t K = I; K < J; ++K)
        for (int64_t P = In[K].Lo;; P += In[K].Stride) {
          Pts.push_back(P);
          if (P == In[K].Hi)
            break;
        }
      std::sort(Pts.begin(), Pts.end());
      Pts.erase(std::unique(Pts.begin(), Pts.end()), Pts.end());
      for (int64_t P : Pts)
        appendCoalesce(Out, Run{P, P, 1}, Card);
    }
    I = J;
  }
  return true;
}

/// Sorts \p Buf (if needed) and sweeps it into canonical \p Out.
bool canonicalizeRuns(std::vector<Run> &Buf, RunVec &Out, uint64_t &Card,
                      size_t Cap, std::vector<int64_t> &Pts) {
  bool Sorted = true;
  for (size_t I = 1; I < Buf.size(); ++I)
    if (Buf[I].Lo < Buf[I - 1].Lo) {
      Sorted = false;
      break;
    }
  if (!Sorted)
    std::sort(Buf.begin(), Buf.end(), [](const Run &A, const Run &B) {
      return A.Lo != B.Lo ? A.Lo < B.Lo : A.Hi < B.Hi;
    });
  return sweepRuns(Buf, Out, Card, Cap, Pts);
}

/// First point of \p X at or after \p P.
int64_t firstPointAtOrAfter(const Run &X, int64_t P) {
  if (P <= X.Lo)
    return X.Lo;
  int64_t K = (P - X.Lo + X.Stride - 1) / X.Stride;
  return X.Lo + K * X.Stride;
}

/// Galloping advance: first index >= BI with B[idx].Hi >= Lo. Canonical
/// vectors have strictly increasing Hi, so binary search applies; the hot
/// tiny-against-large Intersect (one write-first run against a cached
/// recurrence prefix) becomes O(log) per evaluation instead of a linear
/// rescan.
size_t advanceTo(const RunVec &B, size_t BI, int64_t Lo) {
  if (BI < B.size() && B[BI].Hi >= Lo)
    return BI;
  return static_cast<size_t>(
      std::lower_bound(B.begin() + static_cast<ptrdiff_t>(BI), B.end(), Lo,
                       [](const Run &R, int64_t V) { return R.Hi < V; }) -
      B.begin());
}

/// A, B canonical; Out receives their exact intersection. Appends are
/// strictly ascending and disjoint (windows of one A run against
/// successive B runs are disjoint, and A runs' ranges are), so the
/// coalescing append applies directly and the operation cannot fail.
/// Intersection commutes, so the sweep iterates the side with fewer runs
/// and gallops the other — the ubiquitous one-write-first-run against a
/// long cached recurrence prefix costs O(log |prefix|), whichever side
/// the canonicalized USR put it on.
void intersectRuns(const RunVec &A0, const RunVec &B0, RunVec &Out) {
  const RunVec &A = A0.size() <= B0.size() ? A0 : B0;
  const RunVec &B = A0.size() <= B0.size() ? B0 : A0;
  Out.clear();
  uint64_t Card = 0;
  size_t BI = 0;
  for (const Run &X : A) {
    BI = advanceTo(B, BI, X.Lo);
    for (size_t BJ = BI; BJ < B.size() && B[BJ].Lo <= X.Hi; ++BJ) {
      const Run &Y = B[BJ];
      const int64_t WLo = std::max(X.Lo, Y.Lo);
      const int64_t WHi = std::min(X.Hi, Y.Hi);
      if (X.Stride == 1 && Y.Stride == 1) {
        appendCoalesce(Out, Run{WLo, WHi, 1}, Card);
        continue;
      }
      // Pointwise over the sparser participant within the window.
      const int64_t FX = firstPointAtOrAfter(X, WLo);
      const int64_t FY = firstPointAtOrAfter(Y, WLo);
      const int64_t CX = FX > WHi ? 0 : (WHi - FX) / X.Stride + 1;
      const int64_t CY = FY > WHi ? 0 : (WHi - FY) / Y.Stride + 1;
      const Run &It = CX <= CY ? X : Y;
      const Run &Other = CX <= CY ? Y : X;
      for (int64_t P = firstPointAtOrAfter(It, WLo); P <= WHi;
           P += It.Stride)
        if (Other.contains(P))
          appendCoalesce(Out, Run{P, P, 1}, Card);
    }
  }
}

/// A, B canonical; Out receives A \\ B. Same disjoint-ascending append
/// argument as intersectRuns.
void subtractRuns(const RunVec &A, const RunVec &B, RunVec &Out) {
  Out.clear();
  uint64_t Card = 0;
  size_t BI = 0;
  for (const Run &X : A) {
    BI = advanceTo(B, BI, X.Lo);
    size_t BEnd = BI;
    bool AllStride1 = X.Stride == 1;
    while (BEnd < B.size() && B[BEnd].Lo <= X.Hi) {
      AllStride1 &= B[BEnd].Stride == 1;
      ++BEnd;
    }
    if (BEnd == BI) {
      appendCoalesce(Out, X, Card);
      continue;
    }
    if (AllStride1) {
      int64_t Cur = X.Lo;
      for (size_t BJ = BI; BJ < BEnd && Cur <= X.Hi; ++BJ) {
        const Run &Y = B[BJ];
        if (Y.Lo > Cur)
          appendCoalesce(Out, Run{Cur, std::min(X.Hi, Y.Lo - 1), 1}, Card);
        Cur = std::max(Cur, Y.Hi + 1);
      }
      if (Cur <= X.Hi)
        appendCoalesce(Out, Run{Cur, X.Hi, 1}, Card);
      continue;
    }
    // Pointwise fallback: strided interaction. Disjoint ranges mean the
    // first B run whose Hi reaches P is the only candidate containing P.
    size_t BP = BI;
    for (int64_t P = X.Lo; P <= X.Hi; P += X.Stride) {
      while (BP < B.size() && B[BP].Hi < P)
        ++BP;
      if (BP < B.size() && B[BP].Lo <= P && B[BP].contains(P))
        continue;
      appendCoalesce(Out, Run{P, P, 1}, Card);
    }
  }
}

uint64_t cardOf(const RunVec &V) {
  uint64_t N = 0;
  for (const Run &R : V)
    N += runCount(R);
  return N;
}

} // namespace

std::vector<int64_t> usr::expandRuns(const RunVec &Runs) {
  std::vector<int64_t> Out;
  Out.reserve(static_cast<size_t>(cardOf(Runs)));
  for (const Run &R : Runs)
    for (int64_t P = R.Lo;; P += R.Stride) {
      Out.push_back(P);
      if (P == R.Hi)
        break;
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

namespace halo {
namespace usr {

class USRCompiler {
public:
  USRCompiler(const sym::Context &Ctx, CompiledUSR &Out,
              CompiledUSR::PredProvider Preds)
      : Ctx(Ctx), Out(Out),
        XB(Ctx, Out.XCode, Out.ScalarSlots, Out.ArraySlots),
        Preds(std::move(Preds)) {}

  /// True when lowering tripped a resource guard (a null gate predicate
  /// or an expression-layer cap); CompiledUSR::compile then discards the
  /// object.
  bool failed() const { return Failed || XB.exceeded(); }

  void compileRoot(const USR *S) {
    countRefs(S);
    compileNode(S, /*Deciding=*/true, /*AtRoot=*/true);
    Out.MainCodeEnd = here();
    emitSubBodies();
    // The parallel emptiness entry fans out only over a bare root
    // recurrence (CallSite wrappers are transparent and emit no code).
    if (Out.MainCodeEnd >= 1 &&
        Out.Code[0].Opcode == USRInstr::Op::Recur &&
        Out.Recurs[Out.Code[0].A].BodyEnd == Out.MainCodeEnd)
      Out.RootRecur = static_cast<int32_t>(Out.Code[0].A);
    Out.XMaxDepth = XB.maxStackDepth();
#ifndef NDEBUG
    // The exact-depth bound frames size XStack from must dominate every
    // expression range the evaluator can run.
    auto CheckRange = [&](uint32_t B, uint32_t E) {
      assert(pdag::exprCodeMaxDepth(Out.XCode.data(), B, E) <=
                 Out.XMaxDepth &&
             "expression range exceeds the precomputed frame bound");
      (void)B;
      (void)E;
    };
    for (const CompiledUSRLmad &L : Out.Lmads)
      CheckRange(L.OffsetBegin, L.OffsetEnd);
    for (const CompiledUSRDim &D : Out.Dims) {
      CheckRange(D.StrideBegin, D.StrideEnd);
      CheckRange(D.SpanBegin, D.SpanEnd);
    }
    for (const CompiledUSRRecur &R : Out.Recurs) {
      CheckRange(R.LoBegin, R.LoEnd);
      CheckRange(R.HiBegin, R.HiEnd);
    }
#endif
  }

private:
  uint32_t here() const { return static_cast<uint32_t>(Out.Code.size()); }

  uint32_t emit(USRInstr::Op Op, uint32_t A = 0, uint32_t B = 0,
                bool Deciding = false) {
    Out.Code.push_back(USRInstr{Op, A, B, Deciding ? uint8_t(1) : uint8_t(0)});
    return static_cast<uint32_t>(Out.Code.size() - 1);
  }

  /// DAG analysis: per-node reference counts (deciding which shared
  /// compound nodes become subroutines) and every recurrence variable, in
  /// first-visit order (the conservative invariance context for code
  /// shared across call sites).
  void countRefs(const USR *S) {
    auto [Count, New] = RefCount.insert(S->getId(), 1);
    if (!New) {
      ++*Count;
      return; // Children already counted on the first visit.
    }
    switch (S->getKind()) {
    case USRKind::Union:
      for (const USR *C : cast<UnionUSR>(S)->getChildren())
        countRefs(C);
      return;
    case USRKind::Intersect:
    case USRKind::Subtract:
      countRefs(cast<BinaryUSR>(S)->getLHS());
      countRefs(cast<BinaryUSR>(S)->getRHS());
      return;
    case USRKind::Gate:
      countRefs(cast<GateUSR>(S)->getChild());
      return;
    case USRKind::CallSite:
      countRefs(cast<CallSiteUSR>(S)->getChild());
      return;
    case USRKind::Recur:
      AllRecurVars.push_back(cast<RecurUSR>(S)->getVar());
      countRefs(cast<RecurUSR>(S)->getBody());
      return;
    default:
      return;
    }
  }

  bool isSharedSub(const USR *S) const {
    switch (S->getKind()) {
    case USRKind::Union:
    case USRKind::Intersect:
    case USRKind::Subtract:
    case USRKind::Gate:
    case USRKind::CallSite:
    case USRKind::Recur: {
      const uint32_t *Count = RefCount.find(S->getId());
      return Count && *Count > 1;
    }
    default:
      return false; // Leaves compile to one table-backed instruction.
    }
  }

  /// Emits a reference to \p S: a multiply-referenced compound node
  /// becomes a Call to its once-compiled body (per polarity; expanding an
  /// interned DAG into a tree can blow code size up combinatorially).
  void emitNodeRef(const USR *S, bool Deciding, bool AtRoot) {
    if (!AtRoot && isSharedSub(S)) {
      auto [Desc, New] = SubDescFor[Deciding].insert(
          S->getId(), static_cast<uint32_t>(Out.Calls.size()));
      if (New) {
        Out.Calls.emplace_back();
        Subs.emplace_back(S, Deciding);
      }
      emit(USRInstr::Op::Call, *Desc, 0, Deciding);
      return;
    }
    compileNode(S, Deciding, /*AtRoot=*/false);
  }

  /// Compiles the scheduled sub-bodies in scheduling order (a body may
  /// schedule more); the I-th scheduled body is call descriptor I.
  void emitSubBodies() {
    for (size_t Desc = 0; Desc < Subs.size(); ++Desc) {
      auto [S, Deciding] = Subs[Desc];
      uint32_t Begin = here();
      compileNode(S, Deciding, /*AtRoot=*/false);
      Out.Calls[Desc] = CompiledUSRCall{Begin, here()};
    }
  }

  uint32_t leafRange(const LeafUSR *L, uint32_t &End) {
    if (const auto *Range = LeafRangeFor.find(L->getId())) {
      End = Range->second;
      return Range->first;
    }
    uint32_t Begin = static_cast<uint32_t>(Out.Lmads.size());
    for (const lmad::LMAD &M : L->getLMADs()) {
      CompiledUSRLmad CL;
      std::tie(CL.OffsetBegin, CL.OffsetEnd) = XB.compile(M.offset());
      CL.DimBegin = static_cast<uint32_t>(Out.Dims.size());
      for (const lmad::Dim &D : M.dims()) {
        CompiledUSRDim CD;
        std::tie(CD.StrideBegin, CD.StrideEnd) = XB.compile(D.Stride);
        std::tie(CD.SpanBegin, CD.SpanEnd) = XB.compile(D.Span);
        Out.Dims.push_back(CD);
      }
      CL.DimEnd = static_cast<uint32_t>(Out.Dims.size());
      Out.Lmads.push_back(CL);
    }
    End = static_cast<uint32_t>(Out.Lmads.size());
    LeafRangeFor.insert(L->getId(), std::make_pair(Begin, End));
    return Begin;
  }

  uint32_t gateDesc(const pdag::Pred *G) {
    CompiledUSRGate D;
    if (const pdag::CompiledPred *const *Known = PredFor.find(G->getId())) {
      D.Pred = *Known;
    } else if (Preds) {
      D.Pred = Preds(G);
      PredFor.insert(G->getId(), D.Pred);
    } else {
      Out.OwnedPreds.push_back(pdag::CompiledPred::compile(G, Ctx));
      D.Pred = Out.OwnedPreds.back().get();
      PredFor.insert(G->getId(), D.Pred);
    }
    // A gate whose predicate tripped predicate-lowering guards (null from
    // either provider path) fails the whole USR compile: the object would
    // dereference the null at evaluation time. CompiledUSR::compile
    // discards the object and callers demote to the interpreter.
    if (!D.Pred) {
      Failed = true;
      Out.Gates.push_back(D);
      return static_cast<uint32_t>(Out.Gates.size() - 1);
    }
    // Feeds: every recurrence variable the predicate reads is served from
    // our frame slot, which tracks exactly what sym::Bindings would
    // contain under the interpreter at this point (bound from B, written
    // per iteration, restored — including the interpreter's
    // leave-bound-when-originally-unbound behavior).
    D.FeedBegin = static_cast<uint32_t>(Out.GateFeeds.size());
    bool DependsOnVar = false;
    for (sym::SymbolId V : AllRecurVars)
      if (G->dependsOn(V)) {
        DependsOnVar = true;
        if (auto PS = D.Pred->scalarSlotIndex(V))
          Out.GateFeeds.push_back(CompiledUSRGateFeed{*PS, XB.scalarSlot(V)});
      }
    D.FeedEnd = static_cast<uint32_t>(Out.GateFeeds.size());
    D.Invariant = DependsOnVar ? 0 : 1;
    if (D.Invariant)
      D.MemoSlot = Out.NumGateMemoSlots++;
    Out.Gates.push_back(D);
    return static_cast<uint32_t>(Out.Gates.size() - 1);
  }

  void compileNode(const USR *S, bool Deciding, bool AtRoot) {
    switch (S->getKind()) {
    case USRKind::Empty:
      emit(USRInstr::Op::PushEmpty, 0, 0, Deciding);
      return;
    case USRKind::Leaf: {
      uint32_t End = 0;
      uint32_t Begin = leafRange(cast<LeafUSR>(S), End);
      emit(USRInstr::Op::Leaf, Begin, End, Deciding);
      return;
    }
    case USRKind::Union: {
      const auto &Cs = cast<UnionUSR>(S)->getChildren();
      for (const USR *C : Cs)
        emitNodeRef(C, Deciding, false);
      emit(USRInstr::Op::UnionN, static_cast<uint32_t>(Cs.size()), 0,
           Deciding);
      return;
    }
    case USRKind::Intersect:
    case USRKind::Subtract: {
      const auto *Bin = cast<BinaryUSR>(S);
      emitNodeRef(Bin->getLHS(), /*Deciding=*/false, false);
      uint32_t Skip = emit(USRInstr::Op::SkipIfEmpty);
      emitNodeRef(Bin->getRHS(), /*Deciding=*/false, false);
      emit(Bin->isIntersect() ? USRInstr::Op::Intersect
                              : USRInstr::Op::Subtract,
           0, 0, Deciding);
      Out.Code[Skip].A = here();
      return;
    }
    case USRKind::Gate: {
      const auto *G = cast<GateUSR>(S);
      uint32_t GIp = emit(USRInstr::Op::Gate, gateDesc(G->getGate()), 0,
                          Deciding);
      emitNodeRef(G->getChild(), Deciding, false);
      Out.Code[GIp].B = here();
      return;
    }
    case USRKind::CallSite:
      // Opaque for static reasoning only; evaluation passes through.
      emitNodeRef(cast<CallSiteUSR>(S)->getChild(), Deciding, AtRoot);
      return;
    case USRKind::Recur: {
      const auto *R = cast<RecurUSR>(S);
      uint32_t Desc = static_cast<uint32_t>(Out.Recurs.size());
      Out.Recurs.emplace_back();
      {
        CompiledUSRRecur &D = Out.Recurs[Desc];
        std::tie(D.LoBegin, D.LoEnd) = XB.compile(R->getLo());
        std::tie(D.HiBegin, D.HiEnd) = XB.compile(R->getHi());
        D.VarSlot = XB.scalarSlot(R->getVar());
        D.CacheSlot = Desc;
        // The prefix cache is sound only when the body reads no *other*
        // recurrence variable (then iteration k's set depends on the
        // bindings and k alone, so a grown [Lo, Hi] extends the cached
        // union). Checked against every recurrence variable of the whole
        // USR, which also covers code shared across call sites.
        bool Cacheable = true;
        for (sym::SymbolId V : AllRecurVars)
          if (V != R->getVar() && R->getBody()->dependsOn(V)) {
            Cacheable = false;
            break;
          }
        D.PrefixCacheable = Cacheable ? 1 : 0;
      }
      emit(USRInstr::Op::Recur, Desc, 0, Deciding);
      uint32_t BodyBegin = here();
      emitNodeRef(R->getBody(), Deciding, false);
      Out.Recurs[Desc].BodyBegin = BodyBegin;
      Out.Recurs[Desc].BodyEnd = here();
      return;
    }
    }
    halo_unreachable("covered switch");
  }

  const sym::Context &Ctx;
  CompiledUSR &Out;
  pdag::ExprCodeBuilder XB;
  CompiledUSR::PredProvider Preds;
  std::vector<sym::SymbolId> AllRecurVars;
  // The memos below are keyed on node IDs, never on pointers.
  /// Node -> number of references from parents (plus one for the root).
  support::IdMap<uint32_t> RefCount;
  /// Leaf -> its [Begin, End) range in Out.Lmads.
  support::IdMap<std::pair<uint32_t, uint32_t>> LeafRangeFor;
  /// Gate predicate -> its compiled form (null: lowering failed).
  support::IdMap<const pdag::CompiledPred *> PredFor;
  /// Shared node -> its call descriptor, per polarity (index: Deciding).
  support::IdMap<uint32_t> SubDescFor[2];
  /// (node, Deciding) of every call descriptor, in descriptor order.
  std::vector<std::pair<const USR *, bool>> Subs;
  bool Failed = false; ///< a gate predicate failed lowering (see failed())
};

} // namespace usr
} // namespace halo

std::unique_ptr<CompiledUSR> CompiledUSR::compile(const USR *S,
                                                  const sym::Context &Ctx,
                                                  PredProvider Preds) {
  // Resource guards (graceful demotion contract, docs/FUZZING.md): a USR
  // too deep or too large to lower — or one of whose gate predicates
  // failed predicate lowering — returns null; callers fall back to the
  // reference interpreter (evalUSREmpty) and the governor counts the
  // demotion in ExecStats::GuardDemotions / USREvalStats::GuardDemotions.
  // The depth check reads the depth stored on the root before the
  // recursive USRCompiler runs, so hostile nesting cannot overflow the C++
  // stack; LMAD and bound expressions are checked the same way by
  // ExprCodeBuilder::compile, gate predicates by CompiledPred::compile.
  if (S->nestDepth() > pdag::LoweringMaxNestDepth)
    return nullptr;
  std::unique_ptr<CompiledUSR> CU(new CompiledUSR());
  CU->Source = S;
  USRCompiler C(Ctx, *CU, std::move(Preds));
  C.compileRoot(S);
  if (C.failed() || CU->XCode.size() > pdag::LoweringMaxCodeLen)
    return nullptr;
  return CU;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

/// Per-evaluation state: resolved symbol slots, the run-vector stack, the
/// invariant-gate memo, the recurrence prefix caches and reusable scratch
/// buffers. Copyable (the parallel emptiness evaluator copies the bound
/// frame per worker; the copies share the immutable ArrayBinding storage
/// behind the raw pointers).
struct CompiledUSR::Frame {
  std::vector<int64_t> ScalarVals;
  std::vector<uint8_t> ScalarBound;
  std::vector<const sym::ArrayBinding *> Arrays;
  std::vector<int64_t> XStack;
  std::vector<int8_t> GateMemo; // -1 unset, else a tri-state.
  /// Incremental prefix-recurrence cache (one per Recur descriptor): the
  /// canonical union over Var = Lo..Hi with its cardinality, valid for
  /// the current binding; growing Hi extends it instead of re-evaluating
  /// the prefix.
  struct RecurCache {
    bool Valid = false;
    int64_t Lo = 0, Hi = 0;
    uint64_t Card = 0;
    RunVec Runs;
  };
  std::vector<RecurCache> RecurCaches;
  /// Run-vector stack with buffer reuse across evaluations.
  std::vector<RunVec> RunStack;
  size_t RunSP = 0;
  /// Scratch run buffers (leaf emission, pending recurrence batches,
  /// merge temporaries), acquired/released stack-wise. A deque: leases
  /// stay referenced across nested evaluations that acquire more
  /// buffers, so growth must never relocate existing elements.
  std::deque<std::vector<Run>> BufPool;
  size_t BufTop = 0;
  /// Leaf-local scratch (never live across a nested evaluation).
  std::vector<std::pair<int64_t, int64_t>> DimVals; // (stride, count)
  std::vector<int64_t> Odo;
  std::vector<std::pair<uint32_t, int64_t>> Ovr; // gate slot overrides
  std::vector<int64_t> PtsScratch; // cluster expansion (non-reentrant use)
  /// Batch variant gate probes over recurrence sweeps (set per entry
  /// point from the caller's BlockGates; results are bit-identical either
  /// way, see CompiledUSR::batchableGate).
  bool BlockGates = true;
  USREvalStats Stats;
};

namespace {

/// Stack-wise scratch-buffer lease (exception-free code, but many early
/// returns: keep acquire/release balanced mechanically).
class BufLease {
public:
  explicit BufLease(CompiledUSR::Frame &F);
  ~BufLease();
  std::vector<Run> &get() { return *V; }

private:
  CompiledUSR::Frame &F;
  std::vector<Run> *V;
};

} // namespace

BufLease::BufLease(CompiledUSR::Frame &F) : F(F) {
  if (F.BufTop == F.BufPool.size())
    F.BufPool.emplace_back();
  V = &F.BufPool[F.BufTop++];
  V->clear();
}
BufLease::~BufLease() { --F.BufTop; }

bool CompiledUSR::bindFrame(Frame &F, const sym::Bindings &B) const {
  F.ScalarVals.assign(ScalarSlots.size(), 0);
  F.ScalarBound.assign(ScalarSlots.size(), 0);
  for (size_t I = 0; I < ScalarSlots.size(); ++I)
    if (auto V = B.scalar(ScalarSlots[I])) {
      F.ScalarVals[I] = *V;
      F.ScalarBound[I] = 1;
    }
  F.Arrays.resize(ArraySlots.size());
  for (size_t I = 0; I < ArraySlots.size(); ++I)
    F.Arrays[I] = B.array(ArraySlots[I]);
  F.XStack.resize(XMaxDepth);
  F.GateMemo.assign(NumGateMemoSlots, -1);
  F.RecurCaches.assign(Recurs.size(), Frame::RecurCache());
  F.RunSP = 0;
  F.BufTop = 0;
  return true;
}

std::optional<int64_t> CompiledUSR::evalExpr(uint32_t Begin, uint32_t End,
                                             Frame &F) const {
  return pdag::runExprCode(XCode.data(), Begin, End, F.ScalarVals.data(),
                           F.ScalarBound.data(), F.Arrays.data(),
                           F.XStack.data());
}

namespace {

RunVec &pushSlot(CompiledUSR::Frame &F) {
  if (F.RunSP == F.RunStack.size())
    F.RunStack.emplace_back();
  RunVec &V = F.RunStack[F.RunSP++];
  V.clear();
  return V;
}

/// Merges the pending raw runs into canonical \p Acc, maintaining \p
/// Card. Append-only extensions (the monotone recurrence shape) take the
/// O(new runs) path; anything else is a sort + linear two-way sweep.
bool compactInto(RunVec &Acc, uint64_t &Card, std::vector<Run> &Pend,
                 size_t Cap, CompiledUSR::Frame &F) {
  if (Pend.empty())
    return Card <= Cap;
  bool Sorted = true;
  for (size_t I = 1; I < Pend.size(); ++I)
    if (Pend[I].Lo < Pend[I - 1].Lo) {
      Sorted = false;
      break;
    }
  if (!Sorted)
    std::sort(Pend.begin(), Pend.end(), [](const Run &A, const Run &B) {
      return A.Lo != B.Lo ? A.Lo < B.Lo : A.Hi < B.Hi;
    });
  bool Ok;
  if (Acc.empty() || Pend.front().Lo > Acc.back().Hi) {
    Ok = sweepRuns(Pend, Acc, Card, Cap, F.PtsScratch, /*Append=*/true);
  } else {
    BufLease Tmp(F);
    std::vector<Run> &Merged = Tmp.get();
    Merged.reserve(Acc.size() + Pend.size());
    std::merge(Acc.begin(), Acc.end(), Pend.begin(), Pend.end(),
               std::back_inserter(Merged),
               [](const Run &A, const Run &B) { return A.Lo < B.Lo; });
    Ok = sweepRuns(Merged, Acc, Card, Cap, F.PtsScratch);
  }
  Pend.clear();
  return Ok && Card <= Cap;
}

} // namespace

CompiledUSR::Status CompiledUSR::evalLeaf(const USRInstr &I, Frame &F,
                                          size_t Cap,
                                          bool DecidingEmpty) const {
  ++F.Stats.NodesVisited;
  if (DecidingEmpty) {
    // Emptiness decides from point *counts* alone: no enumeration, no
    // cap. Mirrors lmad::enumerate's evaluation order (offset first,
    // then dims) so failure cases agree with the materializing path.
    for (uint32_t LI = I.A; LI != I.B; ++LI) {
      const CompiledUSRLmad &L = Lmads[LI];
      if (!evalExpr(L.OffsetBegin, L.OffsetEnd, F))
        return Status::Fail;
      bool Contributes = true;
      for (uint32_t DI = L.DimBegin; DI != L.DimEnd; ++DI) {
        auto St = evalExpr(Dims[DI].StrideBegin, Dims[DI].StrideEnd, F);
        auto Sp = evalExpr(Dims[DI].SpanBegin, Dims[DI].SpanEnd, F);
        if (!St || !Sp || *St < 0)
          return Status::Fail;
        if (*Sp < 0) { // Empty dimension: the LMAD denotes no points.
          Contributes = false;
          break;
        }
      }
      if (Contributes)
        return Status::NotEmpty;
    }
    pushSlot(F);
    return Status::Ok;
  }

  BufLease Lease(F);
  std::vector<Run> &Buf = Lease.get();
  size_t RawSum = 0;
  for (uint32_t LI = I.A; LI != I.B; ++LI) {
    const CompiledUSRLmad &L = Lmads[LI];
    auto Off = evalExpr(L.OffsetBegin, L.OffsetEnd, F);
    if (!Off)
      return Status::Fail;
    // Per-dimension evaluation mirrors lmad::enumerate exactly,
    // including its incremental per-LMAD cap check.
    F.DimVals.clear();
    size_t Total = 1;
    bool Empty = false;
    for (uint32_t DI = L.DimBegin; DI != L.DimEnd; ++DI) {
      auto St = evalExpr(Dims[DI].StrideBegin, Dims[DI].StrideEnd, F);
      auto Sp = evalExpr(Dims[DI].SpanBegin, Dims[DI].SpanEnd, F);
      if (!St || !Sp || *St < 0)
        return Status::Fail;
      if (*Sp < 0) {
        Empty = true;
        break;
      }
      int64_t Count = (*St == 0) ? 1 : (*Sp / *St + 1);
      F.DimVals.emplace_back(*St, Count);
      if (Total > Cap / static_cast<size_t>(Count))
        return Status::Fail;
      Total *= static_cast<size_t>(Count);
    }
    if (Empty)
      continue;
    RawSum += Total;

    // Choose the run dimension (max count; ties to the smaller stride)
    // and emit one run per combination of the remaining dimensions.
    size_t RD = F.DimVals.size();
    for (size_t D = 0; D < F.DimVals.size(); ++D)
      if (F.DimVals[D].second > 1 &&
          (RD == F.DimVals.size() ||
           F.DimVals[D].second > F.DimVals[RD].second ||
           (F.DimVals[D].second == F.DimVals[RD].second &&
            F.DimVals[D].first < F.DimVals[RD].first)))
        RD = D;
    if (RD == F.DimVals.size()) {
      Buf.push_back(Run{*Off, *Off, 1});
      continue;
    }
    const int64_t RStride = F.DimVals[RD].first;
    const int64_t RSpanEnd = (F.DimVals[RD].second - 1) * RStride;
    F.Odo.assign(F.DimVals.size(), 0);
    for (;;) {
      int64_t Base = *Off;
      for (size_t D = 0; D < F.DimVals.size(); ++D)
        if (D != RD)
          Base += F.Odo[D] * F.DimVals[D].first;
      Buf.push_back(Run{Base, Base + RSpanEnd, RStride});
      size_t D = 0;
      for (; D < F.DimVals.size(); ++D) {
        if (D == RD)
          continue;
        if (++F.Odo[D] < F.DimVals[D].second)
          break;
        F.Odo[D] = 0;
      }
      if (D == F.DimVals.size())
        break;
    }
  }
  if (RawSum > Cap)
    return Status::Fail;
  F.Stats.RunsProduced += Buf.size();
  F.Stats.PointsAvoided += RawSum - std::min(RawSum, Buf.size());
  RunVec &Top = pushSlot(F);
  uint64_t Card = 0;
  if (!canonicalizeRuns(Buf, Top, Card, Cap, F.PtsScratch))
    return Status::Fail;
  return Status::Ok;
}

uint8_t CompiledUSR::evalGate(const CompiledUSRGate &G, Frame &F,
                              const sym::Bindings &B) const {
  if (G.Invariant) {
    int8_t &M = F.GateMemo[G.MemoSlot];
    if (M < 0) {
      ++F.Stats.GateScalarEvals;
      auto V = G.Pred->eval(B);
      M = !V ? 2 : (*V ? 1 : 0);
    }
    return static_cast<uint8_t>(M);
  }
  F.Ovr.clear();
  for (uint32_t FI = G.FeedBegin; FI != G.FeedEnd; ++FI) {
    const CompiledUSRGateFeed &Feed = GateFeeds[FI];
    if (F.ScalarBound[Feed.OurSlot])
      F.Ovr.emplace_back(Feed.PredSlot, F.ScalarVals[Feed.OurSlot]);
  }
  ++F.Stats.GateScalarEvals;
  auto V = G.Pred->evalWithSlots(B, F.Ovr.data(), F.Ovr.size());
  return !V ? uint8_t(2) : (*V ? uint8_t(1) : uint8_t(0));
}

const CompiledUSRGate *
CompiledUSR::batchableGate(const CompiledUSRRecur &R,
                           uint32_t &PredVarSlot) const {
  if (R.BodyBegin >= R.BodyEnd ||
      Code[R.BodyBegin].Opcode != USRInstr::Op::Gate ||
      Code[R.BodyBegin].B != R.BodyEnd)
    return nullptr;
  const CompiledUSRGate &G = Gates[Code[R.BodyBegin].A];
  if (G.Invariant || !G.Pred || !G.Pred->blockableMain())
    return nullptr;
  bool HaveVar = false;
  for (uint32_t FI = G.FeedBegin; FI != G.FeedEnd; ++FI)
    if (GateFeeds[FI].OurSlot == R.VarSlot) {
      PredVarSlot = GateFeeds[FI].PredSlot;
      HaveVar = true;
      break;
    }
  if (!HaveVar)
    return nullptr;
  // Uniformity of the non-variable overrides across a block: no nested
  // recurrence inside the gated child may write another feed slot. (The
  // interpreter's leftover-binding quirk — an originally-unbound variable
  // keeps its last iteration value — would otherwise leak
  // iteration-varying values into what the block probe treats as
  // constants. Writes to R's own variable are fine: it was bound by this
  // sweep, so nested recurrences always restore it, and the probe feeds
  // it per lane anyway.)
  std::vector<std::pair<uint32_t, uint32_t>> Regions{
      {R.BodyBegin + 1, R.BodyEnd}};
  std::vector<uint8_t> CallSeen(Calls.size(), 0);
  while (!Regions.empty()) {
    auto [Begin, End] = Regions.back();
    Regions.pop_back();
    for (uint32_t Ip = Begin; Ip != End; ++Ip) {
      const USRInstr &I = Code[Ip];
      if (I.Opcode == USRInstr::Op::Recur) {
        uint32_t WSlot = Recurs[I.A].VarSlot;
        if (WSlot != R.VarSlot)
          for (uint32_t FI = G.FeedBegin; FI != G.FeedEnd; ++FI)
            if (GateFeeds[FI].OurSlot == WSlot)
              return nullptr;
      } else if (I.Opcode == USRInstr::Op::Call && !CallSeen[I.A]) {
        CallSeen[I.A] = 1;
        Regions.push_back({Calls[I.A].Begin, Calls[I.A].End});
      }
    }
  }
  return &G;
}

namespace {

/// Block-batched probe of a recurrence-guarding gate predicate: the
/// tri-states of up to pdag::ExprBlockWidth consecutive iteration values
/// are fetched with one predicate dispatch (one predicate-frame bind
/// amortized over the block), refilled as the ascending iteration sweep
/// crosses block boundaries. Each lane is bit-identical to the scalar
/// evalGate probe at that iteration (precondition:
/// CompiledUSR::batchableGate returned the gate).
class GateSweep {
public:
  GateSweep(const CompiledUSR::Frame &F, const CompiledUSRGate &G,
            const std::vector<CompiledUSRGateFeed> &Feeds,
            uint32_t OurVarSlot, uint32_t PredVarSlot)
      : G(G), PredVarSlot(PredVarSlot) {
    for (uint32_t FI = G.FeedBegin; FI != G.FeedEnd; ++FI) {
      const CompiledUSRGateFeed &Feed = Feeds[FI];
      if (Feed.OurSlot != OurVarSlot && F.ScalarBound[Feed.OurSlot])
        Ovr.emplace_back(Feed.PredSlot, F.ScalarVals[Feed.OurSlot]);
    }
  }

  /// Tri-state of the gate at iteration \p It (ascending queries only;
  /// \p Hi clamps the refill so no lane probes past the sweep's range).
  uint8_t at(int64_t It, int64_t Hi, CompiledUSR::Frame &F,
             const sym::Bindings &B) {
    if (Cnt == 0 || It >= Base + static_cast<int64_t>(Cnt)) {
      Base = It;
      Cnt = static_cast<unsigned>(
          std::min<int64_t>(pdag::ExprBlockWidth, Hi - It + 1));
      pdag::EvalStats PS;
      G.Pred->evalTriBlock(B, Ovr.data(), Ovr.size(), PredVarSlot, Base,
                           Cnt, Tri, &PS);
      ++F.Stats.GateBlockEvals;
      F.Stats.GateLanesPoisoned += PS.LanesPoisoned;
    }
    return Tri[It - Base];
  }

private:
  const CompiledUSRGate &G;
  uint32_t PredVarSlot;
  std::vector<std::pair<uint32_t, int64_t>> Ovr;
  uint8_t Tri[pdag::ExprBlockWidth] = {};
  int64_t Base = 0;
  unsigned Cnt = 0;
};

} // namespace

CompiledUSR::Status CompiledUSR::evalRecur(const USRInstr &I, uint32_t &Ip,
                                           uint32_t RegionEnd, Frame &F,
                                           const sym::Bindings &B,
                                           size_t Cap, bool EmptyMode) const {
  ++F.Stats.NodesVisited;
  const CompiledUSRRecur &R = Recurs[I.A];
  auto Lo = evalExpr(R.LoBegin, R.LoEnd, F);
  auto Hi = evalExpr(R.HiBegin, R.HiEnd, F);
  if (!Lo || !Hi)
    return Status::Fail;
  const int64_t SavedVal = F.ScalarVals[R.VarSlot];
  const uint8_t SavedBound = F.ScalarBound[R.VarSlot];
  // The interpreter restores the variable only when it was previously
  // bound (an originally-unbound variable stays bound to its last
  // iteration value); the frame mirrors sym::Bindings exactly, quirks
  // included, so gate feeds and sibling leaves agree on every input.
  auto RestoreVar = [&] {
    if (SavedBound) {
      F.ScalarVals[R.VarSlot] = SavedVal;
      F.ScalarBound[R.VarSlot] = 1;
    }
  };

  // Batched gate tier: when the body is a single variant gate over a
  // loop-free predicate, the iteration sweep probes it ExprBlockWidth
  // iterations per dispatch instead of one frame bind per iteration.
  uint32_t PredVarSlot = 0;
  const CompiledUSRGate *BG =
      F.BlockGates ? batchableGate(R, PredVarSlot) : nullptr;

  if (EmptyMode && I.Deciding) {
    // Emptiness of a union over iterations: every body must be empty; no
    // set is ever accumulated, so no cap applies here.
    Status St = Status::Ok;
    std::optional<GateSweep> Sweep;
    if (BG)
      Sweep.emplace(F, *BG, GateFeeds, R.VarSlot, PredVarSlot);
    for (int64_t It = *Lo; It <= *Hi; ++It) {
      F.ScalarVals[R.VarSlot] = It;
      F.ScalarBound[R.VarSlot] = 1;
      if (BG) {
        ++F.Stats.NodesVisited; // the Gate instruction, as run() counts it
        uint8_t Tri = Sweep->at(It, *Hi, F, B);
        if (Tri == 2) {
          St = Status::Fail;
          break;
        }
        if (Tri == 0) // Gate false: this iteration's set is empty.
          continue;
        St = run(R.BodyBegin + 1, R.BodyEnd, F, B, Cap, EmptyMode);
      } else {
        St = run(R.BodyBegin, R.BodyEnd, F, B, Cap, EmptyMode);
      }
      if (St != Status::Ok)
        break;
      --F.RunSP; // Discard the body's (empty) result.
    }
    RestoreVar();
    if (St != Status::Ok)
      return St;
    pushSlot(F);
    Ip = R.BodyEnd;
    return Status::Ok;
  }

  // Full-set mode: accumulate the union of the iteration sets, extending
  // the prefix cache when the bounds only grew (the Eq. 2 triangle).
  Frame::RecurCache *Cache =
      R.PrefixCacheable ? &F.RecurCaches[R.CacheSlot] : nullptr;
  BufLease OwnLease(F);
  BufLease PendLease(F);
  RunVec &Acc = Cache ? Cache->Runs : OwnLease.get();
  std::vector<Run> &Pend = PendLease.get();
  uint64_t Card = 0;
  int64_t Start = *Lo;
  if (Cache && Cache->Valid && Cache->Lo == *Lo && *Hi >= Cache->Hi) {
    Start = Cache->Hi + 1;
    Card = Cache->Card;
  } else {
    Acc.clear();
    if (Cache)
      Cache->Valid = false;
  }

  Status St = Status::Ok;
  std::optional<GateSweep> Sweep;
  if (BG && Start <= *Hi)
    Sweep.emplace(F, *BG, GateFeeds, R.VarSlot, PredVarSlot);
  for (int64_t It = Start; It <= *Hi; ++It) {
    F.ScalarVals[R.VarSlot] = It;
    F.ScalarBound[R.VarSlot] = 1;
    if (BG) {
      ++F.Stats.NodesVisited; // the Gate instruction, as run() counts it
      uint8_t Tri = Sweep->at(It, *Hi, F, B);
      if (Tri == 2) {
        St = Status::Fail;
        break;
      }
      if (Tri == 0) // Gate false: this iteration contributes nothing.
        continue;
      St = run(R.BodyBegin + 1, R.BodyEnd, F, B, Cap, EmptyMode);
    } else {
      St = run(R.BodyBegin, R.BodyEnd, F, B, Cap, EmptyMode);
    }
    if (St != Status::Ok)
      break;
    RunVec &V = F.RunStack[--F.RunSP];
    Pend.insert(Pend.end(), V.begin(), V.end());
    if (Pend.size() >= std::max<size_t>(Acc.size(), 64) &&
        !compactInto(Acc, Card, Pend, Cap, F)) {
      St = Status::Fail;
      break;
    }
  }
  RestoreVar();
  if (St == Status::Ok && !compactInto(Acc, Card, Pend, Cap, F))
    St = Status::Fail;
  if (St != Status::Ok) {
    if (Cache)
      Cache->Valid = false;
    return St;
  }
  if (Cache) {
    Cache->Valid = true;
    Cache->Lo = *Lo;
    Cache->Hi = std::max(*Hi, *Lo - 1);
    Cache->Card = Card;
  }

  // Fusion with an enclosing Intersect/Subtract: the consumer reads the
  // accumulated runs in place, so the per-iteration copy of a cached
  // prefix (O(|prefix|) per enclosing iteration — the quadratic term this
  // engine exists to remove) never happens. Two shapes, from the binary
  // node's emission [LHS][SkipIfEmpty -> X][RHS][op][X:]:
  //
  //  - this recurrence was the RHS: the op instruction directly follows,
  //  - this recurrence was the LHS (the canonicalized position in Eq. 2's
  //    `Prior ∩ WF(i)`): a SkipIfEmpty follows; short-circuit on an empty
  //    accumulation exactly like the stack path, else evaluate the RHS
  //    region and apply the op with the accumulation as left operand.
  if (R.BodyEnd < RegionEnd &&
      (Code[R.BodyEnd].Opcode == USRInstr::Op::Intersect ||
       Code[R.BodyEnd].Opcode == USRInstr::Op::Subtract)) {
    const USRInstr &Op = Code[R.BodyEnd];
    ++F.Stats.NodesVisited;
    RunVec &LHS = F.RunStack[F.RunSP - 1];
    BufLease Res(F);
    RunVec &Tmp = Res.get();
    if (Op.Opcode == USRInstr::Op::Intersect)
      intersectRuns(LHS, Acc, Tmp);
    else
      subtractRuns(LHS, Acc, Tmp);
    LHS.swap(Tmp);
    Ip = R.BodyEnd + 1;
    if (EmptyMode && Op.Deciding && !F.RunStack[F.RunSP - 1].empty())
      return Status::NotEmpty;
    return Status::Ok;
  }
  if (R.BodyEnd < RegionEnd &&
      Code[R.BodyEnd].Opcode == USRInstr::Op::SkipIfEmpty) {
    const USRInstr &Skip = Code[R.BodyEnd];
    const USRInstr &Op = Code[Skip.A - 1];
    if (Acc.empty()) { // LHS empty: the op's result is empty, RHS unrun.
      pushSlot(F);
      Ip = Skip.A;
      return Status::Ok;
    }
    Status RSt = run(R.BodyEnd + 1, Skip.A - 1, F, B, Cap, EmptyMode);
    if (RSt != Status::Ok)
      return RSt;
    ++F.Stats.NodesVisited;
    RunVec &RHS = F.RunStack[F.RunSP - 1];
    BufLease Res(F);
    RunVec &Tmp = Res.get();
    if (Op.Opcode == USRInstr::Op::Intersect)
      intersectRuns(Acc, RHS, Tmp);
    else
      subtractRuns(Acc, RHS, Tmp);
    RHS.swap(Tmp);
    Ip = Skip.A;
    if (EmptyMode && Op.Deciding && !F.RunStack[F.RunSP - 1].empty())
      return Status::NotEmpty;
    return Status::Ok;
  }

  RunVec &Top = pushSlot(F);
  Top.assign(Acc.begin(), Acc.end());
  Ip = R.BodyEnd;
  return Status::Ok;
}

CompiledUSR::Status CompiledUSR::run(uint32_t Begin, uint32_t End, Frame &F,
                                     const sym::Bindings &B, size_t Cap,
                                     bool EmptyMode) const {
  for (uint32_t Ip = Begin; Ip != End;) {
    const USRInstr &I = Code[Ip];
    switch (I.Opcode) {
    case USRInstr::Op::PushEmpty:
      ++F.Stats.NodesVisited;
      pushSlot(F);
      ++Ip;
      break;
    case USRInstr::Op::Leaf: {
      Status St = evalLeaf(I, F, Cap, EmptyMode && I.Deciding);
      if (St != Status::Ok)
        return St;
      ++Ip;
      break;
    }
    case USRInstr::Op::UnionN: {
      ++F.Stats.NodesVisited;
      BufLease Lease(F);
      std::vector<Run> &Buf = Lease.get();
      for (size_t C = F.RunSP - I.A; C < F.RunSP; ++C)
        Buf.insert(Buf.end(), F.RunStack[C].begin(), F.RunStack[C].end());
      F.RunSP -= I.A;
      RunVec &Top = pushSlot(F);
      uint64_t Card = 0;
      if (!canonicalizeRuns(Buf, Top, Card, Cap, F.PtsScratch) ||
          Card > Cap)
        return Status::Fail;
      if (EmptyMode && I.Deciding && !Top.empty())
        return Status::NotEmpty;
      ++Ip;
      break;
    }
    case USRInstr::Op::Intersect:
    case USRInstr::Op::Subtract: {
      ++F.Stats.NodesVisited;
      RunVec &RHS = F.RunStack[F.RunSP - 1];
      RunVec &LHS = F.RunStack[F.RunSP - 2];
      BufLease Res(F);
      RunVec &Tmp = Res.get();
      if (I.Opcode == USRInstr::Op::Intersect)
        intersectRuns(LHS, RHS, Tmp);
      else
        subtractRuns(LHS, RHS, Tmp);
      --F.RunSP;
      F.RunStack[F.RunSP - 1].swap(Tmp);
      if (EmptyMode && I.Deciding && !F.RunStack[F.RunSP - 1].empty())
        return Status::NotEmpty;
      ++Ip;
      break;
    }
    case USRInstr::Op::SkipIfEmpty:
      Ip = F.RunStack[F.RunSP - 1].empty() ? I.A : Ip + 1;
      break;
    case USRInstr::Op::Gate: {
      ++F.Stats.NodesVisited;
      uint8_t Tri = evalGate(Gates[I.A], F, B);
      if (Tri == 2)
        return Status::Fail;
      if (Tri == 0) {
        pushSlot(F);
        Ip = I.B;
        break;
      }
      ++Ip;
      break;
    }
    case USRInstr::Op::Recur: {
      Status St = evalRecur(I, Ip, End, F, B, Cap, EmptyMode);
      if (St != Status::Ok)
        return St;
      break;
    }
    case USRInstr::Op::Call: {
      ++F.Stats.NodesVisited;
      Status St = run(Calls[I.A].Begin, Calls[I.A].End, F, B, Cap,
                      EmptyMode);
      if (St != Status::Ok)
        return St;
      ++Ip;
      break;
    }
    }
  }
  return Status::Ok;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

/// Reusable per-thread frame: bindFrame() resizes with assign()/resize(),
/// so after warm-up repeated scratch evaluations allocate little. The
/// scratch paths bind on every call (so recurrence/gate caches never leak
/// across unrelated bindings or caps); cross-evaluation reuse is the
/// pooled frames' job.
CompiledUSR::Frame &CompiledUSR::scratchFrame() {
  thread_local Frame F;
  return F;
}

std::optional<bool> CompiledUSR::finishEmpty(Status St, Frame &F,
                                             USREvalStats *Stats) const {
  if (Stats)
    *Stats += F.Stats;
  switch (St) {
  case Status::NotEmpty:
    return false;
  case Status::Fail:
    return std::nullopt;
  case Status::Ok:
    break;
  }
  return F.RunStack[F.RunSP - 1].empty();
}

std::optional<bool> CompiledUSR::evalEmpty(const sym::Bindings &B, size_t Cap,
                                           USREvalStats *Stats,
                                           bool BlockGates) const {
  Frame &F = scratchFrame();
  F.Stats = USREvalStats();
  F.BlockGates = BlockGates;
  bindFrame(F, B);
  Status St = run(0, MainCodeEnd, F, B, Cap, /*EmptyMode=*/true);
  return finishEmpty(St, F, Stats);
}

std::optional<RunVec> CompiledUSR::evalRuns(const sym::Bindings &B,
                                            size_t Cap, USREvalStats *Stats,
                                            bool BlockGates) const {
  Frame &F = scratchFrame();
  F.Stats = USREvalStats();
  F.BlockGates = BlockGates;
  bindFrame(F, B);
  Status St = run(0, MainCodeEnd, F, B, Cap, /*EmptyMode=*/false);
  if (Stats)
    *Stats += F.Stats;
  if (St != Status::Ok)
    return std::nullopt;
  return std::move(F.RunStack[F.RunSP - 1]);
}

std::optional<std::vector<int64_t>>
CompiledUSR::evalPoints(const sym::Bindings &B, size_t Cap,
                        USREvalStats *Stats, bool BlockGates) const {
  auto Runs = evalRuns(B, Cap, Stats, BlockGates);
  if (!Runs)
    return std::nullopt;
  return expandRuns(*Runs);
}

//===----------------------------------------------------------------------===//
// Pooled frames (analyze-once / execute-many)
//===----------------------------------------------------------------------===//

CompiledUSR::PooledFrame::PooledFrame() = default;
CompiledUSR::PooledFrame::~PooledFrame() = default;
CompiledUSR::PooledFrame::PooledFrame(PooledFrame &&) noexcept = default;
CompiledUSR::PooledFrame &
CompiledUSR::PooledFrame::operator=(PooledFrame &&) noexcept = default;

bool CompiledUSR::bindPooled(PooledFrame &PF, const sym::Bindings &B) const {
  if (!PF.Main)
    PF.Main = std::make_unique<Frame>();
  const sym::BindingsStamp S = B.stamp();
  // Stamp equality guarantees B is the same live object, unmutated since
  // the frame was bound: slot values, array pointers, the invariant-gate
  // memo and the recurrence prefix caches all stay exact.
  if (PF.BoundTo == this && PF.Stamp == S)
    return true;
  bindFrame(*PF.Main, B);
  PF.BoundTo = this;
  PF.Stamp = S;
  PF.WorkersValid = false;
  return false;
}

std::optional<bool> CompiledUSR::evalEmptyPooled(PooledFrame &PF,
                                                 const sym::Bindings &B,
                                                 size_t Cap,
                                                 USREvalStats *Stats,
                                                 bool BlockGates) const {
  bindPooled(PF, B);
  Frame &F = *PF.Main;
  F.Stats = USREvalStats();
  F.BlockGates = BlockGates;
  F.RunSP = 0;
  F.BufTop = 0;
  Status St = run(0, MainCodeEnd, F, B, Cap, /*EmptyMode=*/true);
  return finishEmpty(St, F, Stats);
}

std::optional<bool>
CompiledUSR::evalEmptyParallel(PooledFrame &PF, const sym::Bindings &B,
                               ThreadPool &Pool, size_t Cap,
                               USREvalStats *Stats, int64_t MinParallelIters,
                               const support::CancelToken *Cancel,
                               bool BlockGates) const {
  if (support::stopRequested(Cancel))
    return std::nullopt; // Cancelled: no (cacheable) answer.
  if (RootRecur < 0 || Pool.numThreads() <= 1)
    return evalEmptyPooled(PF, B, Cap, Stats, BlockGates);
  bindPooled(PF, B);
  Frame &F = *PF.Main;
  F.Stats = USREvalStats();
  F.BlockGates = BlockGates;
  F.RunSP = 0;
  F.BufTop = 0;
  const CompiledUSRRecur &R = Recurs[static_cast<size_t>(RootRecur)];
  auto Lo = evalExpr(R.LoBegin, R.LoEnd, F);
  auto Hi = evalExpr(R.HiBegin, R.HiEnd, F);
  if (!Lo || !Hi) {
    if (Stats)
      *Stats += F.Stats;
    return std::nullopt;
  }
  if (*Lo > *Hi) {
    if (Stats)
      *Stats += F.Stats;
    return true;
  }
  const unsigned NT = Pool.numThreads();
  if (*Hi - *Lo + 1 < MinParallelIters * static_cast<int64_t>(NT)) {
    Status St = run(0, MainCodeEnd, F, B, Cap, /*EmptyMode=*/true);
    return finishEmpty(St, F, Stats);
  }

  // Pooled worker frames are copied from the bound main frame on (re)bind
  // and reused while the stamp is unchanged (their prefix caches and gate
  // memos stay warm per worker).
  if (PF.Workers.size() < NT) {
    PF.Workers.resize(NT);
    PF.WorkersValid = false;
  }
  if (!PF.WorkersValid || PF.WorkersBoundFor < NT) {
    for (unsigned W = 0; W < NT; ++W)
      PF.Workers[W] = F;
    PF.WorkersBoundFor = NT;
    PF.WorkersValid = true;
  }

  // Exact first-failure frontier (the parallelAllOf protocol shared with
  // the compiled predicates): a worker stops once its iteration lies past
  // the earliest known non-empty/failed iteration, so the merged result —
  // the outcome at the minimal recorded iteration — is identical to the
  // serial early-exit order, including which of "not empty" and failure
  // decides.
  std::atomic<int64_t> FirstBad{INT64_MAX};
  std::vector<Status> Outcome(NT, Status::Ok);
  std::vector<int64_t> BadAt(NT, INT64_MAX);
  std::vector<USREvalStats> WorkerStats(NT);

  // Batched gate tier for the fanned-out sweep (see evalRecur): block
  // refills clamp to the chunk, so chunk boundaries stay the exact
  // first-failure / cancellation check points.
  uint32_t PredVarSlot = 0;
  const CompiledUSRGate *BG =
      BlockGates ? batchableGate(R, PredVarSlot) : nullptr;

  Pool.parallelAllOf(
      *Lo, *Hi + 1,
      [&](int64_t BLo, int64_t BHi, unsigned W, std::atomic<bool> &) -> bool {
        Frame &FW = PF.Workers[W];
        FW.Stats = USREvalStats();
        FW.BlockGates = BlockGates;
        FW.RunSP = 0;
        FW.BufTop = 0;
        const int64_t SavedVal = FW.ScalarVals[R.VarSlot];
        const uint8_t SavedBound = FW.ScalarBound[R.VarSlot];
        std::optional<GateSweep> Sweep;
        if (BG)
          Sweep.emplace(FW, *BG, GateFeeds, R.VarSlot, PredVarSlot);
        bool Ok = true;
        for (int64_t It = BLo; It < BHi; ++It) {
          if (It > FirstBad.load(std::memory_order_relaxed))
            break;
          FW.ScalarVals[R.VarSlot] = It;
          FW.ScalarBound[R.VarSlot] = 1;
          Status St;
          if (BG) {
            ++FW.Stats.NodesVisited; // the Gate instruction
            uint8_t Tri = Sweep->at(It, BHi - 1, FW, B);
            if (Tri == 0) // Gate false: this iteration's set is empty.
              continue;
            St = Tri == 2 ? Status::Fail
                          : run(R.BodyBegin + 1, R.BodyEnd, FW, B, Cap,
                                /*EmptyMode=*/true);
          } else {
            St = run(R.BodyBegin, R.BodyEnd, FW, B, Cap,
                     /*EmptyMode=*/true);
          }
          if (St == Status::Ok) {
            --FW.RunSP; // Discard the body's (empty) result.
            continue;
          }
          Outcome[W] = St;
          BadAt[W] = It;
          int64_t Cur = FirstBad.load(std::memory_order_relaxed);
          while (It < Cur && !FirstBad.compare_exchange_weak(
                                 Cur, It, std::memory_order_relaxed)) {
          }
          Ok = false;
          break;
        }
        if (SavedBound) {
          FW.ScalarVals[R.VarSlot] = SavedVal;
          FW.ScalarBound[R.VarSlot] = 1;
        }
        WorkerStats[W] = FW.Stats;
        return Ok;
      },
      Cancel);

  USREvalStats Agg = F.Stats;
  for (unsigned W = 0; W < NT; ++W)
    Agg += WorkerStats[W];
  if (Stats)
    *Stats += Agg;

  // Cancellation may have suppressed whole blocks, in which case the
  // empty BadAt frontier would read as "every iteration empty" — a wrong
  // (and memoizable) answer. A fired token therefore yields nullopt.
  if (support::stopRequested(Cancel))
    return std::nullopt;

  int64_t Best = INT64_MAX;
  Status Decided = Status::Ok;
  for (unsigned W = 0; W < NT; ++W)
    if (BadAt[W] < Best) {
      Best = BadAt[W];
      Decided = Outcome[W];
    }
  if (Decided == Status::Fail)
    return std::nullopt;
  if (Decided == Status::NotEmpty)
    return false;
  return true;
}
