//===- tests/usr_compile_test.cpp - Compiled-USR parity tests -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The compiled interval-run engine must agree with the reference
// interpreter on every input: full evaluation bit-identical to evalUSR
// (including nullopt on unbound symbols and cap overflow), emptiness mode
// identical to evalUSREmpty (including the short-circuit-before-cap
// semantics), and the chunked-parallel root recurrence identical to the
// serial order under the first-failure protocol.
//
//===----------------------------------------------------------------------===//

#include "usr/USRCompile.h"

#include "pdag/PredCompile.h"
#include "rt/CompiledCascade.h"
#include "support/Rng.h"
#include "usr/USREval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace halo;
using namespace halo::usr;

namespace {

class UsrCompileTest : public ::testing::Test {
protected:
  UsrCompileTest() : P(Sym), U(Sym, P) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;

  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }

  /// Full + emptiness parity of the compiled engine against the
  /// reference interpreter, on fresh binding copies (the interpreter
  /// mutates its bindings while iterating recurrences).
  void expectParity(const USR *S, const sym::Bindings &B,
                    size_t Cap = 1u << 22) {
    sym::Bindings BRef = B;
    auto Ref = evalUSR(S, BRef, Cap);
    auto CU = CompiledUSR::compile(S, Sym);
    auto Got = CU->evalPoints(B, Cap);
    ASSERT_EQ(Ref.has_value(), Got.has_value())
        << "full-eval failure mismatch on " << S->toString(Sym);
    if (Ref && Got)
      EXPECT_EQ(*Ref, *Got) << "point-set mismatch on " << S->toString(Sym);
    // Batched gate sweeps off: must be bit-identical to the default
    // (batched) evaluation, including WHICH failure fires.
    auto GotScalar = CU->evalPoints(B, Cap, nullptr, /*BlockGates=*/false);
    ASSERT_EQ(Got.has_value(), GotScalar.has_value())
        << "block/scalar failure mismatch on " << S->toString(Sym);
    if (Got && GotScalar)
      EXPECT_EQ(*Got, *GotScalar)
          << "block/scalar point-set mismatch on " << S->toString(Sym);

    sym::Bindings BRefE = B;
    auto RefE = evalUSREmpty(S, BRefE, Cap);
    auto GotE = CU->evalEmpty(B, Cap);
    EXPECT_EQ(RefE, GotE) << "emptiness mismatch on " << S->toString(Sym);
    EXPECT_EQ(CU->evalEmpty(B, Cap, nullptr, /*BlockGates=*/false), GotE)
        << "block/scalar emptiness mismatch on " << S->toString(Sym);
    if (Ref && RefE)
      EXPECT_EQ(*RefE, Ref->empty());
  }
};

//===----------------------------------------------------------------------===//
// Directed cases
//===----------------------------------------------------------------------===//

TEST_F(UsrCompileTest, SetAlgebraParity) {
  sym::Bindings B;
  const USR *A = U.interval(c(0), c(6));
  const USR *C = U.interval(c(4), c(4));
  expectParity(U.union2(A, C), B);
  expectParity(U.intersect(A, C), B);
  expectParity(U.subtract(A, C), B);
  expectParity(U.subtract(C, A), B);
  expectParity(U.empty(), B);
}

TEST_F(UsrCompileTest, SharedDagCompilesLinearNotExponential) {
  // Every level references the previous one twice, so the DAG has 2^40
  // root-to-leaf paths but about 120 nodes; shared nodes must compile once
  // (as call bodies, per polarity), never as the expanded tree.
  auto Ladder = [&](int Levels) {
    const USR *X = U.interval(s("a"), c(4));
    for (int K = 0; K < Levels; ++K) {
      const USR *A = U.interval(Sym.addConst(s("b"), 3 * K), c(2));
      const USR *Bk = U.interval(Sym.addConst(s("b"), 3 * K + 1), c(2));
      X = U.intersect(U.union2(X, A), U.union2(X, Bk));
    }
    return X;
  };
  const USR *Deep = Ladder(40);
  ASSERT_TRUE(isa<BinaryUSR>(Deep));
  auto CU = CompiledUSR::compile(Deep, Sym);
  ASSERT_NE(CU, nullptr);
  EXPECT_LT(CU->codeSize(), 2000u);
  // Parity where the interpreter's tree walk (2^12 paths) stays cheap.
  sym::Bindings B;
  B.setScalar(Sym.symbol("a"), 0);
  B.setScalar(Sym.symbol("b"), 1);
  expectParity(Ladder(12), B);
}

TEST_F(UsrCompileTest, StridedLeavesCoalesceExactly) {
  sym::Bindings B;
  // [4]v[28]+0 = {0,4,...,28} and the odd complement interleaved.
  const USR *Evens = U.leaf(lmad::LMAD::makeStrided(c(4), c(28), c(0)));
  const USR *Odds = U.leaf(lmad::LMAD::makeStrided(c(4), c(28), c(2)));
  expectParity(Evens, B);
  expectParity(U.union2(Evens, Odds), B);
  expectParity(U.intersect(Evens, Odds), B);
  expectParity(U.subtract(U.interval(c(0), c(32)), Evens), B);
  // Multi-dimensional leaf: [1,32]v[3,96]+5 (blocks of 4, stride 32).
  const USR *Blocks = U.leaf(
      lmad::LMAD({lmad::Dim{c(1), c(3)}, lmad::Dim{c(32), c(96)}}, c(5)));
  expectParity(Blocks, B);
  expectParity(U.intersect(Blocks, U.interval(c(30), c(40))), B);
}

TEST_F(UsrCompileTest, GateParity) {
  const USR *A = U.interval(c(0), c(4));
  const USR *G = U.gate(P.ne(s("SYM"), c(1)), A);
  sym::Bindings B;
  B.setScalar(Sym.symbol("SYM"), 0);
  expectParity(G, B);
  B.setScalar(Sym.symbol("SYM"), 1);
  expectParity(G, B);
  // Unknown gate: unbound symbol fails both evaluators identically.
  sym::Bindings BU;
  expectParity(G, BU);
}

TEST_F(UsrCompileTest, RecurWithIndexArrayParity) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 3);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {10, 20, 21};
  B.setArray(IB, A);
  expectParity(R, B);
  // Empty range and failing (out-of-bounds) range.
  B.setScalar(Sym.symbol("N"), 0);
  expectParity(R, B);
  B.setScalar(Sym.symbol("N"), 5);
  expectParity(R, B);
}

TEST_F(UsrCompileTest, GateUnderRecurrenceVariable) {
  // The partial-recurrence gate shape: `1 <= i-1 # S`, with the gate
  // depending on the recurrence variable (fed from the frame slot).
  sym::SymbolId I = Sym.symbol("i", 1);
  const USR *Body =
      U.gate(P.le(c(2), Sym.symRef(I)),
             U.interval(Sym.mulConst(Sym.symRef(I), 10), c(3)));
  const USR *R = U.recur(I, c(1), c(5), Body);
  sym::Bindings B;
  expectParity(R, B);
}

TEST_F(UsrCompileTest, TriangularOIndParity) {
  // The Fig. 3(b)-style OIND equation at small N, on independent
  // (monotone disjoint), dependent (overlapping) and unsorted data.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  auto WF = [&](sym::SymbolId V) {
    return U.interval(
        Sym.mulConst(Sym.addConst(Sym.arrayRef(IB, Sym.symRef(V)), -1), 8),
        c(8));
  };
  const USR *Prior =
      U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
  const USR *OInd =
      U.recur(I, c(1), s("N"), U.intersect(WF(I), Prior));

  const int64_t N = 40;
  for (int Mode = 0; Mode < 3; ++Mode) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("N"), N);
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t X = 0; X < N; ++X)
      A.Vals.push_back(Mode == 0 ? 1 + X * 2
                       : Mode == 1 ? 1 + (X % 7)
                                   : 1 + ((X * 13) % 29));
    B.setArray(IB, A);
    expectParity(OInd, B);
  }
}

TEST_F(UsrCompileTest, EmptinessShortCircuitsBeforeCap) {
  // Satellite regression: the set exceeds Cap, but the first leaf is
  // nonempty, so emptiness answers "not empty" where full evaluation
  // (and the old emptiness path) overflow to nullopt.
  const USR *Big = U.interval(c(0), c(1000));
  sym::Bindings B;
  auto CU = CompiledUSR::compile(Big, Sym);
  EXPECT_FALSE(evalUSR(Big, B, /*Cap=*/100).has_value());
  EXPECT_FALSE(CU->evalPoints(B, /*Cap=*/100).has_value());
  sym::Bindings B2;
  EXPECT_EQ(evalUSREmpty(Big, B2, /*Cap=*/100), std::make_optional(false));
  EXPECT_EQ(CU->evalEmpty(B, /*Cap=*/100), std::make_optional(false));
  expectParity(Big, B, /*Cap=*/100);

  // A nonempty leaf ahead of an unbound one: emptiness decides at the
  // first leaf; full evaluation fails on the second.
  const USR *Mixed =
      U.union2(U.interval(c(0), c(4)), U.interval(s("unbound"), c(4)));
  sym::Bindings B3;
  EXPECT_FALSE(evalUSR(Mixed, B3, 1u << 22).has_value());
  EXPECT_EQ(evalUSREmpty(Mixed, B3), std::make_optional(false));
  expectParity(Mixed, B3);

  // Reversed order: the unbound leaf comes first and decides nullopt in
  // both modes (traversal order is part of the contract).
  const USR *Rev =
      U.unionN({U.interval(s("unbound"), c(4)), U.interval(c(0), c(4))});
  expectParity(Rev, B3);
}

TEST_F(UsrCompileTest, IntersectSkipsRhsWhenLhsEmpty) {
  // evalUSR returns {} for `{} ∩ unbound` without touching the RHS; the
  // compiled SkipIfEmpty path must do the same.
  const USR *L = U.interval(c(5), s("len")); // len = 0 -> empty leaf
  const USR *R = U.interval(s("unbound"), c(4));
  sym::Bindings B;
  B.setScalar(Sym.symbol("len"), 0);
  // Canonicalization folds statically-empty sets, so force a dynamic one:
  // len bound to 0 keeps the leaf symbolic but empty at runtime.
  expectParity(U.intersect(L, R), B);
  expectParity(U.subtract(L, R), B);
  B.setScalar(Sym.symbol("len"), 3);
  expectParity(U.intersect(L, R), B); // Now the RHS failure surfaces.
}

//===----------------------------------------------------------------------===//
// Randomized parity
//===----------------------------------------------------------------------===//

/// Random USR programs over a small symbol pool: strided/multi-dim
/// leaves, gates (sometimes over recurrence variables, sometimes over an
/// unbound symbol), unions, intersections, subtractions, call sites and
/// nested/partial recurrences.
class RandomUsr {
public:
  RandomUsr(UsrCompileTest &T, sym::Context &Sym, pdag::PredContext &P,
            USRContext &U, uint64_t Seed)
      : Sym(Sym), P(P), U(U), R(Seed) {
    (void)T;
    IB = Sym.symbol("IB", 0, true);
    IC = Sym.symbol("IC", 0, true);
  }

  const sym::Expr *smallExpr(const std::vector<sym::SymbolId> &Vars) {
    switch (R.nextBelow(6)) {
    case 0:
      return Sym.intConst(R.nextInRange(-4, 40));
    case 1:
      return Sym.symRef("m");
    case 2:
      if (!Vars.empty())
        return Sym.mulConst(
            Sym.symRef(Vars[R.nextBelow(Vars.size())]),
            R.nextInRange(1, 4));
      return Sym.intConst(R.nextInRange(0, 20));
    case 3: {
      const sym::Expr *Idx =
          Vars.empty() ? Sym.intConst(R.nextInRange(1, 6))
                       : Sym.addConst(Sym.symRef(Vars[R.nextBelow(
                                          Vars.size())]),
                                      R.nextInRange(0, 1));
      return Sym.arrayRef(R.chance(1, 2) ? IB : IC, Idx);
    }
    case 4:
      return R.chance(1, 8) ? Sym.symRef("unbound")
                            : Sym.intConst(R.nextInRange(0, 30));
    default:
      if (!Vars.empty())
        return Sym.addConst(Sym.symRef(Vars[R.nextBelow(Vars.size())]),
                            R.nextInRange(-2, 6));
      return Sym.intConst(R.nextInRange(0, 25));
    }
  }

  const USR *leaf(const std::vector<sym::SymbolId> &Vars) {
    switch (R.nextBelow(4)) {
    case 0:
      return U.interval(smallExpr(Vars),
                        Sym.intConst(R.nextInRange(-1, 6)));
    case 1:
      return U.leaf(lmad::LMAD::makeStrided(
          Sym.intConst(R.nextInRange(1, 5)),
          Sym.intConst(R.nextInRange(-2, 24)), smallExpr(Vars)));
    case 2:
      return U.leaf(lmad::LMAD(
          {lmad::Dim{Sym.intConst(1), Sym.intConst(R.nextInRange(0, 3))},
           lmad::Dim{Sym.intConst(R.nextInRange(2, 9)),
                     Sym.intConst(R.nextInRange(0, 27))}},
          smallExpr(Vars)));
    default:
      return U.leaf(lmad::LMAD::makePoint(smallExpr(Vars)));
    }
  }

  const pdag::Pred *pred(const std::vector<sym::SymbolId> &Vars) {
    const sym::Expr *A = smallExpr(Vars);
    const sym::Expr *B = smallExpr(Vars);
    switch (R.nextBelow(3)) {
    case 0:
      return P.le(A, B);
    case 1:
      return P.ne(A, B);
    default:
      return P.gt(A, B);
    }
  }

  const USR *gen(int Depth, std::vector<sym::SymbolId> &Vars) {
    if (Depth <= 0 || R.chance(1, 4))
      return leaf(Vars);
    switch (R.nextBelow(6)) {
    case 0: {
      std::vector<const USR *> Cs;
      size_t N = 2 + R.nextBelow(3);
      for (size_t I = 0; I < N; ++I)
        Cs.push_back(gen(Depth - 1, Vars));
      return U.unionN(std::move(Cs));
    }
    case 1:
      return U.intersect(gen(Depth - 1, Vars), gen(Depth - 1, Vars));
    case 2:
      return U.subtract(gen(Depth - 1, Vars), gen(Depth - 1, Vars));
    case 3:
      return U.gate(pred(Vars), gen(Depth - 1, Vars));
    case 4:
      return U.callSite("ext", gen(Depth - 1, Vars));
    default: {
      sym::SymbolId V = Sym.freshSymbol("q", static_cast<int>(Vars.size()) + 1);
      const sym::Expr *Lo = Sym.intConst(R.nextInRange(0, 2));
      const sym::Expr *Hi;
      if (!Vars.empty() && R.chance(1, 3))
        Hi = Sym.addConst(Sym.symRef(Vars.back()), -1); // Partial recur.
      else if (R.chance(1, 3))
        Hi = Sym.symRef("m");
      else
        Hi = Sym.intConst(R.nextInRange(-1, 6));
      Vars.push_back(V);
      const USR *Body = gen(Depth - 1, Vars);
      Vars.pop_back();
      return U.recur(V, Lo, Hi, Body);
    }
    }
  }

  sym::Bindings bindings() {
    sym::Bindings B;
    B.setScalar(Sym.symbol("m"), R.nextInRange(-1, 7));
    auto MakeArr = [&](sym::SymbolId Id) {
      if (R.chance(1, 10))
        return; // Sometimes leave an index array unbound.
      sym::ArrayBinding A;
      A.Lo = 1;
      size_t N = 4 + R.nextBelow(8);
      for (size_t I = 0; I < N; ++I)
        A.Vals.push_back(R.nextInRange(-3, 30));
      B.setArray(Id, A);
    };
    MakeArr(IB);
    MakeArr(IC);
    return B;
  }

  sym::Context &Sym;
  pdag::PredContext &P;
  USRContext &U;
  Rng R;
  sym::SymbolId IB = 0, IC = 0;
};

TEST_F(UsrCompileTest, RandomizedParity) {
  for (uint64_t Seed = 1; Seed <= 600; ++Seed) {
    RandomUsr G(*this, Sym, P, U, Seed * 7919);
    std::vector<sym::SymbolId> Vars;
    const USR *S = G.gen(3, Vars);
    sym::Bindings B = G.bindings();
    size_t Cap = G.R.chance(1, 4) ? (8 + G.R.nextBelow(64)) : (1u << 22);
    SCOPED_TRACE("seed " + std::to_string(Seed) + " cap " +
                 std::to_string(Cap));
    expectParity(S, B, Cap);
  }
}

//===----------------------------------------------------------------------===//
// Pooled frames and chunked-parallel recurrences
//===----------------------------------------------------------------------===//

TEST_F(UsrCompileTest, PooledFrameReuseAndInvalidation) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  auto CU = CompiledUSR::compile(R, Sym);

  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 4);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {10, 20, 30, 40};
  B.setArray(IB, A);

  CompiledUSR::PooledFrame PF;
  EXPECT_EQ(CU->evalEmptyPooled(PF, B), std::make_optional(false));
  // Same stamp: served again (warm caches), same answer.
  EXPECT_EQ(CU->evalEmptyPooled(PF, B), std::make_optional(false));
  // Mutation invalidates: an empty range flips the answer to "empty".
  B.setScalar(Sym.symbol("N"), 0);
  EXPECT_EQ(CU->evalEmptyPooled(PF, B), std::make_optional(true));
  // An unbound bound expression fails — on a rebound frame.
  B.clearScalar(Sym.symbol("N"));
  EXPECT_EQ(CU->evalEmptyPooled(PF, B), std::nullopt);
}

TEST_F(UsrCompileTest, ParallelRecurMatchesSerial) {
  // Root recurrence over a large range: U_{i=1..N} [IB(i), IB(i)+1] ∩
  // [5000, 5001]. The parallel chunked evaluation must agree with the
  // serial order on empty, nonempty-at-position and failure-at-position
  // data, including when both a failure and a nonemptiness exist (the
  // earliest iteration decides).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const int64_t N = 20000;
  const USR *Body =
      U.intersect(U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2)),
                  U.interval(c(5000), c(2)));
  const USR *R = U.recur(I, c(1), c(N), Body);
  auto CU = CompiledUSR::compile(R, Sym);
  ASSERT_TRUE(CU->hasParallelRoot());
  ThreadPool Pool(4);

  Rng Rand(42);
  for (int Case = 0; Case < 12; ++Case) {
    sym::Bindings B;
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t X = 0; X < N; ++X)
      A.Vals.push_back(10 + (X % 997) * 4); // Never hits 5000/5001.
    int64_t HitAt = -1, FailAt = -1;
    if (Case % 3 == 1 || Case >= 9) {
      HitAt = Rand.nextInRange(1, N);
      A.Vals[static_cast<size_t>(HitAt - 1)] = 5000;
    }
    if (Case % 3 == 2 || Case >= 9) {
      // Iteration whose body fails: IB read goes out of bounds by
      // binding a shorter array? Instead poison via an unbound-symbol
      // gate... simplest: make the last iterations OOB by truncating.
      FailAt = Rand.nextInRange(1, N);
    }
    if (FailAt > 0)
      A.Vals.resize(static_cast<size_t>(FailAt - 1));
    B.setArray(IB, A);

    sym::Bindings BSer = B;
    auto Serial = CU->evalEmpty(BSer);
    CompiledUSR::PooledFrame PF;
    auto Par = CU->evalEmptyParallel(PF, B, Pool, 1u << 22, nullptr,
                                     /*MinParallelIters=*/16);
    EXPECT_EQ(Serial, Par) << "case " << Case << " hit " << HitAt
                           << " fail " << FailAt;
    sym::Bindings BInt = B;
    EXPECT_EQ(evalUSREmpty(R, BInt), Serial) << "case " << Case;
  }
}

TEST_F(UsrCompileTest, BatchedGateSweepTripsStraddlingBlockWidth) {
  // Gated root recurrence in exactly the batchable shape (the body is one
  // variant gate over the recurrence variable): trips of W-1, W, W+1 and
  // 2W+1 with gate-false lanes planted at every position and the bound
  // array truncated so out-of-bounds gate reads (conservative unknown)
  // fire mid-block. expectParity cross-checks BlockGates on vs off vs the
  // interpreter on every combination, for both full and emptiness modes.
  const int64_t W = static_cast<int64_t>(pdag::PredBlockWidth);
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.gate(P.gt(Sym.arrayRef(IB, Sym.symRef(I)), c(0)),
                           U.interval(Sym.symRef(I), c(1)));
  for (int64_t N : {W - 1, W, W + 1, 2 * W + 1}) {
    const USR *R = U.recur(I, c(1), c(N), Body);
    for (int64_t Drop : {int64_t(0), int64_t(1), N / 2, N})
      for (int64_t Len : {N, N / 2, W}) {
        sym::ArrayBinding A;
        A.Lo = 1;
        A.Vals.assign(static_cast<size_t>(N), 1);
        if (Drop)
          A.Vals[static_cast<size_t>(Drop - 1)] = 0; // Gate-false lane.
        A.Vals.resize(static_cast<size_t>(std::min(Len, N))); // OOB > Len.
        sym::Bindings B;
        B.setArray(IB, A);
        expectParity(R, B);
      }
    // The default path really batches: a full sweep probes the gate in
    // ceil(N/W) blocks and never scalar; BlockGates off is all-scalar.
    sym::ArrayBinding A;
    A.Lo = 1;
    A.Vals.assign(static_cast<size_t>(N), 1);
    sym::Bindings B;
    B.setArray(IB, A);
    auto CU = CompiledUSR::compile(R, Sym);
    USREvalStats SBlk, SScl;
    ASSERT_TRUE(CU->evalPoints(B, 1u << 22, &SBlk).has_value());
    EXPECT_EQ(SBlk.GateBlockEvals, static_cast<uint64_t>((N + W - 1) / W));
    EXPECT_EQ(SBlk.GateScalarEvals, 0u);
    ASSERT_TRUE(
        CU->evalPoints(B, 1u << 22, &SScl, /*BlockGates=*/false).has_value());
    EXPECT_EQ(SScl.GateBlockEvals, 0u);
    EXPECT_EQ(SScl.GateScalarEvals, static_cast<uint64_t>(N));
  }
}

TEST_F(UsrCompileTest, BatchedGateParallelFirstDecisionExactness) {
  // Emptiness of a gated root recurrence under parallelAllOf chunking:
  // the gate passes only where IB(i) == 5 (nonempty decision) and reads
  // out of bounds past the array end (failure decision). Whichever
  // iteration comes FIRST must decide — serial and parallel, batched and
  // scalar, all bit-identical to the interpreter.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const int64_t N = 5000;
  const USR *Body = U.gate(P.eq(Sym.arrayRef(IB, Sym.symRef(I)), c(5)),
                           U.interval(Sym.symRef(I), c(1)));
  const USR *R = U.recur(I, c(1), c(N), Body);
  auto CU = CompiledUSR::compile(R, Sym);
  ASSERT_TRUE(CU->hasParallelRoot());
  ThreadPool Pool(4);

  Rng Rand(20260808);
  for (int Case = 0; Case < 12; ++Case) {
    sym::Bindings B;
    sym::ArrayBinding A;
    A.Lo = 1;
    A.Vals.assign(static_cast<size_t>(N), 1); // Gate false everywhere.
    int64_t HitAt = -1, FailAt = -1;
    if (Case % 3 == 1 || Case >= 9) {
      HitAt = Rand.nextInRange(1, N);
      A.Vals[static_cast<size_t>(HitAt - 1)] = 5; // Gate passes: nonempty.
    }
    if (Case % 3 == 2 || Case >= 9) {
      FailAt = Rand.nextInRange(1, N);
      A.Vals.resize(static_cast<size_t>(FailAt - 1)); // OOB from FailAt.
    }
    B.setArray(IB, A);

    sym::Bindings BInt = B;
    auto Ref = evalUSREmpty(R, BInt);
    EXPECT_EQ(CU->evalEmpty(B, 1u << 22, nullptr, /*BlockGates=*/true), Ref)
        << "case " << Case << " hit " << HitAt << " fail " << FailAt;
    EXPECT_EQ(CU->evalEmpty(B, 1u << 22, nullptr, /*BlockGates=*/false), Ref)
        << "case " << Case;
    CompiledUSR::PooledFrame PFB, PFS;
    EXPECT_EQ(CU->evalEmptyParallel(PFB, B, Pool, 1u << 22, nullptr,
                                    /*MinParallelIters=*/16, nullptr,
                                    /*BlockGates=*/true),
              Ref)
        << "case " << Case << " hit " << HitAt << " fail " << FailAt;
    EXPECT_EQ(CU->evalEmptyParallel(PFS, B, Pool, 1u << 22, nullptr,
                                    /*MinParallelIters=*/16, nullptr,
                                    /*BlockGates=*/false),
              Ref)
        << "case " << Case;
  }
}

TEST_F(UsrCompileTest, StatsReportRunsAndAvoidedPoints) {
  // One 128-point contiguous leaf: one run, 127 enumerations avoided.
  const USR *A = U.interval(c(0), c(128));
  auto CU = CompiledUSR::compile(A, Sym);
  sym::Bindings B;
  USREvalStats St;
  auto V = CU->evalPoints(B, 1u << 22, &St);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->size(), 128u);
  EXPECT_EQ(St.RunsProduced, 1u);
  EXPECT_EQ(St.PointsAvoided, 127u);
  EXPECT_EQ(St.PointsMaterialized, 0u);
}

//===----------------------------------------------------------------------===//
// USRCompileCache frameless-caller serialization (regression)
//===----------------------------------------------------------------------===//

TEST_F(UsrCompileTest, FramelessConcurrentEmptinessSerializesOnFallback) {
  // Regression for a guard gap surfaced by the thread-safety
  // annotations: frameless USRCompileCache::emptiness() callers all
  // share the cache entry's fallback evaluation frame (mutable bind
  // stamps and recurrence prefix caches). They used to touch it with no
  // synchronization — a data race under concurrency, with the prefix
  // cache of one dataset poisoning another's evaluation. The entry now
  // carries a fallback mutex held for the whole frameless evaluation,
  // so concurrent frameless callers serialize and stay exact. TSan (CI)
  // pins the race half; the per-dataset answers pin the poisoning half.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const int64_t N = 4096;
  const USR *Body =
      U.intersect(U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2)),
                  U.interval(c(5000), c(2)));
  const USR *R = U.recur(I, c(1), c(N), Body);

  rt::PredCompileCache Preds(Sym);
  rt::USRCompileCache Cache(Sym, Preds);

  // Per-thread datasets with different answers: even threads see a hit
  // (non-empty), odd threads never do (empty). Re-binding the same
  // shared fallback frame between datasets is exactly the state the old
  // code raced on.
  constexpr int Threads = 8, Rounds = 25;
  auto MakeBindings = [&](bool Hit) {
    sym::Bindings B;
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t X = 0; X < N; ++X)
      A.Vals.push_back(10 + (X % 997) * 4);
    if (Hit)
      A.Vals[N / 2] = 5000;
    B.setArray(IB, A);
    return B;
  };
  std::atomic<int> Wrong{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      const bool Hit = (T % 2) == 0;
      sym::Bindings B = MakeBindings(Hit);
      for (int Rd = 0; Rd < Rounds; ++Rd) {
        // Frameless: no USRFramePool argument — the fallback-frame path.
        auto E = Cache.emptiness(R, B);
        if (E != std::make_optional(!Hit))
          ++Wrong;
      }
    });
  for (std::thread &Th : Ts)
    Th.join();
  EXPECT_EQ(Wrong.load(), 0);

  // Mixed mode: framed callers must stay parallel (they never touch the
  // fallback frame) while frameless callers serialize beside them.
  std::atomic<int> WrongMixed{0};
  std::vector<std::thread> Ms;
  for (int T = 0; T < Threads; ++T)
    Ms.emplace_back([&, T] {
      const bool Hit = (T % 2) == 0;
      const bool Framed = T < Threads / 2;
      sym::Bindings B = MakeBindings(Hit);
      rt::USRFramePool Pool;
      for (int Rd = 0; Rd < Rounds; ++Rd) {
        auto E = Cache.emptiness(R, B, nullptr, nullptr,
                                 Framed ? &Pool : nullptr);
        if (E != std::make_optional(!Hit))
          ++WrongMixed;
      }
    });
  for (std::thread &Th : Ms)
    Th.join();
  EXPECT_EQ(WrongMixed.load(), 0);
}

} // namespace
