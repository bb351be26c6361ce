//===- tests/lmad_compare_test.cpp - LMAD predicate extraction tests ------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "lmad/LMADCompare.h"
#include "pdag/PredEval.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

using namespace halo;
using namespace halo::lmad;
using pdag::Pred;

namespace {

class LmadCompareTest : public ::testing::Test {
protected:
  LmadCompareTest() : P(Sym) {}
  sym::Context Sym;
  pdag::PredContext P;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(LmadCompareTest, InterleavedAccessesDisjoint) {
  // Sec. 3.2 example (i): [2]v[99]+0 vs [2]v[99]+1 are interleaved.
  LMAD A = LMAD::makeStrided(c(2), c(99), c(0));
  LMAD B = LMAD::makeStrided(c(2), c(99), c(1));
  EXPECT_TRUE(disjointLMAD1D(P, A, B)->isTrue());
}

TEST_F(LmadCompareTest, DisjointIntervals) {
  // Sec. 3.2 example (ii): [2]v[49]+0 vs [2]v[49]+50.
  LMAD A = LMAD::makeStrided(c(2), c(49), c(0));
  LMAD B = LMAD::makeStrided(c(2), c(49), c(50));
  EXPECT_TRUE(disjointLMAD1D(P, A, B)->isTrue());
}

TEST_F(LmadCompareTest, OverlappingNotProvenDisjoint) {
  LMAD A = LMAD::makeStrided(c(2), c(98), c(0));
  LMAD B = LMAD::makeStrided(c(2), c(98), c(4)); // Same parity: overlaps.
  const Pred *D = disjointLMAD1D(P, A, B);
  EXPECT_TRUE(D->isFalse());
}

TEST_F(LmadCompareTest, SymbolicDisjointnessBecomesPredicate) {
  // [1]v[NS-1]+0 vs [1]v[M-1]+NS: disjoint (intervals touch but do not
  // overlap), provable statically: NS-1 < NS.
  LMAD A = LMAD::makeStrided(c(1), Sym.addConst(s("NS"), -1), c(0));
  LMAD B = LMAD::makeStrided(c(1), Sym.addConst(s("M"), -1), s("NS"));
  EXPECT_TRUE(disjointLMAD1D(P, A, B)->isTrue());
}

TEST_F(LmadCompareTest, SymbolicStrideInterleaveUsesDividesLeaf) {
  // Equal symbolic strides M with offsets 0 and 1: disjoint iff M does not
  // divide 1 (i.e. M != 1) or intervals separate; the gcd path must
  // produce a !(M | 1) leaf.
  LMAD A = LMAD::makeStrided(s("M"), Sym.mul(s("M"), s("k")), c(0));
  LMAD B = LMAD::makeStrided(s("M"), Sym.mul(s("M"), s("k")), c(1));
  const Pred *D = disjointLMAD1D(P, A, B);
  EXPECT_FALSE(D->isFalse());
  sym::Bindings Bind;
  Bind.setScalar(Sym.symbol("M"), 4);
  Bind.setScalar(Sym.symbol("k"), 3);
  EXPECT_TRUE(pdag::evalPred(D, Bind)); // 4 does not divide 1.
  Bind.setScalar(Sym.symbol("M"), 1); // Stride 1: sets truly overlap.
  EXPECT_FALSE(pdag::evalPred(D, Bind));
}

TEST_F(LmadCompareTest, InclusionIntervalCase) {
  // Fig. 4 / Sec. 1.2: [0, NS-1] subset [0, 16NP-1] <== NS <= 16*NP.
  LMAD A = LMAD::makeInterval(Sym, c(0), s("NS"));
  LMAD B = LMAD::makeInterval(Sym, c(0), Sym.mulConst(s("NP"), 16));
  const Pred *I = includedLMAD1D(P, A, B);
  EXPECT_EQ(I, P.le(s("NS"), Sym.mulConst(s("NP"), 16)));
}

TEST_F(LmadCompareTest, InclusionStrideDivisibility) {
  // [4]v[96]+8 subset [2]v[120]+0: strides 2|4, offsets 2|8, bounds ok.
  LMAD A = LMAD::makeStrided(c(4), c(96), c(8));
  LMAD B = LMAD::makeStrided(c(2), c(120), c(0));
  EXPECT_TRUE(includedLMAD1D(P, A, B)->isTrue());
  // Offset parity breaks inclusion: 8+1 = 9 is odd.
  LMAD A2 = LMAD::makeStrided(c(4), c(96), c(9));
  EXPECT_TRUE(includedLMAD1D(P, A2, B)->isFalse());
}

TEST_F(LmadCompareTest, PaperCorrecDo900MultiDim) {
  // Sec. 3.2: [M]v[2M]+j-1+2M vs [1,M]v[j-2,2M]+2M, loop index j in 1..N.
  // The projection path must produce (well-formedness) N <= M style
  // predicates with the inner parts disjoint.
  const sym::Expr *M = s("M"), *J = s("j");
  LMAD C = LMAD::makeStrided(M, Sym.mulConst(M, 2),
                             Sym.add(Sym.addConst(J, -1),
                                     Sym.mulConst(M, 2)));
  LMAD D({Dim{c(1), Sym.addConst(J, -2)}, Dim{M, Sym.mulConst(M, 2)}},
         Sym.mulConst(M, 2));
  const Pred *Pr = disjointLMAD(P, C, D);
  EXPECT_FALSE(Pr->isFalse());
  // Concrete check: j=3, M=10, the sets {12,22,32} and {20,21,30,31,40,41}
  // wait -- D = {0,1} + {0,10,20} + 20 = {20,21,30,31,40,41};
  // C = {2+20, 2+20+10, 2+20+20} = {22,32,42}. Disjoint indeed.
  sym::Bindings B;
  B.setScalar(Sym.symbol("j"), 3);
  B.setScalar(Sym.symbol("M"), 10);
  EXPECT_TRUE(pdag::evalPred(Pr, B));
}

TEST_F(LmadCompareTest, FillsArrayStrideOne) {
  // [1]v[NP*16-1]+0 fills an array of size 16*NP.
  LMAD L = LMAD::makeInterval(Sym, c(0), Sym.mulConst(s("NP"), 16));
  EXPECT_TRUE(fillsArray(P, L, Sym.mulConst(s("NP"), 16))->isTrue());
  // It does not fill a larger array.
  const Pred *Bigger = fillsArray(P, L, Sym.mulConst(s("NP"), 32));
  EXPECT_FALSE(Bigger->isTrue());
}

TEST_F(LmadCompareTest, FillsArrayStridedFails) {
  LMAD L = LMAD::makeStrided(c(2), Sym.mulConst(s("NP"), 16), c(0));
  EXPECT_TRUE(fillsArray(P, L, Sym.mulConst(s("NP"), 8))->isFalse());
}

TEST_F(LmadCompareTest, DenseUnderestimateTiling) {
  // [1,M]v[M-1,M*(K-1)]+t tiles exactly into [1]v[M*K-1]+t.
  const sym::Expr *M = s("M"), *K = s("K");
  LMAD L({Dim{c(1), Sym.addConst(M, -1)},
          Dim{M, Sym.mul(M, Sym.addConst(K, -1))}},
         s("t"));
  CondLMAD U = denseUnderestimate(P, L);
  EXPECT_TRUE(U.Cond->isTrue());
  ASSERT_EQ(U.Descriptor.rank(), 1u);
  EXPECT_EQ(U.Descriptor.dims()[0].Span,
            Sym.addConst(Sym.mul(M, K), -1));
}

TEST_F(LmadCompareTest, DenseUnderestimateConditional) {
  // [1,S]v[E,...]: tiling needs S == E+1; with S,E free the condition is a
  // runtime predicate.
  LMAD L({Dim{c(1), s("E")}, Dim{s("S"), Sym.mul(s("S"), s("n"))}}, c(0));
  CondLMAD U = denseUnderestimate(P, L);
  EXPECT_FALSE(U.Cond->isTrue());
  EXPECT_FALSE(U.Cond->isFalse());
  sym::Bindings B;
  B.setScalar(Sym.symbol("E"), 9);
  B.setScalar(Sym.symbol("S"), 10);
  B.setScalar(Sym.symbol("n"), 3);
  EXPECT_TRUE(pdag::evalPred(U.Cond, B));
  B.setScalar(Sym.symbol("S"), 12); // Gap between tiles.
  EXPECT_FALSE(pdag::evalPred(U.Cond, B));
}

TEST_F(LmadCompareTest, SetLiftsCombine) {
  PairMemo Memo;
  auto Keyed = [&Memo](const LMADSet &Set) {
    KeyedSet K;
    for (const LMAD &L : Set)
      Memo.append(K, L);
    return K;
  };
  KeyedSet A = Keyed({LMAD::makeInterval(Sym, c(0), c(10)),
                      LMAD::makeInterval(Sym, c(20), c(10))});
  KeyedSet B = Keyed({LMAD::makeInterval(Sym, c(40), c(10))});
  EXPECT_TRUE(disjointSets(P, Memo, A, B)->isTrue());
  KeyedSet Cover = Keyed({LMAD::makeInterval(Sym, c(0), c(100))});
  EXPECT_TRUE(includedSets(P, Memo, A, Cover)->isTrue());
}

TEST_F(LmadCompareTest, PairMemoKeysOnStructure) {
  PairMemo Memo;
  LMAD X = LMAD::makeStrided(c(2), s("n"), s("a"));
  LMAD Y = LMAD::makeInterval(Sym, s("b"), s("m"));
  KeyedSet A, B;
  Memo.append(A, X);
  Memo.append(A, Y);
  Memo.append(B, LMAD::makeStrided(c(2), s("n"), s("a"))); // Equal to X.
  EXPECT_EQ(A.Ids[0], B.Ids[0]);
  EXPECT_NE(A.Ids[0], A.Ids[1]);

  // A memoized pair is what the unmemoized comparison returns, and asking
  // again interns nothing.
  const pdag::Pred *D = Memo.disjoint(P, A, 1, B, 0);
  EXPECT_EQ(D, disjointLMAD(P, Y, X));
  const pdag::Pred *I = Memo.included(P, A, 1, B, 0);
  EXPECT_EQ(I, includedLMAD(P, Y, X));
  const pdag::Pred *Lift = disjointSets(P, Memo, A, B);
  const size_t Nodes = P.numPreds();
  EXPECT_EQ(disjointSets(P, Memo, A, B), Lift);
  EXPECT_EQ(P.numPreds(), Nodes);
}

//===----------------------------------------------------------------------===//
// Property tests: predicate true ==> set relation holds (brute force)
//===----------------------------------------------------------------------===//

class LmadSoundnessTest : public ::testing::TestWithParam<uint64_t> {
protected:
  LmadSoundnessTest() : P(Sym) {}
  sym::Context Sym;
  pdag::PredContext P;

  LMAD randomLMAD(Rng &R) {
    int Rank = static_cast<int>(R.nextBelow(3)); // 0..2 dims
    std::vector<Dim> Dims;
    for (int I = 0; I < Rank; ++I) {
      int64_t Stride = R.nextInRange(1, 6);
      int64_t Count = R.nextInRange(1, 5);
      Dims.push_back(Dim{Sym.intConst(Stride),
                         Sym.intConst(Stride * (Count - 1))});
    }
    return LMAD(std::move(Dims), Sym.intConst(R.nextInRange(-8, 8)));
  }

  std::set<int64_t> pointSet(const LMAD &L) {
    sym::Bindings B;
    std::vector<int64_t> Out;
    EXPECT_TRUE(enumerate(L, B, Out));
    return std::set<int64_t>(Out.begin(), Out.end());
  }
};

TEST_P(LmadSoundnessTest, DisjointPredicateIsSound) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 50; ++Trial) {
    LMAD A = randomLMAD(R), B = randomLMAD(R);
    const pdag::Pred *D = disjointLMAD(P, A, B);
    sym::Bindings Bind;
    auto V = pdag::tryEvalPred(D, Bind);
    ASSERT_TRUE(V.has_value());
    if (!*V)
      continue;
    std::set<int64_t> SA = pointSet(A), SB = pointSet(B);
    for (int64_t X : SA)
      EXPECT_FALSE(SB.count(X))
          << "claimed disjoint but share " << X << "\nA=" << A.toString(Sym)
          << "\nB=" << B.toString(Sym);
  }
}

TEST_P(LmadSoundnessTest, IncludedPredicateIsSound) {
  Rng R(GetParam() ^ 0x9999);
  for (int Trial = 0; Trial < 50; ++Trial) {
    LMAD A = randomLMAD(R), B = randomLMAD(R);
    const pdag::Pred *I = includedLMAD(P, A, B);
    sym::Bindings Bind;
    auto V = pdag::tryEvalPred(I, Bind);
    ASSERT_TRUE(V.has_value());
    if (!*V)
      continue;
    std::set<int64_t> SA = pointSet(A), SB = pointSet(B);
    for (int64_t X : SA)
      EXPECT_TRUE(SB.count(X))
          << "claimed included but " << X << " missing\nA="
          << A.toString(Sym) << "\nB=" << B.toString(Sym);
  }
}

TEST_P(LmadSoundnessTest, DisjointPredicateIsUsefulOnSeparatedIntervals) {
  // Anti-vacuity: on genuinely separated intervals the predicate must
  // succeed, not just be sound-by-false.
  Rng R(GetParam() ^ 0x7777);
  for (int Trial = 0; Trial < 20; ++Trial) {
    int64_t Lo1 = R.nextInRange(0, 10), Len1 = R.nextInRange(1, 10);
    int64_t Lo2 = Lo1 + Len1 + R.nextInRange(0, 5), Len2 = R.nextInRange(1, 9);
    LMAD A = LMAD::makeInterval(Sym, Sym.intConst(Lo1), Sym.intConst(Len1));
    LMAD B = LMAD::makeInterval(Sym, Sym.intConst(Lo2), Sym.intConst(Len2));
    EXPECT_TRUE(disjointLMAD(P, A, B)->isTrue());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LmadSoundnessTest,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
