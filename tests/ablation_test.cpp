//===- tests/ablation_test.cpp - Design-choice ablation tests -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Locks in the ablation claims of `bench_ablations` (docs/BENCHMARKS.md):
// disabling each design choice degrades exactly the loops the paper
// credits it with.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::suite;
using analysis::LoopClass;

namespace {

struct Found {
  Benchmark *B = nullptr;
  const LoopSpec *LS = nullptr;
};

class AblationTest : public ::testing::Test {
protected:
  static std::vector<std::unique_ptr<Benchmark>> &benches() {
    static auto B = buildAllBenchmarks();
    return B;
  }

  Found find(const std::string &Bench, const std::string &Loop) {
    for (auto &B : benches())
      if (B->Name == Bench)
        for (const LoopSpec &LS : B->Loops)
          if (LS.Name == Loop)
            return Found{B.get(), &LS};
    ADD_FAILURE() << "loop not found: " << Bench << " " << Loop;
    return Found{};
  }

  analysis::LoopPlan analyzeWith(Found F, sym::Bindings &Probe,
                                 analysis::AnalyzerOptions Opts) {
    Opts.Probe = &Probe;
    Opts.HoistableContext = F.LS->Hoistable;
    analysis::HybridAnalyzer A(F.B->usr(), F.B->prog(), Opts);
    return A.analyze(*F.LS->Loop);
  }

  sym::Bindings setup(Found F) {
    rt::Memory M;
    sym::Bindings B;
    F.B->Setup(M, B, 1);
    return B;
  }
};

TEST_F(AblationTest, MonotonicityOffLosesIndexArrayOutputTests) {
  // trfd INTGRL_do140 (OI O(N) via MON) degrades without the rule.
  Found F = find("trfd", "INTGRL_do140");
  sym::Bindings B = setup(F);
  analysis::AnalyzerOptions Full, NoMon;
  NoMon.Factor.Monotonicity = false;
  analysis::LoopPlan PFull = analyzeWith(F, B, Full);
  analysis::LoopPlan PNoMon = analyzeWith(F, B, NoMon);
  EXPECT_EQ(PFull.Class, LoopClass::Predicated);
  EXPECT_NE(PNoMon.Class, LoopClass::Predicated);
}

TEST_F(AblationTest, FourierMotzkinOffRemainsSoundViaOverlappingRules) {
  // The framework has overlapping rules: rule (1)'s invariant
  // overestimates eliminate loop indexes by *aggregation*, so the O(1)
  // classifications of these loops survive even with the Fig. 6(b)
  // eliminator disabled (the eliminator's direct value is unit-tested in
  // FourierMotzkinTest.PaperExampleCorrecDo711). What must hold here:
  // disabling FM never changes a sound classification into an unsound
  // one, and the loops stay parallelizable.
  analysis::AnalyzerOptions NoFM;
  NoFM.Factor.FourierMotzkin = false;
  for (auto [Bench, Loop] : {std::pair<const char *, const char *>
                                 {"flo52", "DFLUX_do40"},
                             {"bdna", "CORREC_do711"},
                             {"trfd", "OLDA_do300"}}) {
    Found F = find(Bench, Loop);
    sym::Bindings B = setup(F);
    analysis::LoopPlan P = analyzeWith(F, B, NoFM);
    SCOPED_TRACE(std::string(Bench) + " " + Loop);
    EXPECT_EQ(P.Class, LoopClass::Predicated);
  }
}

TEST_F(AblationTest, RuntimeTestsOffAbandonsPredicateLoops) {
  // The paper's central claim: only the hybrid approach parallelizes
  // these (the commercial-proxy baseline gives them up).
  // All four loops read locations they may also write, so static
  // privatization cannot rescue the baseline (write-only loops like
  // INTGRL_do140 legitimately privatize statically and are not listed).
  for (auto [Bench, Loop] : {std::pair<const char *, const char *>
                                 {"dyfesm", "SOLVH_do20"},
                             {"arc2d", "XPENT2_do11"},
                             {"ocean", "FTRVMT_do109"},
                             {"wupwise", "MULDEO_do100"}}) {
    Found F = find(Bench, Loop);
    sym::Bindings B = setup(F);
    analysis::AnalyzerOptions Full, NoRT;
    NoRT.RuntimeTests = false;
    analysis::LoopPlan PFull = analyzeWith(F, B, Full);
    analysis::LoopPlan PNoRT = analyzeWith(F, B, NoRT);
    SCOPED_TRACE(std::string(Bench) + " " + Loop);
    EXPECT_EQ(PFull.Class, LoopClass::Predicated);
    EXPECT_NE(PNoRT.Class, LoopClass::Predicated);
    EXPECT_NE(PNoRT.Class, LoopClass::StaticPar);
  }
}

TEST_F(AblationTest, RuntimeTestsOffKeepsStaticLoops) {
  for (auto [Bench, Loop] : {std::pair<const char *, const char *>
                                 {"mdg", "INTERF_do1000"},
                             {"swim", "SHALOW_do3500"}}) {
    Found F = find(Bench, Loop);
    sym::Bindings B = setup(F);
    analysis::AnalyzerOptions NoRT;
    NoRT.RuntimeTests = false;
    analysis::LoopPlan P = analyzeWith(F, B, NoRT);
    SCOPED_TRACE(std::string(Bench) + " " + Loop);
    EXPECT_EQ(P.Class, LoopClass::StaticPar);
  }
}

TEST_F(AblationTest, CivLoopsDependOnCivSupport) {
  // track EXTEND_do400 is parallel only through CIV aggregation; the
  // static baseline cannot touch it.
  Found F = find("track", "EXTEND_do400");
  sym::Bindings B = setup(F);
  analysis::AnalyzerOptions Full, NoRT;
  NoRT.RuntimeTests = false;
  analysis::LoopPlan PFull = analyzeWith(F, B, Full);
  EXPECT_EQ(PFull.Class, LoopClass::Predicated);
  EXPECT_TRUE(PFull.Techniques.count(analysis::Technique::CivAgg));
  EXPECT_FALSE(PFull.Civ.Envelopes.empty());
}

} // namespace
