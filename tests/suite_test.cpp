//===- tests/suite_test.cpp - Benchmark suite integration tests -----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// For every loop of every reconstructed benchmark (Tables 1-3):
//  - the computed classification must agree with the paper's category,
//  - hybrid parallel execution must produce the same memory state as
//    sequential execution (with reductions compared under a tolerance),
//  - the static-only baseline (commercial-compiler proxy) must never
//    parallelize the runtime-test loops.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

#include "session/Session.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace halo;
using namespace halo::suite;
using analysis::LoopClass;
using analysis::Technique;

namespace {

struct LoopCase {
  Benchmark *B;
  const LoopSpec *LS;
};

std::vector<std::unique_ptr<Benchmark>> &allBenchmarks() {
  static std::vector<std::unique_ptr<Benchmark>> Benches =
      buildAllBenchmarks();
  return Benches;
}

std::vector<LoopCase> allLoops() {
  std::vector<LoopCase> Out;
  for (auto &B : allBenchmarks())
    for (const LoopSpec &LS : B->Loops)
      Out.push_back(LoopCase{B.get(), &LS});
  return Out;
}

class SuiteLoopTest : public ::testing::TestWithParam<size_t> {
protected:
  LoopCase theCase() { return allLoops()[GetParam()]; }
};

std::string loopCaseName(const ::testing::TestParamInfo<size_t> &Info) {
  LoopCase C = allLoops()[Info.param];
  std::string Name = C.B->Name + "_" + C.LS->Name;
  for (char &Ch : Name)
    if (!isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

TEST_P(SuiteLoopTest, ClassificationMatchesPaperCategory) {
  LoopCase C = theCase();
  rt::Memory M;
  sym::Bindings Bd;
  C.B->Setup(M, Bd, 1);
  analysis::AnalyzerOptions Opts;
  Opts.Probe = &Bd;
  Opts.HoistableContext = C.LS->Hoistable;
  analysis::HybridAnalyzer A(C.B->usr(), C.B->prog(), Opts);
  analysis::LoopPlan Plan = A.analyze(*C.LS->Loop);

  const std::string &Paper = C.LS->PaperClass;
  std::string Computed = Plan.classString();
  SCOPED_TRACE("paper=" + Paper + " computed=" + Computed);

  if (Paper == "STATIC-PAR") {
    EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
  } else if (Paper == "STATIC-SEQ") {
    EXPECT_EQ(Plan.Class, LoopClass::StaticSeq);
  } else if (Paper == "TLS") {
    EXPECT_EQ(Plan.Class, LoopClass::TLS);
  } else if (Paper.find("HOIST-USR") != std::string::npos) {
    EXPECT_EQ(Plan.Class, LoopClass::HoistUSR);
  } else if (Paper.find("CIV") != std::string::npos) {
    EXPECT_TRUE(Plan.Techniques.count(Technique::CivAgg));
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  } else if (Paper.find("BOUNDS-COMP") != std::string::npos) {
    EXPECT_TRUE(Plan.Techniques.count(Technique::BoundsComp));
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  } else {
    // A predicate classification like "FI O(1)" / "OI O(N)" /
    // "F/OI O(1)/O(N)" / "SLV O(N)".
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
    // Complexity never exceeds O(N) (Sec. 3.6).
    EXPECT_LE(Plan.ReportFlowDepth, 1);
    EXPECT_LE(Plan.ReportOutDepth, 1);
  }
}

TEST_P(SuiteLoopTest, ParallelExecutionMatchesSequential) {
  LoopCase C = theCase();

  // Sequential reference.
  rt::Memory SeqM;
  sym::Bindings SeqB;
  C.B->Setup(SeqM, SeqB, 1);
  rt::interpSequential(*C.LS->Loop, SeqM, SeqB);

  // Hybrid parallel execution under the plan, in a fresh session.
  rt::Memory ParM;
  sym::Bindings ParB;
  C.B->Setup(ParM, ParB, 1);
  analysis::AnalyzerOptions Opts;
  Opts.Probe = &ParB;
  Opts.HoistableContext = C.LS->Hoistable;
  session::Session S(C.B->prog(), C.B->usr());
  const analysis::LoopPlan &Plan = S.prepare(*C.LS->Loop, Opts).Plan;
  rt::ExecStats Stats = S.run(*C.LS->Loop, ParM, ParB);
  SCOPED_TRACE("class=" + Plan.classString() +
               " parallel=" + std::to_string(Stats.RanParallel) +
               " tls=" + std::to_string(Stats.UsedTLS));

  // Memory states must agree (reductions may reorder float additions).
  ASSERT_EQ(SeqM.arrays().size(), ParM.arrays().size());
  for (const auto &KV : SeqM.arrays()) {
    const auto &Seq = KV.second;
    const auto *Par = ParM.find(KV.first);
    ASSERT_NE(Par, nullptr);
    ASSERT_EQ(Seq.size(), Par->size());
    for (size_t I = 0; I < Seq.size(); ++I) {
      double Diff = std::fabs(Seq[I] - (*Par)[I]);
      double Tol = 1e-9 * (1.0 + std::fabs(Seq[I]));
      ASSERT_LE(Diff, Tol)
          << "array " << C.B->sym().symbolInfo(KV.first).Name << "[" << I
          << "]: seq=" << Seq[I] << " par=" << (*Par)[I];
    }
  }

  // Loops the paper parallelizes must actually run in parallel here.
  if (Plan.Class == LoopClass::StaticPar ||
      Plan.Class == LoopClass::Predicated)
    EXPECT_TRUE(Stats.RanParallel);
  if (Plan.Class == LoopClass::StaticSeq)
    EXPECT_FALSE(Stats.RanParallel && !Stats.UsedTLS);
}

TEST_P(SuiteLoopTest, StaticOnlyBaselineNeverUsesPredicates) {
  LoopCase C = theCase();
  rt::Memory M;
  sym::Bindings Bd;
  C.B->Setup(M, Bd, 1);
  analysis::AnalyzerOptions Opts;
  Opts.RuntimeTests = false; // The ifort/xlf_r proxy.
  Opts.Probe = &Bd;
  analysis::HybridAnalyzer A(C.B->usr(), C.B->prog(), Opts);
  analysis::LoopPlan Plan = A.analyze(*C.LS->Loop);
  for (const analysis::ArrayPlan &AP : Plan.Arrays) {
    EXPECT_TRUE(AP.Flow.Stages.empty());
    EXPECT_TRUE(AP.Output.Stages.empty());
  }
  // A paper-STATIC-PAR loop still parallelizes statically.
  if (C.LS->PaperClass == "STATIC-PAR")
    EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
}

INSTANTIATE_TEST_SUITE_P(AllBenchLoops, SuiteLoopTest,
                         ::testing::Range<size_t>(0, allLoops().size()),
                         loopCaseName);

//===----------------------------------------------------------------------===//
// Whole-suite sanity
//===----------------------------------------------------------------------===//

TEST(SuiteShapeTest, AllTablesPresent) {
  auto &Benches = allBenchmarks();
  EXPECT_GE(Benches.size(), 26u);
  size_t Perfect = 0, S92 = 0, S2k = 0;
  for (auto &B : Benches) {
    if (B->SuiteName == "PERFECT")
      ++Perfect;
    else if (B->SuiteName == "SPEC92")
      ++S92;
    else
      ++S2k;
  }
  EXPECT_EQ(Perfect, 10u); // Table 1.
  EXPECT_EQ(S92, 7u);      // Table 2.
  EXPECT_EQ(S2k, 10u);     // Table 3.
}

TEST(SuiteShapeTest, EveryLoopHasWorkloadWeight) {
  for (auto &B : allBenchmarks())
    for (const LoopSpec &LS : B->Loops) {
      EXPECT_GT(LS.LscPercent, 0.0) << B->Name << " " << LS.Name;
      EXPECT_NE(LS.Loop, nullptr);
      EXPECT_FALSE(LS.PaperClass.empty());
    }
}

} // namespace
