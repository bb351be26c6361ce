//===- bench/ablations.cpp - Design-choice ablation harness ---------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Toggles the design choices docs/BENCHMARKS.md lists and reports how each
// benchmark loop's classification degrades:
//
//  - no-MON   : monotonicity rule off (Sec. 3.3) — index-array output
//               independence (SOLVH, INTGRL, MXMULT) loses its O(N) test,
//  - no-FM    : Fourier-Motzkin off (Fig. 6b) — O(1) flow tests that need
//               loop-index elimination (CORREC_do711) degrade,
//  - no-INV   : invariant overestimates off (rule 1 of Fig. 5),
//  - no-RT    : all runtime tests off (the commercial-compiler proxy),
//  - no-CASC  : cascade separation / hoisting off (Sec. 3.5) — first
//               successful tests get more expensive.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace halo;

namespace {

analysis::AnalyzerOptions baseOpts(const sym::Bindings *Probe,
                                   bool Hoistable) {
  analysis::AnalyzerOptions O;
  O.Probe = Probe;
  O.HoistableContext = Hoistable;
  return O;
}

std::string classify(suite::Benchmark &B, const suite::LoopSpec &LS,
                     analysis::AnalyzerOptions Opts) {
  // Classification only: a single-worker session (no execution happens).
  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session S(B.prog(), B.usr(), SO);
  return S.prepare(*LS.Loop, Opts).Plan.classString();
}

} // namespace

int main() {
  std::printf("=== Ablations: classification under disabled features ===\n");
  std::printf("%-10s %-16s %-20s %-20s %-20s %-20s %-12s\n", "BENCH", "LOOP",
              "FULL", "no-MON", "no-FM", "no-INV", "no-RT");
  auto Benches = suite::buildAllBenchmarks();
  for (auto &B : Benches) {
    rt::Memory M;
    sym::Bindings Bd;
    B->Setup(M, Bd, 1);
    for (const suite::LoopSpec &LS : B->Loops) {
      // Only show loops where some ablation changes the outcome.
      auto Opts = baseOpts(&Bd, LS.Hoistable);
      std::string Full = classify(*B, LS, Opts);

      auto NoMon = Opts;
      NoMon.Factor.Monotonicity = false;
      std::string SMon = classify(*B, LS, NoMon);

      auto NoFM = Opts;
      NoFM.Factor.FourierMotzkin = false;
      std::string SFM = classify(*B, LS, NoFM);

      auto NoInv = Opts;
      NoInv.Factor.InvariantOverestimates = false;
      std::string SInv = classify(*B, LS, NoInv);

      auto NoRT = Opts;
      NoRT.RuntimeTests = false;
      std::string SRT = classify(*B, LS, NoRT);

      if (SMon == Full && SFM == Full && SInv == Full && SRT == Full)
        continue;
      std::printf("%-10s %-16s %-20s %-20s %-20s %-20s %-12s\n",
                  B->Name.c_str(), LS.Name.c_str(), Full.c_str(),
                  SMon.c_str(), SFM.c_str(), SInv.c_str(), SRT.c_str());
    }
  }
  std::printf("\n(Unchanged loops are omitted. no-RT '%s' rows are the "
              "loops only the hybrid approach parallelizes.)\n",
              "STATIC-SEQ/TLS");
  return 0;
}
