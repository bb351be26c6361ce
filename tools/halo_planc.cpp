//===- tools/halo_planc.cpp - Plan-cache compiler / inspector -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Front door of the plan-cache subsystem (src/plan/, docs/PLAN_FORMAT.md):
// compiles programs to .hplan plan caches, inspects/verifies streams, and
// drives the CI warm-start check.
//
//   halo_planc compile --suite --out DIR         # one .hplan per benchmark
//   halo_planc compile --fuzz-seed 7 --out F     # one generated nest
//   halo_planc dump FILE                         # per-chunk summary; node
//                                                # index, encoded length and
//                                                # digest of every PCOD/UCOD
//                                                # record
//   halo_planc verify FILE                       # integrity pass only
//   halo_planc warmstart --suite --plans DIR     # load + prepare, assert
//                                                # zero full re-analyses
//   halo_planc warmstart --suite --plans DIR --expect-cold
//                                                # stale cache must fall
//                                                # back cleanly (exit 0)
//   halo_planc warmstart --suite --plans DIR --cross
//                                                # every other program's
//                                                # stream first: one naming
//                                                # none of its loops must
//                                                # stage and decode nothing
//   halo_planc bump-version FILE                 # make FILE version-skewed
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"
#include "plan/Plan.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace halo;

namespace {

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "halo_planc: %s\n", Msg);
  std::fprintf(
      stderr,
      "usage: halo_planc compile (--suite --out DIR | --fuzz-seed N\n"
      "                           [--body N] [--trip N] --out FILE)\n"
      "       halo_planc dump FILE\n"
      "       halo_planc verify FILE\n"
      "       halo_planc warmstart --suite --plans DIR [--expect-cold]\n"
      "                            [--cross]\n"
      "       halo_planc bump-version FILE\n");
  return 2;
}

std::string sanitize(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (!(C >= 'a' && C <= 'z') && !(C >= 'A' && C <= 'Z') &&
        !(C >= '0' && C <= '9'))
      C = '_';
  return Out;
}

/// Prepares every loop of \p B in a fresh session and serializes the
/// plans. Returns the number of loops written, or -1 on failure.
int compileBenchmark(suite::Benchmark &B, const std::string &Path) {
  session::Session S(B.prog(), B.usr());
  for (const suite::LoopSpec &LS : B.Loops)
    S.prepare(*LS.Loop);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "halo_planc: cannot write %s\n", Path.c_str());
    return -1;
  }
  return static_cast<int>(S.savePlans(Out));
}

int cmdCompile(const std::string &Out, bool Suite, bool HaveSeed,
               uint64_t Seed, unsigned Body, int64_t Trip) {
  if (Out.empty())
    return usage("compile requires --out");
  if (Suite == HaveSeed)
    return usage("compile requires exactly one of --suite / --fuzz-seed");
  if (Suite) {
    std::error_code EC;
    std::filesystem::create_directories(Out, EC);
    if (EC) {
      std::fprintf(stderr, "halo_planc: cannot create %s: %s\n", Out.c_str(),
                   EC.message().c_str());
      return 1;
    }
    size_t Loops = 0;
    for (std::unique_ptr<suite::Benchmark> &B : suite::buildAllBenchmarks()) {
      std::string Path = Out + "/" + sanitize(B->Name) + ".hplan";
      int N = compileBenchmark(*B, Path);
      if (N < 0)
        return 1;
      std::printf("%-12s %3d loops -> %s\n", B->Name.c_str(), N,
                  Path.c_str());
      Loops += static_cast<size_t>(N);
    }
    std::printf("compiled %zu loops\n", Loops);
    return 0;
  }
  fuzz::GenOptions GO;
  GO.Seed = Seed;
  GO.BodyStmts = Body;
  GO.Trip = Trip;
  std::unique_ptr<fuzz::GeneratedCase> C = fuzz::generate(GO);
  session::Session S(C->prog(), C->usrCtx());
  S.prepare(*C->Loop);
  std::ofstream OS(Out, std::ios::binary);
  if (!OS) {
    std::fprintf(stderr, "halo_planc: cannot write %s\n", Out.c_str());
    return 1;
  }
  size_t N = S.savePlans(OS);
  std::printf("seed %llu: %zu loop(s) -> %s\n",
              static_cast<unsigned long long>(Seed), N, Out.c_str());
  return 0;
}

int cmdDumpOrVerify(const std::string &Path, bool Dump) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "halo_planc: cannot read %s\n", Path.c_str());
    return 1;
  }
  try {
    std::string Summary = plan::inspect(In);
    if (Dump)
      std::fputs(Summary.c_str(), stdout);
    else
      std::printf("%s: ok\n", Path.c_str());
    return 0;
  } catch (const support::ValidationError &E) {
    for (const support::Diag &D : E.diags())
      std::fprintf(stderr, "%s: %s: %s\n", Path.c_str(),
                   support::diagCodeName(D.Kind), D.Message.c_str());
    return 1;
  }
}

/// Node counts of a program's shared contexts (a foreign stream must not
/// change them).
std::array<size_t, 3> contextSizes(usr::USRContext &UC) {
  return {UC.symCtx().numExprs(), UC.predCtx().numPreds(), UC.numNodes()};
}

int cmdWarmstart(const std::string &PlansDir, bool ExpectCold, bool Cross) {
  if (PlansDir.empty())
    return usage("warmstart requires --plans DIR");
  std::vector<std::unique_ptr<suite::Benchmark>> Suite =
      suite::buildAllBenchmarks();
  // Frame every program's stream once. A missing file stays empty; a
  // stale (version-skewed) or corrupt cache must degrade to a cold start,
  // never crash: report it and continue un-warmed.
  std::vector<std::vector<plan::Chunk>> Streams(Suite.size());
  std::vector<std::string> Paths(Suite.size());
  for (size_t BI = 0; BI < Suite.size(); ++BI) {
    Paths[BI] = PlansDir + "/" + sanitize(Suite[BI]->Name) + ".hplan";
    std::ifstream In(Paths[BI], std::ios::binary);
    if (!In)
      continue;
    try {
      Streams[BI] = plan::frame(In);
    } catch (const support::ValidationError &E) {
      for (const support::Diag &D : E.diags())
        std::fprintf(stderr, "halo_planc: %s: %s: %s (cold start)\n",
                     Paths[BI].c_str(), support::diagCodeName(D.Kind),
                     D.Message.c_str());
    }
  }

  size_t Warm = 0, Prepared = 0, Offered = 0, Shared = 0;
  for (size_t BI = 0; BI < Suite.size(); ++BI) {
    suite::Benchmark &B = *Suite[BI];
    session::Session S(B.prog(), B.usr());
    // --cross: every other program's stream first. A stream whose labels
    // name no loop of this program must stage nothing and decode nothing.
    // Programs that share loop labels (one benchmark in two suites) may
    // stage each other's plans; adoption re-derives the keys, and the
    // program's own stream, loaded next, replaces them by label.
    for (size_t FI = 0; Cross && FI < Suite.size(); ++FI) {
      if (FI == BI || Streams[FI].empty())
        continue;
      const size_t Records = static_cast<size_t>(
          std::count_if(Streams[FI].begin(), Streams[FI].end(),
                        [](const plan::Chunk &C) {
                          return C.Tag == plan::ChunkLoop;
                        }));
      const std::array<size_t, 3> Before = contextSizes(B.usr());
      const size_t StagedBefore = S.numStagedPlans();
      plan::LoadResult R = S.loadPlans(Streams[FI]);
      ++Offered;
      if (R.Skipped != Records) {
        ++Shared;
        std::printf("%s: %s's stream shares %zu loop label(s)\n",
                    B.Name.c_str(), Suite[FI]->Name.c_str(),
                    Records - R.Skipped);
        continue;
      }
      if (R.Staged != 0 || S.numStagedPlans() != StagedBefore ||
          contextSizes(B.usr()) != Before) {
        std::fprintf(stderr,
                     "halo_planc: %s: %s's stream names none of its "
                     "loops but staged %zu plan(s) or grew the contexts\n",
                     B.Name.c_str(), Suite[FI]->Name.c_str(), R.Staged);
        return 1;
      }
    }
    const size_t ForeignDiags = S.planDiags().size();
    if (!Streams[BI].empty()) {
      try {
        plan::LoadResult R = S.loadPlans(Streams[BI]);
        if (R.Rejected != 0 && !ExpectCold) {
          std::fprintf(stderr, "halo_planc: %s: %zu plan(s) rejected:\n",
                       Paths[BI].c_str(), R.Rejected);
          for (const support::Diag &D : R.Diags)
            std::fprintf(stderr, "  %s: %s\n",
                         support::diagCodeName(D.Kind), D.Message.c_str());
          return 1;
        }
      } catch (const support::ValidationError &E) {
        for (const support::Diag &D : E.diags())
          std::fprintf(stderr, "halo_planc: %s: %s: %s (cold start)\n",
                       Paths[BI].c_str(), support::diagCodeName(D.Kind),
                       D.Message.c_str());
      }
    }
    for (const suite::LoopSpec &LS : B.Loops) {
      S.prepare(*LS.Loop);
      ++Prepared;
    }
    Warm += S.numPlansWarmStarted();
    for (size_t DI = ForeignDiags; DI < S.planDiags().size(); ++DI) {
      const support::Diag &D = S.planDiags()[DI];
      std::fprintf(stderr, "halo_planc: %s: %s: %s\n", B.Name.c_str(),
                   support::diagCodeName(D.Kind), D.Message.c_str());
    }
  }
  if (Cross)
    std::printf("offered %zu foreign streams: %zu decoded nothing, %zu "
                "share loop labels\n",
                Offered, Offered - Shared, Shared);
  std::printf("prepared %zu loops, %zu warm-started\n", Prepared, Warm);
  if (ExpectCold)
    return Warm == 0 ? 0 : (std::fprintf(stderr,
                                         "halo_planc: expected a cold "
                                         "start but %zu plans were "
                                         "adopted\n",
                                         Warm),
                            1);
  if (Warm != Prepared) {
    std::fprintf(stderr,
                 "halo_planc: %zu of %zu loops fell back to full "
                 "analysis\n",
                 Prepared - Warm, Prepared);
    return 1;
  }
  return 0;
}

/// Increments the format-version field of \p Path in place — produces a
/// deliberately version-skewed cache for the CI fallback check.
int cmdBumpVersion(const std::string &Path) {
  std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
  if (!F) {
    std::fprintf(stderr, "halo_planc: cannot open %s\n", Path.c_str());
    return 1;
  }
  char Magic[4];
  if (!F.read(Magic, 4) || std::memcmp(Magic, plan::Magic, 4) != 0) {
    std::fprintf(stderr, "halo_planc: %s: not a plan cache\n", Path.c_str());
    return 1;
  }
  char V[4];
  if (!F.read(V, 4)) {
    std::fprintf(stderr, "halo_planc: %s: truncated preamble\n",
                 Path.c_str());
    return 1;
  }
  uint32_t Version = 0;
  for (int I = 0; I < 4; ++I)
    Version |= static_cast<uint32_t>(static_cast<uint8_t>(V[I])) << (8 * I);
  ++Version;
  for (int I = 0; I < 4; ++I)
    V[I] = static_cast<char>(Version >> (8 * I));
  F.seekp(4);
  F.write(V, 4);
  std::printf("%s: version bumped to %u\n", Path.c_str(), Version);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(nullptr);
  std::string Cmd = Argv[1];

  std::string Out, PlansDir, File;
  bool Suite = false, ExpectCold = false, Cross = false, HaveSeed = false;
  uint64_t Seed = 1;
  unsigned Body = 6;
  int64_t Trip = 48;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--suite") {
      Suite = true;
    } else if (A == "--expect-cold") {
      ExpectCold = true;
    } else if (A == "--cross") {
      Cross = true;
    } else if (A == "--out") {
      const char *V = Next();
      if (!V)
        return usage("--out needs a value");
      Out = V;
    } else if (A == "--plans") {
      const char *V = Next();
      if (!V)
        return usage("--plans needs a value");
      PlansDir = V;
    } else if (A == "--fuzz-seed") {
      const char *V = Next();
      if (!V)
        return usage("--fuzz-seed needs a value");
      Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (A == "--body") {
      const char *V = Next();
      if (!V)
        return usage("--body needs a value");
      Body = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (A == "--trip") {
      const char *V = Next();
      if (!V)
        return usage("--trip needs a value");
      Trip = std::strtoll(V, nullptr, 10);
    } else if (A[0] != '-' && File.empty()) {
      File = A;
    } else {
      return usage(("unknown argument '" + A + "'").c_str());
    }
  }

  try {
    if (Cmd == "compile")
      return cmdCompile(Out, Suite, HaveSeed, Seed, Body, Trip);
    if (Cmd == "dump" || Cmd == "verify") {
      if (File.empty())
        return usage("dump/verify require a FILE");
      return cmdDumpOrVerify(File, Cmd == "dump");
    }
    if (Cmd == "warmstart")
      return cmdWarmstart(PlansDir, ExpectCold, Cross);
    if (Cmd == "bump-version") {
      if (File.empty())
        return usage("bump-version requires a FILE");
      return cmdBumpVersion(File);
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "halo_planc: %s\n", E.what());
    return 1;
  }
  return usage(("unknown command '" + Cmd + "'").c_str());
}
