//===- tests/plan_test.cpp - Plan-cache round-trip / corruption battery ---===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The .hplan serialization battery (src/plan/, docs/PLAN_FORMAT.md):
//
//  - round-trip parity: every suite loop and hundreds of fuzzed nests are
//    prepared, serialized, loaded into a fresh session (fresh contexts for
//    the fuzz sweep — a process restart in miniature) and executed; the
//    warm-started run must be adopted without a single fallback and must
//    produce bit-identical memory AND the same compiled/interpreted
//    ExecStats split as the fresh-compile path;
//  - hostile bytes: a directed test per rejection Diag (bad magic, version
//    skew up/down, truncation at every chunk boundary, a flipped payload
//    byte, trailing bytes, out-of-range counts/indices, plan-key mismatch
//    after an options change) plus a randomized bit-flip sweep — every
//    mutated load must either throw a *typed* ValidationError or stage
//    plans that still adopt and execute correctly; nothing may crash and
//    no wrong plan may ever be adopted silently;
//  - the two-hash key discipline: a forged primary key (KeyA patched to
//    the adopting loop's own value, chunk CRC re-sealed) must be caught by
//    the independent verify hash and counted as a key collision;
//  - foreign streams: a stream saved from one program decodes nothing in
//    another program's session (no context grows), a mixed stream stages
//    only the loading program's loops;
//  - engine warm-start: EngineOptions::PlanCachePath is read once per
//    engine and offered to each program's session as addProgram creates
//    it, visible as ShardStats::PlansWarmStarted; only the owning program
//    decodes it.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"
#include "plan/Plan.h"
#include "serve/Engine.h"
#include "session/Session.h"
#include "suite/Suite.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace halo;

namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

/// Fuzz sweep sizes: full breadth in plain CI, trimmed under sanitizers
/// (5-20x slower per case) to stay inside the ctest timeout.
constexpr uint64_t NumRoundTripSeeds = Sanitized ? 60 : 300;
constexpr int NumBitFlips = Sanitized ? 120 : 500;

//===----------------------------------------------------------------------===//
// Byte-level helpers
//===----------------------------------------------------------------------===//

std::string saveBytes(session::Session &S) {
  std::ostringstream OS(std::ios::binary);
  S.savePlans(OS);
  return OS.str();
}

plan::LoadResult loadBytes(session::Session &S, const std::string &Bytes) {
  std::istringstream IS(Bytes, std::ios::binary);
  return S.loadPlans(IS);
}

uint32_t rdU32(const std::string &B, size_t Off) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(B[Off + I])) << (8 * I);
  return V;
}

void wrU32(std::string &B, size_t Off, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B[Off + I] = static_cast<char>(V >> (8 * I));
}

void wrU64(std::string &B, size_t Off, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B[Off + I] = static_cast<char>(V >> (8 * I));
}

/// Parsed chunk frame: header at HeaderOff (tag, len, crc), payload after.
struct ChunkRef {
  uint32_t Tag = 0;
  size_t HeaderOff = 0;
  size_t PayloadOff = 0;
  uint32_t Len = 0;
};

std::vector<ChunkRef> chunksOf(const std::string &B) {
  std::vector<ChunkRef> Out;
  uint32_t Count = rdU32(B, 8);
  size_t Off = 12;
  for (uint32_t I = 0; I < Count; ++I) {
    ChunkRef C;
    C.HeaderOff = Off;
    C.Tag = rdU32(B, Off);
    C.Len = rdU32(B, Off + 4);
    C.PayloadOff = Off + 12;
    Out.push_back(C);
    Off = C.PayloadOff + C.Len;
  }
  EXPECT_EQ(Off, B.size()) << "chunk walk must consume the whole stream";
  return Out;
}

/// Recomputes and rewrites \p C's CRC after a deliberate payload patch.
void resealChunk(std::string &B, const ChunkRef &C) {
  wrU32(B, C.HeaderOff + 8, plan::crc32(B.data() + C.PayloadOff, C.Len));
}

ChunkRef chunkByTag(const std::vector<ChunkRef> &Cs, uint32_t Tag) {
  for (const ChunkRef &C : Cs)
    if (C.Tag == Tag)
      return C;
  ADD_FAILURE() << "missing chunk";
  return Cs.front();
}

/// Loads \p Bytes into a fresh session over a fresh generated case and
/// asserts the load throws a ValidationError whose first Diag carries
/// \p Code.
void expectLoadThrows(const std::string &Bytes, support::Diag::Code Code,
                      const char *What) {
  fuzz::GenOptions GO;
  GO.Seed = 5;
  auto C = fuzz::generate(GO);
  session::Session S(C->prog(), C->usrCtx());
  try {
    loadBytes(S, Bytes);
    ADD_FAILURE() << What << ": load accepted the stream";
  } catch (const support::ValidationError &E) {
    ASSERT_FALSE(E.diags().empty()) << What;
    EXPECT_EQ(E.diags().front().Kind, Code)
        << What << ": got "
        << support::diagCodeName(E.diags().front().Kind) << ": "
        << E.diags().front().Message;
  }
  EXPECT_EQ(S.numStagedPlans(), 0u) << What;
}

/// One serialized plan stream of one fuzz case (fresh every call so tests
/// can mutate it freely).
std::string fuzzPlanBytes(uint64_t Seed = 5) {
  fuzz::GenOptions GO;
  GO.Seed = Seed;
  auto C = fuzz::generate(GO);
  session::Session S(C->prog(), C->usrCtx());
  S.prepare(*C->Loop);
  return saveBytes(S);
}

/// Node counts of one program's shared contexts.
struct ContextSizes {
  size_t Exprs = 0, Preds = 0, Usrs = 0;
  bool operator==(const ContextSizes &O) const {
    return Exprs == O.Exprs && Preds == O.Preds && Usrs == O.Usrs;
  }
};

ContextSizes sizesOf(usr::USRContext &UC) {
  return {UC.symCtx().numExprs(), UC.predCtx().numPreds(), UC.numNodes()};
}

/// A small program of session_test's symbolic-stride ("strided") and
/// monotonic-block ("blocks") loops; the second loop is optional, so two
/// builds can share one loop and differ in the other.
struct TwoLoopProgram {
  suite::Benchmark B;
  suite::BenchBuilder BB{B};
  ir::DoLoop *Strided = nullptr, *Blocks = nullptr;

  explicit TwoLoopProgram(bool WithBlocks) {
    sym::SymbolId XS = BB.dataArray("XS", BB.Sym.mulConst(BB.s("N"), 4));
    Strided = suite::makeSymbolicStrideLoop(BB, "strided", "i", XS, "s",
                                            BB.s("N"), 0);
    if (WithBlocks) {
      sym::SymbolId XB = BB.dataArray("XB", BB.Sym.mulConst(BB.s("N"), 8));
      sym::SymbolId IB = BB.indexArray("IB");
      Blocks = suite::makeMonotonicBlockLoop(BB, "blocks", "i", XB, IB,
                                             BB.c(4), BB.s("N"), 0);
    }
  }
};

void expectSameMemory(const rt::Memory &Want, const rt::Memory &Got,
                      const char *What) {
  ASSERT_EQ(Want.arrays().size(), Got.arrays().size()) << What;
  for (const auto &KV : Want.arrays()) {
    auto It = Got.arrays().find(KV.first);
    ASSERT_TRUE(It != Got.arrays().end()) << What;
    ASSERT_EQ(KV.second.size(), It->second.size()) << What;
    for (size_t I = 0; I < KV.second.size(); ++I)
      ASSERT_EQ(KV.second[I], It->second[I])
          << What << ": element " << I << " diverged";
  }
}

void expectSameSplit(const rt::ExecStats &Cold, const rt::ExecStats &Warm,
                     const char *What) {
  EXPECT_EQ(Cold.RanParallel, Warm.RanParallel) << What;
  EXPECT_EQ(Cold.UsedExactTest, Warm.UsedExactTest) << What;
  EXPECT_EQ(Cold.CascadeDepthUsed, Warm.CascadeDepthUsed) << What;
  EXPECT_EQ(Cold.CompiledPredEvals, Warm.CompiledPredEvals) << What;
  EXPECT_EQ(Cold.InterpPredEvals, Warm.InterpPredEvals) << What;
  EXPECT_EQ(Cold.CompiledUSREvals, Warm.CompiledUSREvals) << What;
  EXPECT_EQ(Cold.InterpUSREvals, Warm.InterpUSREvals) << What;
  EXPECT_EQ(Cold.BlockEvals, Warm.BlockEvals) << What;
  EXPECT_EQ(Cold.ScalarEvals, Warm.ScalarEvals) << What;
  EXPECT_EQ(Cold.GuardDemotions, Warm.GuardDemotions) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip parity
//===----------------------------------------------------------------------===//

// Every suite loop: serialize from one build of the benchmarks, load into
// a second identical build (fresh contexts), and require every prepare()
// to adopt the staged plan — zero full re-analyses, zero diagnostics.
TEST(PlanRoundTrip, SuiteLoopsAdoptWithoutReanalysis) {
  auto Save = suite::buildAllBenchmarks();
  auto Load = suite::buildAllBenchmarks();
  ASSERT_EQ(Save.size(), Load.size());
  size_t Loops = 0;
  for (size_t BI = 0; BI < Save.size(); ++BI) {
    SCOPED_TRACE(Save[BI]->Name);
    session::Session SA(Save[BI]->prog(), Save[BI]->usr());
    for (const suite::LoopSpec &LS : Save[BI]->Loops)
      SA.prepare(*LS.Loop);
    std::string Bytes = saveBytes(SA);
    EXPECT_EQ(rdU32(Bytes, 8), 6 + Save[BI]->Loops.size())
        << "one LOOP chunk per prepared loop";

    session::Session SB(Load[BI]->prog(), Load[BI]->usr());
    plan::LoadResult R = loadBytes(SB, Bytes);
    EXPECT_EQ(R.Rejected, 0u)
        << (R.Diags.empty() ? "" : R.Diags.front().Message);
    EXPECT_EQ(R.Staged, Save[BI]->Loops.size());
    for (const suite::LoopSpec &LS : Load[BI]->Loops)
      SB.prepare(*LS.Loop);
    EXPECT_EQ(SB.numPlansWarmStarted(), Load[BI]->Loops.size());
    EXPECT_TRUE(SB.planDiags().empty())
        << SB.planDiags().front().Message;
    Loops += Load[BI]->Loops.size();
  }
  EXPECT_GE(Loops, 80u) << "the suite should cover all reconstructed loops";
}

// Fuzzed nests: save from one generated case, regenerate the recipe (fresh
// contexts), load, execute. Memory must match bit-for-bit and the
// compiled/interpreted stats split must be identical — the warm plan runs
// the exact same engine tiers as the cold one. Alternating the block and
// scalar EvalTier covers the block-vectorized tier on both sides of the round trip, and a
// second warm run pins pooled-frame reuse after a load.
TEST(PlanRoundTrip, FuzzedNestsExecuteIdentically) {
  uint64_t FrameReuse = 0, CompiledEvals = 0;
  for (uint64_t Seed = 1; Seed <= NumRoundTripSeeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    fuzz::GenOptions GO;
    GO.Seed = Seed;
    GO.BodyStmts = 4;
    GO.Trip = 16;

    session::SessionOptions SO;
    SO.Threads = 1; // Deterministic reduction order: bit-exact compare.
    SO.Tier = (Seed % 2) == 0 ? rt::EvalTier::Block : rt::EvalTier::Scalar;
    // A tight factorization budget keeps the 300-seed sweep inside the
    // ctest timeout (a few seeds hit multi-second LMAD blowups at the
    // default). Degradation is sound and both sides of the round trip
    // key on the same options, so parity is unaffected.
    SO.Analyzer.Factor.MaxSteps = 512;

    auto CA = fuzz::generate(GO);
    session::Session SA(CA->prog(), CA->usrCtx(), SO);
    SA.prepare(*CA->Loop);
    rt::Memory MA;
    sym::Bindings BA;
    CA->bind(MA, BA);
    rt::ExecStats ESA = SA.run(*CA->Loop, MA, BA);
    std::string Bytes = saveBytes(SA);

    auto CB = fuzz::generate(GO);
    session::Session SB(CB->prog(), CB->usrCtx(), SO);
    plan::LoadResult R = loadBytes(SB, Bytes);
    ASSERT_EQ(R.Rejected, 0u)
        << (R.Diags.empty() ? "" : R.Diags.front().Message);
    ASSERT_EQ(R.Staged, 1u);
    rt::Memory MB;
    sym::Bindings BB;
    CB->bind(MB, BB);
    rt::ExecStats ESB = SB.run(*CB->Loop, MB, BB);
    ASSERT_EQ(SB.numPlansWarmStarted(), 1u)
        << (SB.planDiags().empty() ? "no diags"
                                   : SB.planDiags().front().Message);
    expectSameMemory(MA, MB, "warm vs cold");
    expectSameSplit(ESA, ESB, "warm vs cold");
    CompiledEvals += ESB.CompiledPredEvals + ESB.CompiledUSREvals;

    // Pooled frames survive adoption: a second warm execution reuses the
    // frames the first one bound.
    rt::Memory MB2;
    sym::Bindings BB2;
    CB->bind(MB2, BB2);
    rt::ExecStats ESB2 = SB.run(*CB->Loop, MB2, BB2);
    expectSameMemory(MA, MB2, "second warm run");
    FrameReuse += ESB2.FrameRebindsSkipped;
  }
  // The sweep as a whole must have exercised the compiled tier and the
  // pooled-frame fast path through adopted plans — otherwise the parity
  // above proved nothing about the warm engine configuration.
  EXPECT_GT(CompiledEvals, 0u);
  EXPECT_GT(FrameReuse, 0u);
}

//===----------------------------------------------------------------------===//
// Hostile bytes: directed rejections
//===----------------------------------------------------------------------===//

TEST(PlanHostile, BadMagic) {
  std::string B = fuzzPlanBytes();
  B[0] = 'X';
  expectLoadThrows(B, support::Diag::Code::PlanBadMagic, "bad magic");
}

TEST(PlanHostile, VersionSkewBothDirections) {
  for (int Delta : {+1, -1}) {
    std::string B = fuzzPlanBytes();
    wrU32(B, 4, plan::FormatVersion + static_cast<uint32_t>(Delta));
    expectLoadThrows(B, support::Diag::Code::PlanVersionSkew,
                     Delta > 0 ? "version+1" : "version-1");
  }
}

TEST(PlanHostile, TruncationAtEveryChunkBoundary) {
  std::string B = fuzzPlanBytes();
  std::vector<ChunkRef> Cs = chunksOf(B);
  // Preamble cuts: inside the magic -> BadMagic, after it -> Corrupt.
  expectLoadThrows(B.substr(0, 2), support::Diag::Code::PlanBadMagic,
                   "cut inside magic");
  expectLoadThrows(B.substr(0, 6), support::Diag::Code::PlanCorrupt,
                   "cut inside version");
  expectLoadThrows(B.substr(0, 10), support::Diag::Code::PlanCorrupt,
                   "cut inside chunk count");
  for (size_t I = 0; I < Cs.size(); ++I) {
    SCOPED_TRACE("chunk " + std::to_string(I));
    // At the header, inside the header, at the payload, one byte short.
    expectLoadThrows(B.substr(0, Cs[I].HeaderOff),
                     support::Diag::Code::PlanCorrupt, "cut at header");
    expectLoadThrows(B.substr(0, Cs[I].HeaderOff + 5),
                     support::Diag::Code::PlanCorrupt, "cut inside header");
    if (Cs[I].Len > 0) {
      expectLoadThrows(B.substr(0, Cs[I].PayloadOff),
                       support::Diag::Code::PlanCorrupt,
                       "cut before payload");
      expectLoadThrows(B.substr(0, Cs[I].PayloadOff + Cs[I].Len - 1),
                       support::Diag::Code::PlanCorrupt,
                       "cut one byte short");
    }
  }
}

TEST(PlanHostile, FlippedPayloadByteFailsCrc) {
  std::string Orig = fuzzPlanBytes();
  for (const ChunkRef &C : chunksOf(Orig)) {
    if (C.Len == 0)
      continue;
    std::string B = Orig;
    B[C.PayloadOff + C.Len / 2] ^= 0x20;
    expectLoadThrows(B, support::Diag::Code::PlanCorrupt, "flipped byte");
  }
}

TEST(PlanHostile, TrailingBytesRejected) {
  std::string B = fuzzPlanBytes();
  B += '\0';
  expectLoadThrows(B, support::Diag::Code::PlanCorrupt, "trailing bytes");
}

// A hostile record count / table index sealed under a valid CRC: the CRC
// defends against corruption, not forgery, so the decoder's own bounds
// checks must reject these with PlanCorrupt (never crash or over-read).
TEST(PlanHostile, OutOfRangeCountsAndIndices) {
  std::string Orig = fuzzPlanBytes();
  std::vector<ChunkRef> Cs = chunksOf(Orig);
  // Record count of every table chunk patched far beyond the payload.
  for (uint32_t Tag : {plan::ChunkSymbols, plan::ChunkExprs,
                       plan::ChunkPreds, plan::ChunkUsrs,
                       plan::ChunkPredCode, plan::ChunkUsrCode}) {
    std::string B = Orig;
    ChunkRef C = chunkByTag(Cs, Tag);
    wrU32(B, C.PayloadOff, 0x10000000u);
    resealChunk(B, C);
    expectLoadThrows(B, support::Diag::Code::PlanCorrupt, "hostile count");
  }
  // First table reference of the PCOD chunk (a pred index) out of range.
  {
    std::string B = Orig;
    ChunkRef C = chunkByTag(Cs, plan::ChunkPredCode);
    ASSERT_GT(rdU32(B, C.PayloadOff), 0u) << "expected a PCOD record";
    wrU32(B, C.PayloadOff + 4, 0xFFFFFFFEu);
    resealChunk(B, C);
    expectLoadThrows(B, support::Diag::Code::PlanCorrupt, "hostile index");
  }
}

//===----------------------------------------------------------------------===//
// Key discipline
//===----------------------------------------------------------------------===//

// Codegen-affecting options are part of the plan key: a cache written
// under one configuration must not be adopted under another. The load
// itself succeeds (the stream is intact); adoption falls back with a
// structured PlanKeyMismatch.
TEST(PlanKeys, OptionsChangeFallsBackToAnalysis) {
  std::string Bytes = fuzzPlanBytes(5);
  // Every tier but the save-side default (Block) keys differently.
  for (rt::EvalTier Tier : {rt::EvalTier::Scalar, rt::EvalTier::Interpreted}) {
    SCOPED_TRACE(rt::evalTierName(Tier));
    fuzz::GenOptions GO;
    GO.Seed = 5;
    auto C = fuzz::generate(GO);
    session::SessionOptions SO;
    SO.Tier = Tier;
    session::Session S(C->prog(), C->usrCtx(), SO);
    plan::LoadResult R = loadBytes(S, Bytes);
    EXPECT_EQ(R.Rejected, 0u);
    ASSERT_EQ(R.Staged, 1u);
    S.prepare(*C->Loop);
    EXPECT_EQ(S.numPlansWarmStarted(), 0u)
        << "a plan keyed under different options must not be adopted";
    ASSERT_FALSE(S.planDiags().empty());
    EXPECT_EQ(S.planDiags().front().Kind,
              support::Diag::Code::PlanKeyMismatch);
  }
}

// The evaluation tier hashes as the (compiled predicates, compiled USRs,
// block) bits it replaced — Block (1,1,1), Scalar (1,1,0), Interpreted
// (0,0,1) — so .hplan caches written before the tier existed keep their
// keys. Golden values of hashOptions under the default analyzer options.
TEST(PlanKeys, TierHashesAsItsLegacyBits) {
  struct Golden {
    rt::EvalTier Tier;
    uint64_t Primary, Verify;
  };
  const Golden Gs[] = {
      {rt::EvalTier::Block, 0xe9dc1cbf566b8c7aull, 0xb26b21b63af9b75cull},
      {rt::EvalTier::Scalar, 0x993125188f6d2ad9ull, 0xde185e963495b8d2ull},
      {rt::EvalTier::Interpreted, 0x8925f114f14f14d6ull,
       0x2ca9229461683831ull},
  };
  analysis::AnalyzerOptions AO;
  for (const Golden &G : Gs) {
    SCOPED_TRACE(rt::evalTierName(G.Tier));
    EXPECT_EQ(plan::hashOptions(AO, G.Tier, plan::PrimarySeed), G.Primary);
    EXPECT_EQ(plan::hashOptions(AO, G.Tier, plan::VerifySeed), G.Verify);
  }
}

// A different loop under the same label (two fuzz recipes share the
// label "fuzz"): the plan must not survive into the other program. The
// load-time bytecode verification already catches it — the serialized
// compiled records cannot be reproduced by a fresh compile in the other
// program's contexts — and reports a structured PlanKeyMismatch; prepare
// then falls back to full analysis with zero warm starts.
TEST(PlanKeys, DifferentLoopSameLabelRejected) {
  std::string Bytes = fuzzPlanBytes(5);
  fuzz::GenOptions GO;
  GO.Seed = 9; // A different nest, same outer-loop label.
  auto C = fuzz::generate(GO);
  session::Session S(C->prog(), C->usrCtx());
  plan::LoadResult R = loadBytes(S, Bytes);
  EXPECT_EQ(R.Staged, 0u);
  ASSERT_EQ(R.Rejected, 1u);
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags.front().Kind, support::Diag::Code::PlanKeyMismatch);
  // The fallback full analysis still produces a usable plan.
  const session::PreparedLoop &PL = S.prepare(*C->Loop);
  EXPECT_EQ(S.numPlansWarmStarted(), 0u);
  EXPECT_EQ(PL.Plan.Loop, C->Loop);
}

// The PR 2 HoistCache discipline, serialized: adoption re-derives the
// plan key under BOTH seeds and requires both to match. Forging the
// verify key (patched in the LOOP payload, chunk CRC re-sealed) simulates
// a primary-hash collision — same KeyA, different structure — and must be
// caught by the independent verify hash and counted, never adopted.
TEST(PlanKeys, PrimaryKeyCollisionCaughtByVerifyHash) {
  std::string Bytes = fuzzPlanBytes(5);
  ChunkRef Loop = chunkByTag(chunksOf(Bytes), plan::ChunkLoop);
  size_t LabelLen = rdU32(Bytes, Loop.PayloadOff);
  // KeyA then KeyB follow the length-prefixed label; corrupt KeyB only.
  wrU64(Bytes, Loop.PayloadOff + 4 + LabelLen + 8, 0xDEADBEEFCAFEF00Dull);
  resealChunk(Bytes, Loop);

  fuzz::GenOptions GO;
  GO.Seed = 5; // The same nest: the primary key genuinely matches.
  auto C = fuzz::generate(GO);
  session::Session S(C->prog(), C->usrCtx());
  plan::LoadResult R = loadBytes(S, Bytes);
  EXPECT_EQ(R.Rejected, 0u);
  ASSERT_EQ(R.Staged, 1u);
  S.prepare(*C->Loop);
  EXPECT_EQ(S.numPlansWarmStarted(), 0u)
      << "a plan whose verify key differs must not be adopted";
  EXPECT_EQ(S.numPlanKeyCollisions(), 1u)
      << "the verify hash must see and count the primary-hash collision";
  ASSERT_FALSE(S.planDiags().empty());
  EXPECT_EQ(S.planDiags().front().Kind,
            support::Diag::Code::PlanKeyMismatch);
}

//===----------------------------------------------------------------------===//
// Randomized mutation sweep
//===----------------------------------------------------------------------===//

// Hundreds of single-bit flips over a valid stream. Every load must
// either throw a typed Plan* ValidationError or succeed — and anything
// that loads must adopt-and-execute with results identical to the cold
// path (a flip that survives the CRCs can only be in the un-CRC'd
// preamble, where the framing checks catch it, or be semantically inert).
TEST(PlanHostile, RandomBitFlipsNeverCrashOrCorrupt) {
  std::string Orig = fuzzPlanBytes(5);
  fuzz::GenOptions GO;
  GO.Seed = 5;

  // Cold reference for the rare clean-load case.
  auto CRef = fuzz::generate(GO);
  session::SessionOptions SO;
  SO.Threads = 1;
  session::Session SRef(CRef->prog(), CRef->usrCtx(), SO);
  rt::Memory MRef;
  sym::Bindings BRef;
  CRef->bind(MRef, BRef);
  SRef.run(*CRef->Loop, MRef, BRef);

  std::mt19937_64 Rng(0xC0FFEE);
  int Rejected = 0, Clean = 0;
  for (int I = 0; I < NumBitFlips; ++I) {
    SCOPED_TRACE("mutation " + std::to_string(I));
    std::string B = Orig;
    size_t Bit = Rng() % (B.size() * 8);
    B[Bit / 8] ^= static_cast<char>(1u << (Bit % 8));

    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx(), SO);
    try {
      plan::LoadResult R = loadBytes(S, B);
      // Loaded: the flip was caught semantically (rejected loop) or was
      // inert. Whatever staged must still execute correctly.
      (void)R;
      rt::Memory M;
      sym::Bindings Bd;
      C->bind(M, Bd);
      S.run(*C->Loop, M, Bd);
      expectSameMemory(MRef, M, "mutated-load execution");
      ++Clean;
    } catch (const support::ValidationError &E) {
      ASSERT_FALSE(E.diags().empty());
      support::Diag::Code K = E.diags().front().Kind;
      EXPECT_TRUE(K == support::Diag::Code::PlanBadMagic ||
                  K == support::Diag::Code::PlanVersionSkew ||
                  K == support::Diag::Code::PlanCorrupt ||
                  K == support::Diag::Code::PlanKeyMismatch)
          << "untyped rejection: " << support::diagCodeName(K);
      ++Rejected;
    }
    // Any other exception type escapes and fails the test: the loader's
    // crash-freedom contract is "typed rejection or clean load", nothing
    // else.
  }
  EXPECT_GT(Rejected, 0) << "the sweep never hit a CRC?";
  EXPECT_EQ(Rejected + Clean, NumBitFlips);
}

//===----------------------------------------------------------------------===//
// Engine warm-start
//===----------------------------------------------------------------------===//

TEST(PlanEngine, WarmStartFromPlanCachePath) {
  fuzz::GenOptions GO;
  GO.Seed = 5;
  std::string Path = ::testing::TempDir() + "plan_engine_test.hplan";
  {
    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx());
    S.prepare(*C->Loop);
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.is_open());
    ASSERT_EQ(S.savePlans(Out), 1u);
  }

  auto C = fuzz::generate(GO);
  serve::EngineOptions EO;
  EO.Workers = 2;
  EO.PlanCachePath = Path;
  serve::Engine E(EO);
  serve::ProgramId Id = E.addProgram(C->prog(), C->usrCtx());
  E.prepare(Id, *C->Loop);
  EXPECT_GT(E.stats().totals().PlansWarmStarted, 0u)
      << "the program's session must adopt from the plan cache";

  // The warm-started plan serves requests like a cold one.
  rt::Memory M;
  sym::Bindings B;
  C->bind(M, B);
  serve::Request R;
  R.Program = Id;
  R.Loop = C->Loop;
  R.M = &M;
  R.B = &B;
  serve::Response Resp = E.submit(R).get();
  EXPECT_TRUE(Resp.OK) << Resp.Error;

  // A corrupt cache degrades engine warm-start to a cold start — the
  // engine must neither fail addProgram() nor prepare().
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Bad = SS.str();
    Bad[Bad.size() / 2] ^= 0x01;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bad;
  }
  auto C2 = fuzz::generate(GO);
  serve::Engine E2(EO);
  serve::ProgramId Id2 = E2.addProgram(C2->prog(), C2->usrCtx());
  E2.prepare(Id2, *C2->Loop);
  EXPECT_EQ(E2.stats().totals().PlansWarmStarted, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

namespace {

/// Bytewise reference CRC32 (reflected, poly 0xEDB88320), one bit at a
/// time: the definition plan::crc32's sliced tables must reproduce.
uint32_t crc32Reference(const uint8_t *P, size_t Len) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
  }
  return C ^ 0xFFFFFFFFu;
}

} // namespace

TEST(PlanCrc, StandardCheckValue) {
  const char *Check = "123456789";
  EXPECT_EQ(plan::crc32(Check, 9), 0xCBF43926u);
  EXPECT_EQ(plan::crc32(Check, 0), 0u);
}

// Every length 0..80 at every start offset 0..7 (each tail and alignment
// of the eight-byte steps), plus long buffers, against the reference.
TEST(PlanCrc, MatchesBytewiseReferenceAtAnyOffset) {
  std::mt19937_64 Rng(0x5EED);
  std::vector<uint8_t> Buf(4096 + 8);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(Rng());
  for (size_t Off = 0; Off < 8; ++Off)
    for (size_t Len = 0; Len <= 80; ++Len)
      ASSERT_EQ(plan::crc32(Buf.data() + Off, Len),
                crc32Reference(Buf.data() + Off, Len))
          << "offset " << Off << ", length " << Len;
  for (int I = 0; I < 64; ++I) {
    size_t Off = Rng() % 8, Len = Rng() % 4097;
    ASSERT_EQ(plan::crc32(Buf.data() + Off, Len),
              crc32Reference(Buf.data() + Off, Len))
        << "offset " << Off << ", length " << Len;
  }
}

//===----------------------------------------------------------------------===//
// Foreign streams
//===----------------------------------------------------------------------===//

// A stream saved from one suite program, offered to a session of every
// other program: no label names a loop there, so the load decodes
// nothing — no context grows, nothing is compiled or staged — and says so
// with one PlanKeyMismatch Diag instead of throwing.
TEST(PlanForeign, OtherProgramsDecodeNothing) {
  const std::string Owner = "mdg";
  auto Save = suite::buildAllBenchmarks();
  std::string Bytes;
  size_t OwnerLoops = 0;
  for (auto &B : Save)
    if (B->Name == Owner) {
      session::Session S(B->prog(), B->usr());
      for (const suite::LoopSpec &LS : B->Loops)
        S.prepare(*LS.Loop);
      Bytes = saveBytes(S);
      OwnerLoops = B->Loops.size();
    }
  ASSERT_GT(OwnerLoops, 0u) << "no suite program named " << Owner;

  size_t Others = 0;
  for (auto &B : suite::buildAllBenchmarks()) {
    if (B->Name == Owner)
      continue;
    SCOPED_TRACE(B->Name);
    ++Others;
    session::Session S(B->prog(), B->usr());
    const ContextSizes Before = sizesOf(B->usr());
    plan::LoadResult R;
    ASSERT_NO_THROW(R = loadBytes(S, Bytes));
    EXPECT_EQ(R.Staged, 0u);
    EXPECT_EQ(R.Rejected, 0u);
    EXPECT_EQ(R.Skipped, OwnerLoops);
    ASSERT_EQ(R.Diags.size(), 1u);
    EXPECT_EQ(R.Diags.front().Kind, support::Diag::Code::PlanKeyMismatch);
    EXPECT_EQ(S.numStagedPlans(), 0u);
    EXPECT_EQ(S.numCompiledPreds(), 0u);
    EXPECT_EQ(S.numCompiledUSRs(), 0u);
    EXPECT_TRUE(sizesOf(B->usr()) == Before)
        << "a foreign stream must leave the contexts untouched";
  }
  EXPECT_GE(Others, 20u);
}

// A stream holding one loop the loading program has ("strided") and one
// it does not ("blocks"): only the wanted loop is staged, and it adopts.
TEST(PlanForeign, MixedStreamStagesOnlyWantedLoops) {
  std::string Bytes;
  {
    TwoLoopProgram P(/*WithBlocks=*/true);
    session::Session S(P.B.prog(), P.B.usr());
    S.prepare(*P.Strided);
    S.prepare(*P.Blocks);
    Bytes = saveBytes(S);
  }
  TwoLoopProgram P(/*WithBlocks=*/false);
  session::Session S(P.B.prog(), P.B.usr());
  plan::LoadResult R = loadBytes(S, Bytes);
  EXPECT_EQ(R.Staged, 1u);
  EXPECT_EQ(R.Skipped, 1u);
  EXPECT_EQ(R.Rejected, 0u)
      << (R.Diags.empty() ? "" : R.Diags.front().Message);
  EXPECT_EQ(S.numStagedPlans(), 1u);
  S.prepare(*P.Strided);
  EXPECT_EQ(S.numPlansWarmStarted(), 1u)
      << (S.planDiags().empty() ? "no diags"
                                : S.planDiags().front().Message);
}

// An engine serving several programs behind one program's cache file:
// the file is read once, at the first addProgram, so deleting it
// afterwards does not stop the owner from warm-starting; the other
// programs' contexts end exactly as a lone cold session leaves its twin's.
TEST(PlanForeign, EngineDecodesCacheOnlyIntoItsOwner) {
  std::string Path = ::testing::TempDir() + "plan_foreign_test.hplan";
  {
    TwoLoopProgram P(/*WithBlocks=*/true);
    session::Session S(P.B.prog(), P.B.usr());
    S.prepare(*P.Strided);
    S.prepare(*P.Blocks);
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.is_open());
    ASSERT_EQ(S.savePlans(Out), 2u);
  }

  // Cold twins of the two foreign programs, prepared without any cache.
  std::vector<ContextSizes> Cold;
  for (uint64_t Seed : {5, 9}) {
    fuzz::GenOptions GO;
    GO.Seed = Seed;
    auto C = fuzz::generate(GO);
    session::Session S(C->prog(), C->usrCtx());
    S.prepare(*C->Loop);
    Cold.push_back(sizesOf(C->usrCtx()));
  }

  std::vector<std::unique_ptr<fuzz::GeneratedCase>> Foreign;
  for (uint64_t Seed : {5, 9}) {
    fuzz::GenOptions GO;
    GO.Seed = Seed;
    Foreign.push_back(fuzz::generate(GO));
  }
  TwoLoopProgram Owner(/*WithBlocks=*/true);
  serve::EngineOptions EO;
  EO.Workers = 1;
  EO.PlanCachePath = Path;
  serve::Engine E(EO);
  std::vector<serve::ProgramId> Ids;
  Ids.push_back(E.addProgram(Foreign[0]->prog(), Foreign[0]->usrCtx()));
  ASSERT_EQ(std::remove(Path.c_str()), 0);
  Ids.push_back(E.addProgram(Foreign[1]->prog(), Foreign[1]->usrCtx()));
  const ContextSizes OwnerBefore = sizesOf(Owner.B.usr());
  const serve::ProgramId OwnerId =
      E.addProgram(Owner.B.prog(), Owner.B.usr());

  for (size_t I = 0; I < Foreign.size(); ++I)
    E.prepare(Ids[I], *Foreign[I]->Loop);
  E.prepare(OwnerId, *Owner.Strided);
  E.prepare(OwnerId, *Owner.Blocks);

  EXPECT_EQ(E.stats().totals().PlansWarmStarted, 2u)
      << "the owner must warm-start from the stream read before deletion";
  for (size_t I = 0; I < Foreign.size(); ++I)
    EXPECT_TRUE(sizesOf(Foreign[I]->usrCtx()) == Cold[I])
        << "foreign program " << I << " grew beyond its cold prepare";
  const ContextSizes OwnerAfter = sizesOf(Owner.B.usr());
  EXPECT_GT(OwnerAfter.Preds + OwnerAfter.Usrs,
            OwnerBefore.Preds + OwnerBefore.Usrs)
      << "the owner's contexts receive the decoded plans";
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

TEST(PlanInspect, SummarizesChunksAndKeys) {
  std::string Bytes = fuzzPlanBytes(5);
  std::istringstream IS(Bytes, std::ios::binary);
  std::string Summary = plan::inspect(IS);
  EXPECT_NE(Summary.find("SYMB"), std::string::npos);
  EXPECT_NE(Summary.find("PCOD"), std::string::npos);
  EXPECT_NE(Summary.find("loop 'fuzz'"), std::string::npos);
}
