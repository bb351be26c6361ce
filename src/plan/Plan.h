//===- plan/Plan.h - Versioned plan-cache serialization --------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.hplan` plan-cache format: everything `Session::prepare` produces
/// for a loop — the `analysis::LoopPlan`, the factor statistics, the
/// cost-ordered `rt::CompiledCascade` stage vectors, and verify-only
/// records of the `pdag::CompiledPred` / `usr::CompiledUSR` bytecode —
/// serialized to a length-prefixed chunked stream so the expensive
/// analyze-once phase survives process restarts (warm-start).
///
/// Trust model: a loaded plan is **never executed as read**. The stream
/// carries the *sources* (symbol, expression, predicate and USR tables);
/// loading re-interns them into the live contexts and re-compiles the
/// bytecode through the session's real compile caches, then byte-compares
/// the fresh encoding against the file record. Only the fresh compile ever
/// runs. Adoption additionally requires the loading session to re-derive
/// the plan key (structural loop hash ⊕ codegen-affecting options) from
/// its own loop and options — the serialized key is compared against,
/// never trusted.
///
/// Error contract: stream-integrity anomalies (bad magic, version skew,
/// CRC mismatch, truncation, trailing bytes, out-of-range indices) throw
/// `support::ValidationError` with the `PlanBadMagic` / `PlanVersionSkew`
/// / `PlanCorrupt` codes. Semantic per-loop problems (symbol attribute
/// drift, bytecode verify failure, cascade-order drift, key mismatch at
/// adoption) are *recorded* as `PlanKeyMismatch` / `PlanCorrupt` Diags and
/// the affected loop falls back to full analysis — a stale or foreign
/// cache degrades to a cold start, never to a wrong answer or a crash.
///
/// Layout and compatibility policy: docs/PLAN_FORMAT.md.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PLAN_PLAN_H
#define HALO_PLAN_PLAN_H

#include "analysis/Analyzer.h"
#include "rt/CompiledCascade.h"
#include "support/Error.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace halo {
namespace plan {

//===----------------------------------------------------------------------===//
// Format constants
//===----------------------------------------------------------------------===//

/// Stream magic: the first four bytes of every .hplan file.
inline constexpr char Magic[4] = {'H', 'P', 'L', 'N'};

/// Current format version. Bump on ANY layout change — there is no
/// in-place migration; a version-skewed cache is rejected with
/// `PlanVersionSkew` and the loader falls back to full analysis (the
/// cache is cheap to regenerate, wrong adoption is not).
inline constexpr uint32_t FormatVersion = 1;

/// Chunk tags (FourCC, little-endian on the wire). Chunks appear in this
/// order: one each of SYMB/EXPR/PRED/USRT/PCOD/UCOD, then one LOOP chunk
/// per serialized loop.
inline constexpr uint32_t ChunkSymbols = 0x424D5953u;  // "SYMB"
inline constexpr uint32_t ChunkExprs = 0x52505845u;    // "EXPR"
inline constexpr uint32_t ChunkPreds = 0x44455250u;    // "PRED"
inline constexpr uint32_t ChunkUsrs = 0x54525355u;     // "USRT"
inline constexpr uint32_t ChunkPredCode = 0x444F4350u; // "PCOD"
inline constexpr uint32_t ChunkUsrCode = 0x444F4355u;  // "UCOD"
inline constexpr uint32_t ChunkLoop = 0x504F4F4Cu;     // "LOOP"

/// CRC32 (IEEE 802.3, poly 0xEDB88320, bit-reflected) over \p Len bytes.
/// Exposed so tests can re-seal a deliberately patched chunk.
uint32_t crc32(const void *Data, size_t Len);

//===----------------------------------------------------------------------===//
// Plan keys (durable structural hashes)
//===----------------------------------------------------------------------===//
//
// The compile caches key on interned node *pointers*, which are meaningless
// across processes. The durable key is a pointer-free structural hash:
// names instead of SymbolIds, node shapes instead of addresses. Two
// independent seeds give two independent hashes; a primary-hash collision
// is caught by the verify hash (the PR 2 HoistCache discipline) and
// counted by the session.

/// Seed of the primary structural hash.
inline constexpr uint64_t PrimarySeed = 0x243F6A8885A308D3ull;
/// Seed of the independent verification hash.
inline constexpr uint64_t VerifySeed = 0x13198A2E03707344ull;

/// The session option that changes what prepare() compiles (and
/// therefore what a plan contains): the evaluation tier. Folded into the
/// plan key together with the analyzer options, the block width W and the
/// format version.
using CodegenKey = rt::EvalTier;

/// Pointer-free structural hash of an expression DAG (symbols by name).
uint64_t hashExpr(const sym::Expr *E, const sym::Context &Sym, uint64_t Seed);
/// Pointer-free structural hash of a predicate DAG.
uint64_t hashPred(const pdag::Pred *P, const sym::Context &Sym, uint64_t Seed);
/// Pointer-free structural hash of a USR DAG.
uint64_t hashUSR(const usr::USR *S, const sym::Context &Sym, uint64_t Seed);
/// Pointer-free structural hash of a loop nest: statement shapes, bound
/// and subscript expressions, gate predicates, callee bodies, referenced
/// symbols' attributes and referenced arrays' declarations.
uint64_t hashLoop(const ir::Program &Prog, const ir::DoLoop &L,
                  uint64_t Seed);
/// Hash of everything besides the loop that affects the produced plan.
uint64_t hashOptions(const analysis::AnalyzerOptions &AO, CodegenKey CG,
                     uint64_t Seed);

/// The plan key under \p Seed: hashLoop ⊕ hashOptions. Adoption requires
/// the key under both PrimarySeed and VerifySeed to match.
uint64_t planKey(const ir::Program &Prog, const ir::DoLoop &L,
                 const analysis::AnalyzerOptions &AO, CodegenKey CG,
                 uint64_t Seed);

//===----------------------------------------------------------------------===//
// Save / load
//===----------------------------------------------------------------------===//

/// Save-side view of one prepared loop (borrowed from the session).
struct SavedLoop {
  const analysis::LoopPlan *Plan = nullptr;
  const factor::FactorStats *FStats = nullptr;
  const analysis::AnalyzerOptions *AOpts = nullptr;
  const rt::PlanCascades *Cascades = nullptr;
};

/// One deserialized-and-verified loop plan, staged until a live
/// `ir::DoLoop` with a matching label and plan key adopts it. `Plan.Loop`
/// and the CivJoin `At` pointers are null until adoption (the file stores
/// the join IF's pre-order index in `JoinIfIndex` instead).
struct StagedLoop {
  std::string Label;
  uint64_t KeyA = 0; ///< planKey under PrimarySeed, as serialized.
  uint64_t KeyB = 0; ///< planKey under VerifySeed, as serialized.
  analysis::LoopPlan Plan;
  factor::FactorStats FStats;
  /// Pre-order IfStmt index of each `Plan.Civ.Joins` entry's join point
  /// within the loop body (resolved to a pointer at adoption).
  std::vector<uint32_t> JoinIfIndex;
  rt::PlanCascades Cascades;
};

/// Outcome of a load: how many loops were staged for adoption, how many
/// were rejected (with a structured Diag each), how many were skipped
/// because their label names no loop of the loading program, and the
/// Diags themselves.
struct LoadResult {
  size_t Staged = 0;
  size_t Rejected = 0;
  size_t Skipped = 0;
  std::vector<support::Diag> Diags;
};

/// One framed chunk of a .hplan stream, CRC already checked.
struct Chunk {
  uint32_t Tag = 0;
  std::vector<uint8_t> Payload;
};

/// Reads and validates a whole stream's framing: magic (PlanBadMagic),
/// version (PlanVersionSkew), chunk framing, per-chunk CRC and trailing
/// bytes (PlanCorrupt). Throws support::ValidationError on any anomaly.
/// The chunks are context-free: one framed stream can be handed to load()
/// for any number of sessions.
std::vector<Chunk> frame(std::istream &In);

/// The loop labels of the loading program (ir::Program::loops()): a LOOP
/// record is decoded only when its label is in the set.
using LabelSet = std::unordered_set<std::string_view>;

/// Serializes \p Loops to \p Out. Compiles any not-yet-compiled cascade
/// stage predicate / plan USR through the caches (so the record set is
/// complete) and returns the number of loops written. Loops analyzed with
/// a probe dataset are skipped (their plans depend on sample bindings that
/// are not serializable).
size_t save(std::ostream &Out, const ir::Program &Prog,
            rt::PredCompileCache &Preds, rt::USRCompileCache &Usrs,
            const std::vector<SavedLoop> &Loops, CodegenKey CG);

/// Loads a framed stream (frame()) into one program's contexts. First
/// peeks every LOOP record's label: when none is in \p Wanted the stream
/// belongs to another program, and load() decodes nothing, leaves every
/// context untouched and returns `Staged == 0` with one PlanKeyMismatch
/// Diag. Otherwise it re-interns every table into the live contexts
/// behind \p UC, re-compiles through \p Preds / \p Usrs (populating them)
/// and byte-verifies against the file's bytecode records; the wanted
/// loops that verify are appended to \p Out, the others are counted in
/// `Skipped` without being decoded. Per-loop failures are recorded in the
/// result. Throws `support::ValidationError` on stream-integrity
/// anomalies.
LoadResult load(const std::vector<Chunk> &Chunks, const LabelSet &Wanted,
                usr::USRContext &UC, rt::PredCompileCache &Preds,
                rt::USRCompileCache &Usrs, std::vector<StagedLoop> &Out);

/// Pre-order collection of every IfStmt reachable from \p L's body
/// (including callee bodies, cycle-safe) — the index space CivJoin
/// anchors are serialized in and resolved from at adoption.
std::vector<const ir::IfStmt *> collectIfStmts(const ir::DoLoop &L);

/// Context-free integrity pass: checks magic, version, chunk framing and
/// CRCs and decodes table shapes, throwing the same typed errors as
/// load(), and returns a human-readable per-chunk summary (halo_planc
/// dump/verify).
std::string inspect(std::istream &In);

} // namespace plan
} // namespace halo

#endif // HALO_PLAN_PLAN_H
