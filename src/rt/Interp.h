//===- rt/Interp.h - The interpreter substrate -----------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-IR interpreter: the reference body engine. It runs loop
/// bodies on EvalTier::Interpreted and for bodies whose lowering was
/// refused (demotion); the compiled tiers run the body code of
/// rt/BodyCode.h instead, which must match it bit for bit, memory and
/// scalar bindings alike. The governor (rt/Executor.h) prepares the
/// per-worker array routing (WorkerViews: private array views, reduction
/// buffers, speculation) that both engines consume, then drives one of
/// them over the loop body, sequentially or from pool workers.
///
/// The session's sequential timing baseline (Session::runSequential) and
/// the planned run use the same body engine, so normalized timings (Figs.
/// 10-13) compare like with like. This file also holds the CIV-COMP
/// slice and BOUNDS-COMP, which stay tree walks on every tier.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_INTERP_H
#define HALO_RT_INTERP_H

#include "ir/Program.h"
#include "rt/Memory.h"
#include "summary/Summary.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace halo {
namespace usr {
class USR;
}
namespace rt {

/// A worker-private view of one array: the copy-in buffer its loads and
/// stores go to, plus whatever write tracking the governor's merge needs.
/// A tracking vector is empty when its technique is off for the array.
struct PrivateArray {
  std::vector<double> Buf;
  std::vector<uint8_t> Written;     ///< SLV: written by this worker.
  std::vector<int64_t> LastIter;    ///< DLV: last writing iteration, or -1.
  std::vector<uint8_t> ExposedRead; ///< LRPD: read before this worker wrote.

  /// Speculation's load-side check of element \p Idx in iteration
  /// \p Iter: marks an exposed read, or returns true (a conflict) when an
  /// earlier iteration of this worker wrote the element.
  bool exposedRead(int64_t Idx, int64_t Iter) {
    const int64_t W = LastIter[static_cast<size_t>(Idx)];
    if (W < 0)
      ExposedRead[static_cast<size_t>(Idx)] = 1;
    return W >= 0 && W != Iter;
  }
};

/// A worker-private additive reduction buffer over elements
/// [Lo, Lo + Buf.size()) of its array: BOUNDS-COMP's [BL, BH] when the
/// governor has one, the whole array otherwise. Zero-initialized; the
/// governor's merge adds it into the shared array over that span only.
struct ReductionBuffer {
  int64_t Lo = 0;
  std::vector<double> Buf;

  void add(int64_t Idx, double V) {
    if (Idx < Lo || Idx - Lo >= static_cast<int64_t>(Buf.size())) {
      assert(false && "reduction update outside the BOUNDS-COMP span");
      widen(Idx); // Release builds stay correct, only wider.
    }
    Buf[static_cast<size_t>(Idx - Lo)] += V;
  }
  /// Grows the span with zeros so that it covers \p Idx.
  void widen(int64_t Idx);
};

/// The array routing the governor installs for one worker block:
/// worker-private views, reduction buffers, and whether the block runs
/// speculatively. Both body engines consume it.
struct WorkerViews {
  /// Worker-private views: their loads and stores never touch Memory.
  std::map<sym::SymbolId, PrivateArray *> Private;
  /// Reduction private buffers (additive, zero-initialized).
  std::map<sym::SymbolId, ReductionBuffer *> RedBuf;
  /// LRPD run: reduction updates read and write their private view, and a
  /// store to an array without one is a conflict instead of a write.
  bool Speculative = false;
};

/// Mutable state of one interpretation: memory, scalar bindings, the
/// call-site alias chain, and the per-array views the governor installs
/// (worker-private arrays, reduction buffers).
struct ExecState : WorkerViews {
  Memory &M;
  sym::Bindings B;

  /// Call-site array aliasing: formal -> (array, offset) at call time.
  std::map<sym::SymbolId, std::pair<sym::SymbolId, int64_t>> Alias;

  /// A speculative iteration read what an earlier one of this worker
  /// wrote, or stored to an array without a private view.
  bool Conflict = false;

  int64_t CurrentIter = 0;

  explicit ExecState(Memory &M, const sym::Bindings &Bind) : M(M), B(Bind) {}

  /// Resolves a (possibly formal) array + offset through the alias chain.
  std::pair<sym::SymbolId, int64_t> resolve(sym::SymbolId Arr,
                                            int64_t Off) const;
  double load(sym::SymbolId Arr, int64_t Off);
  void store(sym::SymbolId Arr, int64_t Off, double Val, bool IsReduction);
};

/// The deterministic synthetic work of an assignment with WorkCost \p N
/// (models the paper's loop granularities). Both body engines call this
/// one definition, so their results are bit-identical.
double spinWork(unsigned N, double Seed);

/// Speculation's post-join check over one array's views, in worker-block
/// order: true when an element exposed-read in worker b was written in
/// some worker a < b.
bool flowAcrossWorkers(const std::vector<PrivateArray> &Workers);

/// Interprets one statement (recursively) under \p St.
void interpStmt(const ir::Stmt *S, ExecState &St);

/// Sequential execution of one loop (the timing baseline).
void interpSequential(const ir::DoLoop &Loop, Memory &M, sym::Bindings &B);

/// CIV-COMP: precomputes civ@pre / join pseudo-arrays into \p B by a
/// sequential slice of the loop (only control flow and CIV updates).
void interpCivSlice(const ir::DoLoop &Loop, const summary::CivPlan &Plan,
                    Memory &M, sym::Bindings &B);

/// BOUNDS-COMP: evaluates the min/max touched offsets of \p S in
/// parallel (Fig. 7a). Returns false on evaluation failure.
bool interpBounds(const usr::USR *S, sym::Bindings &B, ThreadPool &Pool,
                  int64_t &Lo, int64_t &Hi);

} // namespace rt
} // namespace halo

#endif // HALO_RT_INTERP_H
