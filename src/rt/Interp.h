//===- rt/Interp.h - The interpreter substrate -----------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-IR interpreter the runtime executes loops on — split from the
/// governor (rt/Executor.h) so cascade evaluation, technique decisions and
/// fallback policy live in one layer and plain statement interpretation in
/// another. The governor composes these pieces: it prepares an ExecState
/// (private array views, reduction buffers, speculation marks), then drives
/// interpStmt over the loop body, sequentially or from pool workers.
///
/// Interpretation cost applies equally to sequential and parallel
/// executions, so normalized timings (Figs. 10-13) retain their shape.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_INTERP_H
#define HALO_RT_INTERP_H

#include "ir/Program.h"
#include "rt/Memory.h"
#include "summary/Summary.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

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
};

/// Mutable state of one interpretation: memory, scalar bindings, the
/// call-site alias chain, and the per-array views the governor installs
/// (worker-private arrays, reduction buffers).
struct ExecState {
  Memory &M;
  sym::Bindings B;

  /// Call-site array aliasing: formal -> (array, offset) at call time.
  std::map<sym::SymbolId, std::pair<sym::SymbolId, int64_t>> Alias;

  /// Worker-private views: their loads and stores never touch \c M.
  std::map<sym::SymbolId, PrivateArray *> Private;
  /// Reduction private buffers (additive, zero-initialized).
  std::map<sym::SymbolId, std::vector<double> *> RedBuf;

  /// LRPD run: reduction updates read and write their private view, and a
  /// store to an array without one sets Conflict instead of writing \c M.
  bool Speculative = false;
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
