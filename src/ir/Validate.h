//===- ir/Validate.h - Front-door validation of untrusted IR ---*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural validation of untrusted `ir::Program` loop nests before they
/// reach the analyzer or the interpreter. The interpreter substrate
/// (rt/Interp.cpp) asserts on unknown arrays and out-of-bounds stores —
/// correct for trusted suite programs, undefined behavior for hostile
/// input. `validateLoop` runs at `Session::prepare` and turns every such
/// shape into a `support::ValidationError` carrying structured
/// `support::Diag`s instead: undeclared arrays, constant non-positive
/// trips, provably out-of-bounds subscripts, loop-variable reuse, CIV
/// updates targeting loop variables, missing/cyclic callees, null access
/// expressions, and expression/predicate nesting beyond a structural cap
/// (so every program that passes validation is safe to walk recursively).
///
/// `collectInputDiags` is the bindings-aware second gate (unbound free
/// scalars, missing index-array bindings) used by harnesses that control
/// execution inputs — it is not on the prepare hot path because bindings
/// are per-execution, not per-plan.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_IR_VALIDATE_H
#define HALO_IR_VALIDATE_H

#include "ir/Program.h"
#include "support/Error.h"
#include "sym/Eval.h"

#include <vector>

namespace halo {
namespace ir {

/// Structural caps enforced by validation. Programs within these caps are
/// safe for the recursive reference walkers; the lowering pipeline applies
/// its own (smaller) caps and demotes to the interpreter tier when they
/// are exceeded (see pdag/PredCompile.h, usr/USRCompile.h). The depths
/// compared are the ones stored on the nodes (sym::Expr::nestDepth,
/// pdag::Pred::nestDepth); they saturate at sym::MaxNestDepth, and a
/// saturated depth exceeds every cap.
struct ValidateLimits {
  /// Maximum expression nesting depth (IntConst/SymRef leaves count 1).
  unsigned MaxExprDepth = 1024;
  /// Maximum predicate nesting depth (leaves count 1).
  unsigned MaxPredDepth = 1024;
  /// Maximum statement nesting depth (loop/if/call bodies).
  unsigned MaxStmtDepth = 256;
};

/// Walks the loop nest rooted at \p L and returns every structural
/// finding, in program order; an empty vector means the loop passed.
/// Never throws, never asserts on malformed input.
std::vector<support::Diag> collectLoopDiags(const Program &P, const DoLoop &L,
                                            const ValidateLimits &Lim = {});

/// Throws `support::ValidationError` when `collectLoopDiags` reports any
/// finding. Called by `Session::prepare` on every first-use analysis.
void validateLoop(const Program &P, const DoLoop &L,
                  const ValidateLimits &Lim = {});

/// Bindings-aware input gate: every free scalar that execution will not
/// itself define (loop variables, CIV targets, callee formals) must be
/// bound in \p B, and every index array read by a subscript or gate must
/// have an array binding. Data arrays live in rt::Memory and are checked
/// by the caller. Returns findings; empty means the inputs are complete.
std::vector<support::Diag> collectInputDiags(const Program &P, const DoLoop &L,
                                             const sym::Bindings &B);

} // namespace ir
} // namespace halo

#endif // HALO_IR_VALIDATE_H
