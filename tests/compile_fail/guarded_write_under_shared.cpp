//===- compile_fail/guarded_write_under_shared.cpp - TSA negative case ----===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Violation class: writing config-lock-guarded registry state while
// holding the lock only shared. The serving path reads the program table
// (each program's session and its loops' breakers) under a shared hold;
// every mutation belongs to the exclusive warm-up phase. A shared-held
// write must not compile.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

namespace {

using namespace halo::support;

struct Registry {
  mutable SharedMutex ConfigLock;
  int Version HALO_GUARDED_BY(ConfigLock) = 0;

  int read() const HALO_EXCLUDES(ConfigLock) {
    SharedLock L(ConfigLock);
    return Version; // Reads are fine under a shared hold.
  }

  void bump() HALO_EXCLUDES(ConfigLock) {
#ifdef HALO_EXPECT_TSA_VIOLATION
    SharedLock L(ConfigLock);
    ++Version; // Writing under a shared hold.
#else
    ExclusiveLock L(ConfigLock);
    ++Version;
#endif
  }
};

} // namespace

int main() {
  Registry R;
  R.bump();
  return R.read() == 1 ? 0 : 1;
}
