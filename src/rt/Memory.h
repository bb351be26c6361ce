//===- rt/Memory.h - Runtime data-array storage ----------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data-array storage for the interpreter substrate. Split out of
/// Executor.h so the interpreter (rt/Interp.h) and the governor
/// (rt/Executor.h) layers can depend on it independently.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_MEMORY_H
#define HALO_RT_MEMORY_H

#include "sym/Eval.h"

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace halo {
namespace rt {

/// Data-array storage (doubles); integer index arrays live in
/// sym::Bindings.
///
/// find() sits on the interpreted-loop hot path (every load/store resolves
/// its base array through it, from every worker thread), so lookups go
/// through a hash map with a per-thread last-lookup cache: loop bodies hit
/// the same handful of arrays on every statement. The cache is validated
/// against a version stamp drawn from a process-global counter on every
/// mutation, so a stamp is never reused — not even by a different Memory
/// instance reincarnated at the same address (stack-allocated Memories in
/// back-to-back tests would otherwise alias a stale cache entry).
class Memory {
public:
  Memory() = default;
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  std::vector<double> &alloc(sym::SymbolId Id, size_t Elems) {
    bumpVersion();
    auto &V = Arrays[Id];
    V.assign(Elems, 0.0);
    return V;
  }
  std::vector<double> *find(sym::SymbolId Id) {
    struct LastLookup {
      const Memory *M = nullptr;
      uint64_t Version = 0;
      sym::SymbolId Id = 0;
      std::vector<double> *V = nullptr;
    };
    thread_local LastLookup Last;
    const uint64_t Ver = Version.load(std::memory_order_relaxed);
    if (Last.M == this && Last.Version == Ver && Last.Id == Id)
      return Last.V;
    auto It = Arrays.find(Id);
    std::vector<double> *V = It == Arrays.end() ? nullptr : &It->second;
    Last = LastLookup{this, Ver, Id, V};
    return V;
  }
  const std::unordered_map<sym::SymbolId, std::vector<double>> &
  arrays() const {
    return Arrays;
  }

private:
  void bumpVersion() {
    static std::atomic<uint64_t> GlobalVersion{1};
    Version.store(GlobalVersion.fetch_add(1, std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  std::unordered_map<sym::SymbolId, std::vector<double>> Arrays;
  std::atomic<uint64_t> Version{0};
};

} // namespace rt
} // namespace halo

#endif // HALO_RT_MEMORY_H
