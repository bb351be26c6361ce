//===- support/IdMap.h - Flat memo keyed on node IDs ------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memo keyed on interned node IDs, for memos that see a sparse subset
/// of a context's nodes: the Fourier-Motzkin eliminator maps an expression
/// or predicate to the ID of the predicate it reduces to (8-byte slots),
/// the plan hasher maps the nodes a plan references to their structural
/// hashes (16-byte slots), and the predicate, USR and expression lowerers
/// keep their reference counts, memo slots, subroutine entries and symbol
/// slots here. A slot holds the key + 1 (0 marks
/// an empty slot) and the value, so an entry costs no allocation of its
/// own, and the table's size follows the entries, not the largest ID.
/// Open addressing with linear probing from a Fibonacci-hashed home slot;
/// the table starts empty, allocates on the first insert and doubles
/// before it would pass half full. Entries are never erased one by one;
/// clear() empties the whole table.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_IDMAP_H
#define HALO_SUPPORT_IDMAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace halo {
namespace support {

template <typename V> class IdMap {
public:
  /// The value stored under \p Key, or null. The pointer stays valid
  /// until the next insert.
  V *find(uint32_t Key) {
    if (Slots.empty())
      return nullptr;
    for (size_t I = homeOf(Key);; I = (I + 1) & (Slots.size() - 1)) {
      Slot &S = Slots[I];
      if (S.Ref == 0)
        return nullptr;
      if (S.Ref == Key + 1)
        return &S.Value;
    }
  }
  const V *find(uint32_t Key) const {
    return const_cast<IdMap *>(this)->find(Key);
  }

  /// Stores \p Value under \p Key unless \p Key already has a value; the
  /// first value stays, as with std::unordered_map::emplace. Returns the
  /// stored value (valid until the next insert) and whether it was new.
  std::pair<V *, bool> insert(uint32_t Key, V Value) {
    assert(Key != UINT32_MAX && "key out of range");
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t I = homeOf(Key);
    for (; Slots[I].Ref != 0; I = (I + 1) & (Slots.size() - 1))
      if (Slots[I].Ref == Key + 1)
        return {&Slots[I].Value, false};
    Slots[I] = Slot{Key + 1, Value};
    ++Count;
    return {&Slots[I].Value, true};
  }

  size_t size() const { return Count; }

  /// Drops every entry and releases the slots.
  void clear() {
    Slots = std::vector<Slot>();
    Count = 0;
    Shift = 32;
  }

private:
  struct Slot {
    uint32_t Ref = 0; ///< Key + 1; 0 = empty.
    V Value{};
  };

  size_t homeOf(uint32_t Key) const {
    return static_cast<uint32_t>(Key * 0x9E3779B9u) >> Shift;
  }

  size_t freeSlotFrom(size_t I) const {
    while (Slots[I].Ref != 0)
      I = (I + 1) & (Slots.size() - 1);
    return I;
  }

  void grow() {
    const size_t NewSize = Slots.empty() ? 16 : 2 * Slots.size();
    std::vector<Slot> Old = std::exchange(Slots, std::vector<Slot>(NewSize));
    Shift = 32;
    for (size_t N = NewSize; N > 1; N >>= 1)
      --Shift;
    for (const Slot &S : Old)
      if (S.Ref != 0)
        Slots[freeSlotFrom(homeOf(S.Ref - 1))] = S;
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  /// 32 - log2(Slots.size()).
  unsigned Shift = 32;
};

} // namespace support
} // namespace halo

#endif // HALO_SUPPORT_IDMAP_H
