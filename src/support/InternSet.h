//===- support/InternSet.h - Probe-first hash-consing table ----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node store and hash-consing index shared by the sym, pdag and usr
/// contexts. A constructor hashes its *key* (kind plus operands), probes
/// with a key comparison, and only on a miss builds the node, so a hit
/// allocates nothing.
///
/// The table owns the nodes in creation order (a node's ID is its index)
/// and indexes them with open addressing and linear probing. A slot is 8
/// bytes: a 32-bit tag folded from the key hash and the 1-based index of
/// the node (0 marks an empty slot). The home slot is derived from the tag
/// alone, so growth re-files every slot without touching a node. The table
/// starts empty, allocates on the first insert and doubles whenever an
/// insert would take it past half full. Nothing is ever erased.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_INTERNSET_H
#define HALO_SUPPORT_INTERNSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace halo {
namespace support {

template <typename T> class InternSet {
public:
  InternSet() = default;
  InternSet(const InternSet &) = delete;
  InternSet &operator=(const InternSet &) = delete;

  /// Number of nodes created so far; the next node gets this ID.
  size_t size() const { return Nodes.size(); }

  /// The node with ID \p Id.
  const T *operator[](size_t Id) const {
    assert(Id < Nodes.size() && "node ID out of range");
    return Nodes[Id].get();
  }

  /// Returns the node filed under \p Hash for which \p Matches(const T &)
  /// holds. Otherwise calls \p Make(uint32_t Id), which must build the
  /// node for ID size() (a std::unique_ptr<T>) without interning into this
  /// table, stores the node and returns it. A hit never calls \p Make.
  template <typename MatchFn, typename MakeFn>
  const T *intern(size_t Hash, MatchFn &&Matches, MakeFn &&Make) {
    const uint32_t Tag = tagOf(Hash);
    size_t Free = 0;
    if (const T *Hit = probe(Tag, Matches, Free))
      return Hit;
    assert(Nodes.size() < UINT32_MAX && "intern table full");
    const auto Id = static_cast<uint32_t>(Nodes.size());
    std::unique_ptr<T> Node = Make(Id);
    assert(Node && "Make returned no node");
    if (2 * (Nodes.size() + 1) > Slots.size()) {
      grow();
      Free = freeSlotFrom(homeOf(Tag));
    }
    Nodes.push_back(std::move(Node));
    Slots[Free] = Slot{Tag, Id + 1};
    return Nodes.back().get();
  }

private:
  struct Slot {
    uint32_t Tag = 0;
    uint32_t Ref = 0; ///< 1-based index into Nodes; 0 = empty.
  };

  /// Walks the probe sequence of \p Tag. Returns the matching node, or
  /// null with \p Free set to the empty slot that ended the walk (left
  /// unset while no slot exists).
  template <typename MatchFn>
  const T *probe(uint32_t Tag, MatchFn &Matches, size_t &Free) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = homeOf(Tag);; I = (I + 1) & (Slots.size() - 1)) {
      const Slot S = Slots[I];
      if (S.Ref == 0) {
        Free = I;
        return nullptr;
      }
      if (S.Tag == Tag && Matches(*Nodes[S.Ref - 1]))
        return Nodes[S.Ref - 1].get();
    }
  }

  static uint32_t tagOf(size_t Hash) {
    const uint64_t H = static_cast<uint64_t>(Hash);
    return static_cast<uint32_t>(H ^ (H >> 32));
  }

  /// Fibonacci hashing: the top bits of tag * 2^32/phi pick the home slot.
  size_t homeOf(uint32_t Tag) const {
    return static_cast<uint32_t>(Tag * 0x9E3779B9u) >> Shift;
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
        Slots[freeSlotFrom(homeOf(S.Tag))] = S;
  }

  std::vector<std::unique_ptr<T>> Nodes;
  std::vector<Slot> Slots;
  /// 32 - log2(Slots.size()).
  unsigned Shift = 32;
};

} // namespace support
} // namespace halo

#endif // HALO_SUPPORT_INTERNSET_H
