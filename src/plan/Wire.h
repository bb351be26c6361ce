//===- plan/Wire.h - .hplan byte-level encoding helpers --------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal little-endian byte writer/reader shared by the .hplan codec
/// (src/plan/ only; not part of the public plan API). The reader treats
/// the buffer as hostile: every primitive is bounds-checked and any
/// overrun throws a typed `PlanCorrupt` ValidationError — by construction
/// no decode path can read past the chunk payload.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PLAN_WIRE_H
#define HALO_PLAN_WIRE_H

#include "support/Error.h"

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

namespace halo {
namespace plan {
namespace wire {

/// Raises a PlanCorrupt rejection with a one-line reason.
[[noreturn]] inline void corrupt(const std::string &What) {
  throw support::ValidationError(
      {support::Diag(support::Diag::Code::PlanCorrupt, What)});
}

/// Append-only little-endian encoder.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  void bytes(const std::vector<uint8_t> &B) {
    u32(static_cast<uint32_t>(B.size()));
    Buf.insert(Buf.end(), B.begin(), B.end());
  }

  const std::vector<uint8_t> &data() const { return Buf; }
  size_t size() const { return Buf.size(); }
  /// Moves the buffer out (the writer is spent afterwards).
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder over one chunk payload.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len, const char *ChunkName)
      : Data(Data), Len(Len), Name(ChunkName) {}

  uint8_t u8() {
    need(1);
    return Data[Pos++];
  }
  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    need(N);
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
  std::vector<uint8_t> bytes() {
    uint32_t N = u32();
    need(N);
    std::vector<uint8_t> B(Data + Pos, Data + Pos + N);
    Pos += N;
    return B;
  }

  /// A count prefix that also bounds later allocation: a hostile count
  /// larger than the bytes that could possibly back it is rejected before
  /// any vector reserve. \p MinBytesPer is the smallest on-wire footprint
  /// of one element.
  uint32_t count(size_t MinBytesPer) {
    uint32_t N = u32();
    if (MinBytesPer != 0 && N > (Len - Pos) / MinBytesPer)
      corrupt(std::string(Name) + ": element count exceeds payload");
    return N;
  }

  /// An index into a table of \p Size entries.
  uint32_t index(uint32_t Size, const char *What) {
    uint32_t V = u32();
    if (V >= Size)
      corrupt(std::string(Name) + ": out-of-range " + What + " index " +
              std::to_string(V) + " (table size " + std::to_string(Size) +
              ")");
    return V;
  }

  bool atEnd() const { return Pos == Len; }
  size_t pos() const { return Pos; }

  /// Whole payload consumed, nothing left over.
  void finish() {
    if (!atEnd())
      corrupt(std::string(Name) + ": " + std::to_string(Len - Pos) +
              " trailing payload bytes");
  }

private:
  void need(size_t N) {
    if (Len - Pos < N)
      corrupt(std::string(Name) + ": truncated payload");
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  const char *Name;
};

/// Writes the 12-byte preamble (magic + version + chunk count). The
/// preamble is deliberately *not* CRC-protected so a flipped version byte
/// classifies as PlanVersionSkew, not PlanCorrupt.
void writePreamble(std::ostream &Out, uint32_t ChunkCount);

/// Frames one chunk: tag + payload length + CRC32 + payload.
void writeChunk(std::ostream &Out, uint32_t Tag,
                const std::vector<uint8_t> &Payload);

} // namespace wire
} // namespace plan
} // namespace halo

#endif // HALO_PLAN_WIRE_H
