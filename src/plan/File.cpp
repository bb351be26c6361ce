//===- plan/File.cpp - .hplan chunk framing and inspection ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Stream layout: a 12-byte preamble (magic "HPLN", u32 format version,
// u32 chunk count) followed by `chunk count` framed chunks, each
// `u32 tag | u32 payload length | u32 CRC32(payload) | payload`.
// Everything is little-endian. The preamble is outside the CRCs so a
// corrupted version field is reported as version skew (the actionable
// diagnosis: regenerate the cache) rather than generic corruption.
//
//===----------------------------------------------------------------------===//

#include "plan/Plan.h"
#include "plan/Wire.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace halo {
namespace plan {

namespace {

void putU32(std::ostream &Out, uint32_t V) {
  char B[4];
  for (int I = 0; I < 4; ++I)
    B[I] = static_cast<char>(V >> (8 * I));
  Out.write(B, 4);
}

bool getU32(std::istream &In, uint32_t &V) {
  char B[4];
  if (!In.read(B, 4))
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(B[I])) << (8 * I);
  return true;
}

[[noreturn]] void reject(support::Diag::Code Code, const std::string &What) {
  throw support::ValidationError({support::Diag(Code, What)});
}

} // namespace

namespace wire {

void writePreamble(std::ostream &Out, uint32_t ChunkCount) {
  Out.write(Magic, 4);
  putU32(Out, FormatVersion);
  putU32(Out, ChunkCount);
}

void writeChunk(std::ostream &Out, uint32_t Tag,
                const std::vector<uint8_t> &Payload) {
  putU32(Out, Tag);
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU32(Out, crc32(Payload.data(), Payload.size()));
  if (!Payload.empty())
    Out.write(reinterpret_cast<const char *>(Payload.data()),
              static_cast<std::streamsize>(Payload.size()));
}

} // namespace wire

std::vector<Chunk> frame(std::istream &In) {
  char M[4];
  if (!In.read(M, 4) || std::memcmp(M, Magic, 4) != 0)
    reject(support::Diag::Code::PlanBadMagic,
           "not a plan-cache stream (bad magic)");
  uint32_t Version = 0, Count = 0;
  if (!getU32(In, Version))
    wire::corrupt("truncated preamble (missing version)");
  if (Version != FormatVersion)
    reject(support::Diag::Code::PlanVersionSkew,
           "plan format version " + std::to_string(Version) +
               " (this build reads version " +
               std::to_string(FormatVersion) + ")");
  if (!getU32(In, Count))
    wire::corrupt("truncated preamble (missing chunk count)");

  std::vector<Chunk> Chunks;
  Chunks.reserve(std::min<uint32_t>(Count, 1024));
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Tag = 0, Len = 0, Crc = 0;
    if (!getU32(In, Tag) || !getU32(In, Len) || !getU32(In, Crc))
      wire::corrupt("truncated chunk header (chunk " + std::to_string(I) +
                    " of " + std::to_string(Count) + ")");
    Chunk C;
    C.Tag = Tag;
    // Read the payload in bounded pieces: a hostile length field fails on
    // the first short read instead of provoking a giant allocation.
    constexpr uint32_t Piece = 1u << 20;
    uint32_t Left = Len;
    while (Left > 0) {
      uint32_t N = std::min(Left, Piece);
      size_t Old = C.Payload.size();
      C.Payload.resize(Old + N);
      if (!In.read(reinterpret_cast<char *>(C.Payload.data() + Old), N))
        wire::corrupt("truncated chunk payload (chunk " +
                      std::to_string(I) + ", expected " +
                      std::to_string(Len) + " bytes)");
      Left -= N;
    }
    if (crc32(C.Payload.data(), C.Payload.size()) != Crc)
      wire::corrupt("CRC mismatch in chunk " + std::to_string(I));
    Chunks.push_back(std::move(C));
  }
  if (In.peek() != std::char_traits<char>::eof())
    wire::corrupt("trailing bytes after last chunk");
  return Chunks;
}

std::string inspect(std::istream &In) {
  std::vector<Chunk> Chunks = frame(In);
  std::ostringstream OS;
  OS << "hplan v" << FormatVersion << ", " << Chunks.size() << " chunks\n";
  for (const Chunk &C : Chunks) {
    char Tag[5] = {static_cast<char>(C.Tag), static_cast<char>(C.Tag >> 8),
                   static_cast<char>(C.Tag >> 16),
                   static_cast<char>(C.Tag >> 24), 0};
    for (char &Ch : Tag)
      if (Ch != 0 && (Ch < 0x20 || Ch > 0x7E))
        Ch = '?';
    OS << "  " << Tag << "  " << C.Payload.size() << " bytes";
    wire::ByteReader R(C.Payload.data(), C.Payload.size(), Tag);
    switch (C.Tag) {
    case ChunkSymbols:
    case ChunkExprs:
    case ChunkPreds:
    case ChunkUsrs:
    case ChunkPredCode:
    case ChunkUsrCode:
      OS << "  (" << R.u32() << " records)";
      break;
    case ChunkLoop: {
      std::string Label = R.str();
      uint64_t KeyA = R.u64();
      uint64_t KeyB = R.u64();
      OS << "  loop '" << Label << "' key " << std::hex << KeyA << "/"
         << KeyB << std::dec;
      break;
    }
    default:
      OS << "  (unknown tag)";
      break;
    }
    OS << "\n";
  }
  return OS.str();
}

} // namespace plan
} // namespace halo
