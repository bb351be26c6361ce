//===- perfbench/src/Trace.cpp - Benchmark-side span recorder -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// One thread's spans. Owned by the global registry so they survive the
/// thread that recorded them.
struct ThreadBuf {
  std::vector<SpanRec> Spans;
  int32_t Current = -1;
  uint64_t Op = 0;
};

std::atomic<bool> Enabled{false};
std::mutex RegistryM;
std::vector<std::unique_ptr<ThreadBuf>> Registry;

ThreadBuf &myBuf() {
  thread_local ThreadBuf *Buf = nullptr;
  if (!Buf) {
    auto Owned = std::make_unique<ThreadBuf>();
    Owned->Spans.reserve(1 << 14);
    Buf = Owned.get();
    std::lock_guard<std::mutex> L(RegistryM);
    Registry.push_back(std::move(Owned));
  }
  return *Buf;
}

} // namespace

double SpanAgg::selfSumMs() const {
  double S = 0;
  for (double V : SelfMs)
    S += V;
  return S;
}

double SpanAgg::totalSumMs() const {
  double S = 0;
  for (double V : TotalMs)
    S += V;
  return S;
}

void Tracer::enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }

bool Tracer::enabled() { return Enabled.load(std::memory_order_relaxed); }

void Tracer::setOp(uint64_t Op) { myBuf().Op = Op; }

void Tracer::clear() {
  std::lock_guard<std::mutex> L(RegistryM);
  for (auto &B : Registry) {
    B->Spans.clear();
    B->Current = -1;
  }
}

std::map<std::string, SpanAgg> Tracer::aggregate() {
  std::map<std::string, SpanAgg> Out;
  std::lock_guard<std::mutex> L(RegistryM);
  for (auto &B : Registry) {
    const std::vector<SpanRec> &S = B->Spans;
    // Children nest strictly inside their parent on one thread and never
    // overlap each other, so the covered part is the sum of their lengths.
    std::vector<int64_t> Covered(S.size(), 0);
    for (const SpanRec &R : S)
      if (R.Parent >= 0)
        Covered[static_cast<size_t>(R.Parent)] += R.EndNs - R.StartNs;
    for (size_t I = 0; I < S.size(); ++I) {
      const int64_t Dur = S[I].EndNs - S[I].StartNs;
      SpanAgg &A = Out[S[I].Name];
      A.TotalMs.push_back(1e-6 * static_cast<double>(Dur));
      A.SelfMs.push_back(1e-6 * static_cast<double>(Dur - Covered[I]));
    }
  }
  return Out;
}

std::vector<SpanRec> Tracer::allSpans() {
  std::vector<SpanRec> Out;
  std::lock_guard<std::mutex> L(RegistryM);
  for (auto &B : Registry)
    Out.insert(Out.end(), B->Spans.begin(), B->Spans.end());
  return Out;
}

Span::Span(const char *Name) {
  if (!Tracer::enabled())
    return;
  ThreadBuf &B = myBuf();
  SpanRec R;
  R.Name = Name;
  R.Parent = B.Current;
  R.Op = B.Op;
  Index = static_cast<int32_t>(B.Spans.size());
  SavedCurrent = B.Current;
  B.Current = Index;
  B.Spans.push_back(R);
  B.Spans.back().StartNs = nowNs();
}

Span::~Span() {
  if (Index < 0)
    return;
  const int64_t End = nowNs();
  ThreadBuf &B = myBuf();
  B.Spans[static_cast<size_t>(Index)].EndNs = End;
  B.Current = SavedCurrent;
}

} // namespace perfbench
