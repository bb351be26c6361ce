//===- perfbench/src/Trace.h - Benchmark-side span recorder -----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from outside the program, around each call the benchmark
/// makes into a layer's public API. A span holds its name, start, end, the
/// span that encloses it on the same thread, and the id of the op it
/// belongs to. Spans stay in per-thread memory and are merged when the run
/// ends; a span's self time is its duration minus the part covered by its
/// child spans.
///
/// Recording is off unless Tracer::enable(true) was called: a disabled
/// Span costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span. Parent indexes the same thread's buffer (-1: root).
struct SpanRec {
  const char *Name = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint64_t Op = 0;
};

/// Per-name aggregate of finished spans.
struct SpanAgg {
  std::vector<double> SelfMs;  ///< Self time of each span.
  std::vector<double> TotalMs; ///< Duration of each span.
  double selfSumMs() const;
  double totalSumMs() const;
};

namespace Tracer {
void enable(bool On);
bool enabled();
/// Sets the op id stamped on spans opened by this thread from now on; 0
/// (each thread's initial value) marks work outside any op.
void setOp(uint64_t Op);
/// Drops every recorded span (all threads). Not concurrent with spans.
void clear();
/// Merges every thread's spans into per-name aggregates. Call after all
/// recording threads have stopped.
std::map<std::string, SpanAgg> aggregate();
/// Every recorded span (all threads). Call after recording has stopped.
std::vector<SpanRec> allSpans();
} // namespace Tracer

/// RAII span. \p Name must be a string literal (stored by pointer).
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Index = -1;
  int32_t SavedCurrent = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
