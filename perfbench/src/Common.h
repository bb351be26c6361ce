//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run configuration, the result record every workload fills in, sample
/// statistics, and the output checks shared by the workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Trace.h"

#include "analysis/Analyzer.h"
#include "rt/Executor.h"
#include "rt/Memory.h"
#include "suite/Suite.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark invocation.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Directory of per-program .hplan files compiled before any timing.
  std::string PlansDir;
  /// Test-only: busy-wait added inside the benchmark's span around
  /// Session::runSequential (the attribution self-test).
  double InjectSeqMs = 0;
};

/// Named metrics in print order: name -> (value, unit).
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// What a workload reports: the result's correct/attempted/failed triple
/// plus named metrics, and free-form lines printed before the JSON.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricList Metrics;
  std::vector<std::string> Lines;
  /// Per-layer metrics of a traced run, by the names in Layers.cpp.
  std::map<std::string, double> Layer;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Records a failed check: the run is no longer correct.
  void fail(const std::string &Why);
  void line(const std::string &L) { Lines.push_back(L); }
};

/// Milliseconds between two nowNs() readings.
inline double msBetween(int64_t A, int64_t B) {
  return 1e-6 * static_cast<double>(B - A);
}

/// Median (mean of the two middle samples for even counts). 0 when empty.
double median(std::vector<double> V);

/// The highest percentile with at least ten samples beyond it, by nearest
/// rank: the sample with exactly ten larger ones. Percentile and sample
/// count are returned through the out-parameters. Requires >= 11 samples;
/// with fewer it returns the maximum and reports percentile 100.
double tail(std::vector<double> V, double &Percentile, size_t &Count);


/// Fills the rt.* and session.frame_reuse_pct per-layer metrics from the
/// summed ExecStats of \p Ops executions, of which \p Par ran parallel,
/// \p Tls speculatively and \p Exact used an exact test.
void addExecStats(std::map<std::string, double> &Ly, const halo::rt::ExecStats &Sum,
                  uint64_t Ops, uint64_t Par, uint64_t Tls, uint64_t Exact,
                  double CascadeDepthMean);

/// Reports trace.overhead_pct: the traced op median against the untraced
/// one, both measured in the same process on the same op mix.
void addTraceOverhead(Result &R, const std::vector<double> &UntracedMs,
                      const std::vector<double> &TracedMs);

/// Appends the per-span and per-layer self-time table to R's lines.
void addSelfTimeTable(Result &R, const std::map<std::string, SpanAgg> &Spans);

/// Geometric mean of positive samples (0 when empty).
double geomean(const std::vector<double> &V);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// The machine's current speed, measured with a fixed piece of work that
/// calls nothing in HALO but resembles the analysis's inner loops: one
/// Fourier-Motzkin-style elimination step over fixed rows of small
/// integers (heap-allocated rows, pairwise combination, a hash set to drop
/// duplicates; about 0.1-0.2 ms). Its allocations go through the process
/// heap, as HALO's do. A workload ticks it between its ops, so the ticks
/// sample the same stretches of time as the ops. The host's speed drifts,
/// by up to 1.9x over minutes; a time divided by the ticks around it (a
/// time in "ref" units) cancels most of that drift, while a change in HALO
/// still moves it in full.
class RefClock {
public:
  /// Runs the reference work twice and records the second round's time.
  void tick();
  /// Median tick of the run, in ms (0 before the first tick).
  double medianMs() const;
  /// The speed around \p AtNs (a nowNs() reading): the median of the
  /// Window ticks nearest to it in time, in ms (0 before the first tick).
  double localMs(int64_t AtNs) const;
  /// \p Ms, taken at \p AtNs, in ref units.
  double inRef(double Ms, int64_t AtNs) const { return Ms / localMs(AtNs); }
  size_t ticks() const { return Ticks.size(); }
  /// Adds \p Other's ticks to this clock's.
  void absorb(const RefClock &Other);

private:
  static constexpr size_t Window = 15;
  static constexpr size_t RowCount = 64;
  static constexpr size_t RowWidth = 12;
  struct Tick {
    int64_t AtNs;
    double Ms;
  };
  /// One round of the reference work.
  void work();

  uint64_t Sink = 0;
  std::vector<Tick> Ticks; // In time order.
};

/// A time and when it was taken (nowNs() at its start).
struct Timed {
  double Ms = 0;
  int64_t AtNs = 0;
};

/// What a workload measured for the end-to-end metrics.
struct Figures {
  std::vector<double> SetupS; ///< Each set-up of the run.
  std::vector<Timed> Ops;     ///< Each untraced op.
  /// Throughput: Done ops completed over the Busy stretches, by Streams
  /// streams at once (closed-loop clients), so ops_per_ref = Streams x
  /// Done / (the Busy stretches in ref).
  std::vector<Timed> Busy;
  uint64_t Done = 0;
  unsigned Streams = 1;
  /// Each whole-suite prepare, as its parts (one per call timed).
  std::vector<std::vector<Timed>> Prepares;
  std::vector<Timed> Warm; ///< Each warm start.
  uint64_t PlanBytes = 0;
};

/// Adds every end-to-end metric to \p R, in BENCHMARK.json's order: the
/// set-up time and the sizes as measured, the other times in ref units
/// (each divided by \p Ref's ticks around it). Adds lines with the same
/// figures as measured (ms, s), the median tick, and the tail's percentile
/// and sample count.
void addEndToEnd(Result &R, const Figures &F, const RefClock &Ref);

/// A deterministic 64-bit generator (splitmix64) for the op sequences.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// One suite loop addressed by (program index, loop index).
struct LoopRef {
  size_t Prog = 0;
  size_t Loop = 0;
};

/// Every loop of \p Suite in suite order.
std::vector<LoopRef>
allLoops(const std::vector<std::unique_ptr<halo::suite::Benchmark>> &Suite);

/// Compares two memory states: bit-identical everywhere except on arrays in
/// \p ReductionTargets, which may differ by 1e-9 relative (reductions
/// reassociate floating-point additions). Returns an empty string on a
/// match, else what differed.
std::string compareMemory(const halo::rt::Memory &Got,
                          const halo::rt::Memory &Want,
                          const std::set<halo::sym::SymbolId> &ReductionTargets);

/// Arrays a plan executes as reductions.
std::set<halo::sym::SymbolId>
reductionTargets(const halo::analysis::LoopPlan &Plan);

/// Checks a computed classification against the paper's category, with
/// the mapping tests/suite_test.cpp uses. Returns an empty string on a
/// match, else the mismatch.
std::string checkPaperClass(const halo::analysis::LoopPlan &Plan,
                            const std::string &PaperClass);

/// Busy-waits for \p Ms milliseconds (attribution self-test).
void busyWaitMs(double Ms);

/// The .hplan file name of a program.
std::string planFileName(const std::string &ProgramName);

// Workloads. Each fills \p R; traced metrics only when C.Trace.
void runSuiteExec(const Config &C, Result &R);
void runServeMix(const Config &C, Result &R);
void runPrepareCold(const Config &C, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
