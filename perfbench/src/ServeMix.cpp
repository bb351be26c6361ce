//===- perfbench/src/ServeMix.cpp - The serve-mix workload ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// A closed loop into serve::Engine: client threads each submit a seeded
// uniform draw over every registered suite loop (Scale 1, Repeats = 1) and
// wait on the future before sending the next, reusing their own datasets.
// At a fixed low rate client 0 re-prepares a loop from a named list of
// loops that are cheap to analyze. Every response must be Status::Ok; a
// seeded sample of requests is re-run on fresh datasets afterwards and
// compared with Session::runSequential.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "serve/Engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace halo;

namespace perfbench {

namespace {

constexpr int64_t Scale = 1;
/// Client threads; with Workers they fill the 4 cores of the reference box.
constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
/// Requests per client per second of --seconds (fixed work per run). More
/// requests push the tail (the 11th-largest latency) out into rare host
/// stalls: over sweeps on the reference machine its run-to-run spread in ms
/// was 0.21-0.43 at 100k requests per run, 0.16-0.83 at 20k, 0.28 at 10k
/// and 0.09 at 5k, where it sits among the heaviest loops' executions.
constexpr double RequestsPerSecond = 250;
/// Untraced requests per reference tick, in each client.
constexpr size_t TickEvery = 8;
/// Client 0 re-prepares one loop every this many of its requests.
constexpr unsigned ReprepareEvery = 250;
/// One request in this many is re-run on fresh datasets and checked.
constexpr uint64_t SampleEvery = 64;
/// Engines built per run (set-ups), each serving an equal share of the
/// requests.
constexpr unsigned Blocks = 4;
/// Engine restarts timed for warm_ref_p50 per block.
constexpr unsigned WarmRepeats = 15;
/// The program whose .hplan the engine warm-starts from
/// (EngineOptions::PlanCachePath holds one file): zeusmp, whose cold
/// prepare (TRANX2_do2100) dominates the suite's.
constexpr const char *WarmProgram = "zeusmp";
/// Loops client 0 re-prepares: each analyzes cold in under 1 ms on the
/// reference machine. The Fourier-Motzkin-heavy loops (TRANX2_do2100, the
/// wupwise MULDEO/MULDOE loops, OLDA_do300, SOLVH_do20: 0.3-10 s each)
/// stay out: a re-prepare always re-analyzes, as expensive warm as cold,
/// and one such write would hold the writer gate and stall every reader.
/// Their cost is what prepare-cold measures.
const char *const ReprepareLoops[] = {
    "ACTFOR_do240", "CORREC_do711", "INTGRL_do140", "EMIT_do5",
    "DFLUX_do40",   "FPTRAK_do300", "SGEMM_do160",  "RESID_do600"};

/// The engine and the suite it serves. The engine is declared after the
/// suite so it is destroyed first.
struct Served {
  std::vector<std::unique_ptr<suite::Benchmark>> Suite;
  std::unique_ptr<serve::Engine> Engine;
  std::vector<serve::ProgramId> Ids;
  std::vector<std::set<sym::SymbolId>> RedTargets; // Per LoopRef.
};

serve::EngineOptions engineOptions(const Config &C) {
  serve::EngineOptions EO;
  EO.Workers = Workers;
  EO.Session.Threads = 1;
  EO.PlanCachePath = C.PlansDir + "/" + planFileName(WarmProgram);
  return EO;
}

/// Builds the engine and prepares every suite loop in it, ticking \p Ref
/// after each prepare. Adds each Engine::prepare call to \p Parts and
/// returns the set-up's time without the ticks, in ms.
double setUp(const Config &C, Served &S, std::vector<Timed> &Parts,
             RefClock &Ref) {
  const int64_t T0 = nowNs();
  S.Suite = suite::buildAllBenchmarks();
  S.Engine = std::make_unique<serve::Engine>(engineOptions(C));
  for (auto &B : S.Suite)
    S.Ids.push_back(S.Engine->addProgram(B->prog(), B->usr()));
  double Ms = msBetween(T0, nowNs());
  for (const LoopRef &L : allLoops(S.Suite)) {
    const int64_t P0 = nowNs();
    S.RedTargets.push_back(reductionTargets(
        S.Engine->prepare(S.Ids[L.Prog], *S.Suite[L.Prog]->Loops[L.Loop].Loop)
            .Plan));
    Parts.push_back({msBetween(P0, nowNs()), P0});
    Ms += Parts.back().Ms;
    Ref.tick();
  }
  return Ms;
}

/// An engine restart's warm start: a fresh engine registers the
/// warm-started program and prepares its loops from the plan cache.
/// Returns addProgram plus the prepare calls, in ms, or -1 when a loop was
/// not adopted from the cache.
double engineWarmStart(const Config &C) {
  auto Suite = suite::buildAllBenchmarks();
  for (auto &B : Suite) {
    if (B->Name != WarmProgram)
      continue;
    serve::Engine E(engineOptions(C));
    const int64_t T0 = nowNs();
    const serve::ProgramId Id = E.addProgram(B->prog(), B->usr());
    for (const suite::LoopSpec &LS : B->Loops)
      E.prepare(Id, *LS.Loop);
    const double Ms = msBetween(T0, nowNs());
    return E.stats().totals().PlansWarmStarted == B->Loops.size() ? Ms : -1;
  }
  return -1;
}

/// One client's state across the phases of a run.
struct Client {
  explicit Client(uint64_t Seed) : G(Seed) {}
  Rng G;
  RefClock Ref; // Ticked between this client's untraced requests.
  std::vector<int64_t> LatAt; // When each request was sent.
  // Untraced phases: requests completed, and each phase's time minus the
  // ticks (ops_per_ref).
  uint64_t Done = 0;
  std::vector<Timed> Busy;
  std::vector<std::unique_ptr<rt::Memory>> Mem; // One dataset per loop.
  std::vector<std::unique_ptr<sym::Bindings>> Bind;
  uint64_t Sent = 0;
  std::vector<double> LatMs, ExecMs, HandoffMs, ReprepMs;
  std::vector<size_t> Sampled; // Loop indices to re-check.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  // Executions of traced requests, for the rt.* per-layer metrics.
  rt::ExecStats Sum;
  uint64_t Execs = 0, Par = 0, Tls = 0, Exact = 0, DepthN = 0;
  double DepthSum = 0;
};

void clientLoop(Served &S, const std::vector<LoopRef> &Loops,
                const std::vector<const ir::DoLoop *> &Reprep,
                const std::vector<serve::ProgramId> &ReprepIds, unsigned Id,
                uint64_t Requests, Client &Cl) {
  const int64_t Start = nowNs();
  int64_t TickNs = 0;
  const size_t LatBefore = Cl.LatMs.size();
  for (uint64_t N = 0; N < Requests; ++N) {
    const size_t Idx = Cl.G.below(Loops.size());
    const LoopRef &L = Loops[Idx];
    const uint64_t Seq = Cl.Sent++;
    Tracer::setOp((static_cast<uint64_t>(Id) << 48) | (Seq + 1));
    if (Id == 0 && Seq % ReprepareEvery == ReprepareEvery - 1) {
      const size_t R = Cl.G.below(Reprep.size());
      ++Cl.Attempted;
      const int64_t T0 = nowNs();
      try {
        Span Sp("serve.reprepare");
        S.Engine->prepare(ReprepIds[R], *Reprep[R], analysis::AnalyzerOptions());
      } catch (const std::exception &E) {
        ++Cl.Failed;
        Cl.Errors.push_back(std::string("re-prepare: ") + E.what());
      }
      Cl.ReprepMs.push_back(msBetween(T0, nowNs()));
    }
    if (Cl.G.below(SampleEvery) == 0)
      Cl.Sampled.push_back(Idx);
    serve::Request Rq;
    Rq.Program = S.Ids[L.Prog];
    Rq.Loop = S.Suite[L.Prog]->Loops[L.Loop].Loop;
    Rq.M = Cl.Mem[Idx].get();
    Rq.B = Cl.Bind[Idx].get();
    ++Cl.Attempted;
    Span OpSpan("serve-mix.op");
    const int64_t T0 = nowNs();
    std::future<serve::Response> F;
    {
      Span Sp("serve.submit");
      F = S.Engine->submit(Rq);
    }
    serve::Response Resp;
    {
      Span Sp("serve.wait");
      Resp = F.get();
    }
    const int64_t T1 = nowNs();
    if (Resp.St != serve::Status::Ok) {
      ++Cl.Failed;
      if (Cl.Errors.size() < 16)
        Cl.Errors.push_back(std::string(serve::statusName(Resp.St)) + ": " +
                            Resp.Error);
      continue;
    }
    double Exec = 0;
    for (const rt::ExecStats &St : Resp.Stats) {
      Exec += 1e3 * St.TotalSeconds;
      if (!Tracer::enabled())
        continue;
      Cl.Sum += St;
      ++Cl.Execs;
      Cl.Par += St.RanParallel;
      Cl.Tls += St.UsedTLS;
      Cl.Exact += St.UsedExactTest;
      if (St.CascadeDepthUsed >= 0) {
        Cl.DepthSum += St.CascadeDepthUsed;
        ++Cl.DepthN;
      }
    }
    const double Lat = msBetween(T0, T1);
    if (!Tracer::enabled() && Cl.LatMs.size() % TickEvery == 0) {
      const int64_t Tk = nowNs();
      Cl.Ref.tick();
      TickNs += nowNs() - Tk;
    }
    Cl.LatMs.push_back(Lat);
    Cl.LatAt.push_back(T0);
    Cl.ExecMs.push_back(Exec);
    Cl.HandoffMs.push_back(Lat - Exec);
  }
  if (!Tracer::enabled()) {
    const int64_t End = nowNs();
    Cl.Done += Cl.LatMs.size() - LatBefore;
    Cl.Busy.push_back(
        {msBetween(Start, End - TickNs), Start + (End - Start) / 2});
  }
}

/// Re-runs the requests \p Cl sampled on fresh datasets through the (idle)
/// engine and compares each with a sequential run on an identical dataset.
/// Returns the number checked.
size_t checkSamples(Served &S, const std::vector<LoopRef> &Loops,
                    const Client &Cl, Result &R) {
  std::vector<std::unique_ptr<session::Session>> RefSess(S.Suite.size());
  session::SessionOptions SO;
  SO.Threads = 1;
  for (size_t Idx : Cl.Sampled) {
    const LoopRef &L = Loops[Idx];
    suite::Benchmark &B = *S.Suite[L.Prog];
    const ir::DoLoop *Loop = B.Loops[L.Loop].Loop;
    rt::Memory M, SM;
    sym::Bindings Bd, SB;
    B.Setup(M, Bd, Scale);
    B.Setup(SM, SB, Scale);
    serve::Request Rq;
    Rq.Program = S.Ids[L.Prog];
    Rq.Loop = Loop;
    Rq.M = &M;
    Rq.B = &Bd;
    serve::Response Resp = S.Engine->submit(Rq).get();
    if (!RefSess[L.Prog])
      RefSess[L.Prog] =
          std::make_unique<session::Session>(B.prog(), B.usr(), SO);
    RefSess[L.Prog]->runSequential(*Loop, SM, SB);
    const std::string Why = Resp.St != serve::Status::Ok
                                ? std::string(serve::statusName(Resp.St))
                                : compareMemory(M, SM, S.RedTargets[Idx]);
    if (!Why.empty())
      R.fail("re-run of " + B.Loops[L.Loop].Name + ": " + Why);
  }
  return Cl.Sampled.size();
}

} // namespace

void runServeMix(const Config &C, Result &R) {
  const uint64_t PerClient = std::max<uint64_t>(
      Blocks * 100,
      static_cast<uint64_t>(std::llround(C.Seconds * RequestsPerSecond)));
  std::vector<std::unique_ptr<Client>> Cls;
  for (unsigned I = 0; I < Clients; ++I)
    Cls.push_back(std::make_unique<Client>(C.Seed * 1000003u + I));

  // The run is Blocks blocks, each a fresh engine (set-up), engine
  // restarts (warm_ref_p50), then the block's share of requests, so set-up
  // samples spread over the run. A traced run splits each block's requests
  // into an untraced and a traced half, so the tracing overhead is
  // measured on the same mix under the same conditions.
  Figures F;
  std::vector<double> Lat, TracedLat, Skew;
  uint64_t PlanBytes = 0;
  RefClock MainRef; // Ticked in set-ups and after each warm start.
  size_t Checked = 0;
  serve::ServeStats Last;
  size_t PeakQueue = 0;
  uint64_t Retried = 0, Degraded = 0;
  for (unsigned Blk = 0; Blk < Blocks; ++Blk) {
    Served S;
    F.Prepares.emplace_back();
    try {
      F.SetupS.push_back(1e-3 * setUp(C, S, F.Prepares.back(), MainRef));
    } catch (const std::exception &E) {
      R.fail(std::string("engine set-up: ") + E.what());
      return;
    }
    for (unsigned I = 0; I < WarmRepeats; ++I) {
      const int64_t W0 = nowNs();
      const double Ms = engineWarmStart(C);
      if (Ms < 0) {
        R.fail("engine warm start did not adopt every plan of " +
               std::string(WarmProgram));
        return;
      }
      F.Warm.push_back({Ms, W0});
      MainRef.tick();
    }
    if (Blk == 0) {
      std::ifstream F(engineOptions(C).PlanCachePath,
                      std::ios::binary | std::ios::ate);
      PlanBytes = F ? static_cast<uint64_t>(F.tellg()) : 0;
    }

    const std::vector<LoopRef> Loops = allLoops(S.Suite);
    std::vector<const ir::DoLoop *> Reprep;
    std::vector<serve::ProgramId> ReprepIds;
    for (const char *Name : ReprepareLoops)
      for (const LoopRef &L : Loops)
        if (S.Suite[L.Prog]->Loops[L.Loop].Name == Name) {
          Reprep.push_back(S.Suite[L.Prog]->Loops[L.Loop].Loop);
          ReprepIds.push_back(S.Ids[L.Prog]);
        }
    if (Reprep.size() != std::size(ReprepareLoops)) {
      R.fail("a re-prepare loop is missing from the suite");
      return;
    }
    for (auto &Cl : Cls) {
      Cl->Mem.clear();
      Cl->Bind.clear();
      Cl->Sampled.clear();
      for (const LoopRef &L : Loops) {
        Cl->Mem.push_back(std::make_unique<rt::Memory>());
        Cl->Bind.push_back(std::make_unique<sym::Bindings>());
        S.Suite[L.Prog]->Setup(*Cl->Mem.back(), *Cl->Bind.back(), Scale);
      }
    }

    const uint64_t BlockN =
        PerClient / Blocks + (Blk < PerClient % Blocks ? 1u : 0u);
    for (unsigned Ph = 0; Ph < (C.Trace ? 2u : 1u); ++Ph) {
      const bool Traced = Ph == 1;
      Tracer::enable(Traced);
      const uint64_t N = C.Trace ? (BlockN + 1 - Ph) / 2 : BlockN;
      std::vector<size_t> Before;
      for (auto &Cl : Cls)
        Before.push_back(Cl->LatMs.size());
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I < Clients; ++I)
        Ts.emplace_back(clientLoop, std::ref(S), std::cref(Loops),
                        std::cref(Reprep), std::cref(ReprepIds), I, N,
                        std::ref(*Cls[I]));
      for (std::thread &T : Ts)
        T.join();
      for (unsigned I = 0; I < Clients; ++I) {
        Client &Cl = *Cls[I];
        auto From = Cl.LatMs.begin() + static_cast<std::ptrdiff_t>(Before[I]);
        std::vector<double> &Into = Traced ? TracedLat : Lat;
        Into.insert(Into.end(), From, Cl.LatMs.end());
        for (size_t J = Before[I]; !Traced && J < Cl.LatMs.size(); ++J)
          F.Ops.push_back({Cl.LatMs[J], Cl.LatAt[J]});
      }
    }
    Tracer::enable(false);

    Last = S.Engine->stats();
    PeakQueue = std::max(PeakQueue, Last.PeakQueueDepth);
    Retried += Last.Retried;
    Degraded += Last.DegradedExecs;
    const serve::ShardStats Tot = Last.totals();
    uint64_t MaxExec = 0;
    for (const serve::ShardStats &Sh : Last.Shards)
      MaxExec = std::max(MaxExec, Sh.Executions);
    if (Tot.Executions)
      Skew.push_back(static_cast<double>(MaxExec) *
                     static_cast<double>(Last.Shards.size()) /
                     static_cast<double>(Tot.Executions));
    for (auto &Cl : Cls)
      Checked += checkSamples(S, Loops, *Cl, R);
  }

  std::vector<double> ExecMs, HandoffMs, ReprepMs;
  for (auto &Cl : Cls) {
    R.Attempted += Cl->Attempted;
    R.Failed += Cl->Failed;
    for (const std::string &E : Cl->Errors)
      R.fail(E);
    ExecMs.insert(ExecMs.end(), Cl->ExecMs.begin(), Cl->ExecMs.end());
    HandoffMs.insert(HandoffMs.end(), Cl->HandoffMs.begin(),
                     Cl->HandoffMs.end());
    ReprepMs.insert(ReprepMs.end(), Cl->ReprepMs.begin(), Cl->ReprepMs.end());
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%zu sampled requests re-run on fresh datasets and checked; "
                "%zu re-prepares",
                Checked, ReprepMs.size());
  R.line(Buf);

  for (auto &Cl : Cls) {
    F.Busy.insert(F.Busy.end(), Cl->Busy.begin(), Cl->Busy.end());
    F.Done += Cl->Done;
    MainRef.absorb(Cl->Ref);
  }
  // Closed loop: each client always has one request in flight.
  F.Streams = Clients;
  F.PlanBytes = PlanBytes;
  addEndToEnd(R, F, MainRef);

  if (!C.Trace)
    return;
  auto &Ly = R.Layer;
  auto Spans = Tracer::aggregate();
  Ly["serve.submit_ms_p50"] = median(Spans["serve.submit"].TotalMs);
  Ly["serve.handoff_ms_p50"] = median(HandoffMs);
  Ly["serve.exec_ms_p50"] = median(ExecMs);
  Ly["serve.reprepare_ms_p50"] = median(ReprepMs);
  Ly["serve.peak_queue_depth"] = static_cast<double>(PeakQueue);
  Ly["serve.retried"] = static_cast<double>(Retried);
  Ly["serve.degraded_execs"] = static_cast<double>(Degraded);
  const serve::ShardStats Tot = Last.totals();
  Ly["serve.exec_contexts"] = static_cast<double>(Tot.ExecContexts);
  Ly["serve.shard_exec_skew"] = median(Skew);
  Ly["session.compiled_preds"] = static_cast<double>(Tot.CompiledPreds);
  Ly["session.compiled_usrs"] = static_cast<double>(Tot.CompiledUSRs);
  Ly["plan.warm_started"] = static_cast<double>(Tot.PlansWarmStarted);
  rt::ExecStats Sum;
  uint64_t Execs = 0, Par = 0, Tls = 0, Exact = 0, DepthN = 0;
  double DepthSum = 0;
  for (auto &Cl : Cls) {
    Sum += Cl->Sum;
    Execs += Cl->Execs;
    Par += Cl->Par;
    Tls += Cl->Tls;
    Exact += Cl->Exact;
    DepthN += Cl->DepthN;
    DepthSum += Cl->DepthSum;
  }
  addExecStats(Ly, Sum, Execs, Par, Tls, Exact,
               DepthN ? DepthSum / static_cast<double>(DepthN) : 0);
  addTraceOverhead(R, Lat, TracedLat);
  addSelfTimeTable(R, Spans);
}

} // namespace perfbench
