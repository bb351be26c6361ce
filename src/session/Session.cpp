//===- session/Session.cpp - Analyze-once / execute-many sessions ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "session/Session.h"

#include "ir/Validate.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

using namespace halo;
using namespace halo::session;

namespace halo {
namespace session {

/// RAII lease of one rt::ExecContext from the session pool: checkout on
/// construction, return on destruction (exception-safe). The pool hands
/// the most-recently-returned context out first, so a sequential caller
/// keeps hitting the same warm frames — the steady state is unchanged
/// from the single-context design.
class ContextLease {
public:
  explicit ContextLease(Session &S) : S(S) {
    support::MutexLock L(S.CtxMutex);
    if (!S.Free.empty()) {
      C = S.Free.back();
      S.Free.pop_back();
      return;
    }
    S.Contexts.push_back(std::make_unique<rt::ExecContext>());
    C = S.Contexts.back().get();
  }
  ~ContextLease() {
    // Never return a context carrying the (stack-lived) token of the
    // execution that just ended — also on the exception path.
    C->Cancel = nullptr;
    support::MutexLock L(S.CtxMutex);
    S.Free.push_back(C);
  }
  ContextLease(const ContextLease &) = delete;
  ContextLease &operator=(const ContextLease &) = delete;

  rt::ExecContext &get() { return *C; }

private:
  Session &S;
  rt::ExecContext *C = nullptr;
};

} // namespace session
} // namespace halo

namespace {

/// RAII in-flight refcount on a plan (see PreparedLoop::InFlight).
struct PlanRef {
  explicit PlanRef(PreparedLoop &PL) : PL(PL) {
    PL.InFlight.fetch_add(1, std::memory_order_acquire);
  }
  ~PlanRef() { PL.InFlight.fetch_sub(1, std::memory_order_release); }
  PreparedLoop &PL;
};

} // namespace

Session::Session(ir::Program &Prog, usr::USRContext &Ctx, SessionOptions O)
    : Prog(Prog), Ctx(Ctx), Opts(std::move(O)), Pool(Opts.Threads),
      Compile(Ctx.symCtx()), UsrCompile(Ctx.symCtx(), Compile) {}

Session::~Session() = default;

PreparedLoop &Session::prepareWith(const ir::DoLoop &Loop,
                                   const analysis::AnalyzerOptions &AOpts) {
  // Front door: untrusted programs are validated structurally before any
  // analysis or execution sees them. Malformed shapes (undeclared arrays,
  // constant empty trips, provably out-of-bounds subscripts, loop-variable
  // reuse, CIV-on-loop-var, call cycles, pathological nesting) raise a
  // structured support::ValidationError here instead of tripping asserts
  // or UB deeper in the pipeline.
  ir::validateLoop(Prog, Loop);
  // Labels are the serving layer's loop addresses: a second loop with the
  // same label would silently shadow the first in every label-based
  // lookup, routing traffic to the wrong loop. Fail at prepare time.
  for (const auto &KV : Plans)
    if (KV.first != &Loop && KV.first->getLabel() == Loop.getLabel())
      throw std::invalid_argument(
          "duplicate loop label '" + Loop.getLabel() +
          "': another prepared loop already carries it");
  // This call is analysis-exclusive by contract, so nothing executes
  // right now: reclaim retired plans whose executions have all finished.
  sweepRetired();
  auto PL = std::make_unique<PreparedLoop>();
  analysis::HybridAnalyzer A(Ctx, Prog, AOpts);
  PL->Plan = A.analyze(Loop);
  PL->FactorStats = A.lastFactorStats();
  PL->AOpts = AOpts;
  // Built against the plan in its final (heap) location: cascade stages
  // keep pointers into Plan.Arrays.
  PL->Cascades = rt::PlanCascades::build(PL->Plan, Compile);
  PL->Body = compileBody(Loop);
  warmCompiledUSRs(PL->Plan);
  auto &Slot = Plans[&Loop];
  if (Slot)
    Retired.push_back(std::move(Slot)); // Deferred reclaim, not delete.
  Slot = std::move(PL);
  return *Slot;
}

void Session::warmCompiledUSRs(const analysis::LoopPlan &Plan) {
  if (Opts.Tier == rt::EvalTier::Interpreted || !Plan.Hoistable)
    return;
  for (const analysis::ArrayPlan &AP : Plan.Arrays)
    for (const usr::USR *S : {AP.FlowUSR, AP.OutputUSR, AP.ExtRedUSR})
      if (S)
        (void)UsrCompile.get(S);
}

std::unique_ptr<const rt::CompiledBody>
Session::compileBody(const ir::DoLoop &Loop) const {
  if (Opts.Tier == rt::EvalTier::Interpreted)
    return nullptr;
  return rt::CompiledBody::compile(Loop, Prog.symCtx());
}

void Session::sweepRetired() {
  Retired.erase(std::remove_if(Retired.begin(), Retired.end(),
                               [](const std::unique_ptr<PreparedLoop> &PL) {
                                 return PL->InFlight.load(
                                            std::memory_order_acquire) == 0;
                               }),
                Retired.end());
}

const PreparedLoop &Session::prepare(const ir::DoLoop &Loop) {
  auto It = Plans.find(&Loop);
  if (It != Plans.end())
    return *It->second;
  if (PreparedLoop *PL = tryAdoptStaged(Loop))
    return *PL;
  return prepareWith(Loop, Opts.Analyzer);
}

const PreparedLoop &Session::prepare(const ir::DoLoop &Loop,
                                     const analysis::AnalyzerOptions &AOpts) {
  return prepareWith(Loop, AOpts);
}

void Session::invalidate(const ir::DoLoop &Loop) {
  auto It = Plans.find(&Loop);
  if (It == Plans.end())
    return;
  // Sweep BEFORE retiring (like prepareWith): the plan dropped here
  // survives this call and is reclaimed by the next exclusive phase, so
  // stale references never dangle across the phase that retired them.
  sweepRetired();
  Retired.push_back(std::move(It->second));
  Plans.erase(It);
}

bool Session::isPrepared(const ir::DoLoop &Loop) const {
  return Plans.find(&Loop) != Plans.end();
}

const ir::DoLoop *Session::findPreparedLoop(std::string_view Label) const {
  for (const auto &KV : Plans)
    if (KV.first->getLabel() == Label)
      return KV.first;
  return nullptr;
}

rt::ExecStats Session::execute(PreparedLoop &PL, rt::Memory &M,
                               sym::Bindings &B,
                               const support::CancelToken *Cancel) {
  // A token fired before any work starts sheds the execution entirely:
  // no Executions bump, no lease, no memory access — the caller sees an
  // aborted stats record and a bit-identical Memory.
  if (support::stopRequested(Cancel)) {
    rt::ExecStats S;
    S.Aborted = Cancel->state() == support::CancelToken::State::Expired
                    ? rt::ExecStats::AbortReason::Expired
                    : rt::ExecStats::AbortReason::Cancelled;
    return S;
  }
  PL.Executions.fetch_add(1, std::memory_order_relaxed);
  PlanRef Ref(PL);
  ContextLease Ctx(*this);
  Ctx.get().Cancel = Cancel;
  return rt::runPlanned(PL.Plan, PL.Cascades, PL.Body.get(), M, B, Pool,
                        Ctx.get(), Hoist, UsrCompile, Opts.Tier);
}

rt::ExecStats Session::run(const ir::DoLoop &Loop, rt::Memory &M,
                           sym::Bindings &B) {
  auto It = Plans.find(&Loop);
  if (It == Plans.end()) {
    // The default-options prepare, not prepareWith: a first run of a
    // loop with a staged (deserialized) plan must go through adoption.
    prepare(Loop);
    It = Plans.find(&Loop);
  }
  return execute(*It->second, M, B);
}

std::optional<rt::ExecStats>
Session::runPrepared(const ir::DoLoop &Loop, rt::Memory &M, sym::Bindings &B,
                     const support::CancelToken *Cancel) {
  auto It = Plans.find(&Loop);
  if (It == Plans.end())
    return std::nullopt;
  return execute(*It->second, M, B, Cancel);
}

std::vector<rt::ExecStats> Session::runBatch(const ir::DoLoop &Loop,
                                             rt::Memory &M, sym::Bindings &B,
                                             unsigned Repeats) {
  return runBatch(Loop, M, B, Repeats, nullptr);
}

std::vector<rt::ExecStats> Session::runBatch(
    const ir::DoLoop &Loop, rt::Memory &M, sym::Bindings &B, unsigned Repeats,
    const std::function<void(unsigned, rt::Memory &, sym::Bindings &)>
        &BetweenElements) {
  std::vector<rt::ExecStats> Out;
  Out.reserve(Repeats);
  for (unsigned R = 0; R < Repeats; ++R) {
    if (BetweenElements)
      BetweenElements(R, M, B);
    Out.push_back(run(Loop, M, B));
  }
  return Out;
}

rt::ExecStats Session::runSequential(const ir::DoLoop &Loop, rt::Memory &M,
                                     sym::Bindings &B) {
  const auto T0 = std::chrono::steady_clock::now();
  std::unique_ptr<const rt::CompiledBody> Own;
  const rt::CompiledBody *Body = nullptr;
  auto It = Plans.find(&Loop);
  if (It != Plans.end()) {
    Body = It->second->Body.get();
  } else {
    Own = compileBody(Loop);
    Body = Own.get();
  }
  rt::ExecStats Stats;
  ContextLease Ctx(*this);
  rt::runSequentialBody(Loop, Body, Opts.Tier, M, B, Ctx.get(), Stats);
  Stats.TotalSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - T0)
                           .count();
  return Stats;
}

bool Session::computeBounds(const usr::USR *S, sym::Bindings &B, int64_t &Lo,
                            int64_t &Hi) {
  return rt::interpBounds(S, B, Pool, Lo, Hi);
}

size_t Session::savePlans(std::ostream &Out) {
  std::vector<plan::SavedLoop> Ls;
  Ls.reserve(Plans.size());
  for (const auto &KV : Plans) {
    const PreparedLoop &PL = *KV.second;
    plan::SavedLoop SL;
    SL.Plan = &PL.Plan;
    SL.FStats = &PL.FactorStats;
    SL.AOpts = &PL.AOpts;
    SL.Cascades = &PL.Cascades;
    Ls.push_back(SL);
  }
  // The Plans map iterates in pointer order; serialize in label order so
  // the same session state always produces byte-identical streams.
  std::sort(Ls.begin(), Ls.end(),
            [](const plan::SavedLoop &A, const plan::SavedLoop &B) {
              return A.Plan->Loop->getLabel() < B.Plan->Loop->getLabel();
            });
  return plan::save(Out, Prog, Compile, UsrCompile, Ls, codegenKey());
}

plan::LoadResult Session::loadPlans(std::istream &In) {
  return loadPlans(plan::frame(In));
}

plan::LoadResult Session::loadPlans(const std::vector<plan::Chunk> &Chunks) {
  plan::LabelSet Labels;
  for (const ir::DoLoop *L : Prog.loops())
    Labels.insert(L->getLabel());
  std::vector<plan::StagedLoop> Ls;
  plan::LoadResult R =
      plan::load(Chunks, Labels, Ctx, Compile, UsrCompile, Ls);
  for (plan::StagedLoop &SL : Ls) {
    std::string Label = SL.Label;
    StagedPlans.insert_or_assign(std::move(Label), std::move(SL));
  }
  PlanDiags.insert(PlanDiags.end(), R.Diags.begin(), R.Diags.end());
  return R;
}

PreparedLoop *Session::tryAdoptStaged(const ir::DoLoop &Loop) {
  auto SIt = StagedPlans.find(Loop.getLabel());
  if (SIt == StagedPlans.end())
    return nullptr;
  // Same front door and label discipline as prepareWith: adoption must
  // never admit a loop that full analysis would have rejected.
  ir::validateLoop(Prog, Loop);
  for (const auto &KV : Plans)
    if (KV.first != &Loop && KV.first->getLabel() == Loop.getLabel())
      throw std::invalid_argument(
          "duplicate loop label '" + Loop.getLabel() +
          "': another prepared loop already carries it");
  plan::StagedLoop &SL = SIt->second;
  // Never trust the serialized keys: re-derive both from the live loop
  // and this session's options, and require both to match.
  const plan::CodegenKey CG = codegenKey();
  const uint64_t KeyA =
      plan::planKey(Prog, Loop, Opts.Analyzer, CG, plan::PrimarySeed);
  if (KeyA != SL.KeyA) {
    PlanDiags.emplace_back(
        support::Diag::Code::PlanKeyMismatch,
        "loop '" + Loop.getLabel() +
            "': staged plan key does not match this loop/options; "
            "re-analyzing");
    StagedPlans.erase(SIt);
    return nullptr;
  }
  const uint64_t KeyB =
      plan::planKey(Prog, Loop, Opts.Analyzer, CG, plan::VerifySeed);
  if (KeyB != SL.KeyB) {
    // Primary-hash collision, caught by the independent verify hash (the
    // HoistCache discipline). Counted so tests can assert it fires.
    ++PlanKeyCollisions;
    PlanDiags.emplace_back(
        support::Diag::Code::PlanKeyMismatch,
        "loop '" + Loop.getLabel() +
            "': primary plan-key collision (verify hash differs); "
            "re-analyzing");
    StagedPlans.erase(SIt);
    return nullptr;
  }
  // Resolve CivJoin anchors against the live loop body.
  std::vector<const ir::IfStmt *> Ifs = plan::collectIfStmts(Loop);
  for (uint32_t Idx : SL.JoinIfIndex)
    if (Idx >= Ifs.size()) {
      PlanDiags.emplace_back(
          support::Diag::Code::PlanKeyMismatch,
          "loop '" + Loop.getLabel() +
              "': staged CIV join anchor out of range; re-analyzing");
      StagedPlans.erase(SIt);
      return nullptr;
    }

  sweepRetired();
  auto PL = std::make_unique<PreparedLoop>();
  // Vector moves steal heap buffers, so the CascadeStage pointers inside
  // Cascades (into Plan.Arrays[i].*.Stages) stay valid across the move.
  PL->Plan = std::move(SL.Plan);
  PL->Plan.Loop = &Loop;
  for (size_t I = 0; I < SL.JoinIfIndex.size(); ++I)
    PL->Plan.Civ.Joins[I].At = Ifs[SL.JoinIfIndex[I]];
  PL->FactorStats = SL.FStats;
  PL->Cascades = std::move(SL.Cascades);
  PL->AOpts = Opts.Analyzer;
  PL->Body = compileBody(Loop);
  StagedPlans.erase(SIt);
  // Pure cache hits here: the load already compiled them.
  warmCompiledUSRs(PL->Plan);
  auto &Slot = Plans[&Loop];
  if (Slot)
    Retired.push_back(std::move(Slot));
  Slot = std::move(PL);
  ++PlansWarmStarted;
  return Slot.get();
}

size_t Session::numPooledFrames() const {
  support::MutexLock L(CtxMutex);
  size_t N = 0;
  for (const std::unique_ptr<rt::ExecContext> &C : Contexts)
    N += C->Frames.size();
  return N;
}

size_t Session::numExecContexts() const {
  support::MutexLock L(CtxMutex);
  return Contexts.size();
}
