//===- suite/Spec92.cpp - SPEC89/92 benchmark reconstructions -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Table 2 of the paper: matrix300, swm256, ora, nasa7, tomcatv, mdljdp2,
// hydro2d.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

using namespace halo;
using namespace halo::suite;
using namespace halo::ir;

namespace {

std::unique_ptr<Benchmark> makeMatrix300() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "matrix300";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 100;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto C = BB.dataArray("C", BB.Sym.mul(N, BB.s("LDA")));
  auto A = BB.dataArray("A", BB.Sym.mul(N, BB.s("LDA")));

  // SGEMM_do160 / do120 (STATIC-PAR): dense row updates.
  auto MakeGemm = [&](const std::string &Name, const std::string &Var,
                      double Lsc) {
    DoLoop *L = BB.loop(Name, Var, BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol(Var, 1));
    DoLoop *Inner = BB.loop(Name + "_j", Var + "j", BB.c(1), N, 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol(Var + "j", 2));
    const sym::Expr *Off = BB.Sym.addConst(
        BB.Sym.add(BB.Sym.mul(BB.Sym.addConst(I, -1), N), J), -1);
    Inner->append(BB.assign(C, Off, {ArrayAccess{A, Off}}, 8));
    L->append(Inner);
    B->Loops.push_back({Name, Lsc, "STATIC-PAR", L, false});
  };
  MakeGemm("SGEMM_do160", "i_a", 30.2);
  MakeGemm("SGEMM_do120", "i_b", 30.0);

  // SGEMM_do20/do40 (OI O(1)): leading-dimension test — rows of length M
  // written at stride LDA; independent iff LDA >= M.
  {
    DoLoop *L = BB.loop("SGEMM_do20", "i_c", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_c", 1));
    DoLoop *Inner = BB.loop("SGEMM_do20_j", "i_cj", BB.c(1), BB.s("M"), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol("i_cj", 2));
    const sym::Expr *Off = BB.Sym.addConst(
        BB.Sym.add(BB.Sym.mul(BB.Sym.addConst(I, -1), BB.s("LDA")), J), -1);
    Inner->append(BB.assign(C, Off, {}, 6));
    L->append(Inner);
    B->Loops.push_back({"SGEMM_do20", 12.8, "OI O(1)", L, false});
  }

  sym::Context *Sym = &B->sym();
  sym::SymbolId CI = C, AI = A;
  B->Setup = [Sym, CI, AI](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 90 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("LDA"), N + 2);
    Bd.setScalar(Sym->symbol("M"), N);
    M.alloc(CI, static_cast<size_t>(N * (N + 2) + 8));
    M.alloc(AI, static_cast<size_t>(N * (N + 2) + 8));
  };
  return B;
}

std::unique_ptr<Benchmark> makeSwm256() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "swm256";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto U = BB.dataArray("U", BB.Sym.mulConst(N, 2));
  auto V = BB.dataArray("V", BB.Sym.mulConst(N, 2));
  auto Z = BB.dataArray("Z", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"CALC2_do200", 40.6, "STATIC-PAR",
       makeStaticParLoop(BB, "CALC2_do200", "i_2", U, V, N, 30), false});
  B->Loops.push_back(
      {"CALC3_do300", 29.7, "STATIC-PAR",
       makeStaticParLoop(BB, "CALC3_do300", "i_3", V, Z, N, 24), false});
  B->Loops.push_back(
      {"CALC1_do100", 27.8, "STATIC-PAR",
       makeStaticParLoop(BB, "CALC1_do100", "i_1", Z, U, N, 24), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 800 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeOra() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "ora";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 100;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  // MAIN_do9999: embarrassingly parallel ray tracing with a scalar
  // reduction (SRED) into a small accumulator array.
  auto ACC = BB.dataArray("ACC", BB.c(8));
  auto X = BB.dataArray("RAYS", N);
  DoLoop *L = BB.loop("MAIN_do9999", "i_o", BB.c(1), N, 1);
  const sym::Expr *I = BB.sv(BB.Sym.symbol("i_o", 1));
  L->append(BB.assign(X, BB.Sym.addConst(I, -1), {}, 400));
  L->append(BB.reduce(ACC, BB.c(0),
                      {ArrayAccess{X, BB.Sym.addConst(I, -1)}}, 8));
  B->Loops.push_back({"MAIN_do9999", 99.9, "STATIC-PAR", L, false});
  sym::Context *Sym = &B->sym();
  sym::SymbolId AI = ACC, XI = X;
  B->Setup = [Sym, AI, XI](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 250 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    M.alloc(AI, 8);
    M.alloc(XI, static_cast<size_t>(N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeNasa7() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "nasa7";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 90;
  BenchBuilder BB(*B);
  auto N = BB.s("N");

  // GMTTST_do120 (FI O(1)): block split at a symbolic boundary.
  {
    auto X = BB.dataArray("GM", BB.Sym.add(BB.s("JG"), N));
    DoLoop *L = BB.loop("GMTTST_do120", "i_g", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_g", 1));
    // The read offset is built before the write offset: argument evaluation
    // order is unspecified, and node IDs (so plan bytes) follow creation
    // order.
    const sym::Expr *IM1 = BB.Sym.addConst(I, -1);
    L->append(BB.assign(X, BB.Sym.addConst(BB.Sym.add(BB.s("JG"), I), -1),
                        {ArrayAccess{X, IM1}}, 220));
    B->Loops.push_back({"GMTTST_do120", 21.1, "FI O(1)", L, false});
  }

  // EMIT_do5 (SLV O(N)): every iteration rewrites a prefix [0, NW(i)-1];
  // privatize + static-last-value under AND_i NW(i) <= NW(N).
  {
    auto PSI = BB.dataArray("PSI", BB.Sym.mulConst(N, 2));
    auto NW = BB.indexArray("NWALL");
    DoLoop *L = BB.loop("EMIT_do5", "i_e", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_e", 1));
    DoLoop *Inner = BB.loop("EMIT_do5_j", "j_e", BB.c(1),
                            BB.Sym.arrayRef(NW, I), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol("j_e", 2));
    Inner->append(BB.assign(PSI, BB.Sym.addConst(J, -1), {}, 60));
    L->append(Inner);
    B->Loops.push_back({"EMIT_do5", 13.2, "SLV O(N)", L, false});
  }

  // BTRTST_do120 (FI O(1)): same family as GMTTST.
  {
    auto X = BB.dataArray("BT", BB.Sym.add(BB.s("JB"), BB.Sym.mulConst(N, 2)));
    DoLoop *L = BB.loop("BTRTST_do120", "i_b", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_b", 1));
    const sym::Expr *IM1 = BB.Sym.addConst(I, -1);
    L->append(BB.assign(
        X, BB.Sym.addConst(BB.Sym.add(BB.s("JB"), BB.Sym.mulConst(I, 2)), -2),
        {ArrayAccess{X, IM1}}, 150));
    B->Loops.push_back({"BTRTST_do120", 9.4, "FI O(1)", L, false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 120 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("JG"), N);
    Bd.setScalar(Sym->symbol("JB"), 2 * N);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(4 * N + 16));
    // NW non-decreasing with the maximum at the last iteration: SLV holds.
    Bd.setArray(Sym->symbol("NWALL"), rampArray(N, 4, 1));
  };
  return B;
}

std::unique_ptr<Benchmark> makeTomcatv() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "tomcatv";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 100;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("XT", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("YT", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"MAIN_do60", 37.8, "STATIC-PAR",
       makeStaticParLoop(BB, "MAIN_do60", "i_6", X, Y, N, 16), false});
  B->Loops.push_back(
      {"MAIN_do100", 26.6, "STATIC-PAR",
       makeStaticParLoop(BB, "MAIN_do100", "i_1", Y, X, N, 2), false});
  B->Loops.push_back(
      {"MAIN_do120", 10.9, "STATIC-PAR",
       makeStaticParLoop(BB, "MAIN_do120", "i_2", X, Y, N, 2), false});
  B->Loops.push_back(
      {"MAIN_do80", 10.8, "STATIC-PAR",
       makeStaticParLoop(BB, "MAIN_do80", "i_8", Y, X, N, 10), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 700 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeMdljdp2() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "mdljdp2";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 87;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("FRC", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("POS", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"FRCUSE_do20", 82.4, "STATIC-PAR",
       makeStaticParLoop(BB, "FRCUSE_do20", "i_f", X, Y, N, 60), false});
  B->Loops.push_back(
      {"POSTFR_do20", 1.6, "STATIC-PAR",
       makeStaticParLoop(BB, "POSTFR_do20", "i_p", Y, X, N, 4), false});
  B->Loops.push_back(
      {"PREFOR_do60", 1.5, "STATIC-PAR",
       makeStaticParLoop(BB, "PREFOR_do60", "i_r", X, Y, N, 4), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 600 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeHydro2d() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "hydro2d";
  B->SuiteName = "SPEC92";
  B->SeqCoveragePct = 92;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("RO", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("RU", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"TISTEP_do400", 17.6, "STATIC-PAR",
       makeStaticParLoop(BB, "TISTEP_do400", "i_t", X, Y, N, 10), false});
  B->Loops.push_back(
      {"FILTER_do300", 14.2, "STATIC-PAR",
       makeStaticParLoop(BB, "FILTER_do300", "i_f", Y, X, N, 8), false});
  B->Loops.push_back(
      {"T1_do10", 7.5, "STATIC-PAR",
       makeStaticParLoop(BB, "T1_do10", "i_1", X, Y, N, 6), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 900 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

} // namespace

std::vector<std::unique_ptr<Benchmark>> suite::buildSpec92() {
  std::vector<std::unique_ptr<Benchmark>> Out;
  Out.push_back(makeMatrix300());
  Out.push_back(makeSwm256());
  Out.push_back(makeOra());
  Out.push_back(makeNasa7());
  Out.push_back(makeTomcatv());
  Out.push_back(makeMdljdp2());
  Out.push_back(makeHydro2d());
  return Out;
}
