//===- suite/Spec2000.cpp - SPEC2000/2006 benchmark reconstructions -------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Table 3 of the paper: wupwise, apsi, applu, mgrid, swim, bwaves, zeusmp,
// gromacs, calculix, gamess.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

using namespace halo;
using namespace halo::suite;
using namespace halo::ir;

namespace {

std::unique_ptr<Benchmark> makeWupwise() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "wupwise";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 93;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("SU3", BB.Sym.mul(N, BB.s("LD")));

  // MULDEO/MULDOE (F/OI O(1)): block rows at symbolic leading dimension,
  // reads from the previous row half: both tests are O(1) comparisons on
  // LD and M.
  auto MakeMul = [&](const std::string &Name, const std::string &Var,
                     double Lsc) {
    DoLoop *L = BB.loop(Name, Var, BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol(Var, 1));
    DoLoop *Inner = BB.loop(Name + "_j", Var + "j", BB.c(1), BB.s("M"), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol(Var + "j", 2));
    const sym::Expr *Row =
        BB.Sym.mul(BB.Sym.addConst(I, -1), BB.s("LD"));
    // Write the first half of the row, read the second half. The read
    // offset is built before the write offset: argument evaluation order
    // is unspecified, and node IDs (so plan bytes) follow creation order.
    const sym::Expr *ReadOff =
        BB.Sym.addConst(BB.Sym.add(Row, BB.Sym.add(J, BB.s("M"))), -1);
    Inner->append(BB.assign(X, BB.Sym.addConst(BB.Sym.add(Row, J), -1),
                            {ArrayAccess{X, ReadOff}}, 50));
    L->append(Inner);
    B->Loops.push_back({Name, Lsc, "F/OI O(1)", L, false});
  };
  MakeMul("MULDEO_do100", "i_a", 20.6);
  MakeMul("MULDEO_do200", "i_b", 25.8);
  MakeMul("MULDOE_do100", "i_c", 20.7);
  MakeMul("MULDOE_do200", "i_d", 25.9);

  sym::Context *Sym = &B->sym();
  sym::SymbolId XI = X;
  B->Setup = [Sym, XI](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 150 * Scale, MM = 8;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("M"), MM);
    Bd.setScalar(Sym->symbol("LD"), 2 * MM); // LD >= 2M: rows disjoint.
    M.alloc(XI, static_cast<size_t>(N * 2 * MM + 16));
  };
  return B;
}

std::unique_ptr<Benchmark> makeApsi() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "apsi";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto N = BB.s("N");

  // RUN_do20/do50 (FI HOIST-USR): irregular accesses whose exact test is
  // hoisted and memoized across the many executions of the loop.
  {
    auto X = BB.dataArray("WRK", BB.Sym.mulConst(N, 2));
    auto IDX = BB.indexArray("IDXA");
    auto JDX = BB.indexArray("JDXA");
    B->Loops.push_back(
        {"RUN_do20", 17.6, "FI HOIST-USR",
         makeIrregularLoop(BB, "RUN_do20", "i_r", X, IDX, JDX, N, 60),
         true});
    B->Loops.push_back(
        {"RUN_do50", 10.4, "FI HOIST-USR",
         makeIrregularLoop(BB, "RUN_do50", "i_s", X, IDX, JDX, N, 40),
         true});
  }
  {
    auto X = BB.dataArray("WC", BB.Sym.mulConst(N, 2));
    auto Y = BB.dataArray("DV", BB.Sym.mulConst(N, 2));
    B->Loops.push_back(
        {"WCONT_do40", 11.0, "STATIC-PAR",
         makeStaticParLoop(BB, "WCONT_do40", "i_w", X, Y, N, 60), false});
    B->Loops.push_back(
        {"DVDTZ_do40", 10.3, "STATIC-PAR",
         makeStaticParLoop(BB, "DVDTZ_do40", "i_d", Y, X, N, 60), false});
  }
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 300 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(2 * N));
    Bd.setArray(Sym->symbol("IDXA"), rampArray(N, 0, 2));
    Bd.setArray(Sym->symbol("JDXA"), rampArray(N, 1, 2));
  };
  return B;
}

std::unique_ptr<Benchmark> makeApplu() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "applu";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 98;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("VLU", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("JAC", BB.Sym.mulConst(N, 2));
  B->Loops.push_back({"BLTS_do10", 28.4, "STATIC-SEQ",
                      makeSeqChainLoop(BB, "BLTS_do10", "i_l", X, N, 40),
                      false});
  B->Loops.push_back({"BUTS_do1", 28.1, "STATIC-SEQ",
                      makeSeqChainLoop(BB, "BUTS_do1", "i_u", Y, N, 40),
                      false});
  B->Loops.push_back(
      {"JACLD_do1", 14.1, "STATIC-PAR",
       makeStaticParLoop(BB, "JACLD_do1", "i_j", X, Y, N, 40), false});
  B->Loops.push_back(
      {"JACU_do1", 10.0, "STATIC-PAR",
       makeStaticParLoop(BB, "JACU_do1", "i_k", Y, X, N, 30), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 400 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeSimpleStaticPar(
    const std::string &Name, double SC,
    std::vector<std::tuple<std::string, double, unsigned>> LoopDefs,
    int64_t BaseN) {
  auto B = std::make_unique<Benchmark>();
  B->Name = Name;
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = SC;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("X_" + Name, BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("Y_" + Name, BB.Sym.mulConst(N, 2));
  int Flip = 0;
  for (auto &[LName, Lsc, Work] : LoopDefs) {
    auto W = (Flip++ % 2) ? Y : X;
    auto R = (W == X) ? Y : X;
    B->Loops.push_back(
        {LName, Lsc, "STATIC-PAR",
         makeStaticParLoop(BB, LName, "i" + std::to_string(Flip), W, R, N,
                           Work),
         false});
  }
  sym::Context *Sym = &B->sym();
  sym::SymbolId XI = X, YI = Y;
  B->Setup = [Sym, XI, YI, BaseN](rt::Memory &M, sym::Bindings &Bd,
                                  int64_t Scale) {
    int64_t N = BaseN * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    M.alloc(XI, static_cast<size_t>(2 * N));
    M.alloc(YI, static_cast<size_t>(2 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeZeusmp() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "zeusmp";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto &Prog = B->prog();
  auto N = BB.s("N");
  auto X = BB.dataArray("HS", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("MX", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"HSMOC_do360", 10.3, "STATIC-PAR",
       makeStaticParLoop(BB, "HSMOC_do360", "i_h", X, Y, N, 90), false});
  B->Loops.push_back(
      {"MOMX3_do3000", 5.1, "STATIC-PAR",
       makeStaticParLoop(BB, "MOMX3_do3000", "i_m", Y, X, N, 40), false});

  // TRANX2_do2100 (F/OI O(1), UMEG): the Fig. 9(b) pattern — mutually
  // exclusive gates select between two row layouts; UMEG-preserving
  // reshaping keeps the gated shape so each side yields an O(1) predicate.
  {
    auto DEOD = BB.dataArray("DEOD", BB.Sym.mul(N, BB.s("MT")));
    DoLoop *L = BB.loop("TRANX2_do2100", "i_z", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_z", 1));
    const sym::Expr *Row = BB.Sym.mul(BB.Sym.addConst(I, -1), BB.s("MT"));
    // Node-creating operands are built last-first, as in makeWupwise.
    const sym::Expr *JS = BB.s("js");
    IfStmt *If = Prog.make<IfStmt>(BB.P.eq(BB.s("jbeg"), JS));
    {
      DoLoop *DJ = BB.loop("TRANX2_then", "j_z1", BB.c(1), BB.s("jend"), 2);
      const sym::Expr *J = BB.sv(BB.Sym.symbol("j_z1", 2));
      const sym::Expr *ReadOff = BB.Sym.addConst(
          BB.Sym.add(Row, BB.Sym.add(J, BB.s("jend"))), -1);
      DJ->append(BB.assign(DEOD, BB.Sym.addConst(BB.Sym.add(Row, J), -1),
                           {ArrayAccess{DEOD, ReadOff}}, 25));
      If->appendThen(DJ);
    }
    {
      DoLoop *DJ = BB.loop("TRANX2_else", "j_z2", BB.c(1), BB.s("jend"), 2);
      const sym::Expr *J = BB.sv(BB.Sym.symbol("j_z2", 2));
      // Same row, shifted by one element (jbeg != js layout).
      const sym::Expr *ReadOff = BB.Sym.add(Row, BB.Sym.add(J, BB.s("jend")));
      DJ->append(BB.assign(DEOD, BB.Sym.add(Row, J),
                           {ArrayAccess{DEOD, ReadOff}}, 25));
      If->appendElse(DJ);
    }
    L->append(If);
    B->Loops.push_back({"TRANX2_do2100", 7.6, "F/OI O(1)", L, false});
  }

  // TRANX1_do100 (OI O(1)): symbolic-stride rows.
  {
    auto Z = BB.dataArray("TRX", BB.Sym.mul(N, BB.s("MT")));
    B->Loops.push_back(
        {"TRANX1_do100", 2.4, "OI O(1)",
         makeSymbolicStrideLoop(BB, "TRANX1_do100", "i_t", Z, "MT", N, 20),
         false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 220 * Scale, MT = 40, JEND = 18;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("MT"), MT);   // MT >= 2*jend + 2.
    Bd.setScalar(Sym->symbol("jend"), JEND);
    Bd.setScalar(Sym->symbol("jbeg"), 3);
    Bd.setScalar(Sym->symbol("js"), 3); // jbeg == js branch.
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(N * MT + 64));
  };
  return B;
}

std::unique_ptr<Benchmark> makeGromacs() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "gromacs";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 90;
  BenchBuilder BB(*B);
  auto N = BB.s("N");

  // INL1130_do1 (BOUNDS-COMP): reduction into an assumed-size array at
  // index-array offsets (Fig. 7a: FSHIFT(3*SHIFT(n)+j)); the bounds of
  // the touched region are computed at runtime.
  auto MakeInl = [&](const std::string &Name, const std::string &Var,
                     double Lsc, unsigned Work) {
    auto FSH = BB.assumedSizeArray("FSHIFT_" + Name);
    auto SHF = BB.indexArray("SHIFT_" + Name);
    auto POS = BB.dataArray("POS_" + Name, BB.Sym.mulConst(N, 4));
    DoLoop *L = BB.loop(Name, Var, BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol(Var, 1));
    L->append(BB.readOnly(
        {ArrayAccess{POS, BB.Sym.addConst(I, -1)}}, Work));
    DoLoop *Inner = BB.loop(Name + "_j", Var + "j", BB.c(1), BB.c(3), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol(Var + "j", 2));
    Inner->append(BB.reduce(
        FSH,
        BB.Sym.addConst(
            BB.Sym.add(BB.Sym.mulConst(BB.Sym.arrayRef(SHF, I), 3), J), -1),
        {}, 4));
    L->append(Inner);
    B->Loops.push_back({Name, Lsc, "BOUNDS-COMP", L, false});
  };
  MakeInl("INL1130_do1", "i_1", 84.8, 40);
  MakeInl("INL1100_do1", "i_2", 2.2, 10);
  MakeInl("INL1000_do1", "i_3", 1.9, 10);
  MakeInl("INL0100_do1", "i_4", 0.8, 8);

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 280 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays) {
      if (D.IsIndex) {
        // SHIFT values in a small range: many cross-iteration collisions
        // (the reduction is genuinely needed).
        sym::ArrayBinding A;
        A.Lo = 1;
        for (int64_t I = 0; I < N; ++I)
          A.Vals.push_back(I % 27);
        Bd.setArray(D.Name, A);
      } else {
        M.alloc(D.Name, static_cast<size_t>(4 * N + 128));
      }
    }
  };
  return B;
}

std::unique_ptr<Benchmark> makeCalculix() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "calculix";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 74;
  BenchBuilder BB(*B);
  auto &Prog = B->prog();
  auto N = BB.s("N");

  // MAFILLSM_do7 (BOUNDS-COMP + F/OI O(N)): gated monotone block writes
  // (the Fig. 9a O(N) predicate) plus an assumed-size reduction (AUB).
  auto KONL = BB.dataArray("KONL", BB.Sym.mulConst(N, 8));
  auto AUB = BB.assumedSizeArray("AUB");
  auto IPK = BB.indexArray("IPKON");
  auto IRW = BB.indexArray("IROW");
  DoLoop *L = BB.loop("MAFILLSM_do7", "i_c", BB.c(1), N, 1);
  const sym::Expr *I = BB.sv(BB.Sym.symbol("i_c", 1));
  IfStmt *If =
      Prog.make<IfStmt>(BB.P.ge(BB.Sym.arrayRef(IPK, I), BB.c(0)));
  DoLoop *Blk = BB.loop("MAFILLSM_do7_j", "j_c", BB.c(1), BB.c(4), 2);
  const sym::Expr *J = BB.sv(BB.Sym.symbol("j_c", 2));
  // Monotone block writes into KONL.
  Blk->append(BB.assign(
      KONL,
      BB.Sym.addConst(
          BB.Sym.add(BB.Sym.mulConst(BB.Sym.addConst(I, -1), 4), J), -1),
      {}, 80));
  // Reduction into the assumed-size stiffness array.
  Blk->append(BB.reduce(
      AUB,
      BB.Sym.addConst(BB.Sym.add(BB.Sym.arrayRef(IRW, I), J), -1), {}, 20));
  If->appendThen(Blk);
  L->append(If);
  B->Loops.push_back(
      {"MAFILLSM_do7", 73.7, "BOUNDS-COMP F/OI O(N)/O(1)", L, false});

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 200 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(8 * N + 64));
    Bd.setArray(Sym->symbol("IPKON"), constArray(N, 1));
    // Overlapping reduction rows: RRED fails, private copies merge.
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t I = 0; I < N; ++I)
      A.Vals.push_back((I % 16) * 4);
    Bd.setArray(Sym->symbol("IROW"), A);
  };
  return B;
}

std::unique_ptr<Benchmark> makeGamess() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "gamess";
  B->SuiteName = "SPEC2000/2006";
  B->SeqCoveragePct = 32;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("DIR", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("GEN", BB.Sym.mulConst(N, 2));
  B->Loops.push_back(
      {"DIRFCK_do300", 18.0, "STATIC-PAR",
       makeStaticParLoop(BB, "DIRFCK_do300", "i_d", X, Y, N, 10), false});
  B->Loops.push_back(
      {"GENR70_do170", 14.4, "STATIC-PAR",
       makeStaticParLoop(BB, "GENR70_do170", "i_g", Y, X, N, 8), false});
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 300 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    for (const ArrayDecl &D : Arrays)
      M.alloc(D.Name, static_cast<size_t>(2 * N));
  };
  return B;
}

} // namespace

std::vector<std::unique_ptr<Benchmark>> suite::buildSpec2000() {
  std::vector<std::unique_ptr<Benchmark>> Out;
  Out.push_back(makeWupwise());
  Out.push_back(makeApsi());
  Out.push_back(makeApplu());
  Out.push_back(makeSimpleStaticPar(
      "mgrid", 100,
      {{"RESID_do600", 51.5, 70},
       {"PSINV_do600", 28.9, 40},
       {"INTERP_do800", 4.9, 10},
       {"RPRJ3_do100", 4.5, 10}},
      500));
  Out.push_back(makeSimpleStaticPar(
      "swim", 100,
      {{"SHALOW_do3500", 44.8, 60},
       {"CALC2_do200", 20.5, 30},
       {"CALC1_do100", 18.0, 26},
       {"CALC3_do300", 15.4, 22}},
      500));
  Out.push_back(makeSimpleStaticPar(
      "bwaves", 100,
      {{"MATVEC_do1", 75.1, 110},
       {"FLUX_do2", 5.8, 12},
       {"SHELL_do5", 4.2, 10}},
      450));
  Out.push_back(makeZeusmp());
  Out.push_back(makeGromacs());
  Out.push_back(makeCalculix());
  Out.push_back(makeGamess());
  return Out;
}

std::vector<std::unique_ptr<Benchmark>> suite::buildAllBenchmarks() {
  std::vector<std::unique_ptr<Benchmark>> Out = buildPerfectClub();
  for (auto &B : buildSpec92())
    Out.push_back(std::move(B));
  for (auto &B : buildSpec2000())
    Out.push_back(std::move(B));
  return Out;
}
