//===- suite/PerfectClub.cpp - PERFECT-CLUB benchmark reconstructions -----===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Table 1 of the paper: flo52, bdna, arc2d, dyfesm, mdg, trfd, track,
// spec77, ocean, qcd — rebuilt around the loop patterns the paper
// describes, with LSC weights from the table.
//
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

using namespace halo;
using namespace halo::suite;
using namespace halo::ir;

namespace {

std::unique_ptr<Benchmark> makeFlo52() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "flo52";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 95;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("W", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("FW", BB.Sym.mulConst(N, 4));
  auto Z = BB.dataArray("DW", BB.Sym.mul(N, BB.s("STR")));

  B->Loops.push_back({"PSMOO_do40", 19.5, "STATIC-PAR",
                      makeStaticParLoop(BB, "PSMOO_do40", "i_p", X, Y, N, 40),
                      false});
  B->Loops.push_back({"DFLUX_do30", 9.6, "STATIC-PAR",
                      makeStaticParLoop(BB, "DFLUX_do30", "i_d", Y, X, N, 24),
                      false});
  B->Loops.push_back({"EFLUX_do10", 8.2, "STATIC-PAR",
                      makeStaticParLoop(BB, "EFLUX_do10", "i_e", X, Y, N, 20),
                      false});
  B->Loops.push_back(
      {"DFLUX_do40", 0.3, "OI O(1)",
       makeSymbolicStrideLoop(BB, "DFLUX_do40", "i_f", Z, "STR", N, 6),
       false});

  sym::Context *Sym = &B->sym();
  sym::SymbolId XI = X, YI = Y, ZI = Z;
  B->Setup = [Sym, XI, YI, ZI](rt::Memory &M, sym::Bindings &Bd,
                               int64_t Scale) {
    int64_t N = 600 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("STR"), 3);
    M.alloc(XI, static_cast<size_t>(4 * N));
    M.alloc(YI, static_cast<size_t>(4 * N));
    M.alloc(ZI, static_cast<size_t>(3 * N + 4));
  };
  return B;
}

std::unique_ptr<Benchmark> makeBdna() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "bdna";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 94;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("XDT", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("FDT", BB.Sym.mulConst(N, 4));

  B->Loops.push_back(
      {"ACTFOR_do500", 59.5, "STATIC-PAR",
       makeStaticParLoop(BB, "ACTFOR_do500", "i_a", X, Y, N, 120), false});

  // ACTFOR_do240 (CIVagg): gated CIV block writes (Fig. 7b shape).
  {
    auto XCIV = BB.dataArray("XCIV", BB.Sym.mulConst(N, 4));
    auto KND = BB.indexArray("KND");
    sym::SymbolId Civ = BB.Sym.symbol("civ240", 1);
    DoLoop *L = BB.loop("ACTFOR_do240", "i_c", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_c", 1));
    // Where two operands of one call may both create nodes, the last is
    // built first into a local: argument evaluation order is unspecified,
    // and node IDs (so plan bytes) follow creation order.
    const sym::Expr *Zero = BB.c(0);
    IfStmt *If =
        B->prog().make<IfStmt>(BB.P.gt(BB.Sym.arrayRef(KND, I), Zero));
    DoLoop *Blk = BB.loop("ACTFOR_do240_j", "j_c", BB.c(1), BB.c(3), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol("j_c", 2));
    Blk->append(BB.assign(
        XCIV, BB.Sym.addConst(BB.Sym.add(BB.sv(Civ), J), -1), {}, 30));
    If->appendThen(Blk);
    If->appendThen(B->prog().make<CivIncrStmt>(Civ, BB.c(3)));
    L->append(If);
    B->Loops.push_back({"ACTFOR_do240", 31.5, "CIVagg", L, false});
  }

  B->Loops.push_back(
      {"RESTAR_do15", 4.8, "STATIC-PAR",
       makeStaticParLoop(BB, "RESTAR_do15", "i_r", Y, X, N, 60), false});

  // CORREC_do711 (Sec. 3.2): point writes at IX(2)+i-2, triangular reads
  // at IX(1)+j-2 — flow independence via Fourier-Motzkin, O(1).
  {
    auto XC = BB.dataArray("XC", BB.Sym.mulConst(N, 4));
    DoLoop *L = BB.loop("CORREC_do711", "i_x", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_x", 1));
    auto IX = BB.indexArray("IX");
    L->append(BB.assign(
        XC,
        BB.Sym.addConst(BB.Sym.add(BB.Sym.arrayRef(IX, BB.c(2)), I), -2),
        {}, 8));
    DoLoop *Rd = BB.loop("CORREC_do711_j", "j_x", BB.c(1),
                         BB.Sym.addConst(I, -1), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol("j_x", 2));
    Rd->append(BB.readOnly(
        {ArrayAccess{XC, BB.Sym.addConst(
                             BB.Sym.add(BB.Sym.arrayRef(IX, BB.c(1)), J),
                             -2)}},
        4));
    L->append(Rd);
    B->Loops.push_back({"CORREC_do711", 2.0, "FI O(1)", L, false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 400 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("civ240"), 0);
    for (const ArrayDecl &D : Arrays) {
      if (D.IsIndex)
        continue;
      M.alloc(D.Name, static_cast<size_t>(4 * N));
    }
    Bd.setArray(Sym->symbol("KND"), constArray(N, 1));
    // IX(1) far beyond the written region: IX(2)+N <= IX(1).
    sym::ArrayBinding IX;
    IX.Lo = 1;
    IX.Vals = {2 * N + 2, 1};
    Bd.setArray(Sym->symbol("IX"), IX);
  };
  return B;
}

std::unique_ptr<Benchmark> makeArc2d() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "arc2d";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 97;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("XY", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("Q", BB.Sym.mulConst(N, 4));

  B->Loops.push_back(
      {"STEPFX_do210", 16.3, "STATIC-PAR",
       makeStaticParLoop(BB, "STEPFX_do210", "i_s", X, Y, N, 30), false});
  B->Loops.push_back(
      {"STEPFX_do230", 11.9, "STATIC-PAR",
       makeStaticParLoop(BB, "STEPFX_do230", "i_t", Y, X, N, 30), false});

  // XPENT2_do11 (FI O(1)): write block at [JL .. JL+N-1], read [0..N-1];
  // flow independence iff JL >= N (quasi-affine, Sec. 7's filerx class).
  {
    auto XP = BB.dataArray("XP", BB.Sym.add(BB.s("JL"), N));
    DoLoop *L = BB.loop("XPENT2_do11", "i_q", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_q", 1));
    // The read offset is built before the write offset (see makeBdna).
    const sym::Expr *IM1 = BB.Sym.addConst(I, -1);
    L->append(BB.assign(XP, BB.Sym.addConst(BB.Sym.add(BB.s("JL"), I), -1),
                        {ArrayAccess{XP, IM1}}, 4));
    B->Loops.push_back({"XPENT2_do11", 10.7, "FI O(1)", L, false});
  }
  // FILERX_do15 (FI O(1)): same family, different region split.
  {
    auto XF = BB.dataArray("XF",
                           BB.Sym.add(BB.s("JF"), BB.Sym.mulConst(N, 2)));
    DoLoop *L = BB.loop("FILERX_do15", "i_f", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_f", 1));
    const sym::Expr *IM1 = BB.Sym.addConst(I, -1);
    L->append(BB.assign(
        XF, BB.Sym.addConst(BB.Sym.add(BB.s("JF"), BB.Sym.mulConst(I, 2)),
                            -2),
        {ArrayAccess{XF, IM1}}, 6));
    B->Loops.push_back({"FILERX_do15", 9.0, "FI O(1)", L, false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 700 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("JL"), N);
    Bd.setScalar(Sym->symbol("JF"), N);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(4 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeDyfesm() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "dyfesm";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 97;
  BenchBuilder BB(*B);
  auto &Prog = B->prog();
  auto N = BB.s("N");

  // MXMULT_do10 (EXT-RRED + HOIST-USR): direct writes at P(i), reduction
  // updates at Q(i) — the Sec. 4 extended-reduction pattern.
  {
    auto A = BB.dataArray("AMX", BB.Sym.mulConst(N, 4));
    auto PP = BB.indexArray("PMX");
    auto QQ = BB.indexArray("QMX");
    DoLoop *L = BB.loop("MXMULT_do10", "i_m", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_m", 1));
    L->append(BB.assign(A, BB.Sym.arrayRef(PP, I), {}, 40));
    L->append(BB.reduce(A, BB.Sym.arrayRef(QQ, I), {}, 40));
    B->Loops.push_back(
        {"MXMULT_do10", 43.9, "FI HOIST-USR / OI O(N)", L, true});
  }

  // SOLXDD_do10 (OI O(N)): monotone block writes.
  {
    auto XS = BB.dataArray("XDD", BB.Sym.mulConst(N, 8));
    auto IBS = BB.indexArray("IBS");
    B->Loops.push_back(
        {"SOLXDD_do10", 27.3, "OI O(N)",
         makeMonotonicBlockLoop(BB, "SOLXDD_do10", "i_sx", XS, IBS,
                                BB.c(4), N, 24),
         false});
  }

  // SOLVH_do20 (F/OI O(1)/O(N)) — the Fig. 1 program, interprocedural.
  {
    auto XE = BB.dataArray("XE", BB.Sym.mulConst(BB.s("NP"), 16));
    auto HE = BB.dataArray(
        "HE", BB.Sym.mulConst(BB.Sym.add(N, BB.Sym.mulConst(N, 3)), 32));
    auto IA = BB.indexArray("IA");
    auto IB = BB.indexArray("IB");

    auto XEf = BB.Sym.symbol("XEf", 0, true);
    Subroutine *Geteu = Prog.makeSubroutine("geteu");
    {
      auto M = BB.Sym.symbol("m_g", 0);
      IfStmt *If = Prog.make<IfStmt>(BB.P.ne(BB.s("SYMf"), BB.c(1)));
      DoLoop *D = Prog.make<DoLoop>(
          "g", M, BB.c(1), BB.Sym.mulConst(BB.s("NPf_g"), 16), 1);
      D->append(BB.assign(XEf, BB.Sym.addConst(BB.sv(M), -1), {}, 2));
      If->appendThen(D);
      Geteu->append(If);
    }
    auto HEf = BB.Sym.symbol("HEf_m", 0, true);
    auto XEf2 = BB.Sym.symbol("XEf_m", 0, true);
    Subroutine *Matmult = Prog.makeSubroutine("matmult");
    {
      auto J = BB.Sym.symbol("j_m", 0);
      DoLoop *D = Prog.make<DoLoop>("m", J, BB.c(1), BB.s("NSf"), 1);
      auto Off = BB.Sym.addConst(BB.sv(J), -1);
      D->append(BB.assign(HEf, Off, {ArrayAccess{XEf2, Off}}, 3));
      D->append(BB.assign(XEf2, Off, {}, 1));
      Matmult->append(D);
    }
    auto HEf2 = BB.Sym.symbol("HEf_s", 0, true);
    Subroutine *Solvhe = Prog.makeSubroutine("solvhe");
    {
      auto J = BB.Sym.symbol("j_s", 0);
      auto I2 = BB.Sym.symbol("i_s", 0);
      DoLoop *DJ = Prog.make<DoLoop>("sj", J, BB.c(1), BB.c(3), 1);
      DoLoop *DI = Prog.make<DoLoop>("si", I2, BB.c(1), BB.s("NPf_s"), 2);
      // Node-creating operands are built last-first (see makeBdna).
      const sym::Expr *JRef = BB.sv(J);
      auto Off = BB.Sym.addConst(
          BB.Sym.add(BB.Sym.mulConst(BB.Sym.addConst(BB.sv(I2), -1), 8),
                     JRef),
          -1);
      DI->append(BB.assign(HEf2, Off, {ArrayAccess{HEf2, Off}}, 2));
      DJ->append(DI);
      Solvhe->append(DJ);
    }
    DoLoop *Loop = BB.loop("SOLVH_do20", "i_h", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_h", 1));
    DoLoop *KL = BB.loop("SOLVH_do20k", "k_h", BB.c(1),
                         BB.Sym.arrayRef(IA, I), 2);
    const sym::Expr *K = BB.sv(BB.Sym.symbol("k_h", 2));
    auto Id = BB.Sym.addConst(BB.Sym.add(BB.Sym.arrayRef(IB, I), K), -1);
    auto HEOff = BB.Sym.mulConst(BB.Sym.addConst(Id, -1), 32);
    std::vector<CallStmt::ScalarArg> GeteuScalars{
        {BB.Sym.symbol("SYMf"), BB.s("SYM")},
        {BB.Sym.symbol("NPf_g"), BB.s("NP")}};
    KL->append(Prog.make<CallStmt>(
        Geteu, std::vector<CallStmt::ArrayArg>{{XEf, XE, BB.c(0)}},
        std::move(GeteuScalars)));
    KL->append(Prog.make<CallStmt>(
        Matmult,
        std::vector<CallStmt::ArrayArg>{{HEf, HE, HEOff},
                                        {XEf2, XE, BB.c(0)}},
        std::vector<CallStmt::ScalarArg>{{BB.Sym.symbol("NSf"), BB.s("NS")}}));
    KL->append(Prog.make<CallStmt>(
        Solvhe, std::vector<CallStmt::ArrayArg>{{HEf2, HE, HEOff}},
        std::vector<CallStmt::ScalarArg>{
            {BB.Sym.symbol("NPf_s"), BB.s("NP")}}));
    Loop->append(KL);
    B->Loops.push_back({"SOLVH_do20", 14.2, "F/OI O(1)/O(N)", Loop, false});
  }

  // FORMR_do20: second EXT-RRED loop.
  {
    auto A = BB.dataArray("AFR", BB.Sym.mulConst(N, 4));
    auto PP = BB.indexArray("PFR");
    auto QQ = BB.indexArray("QFR");
    DoLoop *L = BB.loop("FORMR_do20", "i_fr", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_fr", 1));
    L->append(BB.assign(A, BB.Sym.arrayRef(PP, I), {}, 20));
    L->append(BB.reduce(A, BB.Sym.arrayRef(QQ, I), {}, 20));
    B->Loops.push_back(
        {"FORMR_do20", 10.5, "FI HOIST-USR / OI O(N)", L, true});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 80 * Scale;
    int64_t NP = 8, NS = 64; // 8*NP < NS+6 and NS <= 16*NP.
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("NP"), NP);
    Bd.setScalar(Sym->symbol("NS"), NS);
    Bd.setScalar(Sym->symbol("SYM"), 0);
    // HE reaches offsets up to 32*(IB(N)+IA(N)-2)+8*NP-6 ~ 96*N.
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(100 * N + 512));
    // SOLVH: IA(i) = 2 blocks, IB monotone with 32-slack gaps
    // (NS <= 32*(IB(i+1)-IA(i)-IB(i)+1): 64 <= 32*(3-2+1) = 64).
    Bd.setArray(Sym->symbol("IA"), constArray(N, 2));
    Bd.setArray(Sym->symbol("IB"), rampArray(N, 1, 3));
    // MXMULT/FORMR: direct writes in the lower half, reductions
    // monotonically in the upper half (disjoint, increasing).
    Bd.setArray(Sym->symbol("PMX"), rampArray(N, 0, 1));
    Bd.setArray(Sym->symbol("QMX"), rampArray(N, 2 * N, 1));
    Bd.setArray(Sym->symbol("PFR"), rampArray(N, 0, 1));
    Bd.setArray(Sym->symbol("QFR"), rampArray(N, 2 * N, 1));
    Bd.setArray(Sym->symbol("IBS"), rampArray(N, 1, 5));
  };
  return B;
}

std::unique_ptr<Benchmark> makeMdg() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "mdg";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("RS", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("FS", BB.Sym.mulConst(N, 4));
  B->Loops.push_back(
      {"INTERF_do1000", 92.0, "STATIC-PAR",
       makeStaticParLoop(BB, "INTERF_do1000", "i_i", X, Y, N, 160), false});
  B->Loops.push_back(
      {"POTENG_do2000", 7.2, "STATIC-PAR",
       makeStaticParLoop(BB, "POTENG_do2000", "i_o", Y, X, N, 80), false});
  sym::Context *Sym = &B->sym();
  sym::SymbolId XI = X, YI = Y;
  B->Setup = [Sym, XI, YI](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 500 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    M.alloc(XI, static_cast<size_t>(4 * N));
    M.alloc(YI, static_cast<size_t>(4 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeTrfd() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "trfd";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("XIJ", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("XKL", BB.Sym.mulConst(N, 4));
  B->Loops.push_back(
      {"OLDA_do100", 63.7, "STATIC-PAR",
       makeStaticParLoop(BB, "OLDA_do100", "i_1", X, Y, N, 60), false});

  // OLDA_do300 (FI O(1)): writes a moving block [JL+(i-1)*M ..], reads a
  // fixed prefix [0..M-1]: flow independence iff JL >= M (the paper
  // resolves the original quadratic indexing with a light predicate).
  {
    // Node-creating operands are built last-first (see makeBdna).
    const sym::Expr *Blocks = BB.Sym.mul(N, BB.s("Mo"));
    auto XO = BB.dataArray("XO", BB.Sym.add(BB.s("JLo"), Blocks));
    DoLoop *L = BB.loop("OLDA_do300", "i_3", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_3", 1));
    DoLoop *Inner = BB.loop("OLDA_do300_j", "j_3", BB.c(1), BB.s("Mo"), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol("j_3", 2));
    const sym::Expr *WOff = BB.Sym.addConst(
        BB.Sym.add(BB.s("JLo"),
                   BB.Sym.add(BB.Sym.mul(BB.Sym.addConst(I, -1), BB.s("Mo")),
                              J)),
        -1);
    Inner->append(BB.assign(XO, WOff,
                            {ArrayAccess{XO, BB.Sym.addConst(J, -1)}}, 30));
    L->append(Inner);
    B->Loops.push_back({"OLDA_do300", 30.9, "FI O(1)", L, false});
  }

  // INTGRL_do140 (OI O(N)): monotone block writes via index array.
  {
    auto XI2 = BB.dataArray("XIN", BB.Sym.mulConst(N, 8));
    auto IBT = BB.indexArray("IBT");
    B->Loops.push_back(
        {"INTGRL_do140", 3.9, "OI O(N)",
         makeMonotonicBlockLoop(BB, "INTGRL_do140", "i_4", XI2, IBT,
                                BB.c(4), N, 10),
         false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 300 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("JLo"), 64);
    Bd.setScalar(Sym->symbol("Mo"), 16);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(20 * N + 128));
    Bd.setArray(Sym->symbol("IBT"), rampArray(N, 1, 5));
  };
  return B;
}

std::unique_ptr<Benchmark> makeTrack() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "track";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 97;
  BenchBuilder BB(*B);
  auto &Prog = B->prog();
  auto N = BB.s("N");

  // EXTEND_do400 / FPTRAK_do300 (CIV-COMP): data-dependent CIV growth —
  // the while-loop conversion the paper describes, whose slice is almost
  // as expensive as the loop (RTov = 47%).
  auto MakeCivLoop = [&](const std::string &Name, const std::string &Var,
                         const std::string &CondArr,
                         const std::string &DataArr) {
    auto X = BB.dataArray(DataArr, BB.Sym.mulConst(N, 6));
    auto CND = BB.indexArray(CondArr);
    sym::SymbolId Civ = BB.Sym.symbol("civ_" + Name, 1);
    DoLoop *L = BB.loop(Name, Var, BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol(Var, 1));
    IfStmt *If =
        Prog.make<IfStmt>(BB.P.gt(BB.Sym.arrayRef(CND, I), BB.c(0)));
    DoLoop *Blk = BB.loop(Name + "_j", Var + "j", BB.c(1), BB.c(4), 2);
    const sym::Expr *J = BB.sv(BB.Sym.symbol(Var + "j", 2));
    Blk->append(BB.assign(
        X, BB.Sym.addConst(BB.Sym.add(BB.sv(Civ), J), -1), {}, 90));
    If->appendThen(Blk);
    If->appendThen(Prog.make<CivIncrStmt>(Civ, BB.c(4)));
    L->append(If);
    return L;
  };
  B->Loops.push_back({"EXTEND_do400", 49.2, "CIV-COMP",
                      MakeCivLoop("EXTEND_do400", "i_e", "CNDE", "XTRK"),
                      false});
  B->Loops.push_back({"FPTRAK_do300", 47.7, "CIV-COMP",
                      MakeCivLoop("FPTRAK_do300", "i_f", "CNDF", "YTRK"),
                      false});

  // NLFILT_do300 (TLS): irregular subscripted subscripts.
  {
    auto X = BB.dataArray("ZTRK", BB.Sym.mulConst(N, 2));
    auto IDX = BB.indexArray("IDXN");
    auto JDX = BB.indexArray("JDXN");
    B->Loops.push_back(
        {"NLFILT_do300", 1.2, "TLS",
         makeIrregularLoop(BB, "NLFILT_do300", "i_n", X, IDX, JDX, N, 40),
         false});
  }

  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 300 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("civ_EXTEND_do400"), 0);
    Bd.setScalar(Sym->symbol("civ_FPTRAK_do300"), 0);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(6 * N));
    // Roughly half the iterations extend a track.
    sym::ArrayBinding C1, C2;
    C1.Lo = C2.Lo = 1;
    for (int64_t I = 0; I < N; ++I) {
      C1.Vals.push_back(I % 2);
      C2.Vals.push_back((I + 1) % 2);
    }
    Bd.setArray(Sym->symbol("CNDE"), C1);
    Bd.setArray(Sym->symbol("CNDF"), C2);
    // NLFILT: disjoint index sets at runtime (speculation succeeds).
    Bd.setArray(Sym->symbol("IDXN"), rampArray(N, 0, 2));
    Bd.setArray(Sym->symbol("JDXN"), rampArray(N, 1, 2));
  };
  return B;
}

std::unique_ptr<Benchmark> makeSpec77() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "spec77";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 76;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("GW", BB.Sym.mulConst(N, 4));
  auto Y = BB.dataArray("GZ", BB.Sym.mulConst(N, 4));
  B->Loops.push_back(
      {"GLOOP_do1000", 57.1, "STATIC-PAR",
       makeStaticParLoop(BB, "GLOOP_do1000", "i_g", X, Y, N, 80), false});
  {
    auto Z = BB.dataArray("GT", BB.Sym.mulConst(N, 2));
    auto IDX = BB.indexArray("IDXG");
    auto JDX = BB.indexArray("JDXG");
    B->Loops.push_back(
        {"GWATER_do190", 16.5, "TLS",
         makeIrregularLoop(BB, "GWATER_do190", "i_w", Z, IDX, JDX, N, 120),
         false});
  }
  {
    auto XS = BB.dataArray("SIC", BB.Sym.add(BB.s("JS"), N));
    DoLoop *L = BB.loop("SICDKD_do1000", "i_k", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_k", 1));
    // The read offset is built before the write offset (see makeBdna).
    const sym::Expr *IM1 = BB.Sym.addConst(I, -1);
    L->append(BB.assign(XS, BB.Sym.addConst(BB.Sym.add(BB.s("JS"), I), -1),
                        {ArrayAccess{XS, IM1}}, 10));
    B->Loops.push_back({"SICDKD_do1000", 2.6, "FI O(1)", L, false});
  }
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 400 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("JS"), N);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(4 * N));
    Bd.setArray(Sym->symbol("IDXG"), rampArray(N, 0, 2));
    Bd.setArray(Sym->symbol("JDXG"), rampArray(N, 1, 2));
  };
  return B;
}

std::unique_ptr<Benchmark> makeOcean() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "ocean";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 65;
  BenchBuilder BB(*B);
  auto N = BB.s("N");

  // FTRVMT_do109 (FI O(1)): interleaved strided accesses — exercises the
  // gcd/divisibility disjointness test of Sec. 3.2.
  {
    auto X = BB.dataArray("FT", BB.Sym.mulConst(N, 4));
    DoLoop *L = BB.loop("FTRVMT_do109", "i_v", BB.c(1), N, 1);
    const sym::Expr *I = BB.sv(BB.Sym.symbol("i_v", 1));
    // Node-creating operands are built last-first (see makeBdna).
    const sym::Expr *Inc = BB.s("INC");
    const sym::Expr *WOff = BB.Sym.mul(BB.Sym.addConst(I, -1), Inc);
    const sym::Expr *ROff = BB.Sym.addConst(
        BB.Sym.mul(BB.Sym.addConst(I, -1), BB.s("INC")), 1);
    L->append(BB.assign(X, WOff, {ArrayAccess{X, ROff}}, 30));
    B->Loops.push_back({"FTRVMT_do109", 45.4, "FI O(1)", L, false});
  }
  {
    auto X = BB.dataArray("CS", BB.Sym.mulConst(N, 2));
    auto Y = BB.dataArray("CZ", BB.Sym.mulConst(N, 2));
    B->Loops.push_back(
        {"CSR_do20", 5.2, "STATIC-PAR",
         makeStaticParLoop(BB, "CSR_do20", "i_c", X, Y, N, 12), false});
    B->Loops.push_back(
        {"SCSC_do30", 3.8, "STATIC-PAR",
         makeStaticParLoop(BB, "SCSC_do30", "i_s", Y, X, N, 12), false});
  }
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 500 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("INC"), 2); // gcd(2,2) does not divide 1.
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(4 * N));
  };
  return B;
}

std::unique_ptr<Benchmark> makeQcd() {
  auto B = std::make_unique<Benchmark>();
  B->Name = "qcd";
  B->SuiteName = "PERFECT";
  B->SeqCoveragePct = 99;
  BenchBuilder BB(*B);
  auto N = BB.s("N");
  auto X = BB.dataArray("U1", BB.Sym.mulConst(N, 2));
  auto Y = BB.dataArray("U2", BB.Sym.mulConst(N, 2));
  B->Loops.push_back({"UPDATE_do1", 31.9, "STATIC-SEQ",
                      makeSeqChainLoop(BB, "UPDATE_do1", "i_u", X, N, 30),
                      false});
  B->Loops.push_back({"UPDATE_do2", 31.6, "STATIC-SEQ",
                      makeSeqChainLoop(BB, "UPDATE_do2", "i_v", Y, N, 30),
                      false});
  {
    auto Z = BB.dataArray("UI", BB.Sym.mul(N, BB.s("SQ")));
    B->Loops.push_back(
        {"INIT_do2", 1.0, "OI O(1)",
         makeSymbolicStrideLoop(BB, "INIT_do2", "i_q", Z, "SQ", N, 4),
         false});
  }
  sym::Context *Sym = &B->sym();
  auto Arrays = B->prog().findSubroutine("main")->getArrays();
  B->Setup = [Sym, Arrays](rt::Memory &M, sym::Bindings &Bd, int64_t Scale) {
    int64_t N = 400 * Scale;
    Bd.setScalar(Sym->symbol("N"), N);
    Bd.setScalar(Sym->symbol("SQ"), 2);
    for (const ArrayDecl &D : Arrays)
      if (!D.IsIndex)
        M.alloc(D.Name, static_cast<size_t>(2 * N + 8));
  };
  return B;
}

} // namespace

std::vector<std::unique_ptr<Benchmark>> suite::buildPerfectClub() {
  std::vector<std::unique_ptr<Benchmark>> Out;
  Out.push_back(makeFlo52());
  Out.push_back(makeBdna());
  Out.push_back(makeArc2d());
  Out.push_back(makeDyfesm());
  Out.push_back(makeMdg());
  Out.push_back(makeTrfd());
  Out.push_back(makeTrack());
  Out.push_back(makeSpec77());
  Out.push_back(makeOcean());
  Out.push_back(makeQcd());
  return Out;
}
