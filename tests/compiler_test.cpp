//===- tests/compiler_test.cpp - Preparatory-phase tests ------------------===//
//
// Part of PPD test suite: e-block partitioning, USED/DEFINED metadata,
// dual-artifact code generation, unit instrumentation.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/Chunk.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

/// Counts instructions of kind \p Opcode in \p C.
unsigned countOps(const Chunk &C, Op Opcode) {
  unsigned N = 0;
  for (uint32_t Pc = 0; Pc != C.size(); ++Pc)
    N += C.at(Pc).Opcode == Opcode;
  return N;
}

TEST(CompilerTest, DefaultPlanOneEBlockPerFunction) {
  auto Prog = compileOk(R"(
func helper(int x) { return x + 1; }
func main() { print(helper(1)); }
)");
  EXPECT_EQ(Prog->EBlocks.size(), 2u);
  EXPECT_TRUE(Prog->Funcs[0].Logged);
  EXPECT_TRUE(Prog->Funcs[1].Logged);
  for (const CompiledFunction &F : Prog->Funcs) {
    EXPECT_EQ(countOps(F.Object, Op::Prelog), 1u) << F.Name;
    EXPECT_GE(countOps(F.Object, Op::Postlog), 1u) << F.Name;
    EXPECT_EQ(countOps(F.Object, Op::TraceStmt), 0u)
        << "object code carries no trace instrumentation";
    EXPECT_GT(countOps(F.Emu, Op::TraceStmt), 0u)
        << "emulation package traces statements";
  }
}

TEST(CompilerTest, LeafInheritanceUnlogsSmallLeaves) {
  CompileOptions Opts;
  Opts.EBlocks.LeafInheritance = true;
  Opts.EBlocks.LeafMaxStmts = 10;
  auto Prog = compileOk(R"(
func tiny(int x) { return x * 2; }
func big(int x) {
  int a = x; int b = a; int c = b; int d = c; int e = d;
  int f = e; int g = f; int h = g; int i = h; int j = i;
  int k = j;
  return k;
}
func spawned() { }
func main() { spawn spawned(); print(big(tiny(3))); }
)",
                        Opts);
  const FuncDecl *Tiny = Prog->Ast->findFunc("tiny");
  const FuncDecl *Big = Prog->Ast->findFunc("big");
  const FuncDecl *Spawned = Prog->Ast->findFunc("spawned");
  EXPECT_FALSE(Prog->Plan.isLogged(*Tiny)) << "small leaf is inherited";
  EXPECT_TRUE(Prog->Plan.isLogged(*Big)) << "large leaf stays logged";
  EXPECT_TRUE(Prog->Plan.isLogged(*Spawned))
      << "spawn targets are process roots and must stay logged";
  EXPECT_EQ(countOps(Prog->Funcs[Tiny->Index].Object, Op::Prelog), 0u);
}

TEST(CompilerTest, LoopBlocksSplitFunctionIntoRegions) {
  CompileOptions Opts;
  Opts.EBlocks.LoopBlocks = true;
  auto Prog = compileOk(R"(
func main() {
  int i = 0;
  int sum = 0;
  while (i < 10) { sum = sum + i; i = i + 1; }
  print(sum);
}
)",
                        Opts);
  // Regions: [decls] [loop] [print + implicit return].
  ASSERT_EQ(Prog->EBlocks.size(), 3u);
  EXPECT_EQ(int(Prog->EBlocks[0].Kind), int(EBlockKind::FunctionSegment));
  EXPECT_EQ(int(Prog->EBlocks[1].Kind), int(EBlockKind::Loop));
  EXPECT_EQ(int(Prog->EBlocks[2].Kind), int(EBlockKind::FunctionSegment));
  EXPECT_EQ(countOps(Prog->Funcs[0].Object, Op::Prelog), 3u);
}

TEST(CompilerTest, TrailingLoopGetsEmptyFinalSegment) {
  CompileOptions Opts;
  Opts.EBlocks.LoopBlocks = true;
  auto Prog = compileOk(R"(
func main() {
  int i = 0;
  while (i < 3) i = i + 1;
}
)",
                        Opts);
  // [decl] [loop] [empty trailing segment owning the implicit return].
  ASSERT_EQ(Prog->EBlocks.size(), 3u);
  EXPECT_EQ(int(Prog->EBlocks.back().Kind),
            int(EBlockKind::FunctionSegment));
  EXPECT_TRUE(Prog->EBlocks.back().Used.empty());
}

TEST(CompilerTest, SplitLargeFunctions) {
  CompileOptions Opts;
  Opts.EBlocks.SplitLargeFunctions = true;
  Opts.EBlocks.MaxSegmentStmts = 3;
  std::string Source = "func main() {\n";
  for (int I = 0; I != 10; ++I)
    Source += "  print(" + std::to_string(I) + ");\n";
  Source += "}\n";
  auto Prog = compileOk(Source, Opts);
  EXPECT_EQ(Prog->EBlocks.size(), 4u) << "10 statements in chunks of 3";
}

TEST(CompilerTest, EBlockUsedDefinedMetadata) {
  auto Prog = compileOk(R"(
shared int sv;
func f(int p) {
  int l = p + sv;
  sv = l;
  return l;
}
func main() { print(f(1)); }
)");
  const FuncDecl *F = Prog->Ast->findFunc("f");
  const EBlockInfo *FBlock = nullptr;
  for (const EBlockInfo &E : Prog->EBlocks)
    if (E.Func == F->Index)
      FBlock = &E;
  ASSERT_NE(FBlock, nullptr);

  auto Has = [&](const std::vector<VarId> &Vars, const char *Name) {
    for (VarId V : Vars)
      if (Prog->Symbols->var(V).Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has(FBlock->Used, "p"));
  EXPECT_TRUE(Has(FBlock->Used, "sv"));
  EXPECT_FALSE(Has(FBlock->Used, "l")) << "l is written before read";
  EXPECT_TRUE(Has(FBlock->Defined, "l"));
  EXPECT_TRUE(Has(FBlock->Defined, "sv"));
  EXPECT_FALSE(Has(FBlock->Defined, "p"));
}

TEST(CompilerTest, MayDefinedPrivateVariablesAreUsed) {
  // A private variable written on only one branch leaves the e-block
  // with its entry value on the other, and the postlog captures it: the
  // prelog must too. A shared one is not replayed to its logged value,
  // and a variable every path writes first needs no entry value.
  auto Prog = compileOk(R"(
shared int sv;
int pg;
func f(int p) {
  int l = 1;
  if (l > input()) {
    p = 2;
    pg = 3;
    sv = 4;
  }
  return l;
}
func main() { print(f(1)); }
)");
  const FuncDecl *F = Prog->Ast->findFunc("f");
  const EBlockInfo *FBlock = nullptr;
  for (const EBlockInfo &E : Prog->EBlocks)
    if (E.Func == F->Index)
      FBlock = &E;
  ASSERT_NE(FBlock, nullptr);
  auto Has = [&](const std::vector<VarId> &Vars, const char *Name) {
    for (VarId V : Vars)
      if (Prog->Symbols->var(V).Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has(FBlock->Used, "p"));
  EXPECT_TRUE(Has(FBlock->Used, "pg"));
  EXPECT_FALSE(Has(FBlock->Used, "sv"));
  EXPECT_FALSE(Has(FBlock->Used, "l"));
}

TEST(CompilerTest, UnitLogPlacedAfterSyncOps) {
  auto Prog = compileOk(R"(
shared int sv;
sem m = 1;
func main() {
  P(m);
  sv = sv + 1;
  V(m);
  print(sv);
}
)");
  const Chunk &Object = Prog->Funcs[0].Object;
  // The unit starting at P reads sv → one UnitLog after the P. The unit
  // starting at V also reads sv (the print) → one UnitLog after V.
  EXPECT_EQ(countOps(Object, Op::UnitLog), 2u);
  // Emu carries the same UnitLog markers for replay restoration.
  EXPECT_EQ(countOps(Prog->Funcs[0].Emu, Op::UnitLog), 2u);
}

TEST(CompilerTest, NoSharedReadsNoUnitLog) {
  // Paper §5.5: units without shared accesses generate no log entry.
  auto Prog = compileOk(R"(
sem m = 1;
func main() {
  int x = 1;
  P(m);
  x = x + 1;
  V(m);
  print(x);
}
)");
  EXPECT_EQ(countOps(Prog->Funcs[0].Object, Op::UnitLog), 0u);
}

TEST(CompilerTest, DisableInstrumentationOption) {
  CompileOptions Opts;
  Opts.Instrument = false;
  auto Prog = compileOk("shared int s;\nfunc main() { s = 1; print(s); }",
                        Opts);
  const Chunk &Object = Prog->Funcs[0].Object;
  EXPECT_EQ(countOps(Object, Op::Prelog), 0u);
  EXPECT_EQ(countOps(Object, Op::Postlog), 0u);
  EXPECT_EQ(countOps(Object, Op::UnitLog), 0u);
}

TEST(CompilerTest, DisassemblerMentionsOpsAndStatements) {
  auto Prog = compileOk("func main() { int x = 1; print(x + 1); }");
  std::string Listing = Prog->Funcs[0].Object.disassemble("main");
  EXPECT_NE(Listing.find("== main =="), std::string::npos);
  EXPECT_NE(Listing.find("PushConst"), std::string::npos);
  EXPECT_NE(Listing.find("PrintVal"), std::string::npos);
  EXPECT_NE(Listing.find("; s"), std::string::npos);
}

TEST(CompilerTest, BothArtifactsBehaveIdentically) {
  // Running the emulation package in FullTrace mode must produce the same
  // output as the object code: same codegen, different instrumentation.
  const char *Source = R"(
shared int sv;
func helper(int x) { sv = sv + x; return sv; }
func main() {
  int i = 0;
  for (i = 1; i <= 4; i = i + 1) print(helper(i));
}
)";
  auto Object = runProgram(Source, 9);
  MachineOptions MOpts;
  MOpts.Mode = RunMode::FullTrace;
  auto Emu = runProgram(Source, 9, MOpts);
  EXPECT_EQ(Object.PrintedValues, Emu.PrintedValues);
}

TEST(CompilerTest, EmuEntryPcPointsAtPrelog) {
  auto Prog = compileOk("func main() { print(1); }");
  const EBlockInfo &E = Prog->EBlocks[0];
  EXPECT_EQ(Prog->Funcs[0].Emu.at(E.EmuEntryPc).Opcode, Op::Prelog);
  EXPECT_EQ(Prog->Funcs[0].Object.at(E.ObjectEntryPc).Opcode, Op::Prelog);
}

} // namespace
