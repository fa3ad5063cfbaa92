//===- tests/jit_test.cpp - JIT replay tier differentials -----------------===//
//
// Part of PPD test suite.
//
// The copy-and-patch JIT tier (vm/Jit.cpp) must be observationally
// bit-identical to the decoded replay engine: same traces event by event,
// same instruction accounting at every quantum, same failures, same final
// shadow state. This suite pins the ExecMem arena's W^X contract, then
// drives the JIT against the decoded oracle across the examples/ corpus ×
// seeds × quanta, through every bailout path (side-exits, quantum expiry
// at each possible budget, breakpoint-stopped partial logs, the crash.ppl
// failing interval), and through repeated executions of the same compiled
// code. On hosts without the backend every JIT-tier replay transparently
// runs decoded, so the differentials still pass — they just stop proving
// anything about native code; the exercised-at-least-once assertion is
// gated on PPD_JIT_ENABLED.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Replay.h"
#include "log/ExecutionLog.h"
#include "support/ExecMem.h"
#include "vm/Jit.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace ppd;
using namespace ppd::test;

namespace {

const char *const Corpus[] = {
    "bank_race.ppl", "bounded_buffer.ppl", "crash.ppl",
    "deadlock.ppl",  "fig41.ppl",
};

std::string readCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(PPD_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open corpus file " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Full-field equality of two replay results — the bit-identity contract
/// between tiers. Mirrors the fuzz matrix's cmpReplay.
void expectReplayEqual(const ReplayResult &J, const ReplayResult &D,
                       const std::string &Label) {
  EXPECT_EQ(J.Ok, D.Ok) << Label;
  EXPECT_EQ(J.Partial, D.Partial) << Label;
  EXPECT_EQ(J.FailureHit, D.FailureHit) << Label;
  if (J.FailureHit && D.FailureHit) {
    EXPECT_EQ(int(J.Failure.Kind), int(D.Failure.Kind)) << Label;
    EXPECT_EQ(J.Failure.Stmt, D.Failure.Stmt) << Label;
    EXPECT_EQ(J.Failure.Pid, D.Failure.Pid) << Label;
  }
  EXPECT_EQ(J.Diverged, D.Diverged) << Label;
  EXPECT_EQ(J.Error, D.Error) << Label;
  EXPECT_EQ(J.Instructions, D.Instructions) << Label;
  ASSERT_EQ(J.Events.Events.size(), D.Events.Events.size()) << Label;
  for (size_t I = 0; I != J.Events.Events.size(); ++I)
    EXPECT_TRUE(J.Events.Events[I] == D.Events.Events[I])
        << Label << " event " << I;
  EXPECT_EQ(J.Shared, D.Shared) << Label;
  EXPECT_EQ(J.PrivateGlobals, D.PrivateGlobals) << Label;
  EXPECT_EQ(J.RootSlots, D.RootSlots) << Label;
  ASSERT_EQ(J.PostlogMismatches.size(), D.PostlogMismatches.size()) << Label;
  for (size_t I = 0; I != J.PostlogMismatches.size(); ++I) {
    EXPECT_EQ(J.PostlogMismatches[I].Var, D.PostlogMismatches[I].Var)
        << Label;
    EXPECT_EQ(J.PostlogMismatches[I].Actual, D.PostlogMismatches[I].Actual)
        << Label;
  }
  ASSERT_EQ(J.Output.size(), D.Output.size()) << Label;
  for (size_t I = 0; I != J.Output.size(); ++I) {
    EXPECT_EQ(J.Output[I].Pid, D.Output[I].Pid) << Label << " output " << I;
    EXPECT_EQ(J.Output[I].Value, D.Output[I].Value)
        << Label << " output " << I;
    EXPECT_EQ(J.Output[I].Stmt, D.Output[I].Stmt) << Label << " output " << I;
  }
  EXPECT_EQ(J.HasReturn, D.HasReturn) << Label;
  EXPECT_EQ(J.ReturnValue, D.ReturnValue) << Label;
}

/// Replays every interval of \p R through a tier-immediately JIT engine
/// and the decoded oracle, asserting bit-identity. Returns the number of
/// replays that entered native code.
uint64_t diffAllIntervals(const Ran &R, const std::string &Label,
                          uint64_t MaxInstructions = 50'000'000) {
  LogIndex Index(R.Log);
  JitOptions JOpts;
  JOpts.HotThreshold = 1; // native from the very first replay
  std::shared_ptr<JitProgram> JP = JitProgram::create(*R.Prog, JOpts);
  ReplayEngine JitEngine(*R.Prog, JP);
  ReplayEngine RefEngine(*R.Prog);
  for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid) {
    for (const LogInterval &Interval : Index.intervals(Pid)) {
      ReplayOptions J, D;
      J.Engine = ReplayEngineKind::Jit;
      J.MaxInstructions = MaxInstructions;
      D.Engine = ReplayEngineKind::Decoded;
      D.MaxInstructions = MaxInstructions;
      ReplayResult RJ = JitEngine.replay(R.Log, Pid, Interval, J);
      ReplayResult RD = RefEngine.replay(R.Log, Pid, Interval, D);
      expectReplayEqual(RJ, RD, Label + " pid " + std::to_string(Pid) +
                                    " interval " +
                                    std::to_string(Interval.Index));
    }
  }
  return JP ? JP->stats().JittedReplays : 0;
}

//===----------------------------------------------------------------------===//
// ExecMem arena: the W^X substrate
//===----------------------------------------------------------------------===//

TEST(ExecMemTest, AllocateWriteProtectExecute) {
  if (!ExecMemArena::supported())
    GTEST_SKIP() << "no mmap/mprotect on this platform";
  ExecMemArena Arena;
  ExecMemArena::Block *B = Arena.allocate(16);
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->Writable);
  EXPECT_GE(B->Size, size_t(16));
  EXPECT_GT(Arena.bytesReserved(), size_t(0));
#if defined(__x86_64__)
  // mov eax, 42; ret
  const uint8_t Code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(B->Data, Code, sizeof(Code));
  ASSERT_TRUE(Arena.makeExecutable(*B));
  EXPECT_FALSE(B->Writable);
  auto Fn = reinterpret_cast<int (*)()>(B->Data);
  EXPECT_EQ(Fn(), 42);

  // W^X round trip: flip back, patch the immediate, re-protect, re-run.
  ASSERT_TRUE(Arena.makeWritable(*B));
  EXPECT_TRUE(B->Writable);
  B->Data[1] = 0x07;
  ASSERT_TRUE(Arena.makeExecutable(*B));
  EXPECT_EQ(Fn(), 7);
#endif
}

TEST(ExecMemTest, ReleasedBlocksAreReused) {
  if (!ExecMemArena::supported())
    GTEST_SKIP() << "no mmap/mprotect on this platform";
  ExecMemArena Arena(size_t(1) << 16);
  ExecMemArena::Block *A = Arena.allocate(100);
  ASSERT_NE(A, nullptr);
  size_t Reserved = Arena.bytesReserved();
  Arena.release(A);
  // A smaller request must be served from the free list: no new mapping.
  ExecMemArena::Block *B = Arena.allocate(50);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(Arena.bytesReserved(), Reserved);
  EXPECT_TRUE(B->Writable);
}

TEST(ExecMemTest, BudgetExhaustionReturnsNull) {
  if (!ExecMemArena::supported())
    GTEST_SKIP() << "no mmap/mprotect on this platform";
  ExecMemArena Arena(4096);
  EXPECT_EQ(Arena.allocate(0), nullptr);
  EXPECT_EQ(Arena.allocate(size_t(1) << 20), nullptr) << "over budget";
  ExecMemArena::Block *A = Arena.allocate(1);
  ASSERT_NE(A, nullptr) << "one page fits a 4096-byte budget";
  EXPECT_EQ(Arena.allocate(1), nullptr) << "budget is exhausted";
  // Released pages satisfy later requests even at full budget.
  Arena.release(A);
  EXPECT_NE(Arena.allocate(1), nullptr);
}

//===----------------------------------------------------------------------===//
// JIT vs decoded differentials
//===----------------------------------------------------------------------===//

// The main oracle: every interval of every corpus program, across seeds
// and quanta (quantum 1 forces a budget side-exit at every fused
// superinstruction boundary), replays bit-identically on both tiers.
TEST(JitTest, MatchesDecodedAcrossCorpusSeedsAndQuanta) {
  uint64_t Jitted = 0;
  for (const char *Name : Corpus) {
    if (std::string(Name) == "deadlock.ppl")
      continue; // no completed run to index (outcome is Deadlock)
    std::string Source = readCorpusFile(Name);
    bool Fails = std::string(Name) == "crash.ppl";
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      for (uint32_t Quantum : {1u, 2u, 3u, 8u}) {
        MachineOptions MOpts;
        MOpts.Quantum = Quantum;
        Ran R = runProgram(Source, Seed, MOpts, {},
                           /*ExpectCompleted=*/!Fails);
        ASSERT_TRUE(R.Prog);
        Jitted += diffAllIntervals(
            R, std::string(Name) + " seed " + std::to_string(Seed) +
                   " quantum " + std::to_string(Quantum));
      }
    }
  }
#if PPD_JIT_ENABLED
  EXPECT_GT(Jitted, uint64_t(0))
      << "the differential never entered native code";
#endif
}

// A breakpoint-stopped run leaves open (postlog-less) intervals whose
// replay ends on the Stop path mid-interval; both tiers must cut the
// trace at the same event.
TEST(JitTest, BreakpointPartialLogsMatchDecoded) {
  std::string Source = readCorpusFile("bounded_buffer.ppl");
  auto Prog = compileOk(Source);
  ASSERT_TRUE(Prog);
  // Break on every statement in turn is overkill; one mid-program line
  // per quantum exercises the Stop bailout at different trace depths.
  for (uint32_t Quantum : {1u, 3u}) {
    for (StmtId Break = 0; Break != 6; ++Break) {
      MachineOptions MOpts;
      MOpts.Seed = 5;
      MOpts.Quantum = Quantum;
      MOpts.Breakpoints = {Break};
      Machine M(*Prog, MOpts);
      RunResult Result = M.run();
      Ran R;
      R.Prog = compileOk(Source);
      R.Result = Result;
      R.Log = M.takeLog();
      diffAllIntervals(R, "breakpoint stmt " + std::to_string(Break) +
                              " quantum " + std::to_string(Quantum));
    }
  }
}

// Quantum expiry inside native code: sweep the replay budget through
// every value up to the interval's full length, so the Budget side-exit
// fires at each possible slot — including mid-fused-superinstruction —
// and the charged-instruction accounting matches exactly.
TEST(JitTest, BudgetExpiryAgreesAtEveryCutoff) {
  Ran R = runProgram(readCorpusFile("fig41.ppl"), 3);
  ASSERT_TRUE(R.Prog);
  for (uint64_t Budget = 0; Budget <= 60; ++Budget)
    diffAllIntervals(R, "budget " + std::to_string(Budget), Budget);
}

// A side exit hands exactly one instruction to the interpreter, then
// re-enters native code. Two back-to-back builtin calls are two side exits,
// so nesting one more sqrt inside a ten-iteration loop adds exactly ten
// bailouts; a runner that let the interpreter run on past the exiting
// instruction would fold the pair into one.
TEST(JitTest, SideExitStepsOneInstruction) {
  auto Bailouts = [](const char *Body) -> uint64_t {
    std::string Source = std::string("func main() {\n"
                                     "  int y = 5;\n"
                                     "  int i = 0;\n"
                                     "  for (i = 0; i < 10; i = i + 1)\n"
                                     "    y = ") +
                         Body + ";\n  print(y);\n}\n";
    Ran R = runProgram(Source, 1);
    EXPECT_TRUE(R.Prog);
    if (!R.Prog)
      return 0;
    JitOptions JOpts;
    JOpts.HotThreshold = 1;
    std::shared_ptr<JitProgram> JP = JitProgram::create(*R.Prog, JOpts);
    LogIndex Index(R.Log);
    EXPECT_EQ(Index.intervals(0).size(), 1u);
    ReplayEngine JitEngine(*R.Prog, JP);
    ReplayEngine RefEngine(*R.Prog);
    ReplayOptions D;
    D.Engine = ReplayEngineKind::Decoded;
    const LogInterval &Interval = Index.intervals(0)[0];
    expectReplayEqual(JitEngine.replay(R.Log, 0, Interval),
                      RefEngine.replay(R.Log, 0, Interval, D), Body);
    EXPECT_EQ(JP->stats().JittedReplays, 1u) << Body;
    return JP->stats().Bailouts;
  };
  auto Probe = compileOk("func main() { print(1); }");
  ASSERT_TRUE(Probe);
  if (!JitProgram::create(*Probe))
    GTEST_SKIP() << "JIT backend unavailable on this host";
  uint64_t One = Bailouts("sqrt(y + i)");
  uint64_t Two = Bailouts("sqrt(sqrt(y + i))");
  EXPECT_GT(One, 10u);
  EXPECT_EQ(Two, One + 10);
}

// An impossible code budget makes every compile fail; the tier must fall
// back to decoded transparently, not error.
TEST(JitTest, CodeBudgetExhaustionFallsBackToDecoded) {
  Ran R = runProgram(readCorpusFile("bank_race.ppl"), 2);
  ASSERT_TRUE(R.Prog);
  LogIndex Index(R.Log);
  JitOptions JOpts;
  JOpts.HotThreshold = 1;
  JOpts.CodeBudgetBytes = 64; // below one page: every allocation fails
  std::shared_ptr<JitProgram> JP = JitProgram::create(*R.Prog, JOpts);
  ReplayEngine JitEngine(*R.Prog, JP);
  ReplayEngine RefEngine(*R.Prog);
  for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid)
    for (const LogInterval &Interval : Index.intervals(Pid)) {
      ReplayOptions J, D;
      J.Engine = ReplayEngineKind::Jit;
      D.Engine = ReplayEngineKind::Decoded;
      expectReplayEqual(JitEngine.replay(R.Log, Pid, Interval, J),
                        RefEngine.replay(R.Log, Pid, Interval, D),
                        "starved interval " + std::to_string(Interval.Index));
    }
  if (JP) {
    EXPECT_EQ(JP->stats().JittedReplays, uint64_t(0));
    EXPECT_GT(JP->stats().CompileFailures, uint64_t(0));
  }
}

// Compiled code is reused across replays: running the same intervals
// three times through one shared JitProgram must be idempotent (same
// results every pass) and must not recompile.
TEST(JitTest, RepeatedExecutionIsIdempotent) {
  Ran R = runProgram(readCorpusFile("bounded_buffer.ppl"), 7);
  ASSERT_TRUE(R.Prog);
  LogIndex Index(R.Log);
  JitOptions JOpts;
  JOpts.HotThreshold = 1;
  std::shared_ptr<JitProgram> JP = JitProgram::create(*R.Prog, JOpts);
  ReplayEngine JitEngine(*R.Prog, JP);
  ReplayOptions J;
  J.Engine = ReplayEngineKind::Jit;
  std::vector<ReplayResult> First;
  for (int Pass = 0; Pass != 3; ++Pass) {
    size_t Idx = 0;
    for (uint32_t Pid = 0; Pid != R.Log.Procs.size(); ++Pid)
      for (const LogInterval &Interval : Index.intervals(Pid)) {
        ReplayResult RR = JitEngine.replay(R.Log, Pid, Interval, J);
        if (Pass == 0)
          First.push_back(std::move(RR));
        else
          expectReplayEqual(RR, First[Idx],
                            "pass " + std::to_string(Pass) + " interval " +
                                std::to_string(Idx));
        ++Idx;
      }
  }
  if (JP) {
    JitStats S = JP->stats();
    EXPECT_LE(S.Compiles, uint64_t(R.Prog->Funcs.size()))
        << "recompiled a function that was already published";
  }
}

// The tier-up policy: with the default threshold of 2 the first (cold)
// replay of an e-block runs decoded and only re-executions go native.
TEST(JitTest, DefaultThresholdWarmsUpDecodedFirst) {
  Ran R = runProgram(readCorpusFile("fig41.ppl"), 1);
  ASSERT_TRUE(R.Prog);
  LogIndex Index(R.Log);
  ReplayEngine Engine(*R.Prog); // default options: HotThreshold = 2
  if (!Engine.jit())
    GTEST_SKIP() << "JIT backend unavailable on this host";
  ASSERT_FALSE(Index.intervals(0).empty());
  const LogInterval &Interval = Index.intervals(0)[0];
  ReplayOptions J;
  J.Engine = ReplayEngineKind::Jit;
  Engine.replay(R.Log, 0, Interval, J);
  uint64_t AfterCold = Engine.jit()->stats().JittedReplays;
  Engine.replay(R.Log, 0, Interval, J);
  uint64_t AfterWarm = Engine.jit()->stats().JittedReplays;
#if PPD_JIT_ENABLED
  EXPECT_EQ(AfterCold, uint64_t(0)) << "cold replay must run decoded";
  EXPECT_GT(AfterWarm, AfterCold) << "warm replay must go native";
#else
  EXPECT_EQ(AfterWarm, uint64_t(0));
#endif
}

// What-if overrides replay through the same tier plumbing; divergence
// detection and override application must not differ across tiers.
TEST(JitTest, WhatIfOverridesMatchDecoded) {
  Ran R = runProgram(readCorpusFile("fig41.ppl"), 1);
  ASSERT_TRUE(R.Prog);
  LogIndex Index(R.Log);
  ASSERT_FALSE(Index.intervals(0).empty());
  JitOptions JOpts;
  JOpts.HotThreshold = 1;
  ReplayEngine JitEngine(*R.Prog, JitProgram::create(*R.Prog, JOpts));
  ReplayEngine RefEngine(*R.Prog);
  VarId Var = varNamed(*R.Prog->Symbols, "a");
  for (uint32_t Event = 1; Event <= 4; ++Event) {
    ReplayOptions J, D;
    J.Engine = ReplayEngineKind::Jit;
    D.Engine = ReplayEngineKind::Decoded;
    ReplayOverride O;
    O.AtEvent = Event;
    O.Var = Var;
    O.Value = 41;
    J.Overrides = {O};
    D.Overrides = {O};
    const LogInterval &Interval = Index.intervals(0)[0];
    expectReplayEqual(JitEngine.replay(R.Log, 0, Interval, J),
                      RefEngine.replay(R.Log, 0, Interval, D),
                      "what-if at event " + std::to_string(Event));
  }
}

} // namespace
