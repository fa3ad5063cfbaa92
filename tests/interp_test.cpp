//===- tests/interp_test.cpp - Execution-engine invariants ----------------===//
//
// Part of PPD test suite.
//
// The execution engine (vm/Machine.cpp runSlice: pre-decoded stream,
// threaded dispatch, mode specialization, fused superinstructions) must
// charge one step per source instruction and preempt between the two
// halves of a fused pair exactly where the budget runs out. A
// single-process run has no interleaving to change, so its step count,
// output and log bytes must not depend on the quantum at all — quantum 1
// splits every fused pair, 64 splits almost none. The run modes must agree
// on what the program computes, and a golden hash fixture pins the v2 log
// bytes of one multi-process execution instance so a change to the
// engine's schedule or to the log encoder surfaces even when every
// self-consistency check still holds.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "log/LogIO.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ppd;
using namespace ppd::test;

namespace {

/// The examples/ corpus: every program ships with the repo and exercises a
/// distinct engine aspect (races, semaphores+channels, a runtime failure, a
/// deadlock, the paper's Fig 4.1).
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

/// Everything externally observable about one machine run.
struct Observed {
  RunResult Result;
  std::vector<int64_t> Shared;
  std::vector<OutputRecord> Output;
  ExecutionLog Log;
};

Observed runOnce(const CompiledProgram &Prog, const MachineOptions &MOpts) {
  Machine M(Prog, MOpts);
  Observed Out;
  Out.Result = M.run();
  Out.Shared = M.sharedMemory();
  Out.Log = M.takeLog();
  Out.Output = Out.Log.Output;
  return Out;
}

void expectSameOutput(const std::vector<OutputRecord> &A,
                      const std::vector<OutputRecord> &B,
                      const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Pid, B[I].Pid) << Label << " output " << I;
    EXPECT_EQ(A[I].Value, B[I].Value) << Label << " output " << I;
    EXPECT_EQ(A[I].Stmt, B[I].Stmt) << Label << " output " << I;
  }
}

std::vector<uint8_t> v2Bytes(const ExecutionLog &Log, const char *Tag) {
  std::string Path = ::testing::TempDir() + "/interp_" + Tag + ".bin";
  EXPECT_TRUE(Log.save(Path, LogFormat::V2));
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes));
  std::remove(Path.c_str());
  return Bytes;
}

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t Hash = 1469598103934665603ull;
  for (uint8_t B : Bytes) {
    Hash ^= B;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

// Instrumentation must not change what the program computes, across
// seeds and the whole corpus. Plain and Logging run the same object chunk,
// so the interleaving matches exactly. FullTrace runs the emulation chunk,
// whose extra trace instructions shift preemption boundaries — the probe
// effect — so for the racy program only the outcome kind is comparable,
// not the (race-dependent) final state.
TEST(InterpTest, ModesAgreeAcrossSeeds) {
  const RunMode Modes[] = {RunMode::Plain, RunMode::Logging,
                           RunMode::FullTrace};
  for (const char *Name : Corpus) {
    auto Prog = compileOk(readCorpusFile(Name));
    ASSERT_TRUE(Prog);
    bool Racy = std::string(Name) == "bank_race.ppl";
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      Observed PerMode[3];
      for (int M = 0; M != 3; ++M) {
        MachineOptions MOpts;
        MOpts.Seed = Seed;
        MOpts.Mode = Modes[M];
        PerMode[M] = runOnce(*Prog, MOpts);
      }
      EXPECT_EQ(PerMode[0].Result.Steps, PerMode[1].Result.Steps)
          << Name << " seed " << Seed;
      for (int M = 1; M != 3; ++M) {
        std::string Label = std::string(Name) + " seed " +
                            std::to_string(Seed) + " mode 0 vs " +
                            std::to_string(M);
        EXPECT_EQ(int(PerMode[0].Result.Outcome),
                  int(PerMode[M].Result.Outcome))
            << Label;
        EXPECT_EQ(int(PerMode[0].Result.Error.Kind),
                  int(PerMode[M].Result.Error.Kind))
            << Label;
        if (M == 2 && Racy)
          continue;
        EXPECT_EQ(PerMode[0].Shared, PerMode[M].Shared) << Label;
        expectSameOutput(PerMode[0].Output, PerMode[M].Output, Label);
      }
    }
  }
}

// A single process runs the same instructions whatever the quantum: only
// the slice boundaries move. Quantum 1 ends a slice between the halves of
// every fused superinstruction (the compare runs alone, pushes its result,
// and the branch runs from its own slot next slice); 2, 3 and 5 land the
// boundary on every phase; 64 rarely splits at all. Steps, output and the
// v2 log bytes must be identical across all of them.
TEST(InterpTest, SingleProcessRunIsQuantumInvariant) {
  const uint32_t Quanta[] = {1, 2, 3, 5, 8, 64};
  unsigned Checked = 0;
  for (const char *Name : Corpus) {
    auto Prog = compileOk(readCorpusFile(Name));
    ASSERT_TRUE(Prog);
    MachineOptions MOpts;
    MOpts.Mode = RunMode::Logging;
    MOpts.Quantum = Quanta[0];
    Observed First = runOnce(*Prog, MOpts);
    if (First.Log.Procs.size() != 1)
      continue;
    ++Checked;
    std::vector<uint8_t> FirstBytes = v2Bytes(First.Log, "quantum1");
    for (uint32_t Quantum : Quanta) {
      MOpts.Quantum = Quantum;
      Observed O = runOnce(*Prog, MOpts);
      std::string Label =
          std::string(Name) + " quantum " + std::to_string(Quantum);
      EXPECT_EQ(int(O.Result.Outcome), int(First.Result.Outcome)) << Label;
      EXPECT_EQ(O.Result.Steps, First.Result.Steps) << Label;
      expectSameOutput(O.Output, First.Output, Label);
      EXPECT_EQ(v2Bytes(O.Log, "quantumN"), FirstBytes) << Label;
    }
  }
  EXPECT_EQ(Checked, 2u) << "crash.ppl and fig41.ppl are single-process";
}

// Golden fixture: the v2 log bytes of one pinned execution instance,
// hashed. Catches a change to the schedule (preemption points, sync
// sequence numbers) or to the log encoding that every self-consistency
// check above would miss. If a *deliberate* format or instrumentation
// change lands, re-pin the constant from the test's failure message.
TEST(InterpTest, GoldenV2LogFixture) {
  auto Prog = compileOk(readCorpusFile("bounded_buffer.ppl"));
  ASSERT_TRUE(Prog);
  MachineOptions MOpts;
  MOpts.Seed = 3;
  MOpts.Mode = RunMode::Logging;
  MOpts.Quantum = 3;
  Observed O = runOnce(*Prog, MOpts);
  EXPECT_EQ(int(O.Result.Outcome), int(RunResult::Status::Completed));
  uint64_t Hash = fnv1a(v2Bytes(O.Log, "golden"));
  EXPECT_EQ(Hash, 0x398f02cd27ee92a9ull)
      << "golden v2 log drifted; actual 0x" << std::hex << Hash;
}

} // namespace
