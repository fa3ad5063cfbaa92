//===- tests/logmutation_test.cpp - Corrupt log files ---------------------===//
//
// Part of PPD test suite.
//
// A log file is untrusted input to the debugging phase. This suite
// mutates a real log — every single-bit flip, a seeded set of byte
// overwrites, and every byte raised to a large varint value (which
// inflates counts, lengths and ids) — and opens each mutant the ways the
// debugger can: whole (ExecutionLog::load + in-memory controller), paged
// (PageStore + skimmed index), and paged through a `.ppdb` sidecar
// written from the mutant. Each mutant must either be rejected at open
// or answer `where 0`, `back`, `races` and a few more commands; a crash,
// an abort or a sanitizer report fails the suite (it also runs under
// ASan+UBSan). A clean log's sidecar gets the same single-bit sweep, and
// there every flip must be rejected.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "core/DebugSession.h"
#include "log/BufferPool.h"
#include "log/LogIO.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ppd;
using namespace ppd::test;

namespace {

std::string readSource(const std::string &Name) {
  std::ifstream In(std::string(PPD_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/ppd_mutation_" +
         std::to_string(::getpid()) + "_" + Name;
}

/// Opens one mutant every way the debugger can and asks each session
/// the same questions. Counts the opens that got as far as answering.
class MutantRunner {
public:
  explicit MutantRunner(const CompiledProgram &Prog)
      : Prog(Prog), LogPath(tempPath("mutant.log")),
        DbPath(programDbPathFor(LogPath)) {}

  ~MutantRunner() {
    std::remove(LogPath.c_str());
    std::remove(DbPath.c_str());
  }

  void run(const std::vector<uint8_t> &Bytes) {
    {
      std::ofstream Out(LogPath, std::ios::binary | std::ios::trunc);
      Out.write(reinterpret_cast<const char *>(Bytes.data()),
                std::streamsize(Bytes.size()));
      ASSERT_TRUE(Out.good());
    }

    ExecutionLog Log;
    if (ExecutionLog::load(LogPath, Log)) {
      PpdController Whole(Prog, std::move(Log));
      ask(Whole);
      ++WholeOpens;
    }

    std::shared_ptr<const PageStore> Store = PageStore::open(LogPath);
    if (!Store)
      return;
    auto Index = std::make_shared<const LogIndex>(*Store);
    if (!Index->ok())
      return;
    {
      PpdController Paged(Prog, PagedLog{Store, std::make_shared<BufferPool>(
                                                    size_t(1) << 20)},
                          Index);
      ask(Paged);
      ++PagedOpens;
    }

    // The sidecar is written only when every section decodes and the
    // sync records pass the graph's checks; what it persists must then
    // read back and serve like the skimmed open.
    if (!writeProgramDb(DbPath, Prog, *Store, *Index))
      return;
    std::shared_ptr<const LogIndex> DbIndex;
    std::shared_ptr<const ParallelDynamicGraph> DbGraph;
    ASSERT_EQ(int(readProgramDb(DbPath, Prog, *Store, DbIndex, &DbGraph)),
              int(ProgramDbStatus::Ok));
    PpdControllerOptions COpts;
    COpts.AdoptedGraph = DbGraph;
    PpdController Warm(
        Prog, PagedLog{Store, std::make_shared<BufferPool>(size_t(1) << 20)},
        DbIndex, COpts);
    ask(Warm);
    ++SidecarOpens;
  }

  unsigned WholeOpens = 0, PagedOpens = 0, SidecarOpens = 0;

private:
  void ask(PpdController &Controller) {
    DebugSession Session(Prog, Controller);
    for (const char *Cmd : {"where 0", "back", "races", "fwd", "where 1",
                            "back", "expand 3", "restore 1 0", "pardot"})
      EXPECT_FALSE(Session.execute(Cmd).empty()) << Cmd;
  }

  const CompiledProgram &Prog;
  std::string LogPath, DbPath;
};

class LogMutationTest : public ::testing::Test {
protected:
  void SetUp() override {
    Run = runProgram(readSource("bank_race.ppl"));
    ASSERT_TRUE(Run.Prog != nullptr);
    std::string Path = tempPath("original.log");
    ASSERT_TRUE(Run.Log.save(Path));
    ASSERT_TRUE(readFileBytes(Path, Original));
    std::remove(Path.c_str());
    ASSERT_GT(Original.size(), 8u);
  }

  Ran Run;
  std::vector<uint8_t> Original;
};

TEST_F(LogMutationTest, UnmutatedLogAnswersThroughEveryReader) {
  MutantRunner Runner(*Run.Prog);
  Runner.run(Original);
  EXPECT_EQ(Runner.WholeOpens, 1u);
  EXPECT_EQ(Runner.PagedOpens, 1u);
  EXPECT_EQ(Runner.SidecarOpens, 1u);
}

TEST_F(LogMutationTest, EverySingleBitFlipIsRejectedOrAnswered) {
  MutantRunner Runner(*Run.Prog);
  for (size_t Bit = 0; Bit != 8 * Original.size(); ++Bit) {
    SCOPED_TRACE("bit " + std::to_string(Bit));
    std::vector<uint8_t> Mutant = Original;
    Mutant[Bit / 8] ^= uint8_t(1u << (Bit % 8));
    Runner.run(Mutant);
  }
  // Flips inside values the format cannot check (a printed value, a
  // captured variable) still open; the sweep must reach the sessions.
  EXPECT_GT(Runner.WholeOpens, 0u);
  EXPECT_GT(Runner.PagedOpens, 0u);
  EXPECT_GT(Runner.SidecarOpens, 0u);
}

// The `.ppdb` sidecar of a clean log is untrusted input too: a flipped
// bit in its persisted index or graph decodes cleanly (ids stay in range,
// a READ/WRITE set just gains or loses a variable) and would change the
// debugger's answers, the race verdict included. Every single-bit flip
// must therefore read as not Ok, so the debugger rebuilds the sidecar.
TEST_F(LogMutationTest, EverySidecarBitFlipIsRejected) {
  std::string LogPath = tempPath("sidecar.log");
  std::string DbPath = programDbPathFor(LogPath);
  std::string MutantPath = tempPath("sidecar_mutant.ppdb");
  {
    std::ofstream Out(LogPath, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Original.data()),
              std::streamsize(Original.size()));
    ASSERT_TRUE(Out.good());
  }
  std::shared_ptr<const PageStore> Store = PageStore::open(LogPath);
  ASSERT_TRUE(Store != nullptr);
  ASSERT_TRUE(writeProgramDb(DbPath, *Run.Prog, *Store, LogIndex(*Store)));
  std::vector<uint8_t> Clean;
  ASSERT_TRUE(readFileBytes(DbPath, Clean));
  {
    std::shared_ptr<const LogIndex> Index;
    ASSERT_EQ(int(readProgramDb(DbPath, *Run.Prog, *Store, Index)),
              int(ProgramDbStatus::Ok));
  }

  unsigned Accepted = 0;
  for (size_t Bit = 0; Bit != 8 * Clean.size(); ++Bit) {
    std::vector<uint8_t> Mutant = Clean;
    Mutant[Bit / 8] ^= uint8_t(1u << (Bit % 8));
    {
      std::ofstream Out(MutantPath, std::ios::binary | std::ios::trunc);
      Out.write(reinterpret_cast<const char *>(Mutant.data()),
                std::streamsize(Mutant.size()));
      ASSERT_TRUE(Out.good());
    }
    std::shared_ptr<const LogIndex> Index;
    std::shared_ptr<const ParallelDynamicGraph> Graph;
    ProgramDbStatus Status =
        readProgramDb(MutantPath, *Run.Prog, *Store, Index, &Graph);
    if (Status == ProgramDbStatus::Ok)
      ++Accepted;
    EXPECT_NE(int(Status), int(ProgramDbStatus::Ok)) << "bit " << Bit;
    EXPECT_TRUE(Index == nullptr && Graph == nullptr) << "bit " << Bit;
  }
  EXPECT_EQ(Accepted, 0u) << "of " << 8 * Clean.size() << " flips";

  std::remove(LogPath.c_str());
  std::remove(DbPath.c_str());
  std::remove(MutantPath.c_str());
}

TEST_F(LogMutationTest, SeededByteOverwritesAreRejectedOrAnswered) {
  MutantRunner Runner(*Run.Prog);
  Rng Rand(20240611);
  for (unsigned I = 0; I != 1000; ++I) {
    SCOPED_TRACE("overwrite " + std::to_string(I));
    std::vector<uint8_t> Mutant = Original;
    // One to three bytes after the magic, each set to a random value.
    unsigned Count = 1 + unsigned(Rand.nextBelow(3));
    for (unsigned K = 0; K != Count; ++K)
      Mutant[8 + Rand.nextBelow(Mutant.size() - 8)] =
          uint8_t(Rand.nextBelow(256));
    Runner.run(Mutant);
  }
  EXPECT_GT(Runner.PagedOpens, 0u);
}

TEST_F(LogMutationTest, InflatedCountsAreRejectedOrAnswered) {
  // Every byte raised to the largest one-byte varint (0x7f) and to a
  // continuation byte (0xff), which merges it with its successor into a
  // far larger value: counts, lengths, ids and sequence numbers all grow.
  MutantRunner Runner(*Run.Prog);
  for (size_t At = 0; At != Original.size(); ++At)
    for (uint8_t Value : {uint8_t(0x7f), uint8_t(0xff)}) {
      SCOPED_TRACE("byte " + std::to_string(At) + " = " +
                   std::to_string(Value));
      std::vector<uint8_t> Mutant = Original;
      Mutant[At] = Value;
      Runner.run(Mutant);
    }
}

} // namespace
