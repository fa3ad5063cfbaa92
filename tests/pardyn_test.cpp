//===- tests/pardyn_test.cpp - Parallel dynamic graph & races -------------===//
//
// Part of PPD test suite: Fig 6.1 structure, happens-before ordering,
// Defs 6.1–6.4 race detection, algorithm agreement (E5).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

ParallelDynamicGraph graphOf(const Ran &R) {
  return ParallelDynamicGraph(R.Log, R.Prog->Symbols->NumSharedVars);
}

TEST(ParallelGraphTest, NodesAndInternalEdges) {
  auto R = runProgram(R"(
sem s;
func main() {
  V(s);
  P(s);
}
)");
  auto G = graphOf(R);
  ASSERT_EQ(G.numProcs(), 1u);
  // ProcStart, V, P, ProcEnd.
  ASSERT_EQ(G.nodes(0).size(), 4u);
  EXPECT_EQ(int(G.nodes(0)[0].Kind), int(SyncKind::ProcStart));
  EXPECT_EQ(int(G.nodes(0)[1].Kind), int(SyncKind::SemSignal));
  EXPECT_EQ(int(G.nodes(0)[2].Kind), int(SyncKind::SemAcquire));
  EXPECT_EQ(int(G.nodes(0)[3].Kind), int(SyncKind::ProcEnd));
  EXPECT_EQ(G.edges(0).size(), 3u);
}

TEST(ParallelGraphTest, SameProcessVPGetsNoEdgeByConvention) {
  // §6.2.1: "we do not construct a synchronization edge ... if the V and P
  // operation are done by the same process."
  auto R = runProgram("sem s;\nfunc main() { V(s); P(s); }");
  auto G = graphOf(R);
  EXPECT_EQ(G.nodes(0)[2].PartnerSeq, NoPartner);
}

TEST(ParallelGraphTest, CrossProcessVPEdge) {
  auto R = runProgram(R"(
sem s;
chan done;
func child() { P(s); send(done, 1); }
func main() {
  spawn child();
  V(s);
  int x = recv(done);
}
)");
  auto G = graphOf(R);
  // Child's P partners main's V.
  const SyncNode *ChildP = nullptr;
  uint32_t ChildPIdx = 0;
  for (uint32_t I = 0; I != G.nodes(1).size(); ++I)
    if (G.nodes(1)[I].Kind == SyncKind::SemAcquire) {
      ChildP = &G.nodes(1)[I];
      ChildPIdx = I;
    }
  ASSERT_NE(ChildP, nullptr);
  SyncNodeRef Partner = G.partnerOf({1, ChildPIdx});
  ASSERT_TRUE(Partner.valid());
  EXPECT_EQ(Partner.Pid, 0u);
  EXPECT_EQ(int(G.node(Partner).Kind), int(SyncKind::SemSignal));
}

TEST(ParallelGraphTest, BlockingSendProducesFig61Shape) {
  // Fig 6.1: blocking send n3 (sender), receive n4, unblock n5; the
  // sender's internal edge e4 between n3 and n5 contains zero events.
  // Whether the sender actually blocks (rather than handing off to an
  // already-waiting receiver) depends on the schedule, so sweep seeds for
  // an instance where it does.
  const char *Source = R"(
chan c;
func sender() { send(c, 9); }
func main() {
  spawn sender();
  int busy = 0;
  int i = 0;
  for (i = 0; i < 20; i = i + 1) busy = busy + i;
  int v = recv(c);
  print(v + busy * 0);
}
)";
  Ran R;
  bool FoundBlockingInstance = false;
  for (uint64_t Seed = 1; Seed <= 40 && !FoundBlockingInstance; ++Seed) {
    R = runProgram(Source, Seed);
    for (const LogRecord &Rec : R.Log.Procs[1].Records)
      if (Rec.Kind == LogRecordKind::SyncEvent &&
          Rec.Sync == SyncKind::ChanSendUnblock)
        FoundBlockingInstance = true;
  }
  ASSERT_TRUE(FoundBlockingInstance)
      << "no schedule in the sweep blocked the sender";
  auto G = graphOf(R);
  // Sender (pid 1): ProcStart, ChanSend, ChanSendUnblock, ProcEnd.
  std::vector<SyncKind> Kinds;
  for (const SyncNode &N : G.nodes(1))
    Kinds.push_back(N.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<SyncKind>{SyncKind::ProcStart, SyncKind::ChanSend,
                                   SyncKind::ChanSendUnblock,
                                   SyncKind::ProcEnd}));

  // recv partners the send; unblock partners the recv.
  uint32_t RecvIdx = InvalidId;
  for (uint32_t I = 0; I != G.nodes(0).size(); ++I)
    if (G.nodes(0)[I].Kind == SyncKind::ChanRecv)
      RecvIdx = I;
  ASSERT_NE(RecvIdx, InvalidId);
  SyncNodeRef SendRef = G.partnerOf({0, RecvIdx});
  ASSERT_TRUE(SendRef.valid());
  EXPECT_EQ(int(G.node(SendRef).Kind), int(SyncKind::ChanSend));
  SyncNodeRef UnblockPartner = G.partnerOf({1, 2});
  ASSERT_TRUE(UnblockPartner.valid());
  EXPECT_EQ(UnblockPartner.Pid, 0u);
  EXPECT_EQ(UnblockPartner.Index, RecvIdx);

  // e4 (between send and unblock) carries no shared accesses.
  const InternalEdge &E4 = G.edge({1, 2});
  EXPECT_TRUE(E4.Reads.empty());
  EXPECT_TRUE(E4.Writes.empty());

  // The DOT output renders per-process clusters and dashed sync edges.
  std::string Dot = G.dot(*R.Prog->Ast);
  EXPECT_NE(Dot.find("cluster_p0"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_p1"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
}

TEST(ParallelGraphTest, HappensBeforeIsStrictPartialOrder) {
  auto R = runProgram(R"(
sem a;
sem b;
chan done;
func child() { P(a); V(b); send(done, 1); }
func main() {
  spawn child();
  V(a);
  P(b);
  int x = recv(done);
}
)");
  auto G = graphOf(R);
  std::vector<SyncNodeRef> All;
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid)
    for (uint32_t I = 0; I != G.nodes(Pid).size(); ++I)
      All.push_back({Pid, I});

  for (const SyncNodeRef &X : All) {
    EXPECT_FALSE(G.happensBefore(X, X)) << "irreflexive";
    for (const SyncNodeRef &Y : All) {
      if (G.happensBefore(X, Y)) {
        EXPECT_FALSE(G.happensBefore(Y, X)) << "antisymmetric";
      }
      for (const SyncNodeRef &Z : All)
        if (G.happensBefore(X, Y) && G.happensBefore(Y, Z)) {
          EXPECT_TRUE(G.happensBefore(X, Z)) << "transitive";
        }
    }
  }

  // Program order within a process.
  for (uint32_t Pid = 0; Pid != G.numProcs(); ++Pid)
    for (uint32_t I = 1; I < G.nodes(Pid).size(); ++I)
      EXPECT_TRUE(G.happensBefore({Pid, I - 1}, {Pid, I}));

  // Causality across the V(a) → P(a) pair.
  // main's V(a) is node 2 (ProcStart, Spawn, V); child's P(a) is node 1.
  EXPECT_TRUE(G.happensBefore({0, 2}, {1, 1}));
  EXPECT_FALSE(G.happensBefore({1, 1}, {0, 2}));
}

//===----------------------------------------------------------------------===//
// Race detection
//===----------------------------------------------------------------------===//

const char *RacyProgram = R"(
shared int sv;
chan done;
func w(int x) { sv = sv + x; send(done, 1); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
  print(sv);
}
)";

const char *SynchronizedProgram = R"(
shared int sv;
sem m = 1;
chan done;
func w(int x) { P(m); sv = sv + x; V(m); send(done, 1); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
  print(sv);
}
)";

TEST(RaceTest, UnsynchronizedWritesDetected) {
  auto R = runProgram(RacyProgram);
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detectAllPairs();
  EXPECT_FALSE(Result.raceFree());
  bool SawWriteWrite = false;
  for (const Race &Race : Result.Races) {
    EXPECT_EQ(R.Prog->Symbols->var(Race.Var).Name, "sv");
    SawWriteWrite |= Race.Kind == RaceKind::WriteWrite;
  }
  EXPECT_TRUE(SawWriteWrite);
  std::string Text = Detector.describe(Result.Races[0], *R.Prog->Ast);
  EXPECT_NE(Text.find("race on shared variable 'sv'"), std::string::npos);
}

TEST(RaceTest, MutexedProgramRaceFree) {
  for (uint64_t Seed : {1, 7, 31}) {
    auto R = runProgram(SynchronizedProgram, Seed);
    auto G = graphOf(R);
    RaceDetector Detector(G, *R.Prog->Symbols);
    EXPECT_TRUE(Detector.detectAllPairs().raceFree())
        << "seed " << Seed;
  }
}

TEST(RaceTest, ReadWriteRaceDetected) {
  auto R = runProgram(R"(
shared int sv;
chan done;
func writer() { sv = 42; send(done, 1); }
func reader() { int x = sv; send(done, x); }
func main() {
  spawn writer();
  spawn reader();
  int a = recv(done);
  int b = recv(done);
}
)");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  ASSERT_FALSE(Result.raceFree());
  EXPECT_EQ(int(Result.Races[0].Kind), int(RaceKind::ReadWrite));
}

// A failed process's last edge has no closing sync node of its own: the
// machine flushes its shared accesses as a terminal node when it freezes,
// so a write there still races with an unordered write elsewhere.
TEST(RaceTest, FailedProcessFinalEdgeStillRaces) {
  const char *Source = R"(
shared int sv;
shared int arr[2];
func worker() {
  sv = 1;
  int i = 0;
  while (i < 50) { i = i + 1; }
  sv = arr[i];
}
func main() {
  spawn worker();
  sv = 2;
}
)";
  for (uint64_t Seed : {1, 2, 3}) {
    auto R = runProgram(Source, Seed, {}, {}, /*ExpectCompleted=*/false);
    ASSERT_EQ(int(R.Result.Outcome), int(RunResult::Status::Failed));
    auto G = graphOf(R);
    RaceDetector Detector(G, *R.Prog->Symbols);
    auto Result = Detector.detectAllPairs();
    ASSERT_FALSE(Result.raceFree()) << "seed " << Seed;
    EXPECT_EQ(int(Result.Races[0].Kind), int(RaceKind::WriteWrite))
        << "seed " << Seed;
  }
}

TEST(RaceTest, OrderedAccessesAreNotRaces) {
  // The V/P ordering makes the accesses sequential, not simultaneous.
  auto R = runProgram(R"(
shared int sv;
sem ready;
chan done;
func child() { P(ready); sv = sv * 2; send(done, 1); }
func main() {
  spawn child();
  sv = 21;
  V(ready);
  int x = recv(done);
  print(sv);
}
)");
  EXPECT_EQ(R.PrintedValues, (std::vector<int64_t>{42}));
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  EXPECT_TRUE(Detector.detectAllPairs().raceFree());
}

TEST(RaceTest, AlgorithmsAgreeAndIndexExaminesFewerPairs) {
  for (const char *Source : {RacyProgram, SynchronizedProgram}) {
    for (uint64_t Seed : {1, 13}) {
      auto R = runProgram(Source, Seed);
      auto G = graphOf(R);
      RaceDetector Detector(G, *R.Prog->Symbols);
      // detect() prunes through its inverted variable index.
      auto Naive = Detector.detectAllPairs();
      auto Indexed = Detector.detect();
      EXPECT_EQ(Naive.Races.size(), Indexed.Races.size());
      for (size_t I = 0; I != Naive.Races.size(); ++I)
        EXPECT_TRUE(Naive.Races[I] == Indexed.Races[I]);
      EXPECT_LE(Indexed.PairsExamined, Naive.PairsExamined);
    }
  }
}

// Property: across seeds, the racy program always shows the race (it's a
// property of the program structure here — both workers write sv between
// independent sync points), and the mutexed one never does.
class RaceSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaceSweepTest, GroundTruthStableAcrossSchedules) {
  auto Racy = runProgram(RacyProgram, GetParam());
  auto RacyGraph = graphOf(Racy);
  RaceDetector RacyDetector(RacyGraph, *Racy.Prog->Symbols);
  EXPECT_FALSE(RacyDetector.detect().raceFree());

  auto Safe = runProgram(SynchronizedProgram, GetParam());
  auto SafeGraph = graphOf(Safe);
  RaceDetector SafeDetector(SafeGraph, *Safe.Prog->Symbols);
  EXPECT_TRUE(SafeDetector.detect().raceFree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));


TEST(RaceTest, SummaryGroupsPerIterationRaces) {
  // A loop races on the same statement pair many times; the grouped
  // summary collapses them with a count.
  auto R = runProgram(R"(
shared int sv;
sem tick;
chan done;
func writer() {
  int i = 0;
  for (i = 0; i < 10; i = i + 1) {
    sv = sv + 1;
    V(tick);
  }
  send(done, 1);
}
func reader() {
  int i = 0;
  int acc = 0;
  for (i = 0; i < 10; i = i + 1) {
    P(tick);
    acc = acc + sv;
  }
  send(done, acc);
}
func main() {
  spawn writer();
  spawn reader();
  int a = recv(done);
  int b = recv(done);
}
)");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detect();
  ASSERT_FALSE(Result.raceFree());
  std::string Summary = Detector.summarize(Result, *R.Prog->Ast);
  // Many races, few summary lines, each with an occurrence count.
  EXPECT_GT(Result.Races.size(), 3u);
  unsigned Lines = 0;
  for (char C : Summary)
    Lines += C == '\n';
  EXPECT_LT(Lines, Result.Races.size());
  EXPECT_NE(Summary.find("(x"), std::string::npos);
  EXPECT_NE(Summary.find("sv"), std::string::npos);
}

TEST(RaceTest, SummaryOfCleanInstance) {
  auto R = runProgram("func main() { print(1); }");
  auto G = graphOf(R);
  RaceDetector Detector(G, *R.Prog->Symbols);
  auto Result = Detector.detectAllPairs();
  EXPECT_NE(Detector.summarize(Result, *R.Prog->Ast).find("race-free"),
            std::string::npos);
}

} // namespace
