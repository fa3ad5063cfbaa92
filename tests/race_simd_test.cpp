//===- tests/race_simd_test.cpp - Vectorized race tier differentials ------===//
//
// Part of PPD test suite.
//
// RaceDetector::detect() (SIMD set kernels + batched happens-before
// closure) must produce byte-identical race lists to the all-pairs
// specification oracle on every input: the examples/ corpus, a fuzz sweep
// of generated programs, every SIMD dispatch level the host can run
// (including the forced portable fallback), and the rowless closure
// fallback for oversized traces. This suite asserts all of that, plus the
// closure's simultaneity answers against the vector-clock oracle and the
// SIMD kernels against their portable reference.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pardyn/EdgeClosure.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"
#include "support/Simd.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace ppd;
using namespace ppd::test;
using ppd::testing::GenProgram;
using ppd::testing::generateProgram;

namespace {

/// Restores the host-detected dispatch level when a test that forced one
/// exits (including via an assertion failure).
struct ScopedSimdLevel {
  explicit ScopedSimdLevel(simd::Level L) { simd::forceLevel(L); }
  ~ScopedSimdLevel() { simd::forceLevel(simd::detectedLevel()); }
};

std::string readCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(PPD_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open corpus file " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string describeRace(const Race &R) {
  std::ostringstream Out;
  Out << "s" << R.SharedIdx << " p" << R.First.Pid << "e" << R.First.EndNode
      << "/p" << R.Second.Pid << "e" << R.Second.EndNode << " "
      << (R.Kind == RaceKind::WriteWrite ? "WW" : "RW");
  return Out.str();
}

/// detect() and the all-pairs oracle over one execution instance must
/// agree element-for-element; returns the (canonical) race list.
std::vector<Race> expectAgreement(const ExecutionLog &Log,
                                  const SymbolTable &Symbols,
                                  const std::string &Label) {
  ParallelDynamicGraph Graph(Log, Symbols.NumSharedVars);
  RaceDetector Detector(Graph, Symbols);
  RaceDetectionResult Naive = Detector.detectAllPairs();
  RaceDetectionResult Vec = Detector.detect();
  EXPECT_EQ(Naive.Races.size(), Vec.Races.size()) << Label;
  size_t N = std::min(Naive.Races.size(), Vec.Races.size());
  for (size_t I = 0; I != N; ++I)
    EXPECT_TRUE(Naive.Races[I] == Vec.Races[I])
        << Label << " race " << I << ": all-pairs "
        << describeRace(Naive.Races[I]) << " vs detect "
        << describeRace(Vec.Races[I]);
  return Naive.Races;
}

//===----------------------------------------------------------------------===//
// SIMD kernels: every runnable level against the portable reference.
//===----------------------------------------------------------------------===//

TEST(SimdKernelTest, AllLevelsMatchPortableReference) {
  std::mt19937_64 Rng(0x5eed);
  std::vector<simd::Level> Levels = {simd::Level::Portable,
                                     simd::detectedLevel()};
#if defined(__x86_64__)
  // An AVX2 host can also run the SSE2 bodies; exercise them too.
  if (simd::detectedLevel() == simd::Level::AVX2)
    Levels.push_back(simd::Level::SSE2);
#endif
  // Widths straddle every vector-stride boundary (AVX2 does 8-word then
  // 4-word strides, SSE2 2-word, portable 4-word unrolled).
  for (size_t Words : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
    std::vector<uint64_t> A(Words), B(Words);
    for (int Trial = 0; Trial != 8; ++Trial) {
      for (size_t I = 0; I != Words; ++I) {
        // Mix dense, sparse, and zero words so the early-exit paths and
        // the all-zero case both occur.
        A[I] = Trial % 3 == 0 ? Rng() : Rng() & Rng() & Rng();
        B[I] = Trial % 2 == 0 ? Rng() : Rng() & Rng() & Rng();
        if (Trial == 5)
          B[I] = ~A[I]; // disjoint: intersects must say false.
      }
      ScopedSimdLevel Force(simd::Level::Portable);
      bool RefNonEmpty = simd::intersectsNonEmpty(A.data(), B.data(), Words);
      uint64_t RefPop = simd::popcountWords(A.data(), Words);
      std::vector<uint64_t> RefAnd(Words), RefOr(A);
      simd::intersectInto(RefAnd.data(), A.data(), B.data(), Words);
      simd::orInto(RefOr.data(), B.data(), Words);

      for (simd::Level L : Levels) {
        simd::forceLevel(L);
        if (simd::activeLevel() != L)
          continue; // clamped: the build lacks this level's bodies.
        EXPECT_EQ(simd::intersectsNonEmpty(A.data(), B.data(), Words),
                  RefNonEmpty)
            << simd::levelName(L) << " words=" << Words;
        EXPECT_EQ(simd::popcountWords(A.data(), Words), RefPop)
            << simd::levelName(L) << " words=" << Words;
        std::vector<uint64_t> And(Words), Or(A);
        simd::intersectInto(And.data(), A.data(), B.data(), Words);
        simd::orInto(Or.data(), B.data(), Words);
        EXPECT_EQ(And, RefAnd) << simd::levelName(L) << " words=" << Words;
        EXPECT_EQ(Or, RefOr) << simd::levelName(L) << " words=" << Words;
      }
    }
  }
}

TEST(SimdKernelTest, ForceLevelClampsUnrunnableLevels) {
  ScopedSimdLevel Restore(simd::detectedLevel());
#if defined(__x86_64__)
  simd::forceLevel(simd::Level::NEON); // wrong architecture entirely.
#else
  simd::forceLevel(simd::Level::AVX2);
#endif
  EXPECT_EQ(int(simd::activeLevel()), int(simd::Level::Portable));
  simd::forceLevel(simd::Level::Portable);
  EXPECT_EQ(int(simd::activeLevel()), int(simd::Level::Portable));
}

//===----------------------------------------------------------------------===//
// EdgeClosure: bit rows and interval bounds against the vector-clock
// oracle.
//===----------------------------------------------------------------------===//

TEST(EdgeClosureTest, MatchesVectorClockOracle) {
  // Racy generated programs give graphs with real concurrency; sweep a
  // few seeds so different interleavings are covered.
  for (uint64_t Seed : {2u, 7u, 11u, 23u, 40u}) {
    GenProgram Gen = generateProgram(Seed);
    MachineOptions MOpts;
    MOpts.Quantum = Gen.Quantum;
    Ran R = runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                       /*ExpectCompleted=*/false);
    if (!R.Prog)
      continue;
    ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
    std::vector<EdgeRef> Edges = Graph.allEdges();
    // Rows materialized (default cap) and the rowless interval fallback
    // must both reproduce Def 6.1 exactly.
    EdgeClosure WithRows(Graph);
    EdgeClosure Rowless(Graph, /*MaxRowBytes=*/0);
    EXPECT_FALSE(Rowless.hasRows());
    for (EdgeRef A : Edges)
      for (EdgeRef B : Edges) {
        bool Oracle = Graph.simultaneous(A, B);
        uint32_t Ga = WithRows.globalId(A), Gb = WithRows.globalId(B);
        EXPECT_EQ(WithRows.simultaneous(Ga, Gb), Oracle)
            << "seed " << Seed << " rows: p" << A.Pid << "e" << A.EndNode
            << " vs p" << B.Pid << "e" << B.EndNode;
        EXPECT_EQ(Rowless.simultaneous(Ga, Gb), Oracle)
            << "seed " << Seed << " bounds: p" << A.Pid << "e" << A.EndNode
            << " vs p" << B.Pid << "e" << B.EndNode;
        EXPECT_EQ(WithRows.edgeOf(Ga), A);
      }
  }
}

//===----------------------------------------------------------------------===//
// Differential: corpus programs.
//===----------------------------------------------------------------------===//

TEST(RaceSimdDifferentialTest, ExamplesCorpus) {
  // Every shipped example, including the deliberately racy one; crash and
  // deadlock programs don't complete, which is fine — races are detected
  // over whatever log the run produced.
  const char *const Corpus[] = {
      "bank_race.ppl", "bounded_buffer.ppl", "crash.ppl",
      "deadlock.ppl",  "fig41.ppl",
  };
  bool SawRace = false;
  for (const char *Name : Corpus) {
    std::string Source = readCorpusFile(Name);
    for (uint64_t Seed : {1u, 5u, 9u}) {
      Ran R = runProgram(Source, Seed, {}, {}, /*ExpectCompleted=*/false);
      ASSERT_TRUE(R.Prog) << Name;
      std::string Label = std::string(Name) + " seed " + std::to_string(Seed);
      SawRace |= !expectAgreement(R.Log, *R.Prog->Symbols, Label).empty();
    }
  }
  // The corpus includes bank_race.ppl: at least one instance must race,
  // otherwise this differential is vacuous.
  EXPECT_TRUE(SawRace) << "no corpus instance raced; differential is vacuous";
}

//===----------------------------------------------------------------------===//
// Differential: generated-program fuzz sweep.
//===----------------------------------------------------------------------===//

TEST(RaceSimdDifferentialTest, FuzzSweep) {
  // 16 seeds spanning the generator's profiles (racy, sync-heavy,
  // channels, ...). Each runs with its derived schedule seed and quantum.
  unsigned Raced = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    GenProgram Gen = generateProgram(Seed);
    MachineOptions MOpts;
    MOpts.Quantum = Gen.Quantum;
    Ran R = runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                       /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    std::string Label = "gen seed " + std::to_string(Seed);
    Raced += !expectAgreement(R.Log, *R.Prog->Symbols, Label).empty();
  }
  EXPECT_GT(Raced, 0u) << "no generated instance raced; sweep is vacuous";
}

TEST(RaceSimdDifferentialTest, PortableFallbackAgrees) {
  // Force the portable kernels and re-run the differential: the dispatch
  // level must never change the race list.
  ScopedSimdLevel Force(simd::Level::Portable);
  ASSERT_EQ(int(simd::activeLevel()), int(simd::Level::Portable));
  for (uint64_t Seed : {2u, 3u, 7u, 13u}) {
    GenProgram Gen = generateProgram(Seed);
    MachineOptions MOpts;
    MOpts.Quantum = Gen.Quantum;
    Ran R = runProgram(Gen.render(), Gen.SchedSeed, MOpts, {},
                       /*ExpectCompleted=*/false);
    ASSERT_TRUE(R.Prog) << "seed " << Seed;
    expectAgreement(R.Log, *R.Prog->Symbols,
                    "portable gen seed " + std::to_string(Seed));
  }
}

TEST(RaceSimdDifferentialTest, RepeatedDetectIsIdempotent) {
  // The detector reuses member scratch between calls; repeated detection
  // on one instance must not be contaminated by earlier passes.
  std::string Source = readCorpusFile("bank_race.ppl");
  Ran R = runProgram(Source, 1, {}, {}, /*ExpectCompleted=*/false);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  RaceDetector Detector(Graph, *R.Prog->Symbols);
  RaceDetectionResult First = Detector.detect();
  for (bool AllPairs : {true, false, true, false}) {
    RaceDetectionResult Again =
        AllPairs ? Detector.detectAllPairs() : Detector.detect();
    const char *Name = AllPairs ? "all-pairs" : "detect";
    ASSERT_EQ(First.Races.size(), Again.Races.size()) << Name;
    for (size_t I = 0; I != First.Races.size(); ++I)
      EXPECT_TRUE(First.Races[I] == Again.Races[I]) << Name << " race " << I;
  }
}

TEST(RaceSimdDifferentialTest, RowlessSweepMatchesPairwiseOracle) {
  // Two workers each run 15k P/V rounds, so the graph has more than
  // 46,341 internal edges and its E² closure bits exceed the 256 MiB row
  // cap: detect() has to take the row-less sweep. Every 1000th round
  // writes the shared counter outside the critical section. Each worker
  // locks its own semaphore, so nothing orders one worker's writes
  // against the other's and all of them race; with one shared semaphore
  // the token passing would order every pair but those within a round of
  // each other, and whether any race showed would depend on the schedule.
  const std::string Source = R"(
shared int g;
sem s1 = 1;
sem s2 = 1;
sem done;
func worker(int id) {
  int i = 0;
  for (i = 0; i < 15000; i = i + 1) {
    if (id == 1) { P(s1); V(s1); } else { P(s2); V(s2); }
    if (i % 1000 == 0) g = g + id;
  }
  V(done);
}
func main() {
  spawn worker(1);
  spawn worker(2);
  P(done);
  P(done);
  print(g);
}
)";
  Ran R = runProgram(Source, 3);
  ASSERT_TRUE(R.Prog);
  ParallelDynamicGraph Graph(R.Log, R.Prog->Symbols->NumSharedVars);
  ASSERT_FALSE(EdgeClosure(Graph).hasRows())
      << "the trace fits the row cap; the row-less sweep is not reached";

  // All-pairs over every edge would be ~2·10⁹ pairs; only the edges that
  // touch a shared variable can race, so the oracle pairs just those,
  // ordering them with the graph's own simultaneity test (Def 6.1) and
  // classifying them per Def 6.3.
  using Key = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                         uint8_t>;
  std::vector<EdgeRef> Touching;
  for (EdgeRef E : Graph.allEdges())
    if (!Graph.edge(E).Reads.empty() || !Graph.edge(E).Writes.empty())
      Touching.push_back(E);
  std::vector<Key> Expected;
  for (size_t I = 0; I != Touching.size(); ++I)
    for (size_t J = I + 1; J != Touching.size(); ++J) {
      EdgeRef A = Touching[I], B = Touching[J];
      if (A.Pid == B.Pid || !Graph.simultaneous(A, B))
        continue;
      if (B.Pid < A.Pid)
        std::swap(A, B);
      const InternalEdge &EA = Graph.edge(A), &EB = Graph.edge(B);
      for (unsigned S = 0; S != R.Prog->Symbols->NumSharedVars; ++S) {
        bool AW = EA.Writes.contains(S), BW = EB.Writes.contains(S);
        bool AR = EA.Reads.contains(S), BR = EB.Reads.contains(S);
        if (AW && BW)
          Expected.push_back({S, A.Pid, A.EndNode, B.Pid, B.EndNode,
                              uint8_t(RaceKind::WriteWrite)});
        else if ((AR && BW) || (AW && BR))
          Expected.push_back({S, A.Pid, A.EndNode, B.Pid, B.EndNode,
                              uint8_t(RaceKind::ReadWrite)});
      }
    }
  std::sort(Expected.begin(), Expected.end());

  RaceDetector Detector(Graph, *R.Prog->Symbols);
  RaceDetectionResult Result = Detector.detect();
  std::vector<Key> Got;
  for (const Race &Rc : Result.Races)
    Got.push_back({Rc.SharedIdx, Rc.First.Pid, Rc.First.EndNode,
                   Rc.Second.Pid, Rc.Second.EndNode, uint8_t(Rc.Kind)});
  EXPECT_FALSE(Expected.empty()) << "no race on g; the check is vacuous";
  EXPECT_EQ(Got, Expected);
}

} // namespace
