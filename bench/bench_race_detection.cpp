//===- bench/bench_race_detection.cpp - Experiments E4/E5 -----------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// E4: race detection over the parallel dynamic graph (Defs 6.1–6.4) —
// detection itself and its scaling with the number of internal edges.
//
// E5 reproduces §7's closing concern:
//
//   "The problem of finding all pairs of possible conflicting edges is
//    more expensive. We are currently investigating algorithms to reduce
//    the cost of detecting these conflicts."
//
// `naive_*` is the all-pairs specification oracle (detectAllPairs);
// `vectorized_*` is the detector PPD runs (detect: SIMD kernels + batched
// happens-before closure). Both must report identical races (asserted by
// tests); the PairsExamined counter shows the pruning, Pairs/s the
// throughput gap, and ClosureBuildMs detect()'s up-front cost.
//
//===----------------------------------------------------------------------===//

#include "BenchPrograms.h"

#include "pardyn/RaceDetector.h"
#include "vm/Machine.h"

#include <benchmark/benchmark.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

/// N workers, each doing R rounds over V shared variables; Protected
/// selects mutexed or racy access.
std::string raceWorkload(unsigned Workers, unsigned Rounds, unsigned Vars,
                         bool Protected) {
  std::string Source;
  for (unsigned V = 0; V != Vars; ++V)
    Source += "shared int g" + std::to_string(V) + ";\n";
  Source += "sem lock = 1;\nsem done;\n";
  Source += "func worker(int id) {\n  int i = 0;\n";
  Source += "  for (i = 0; i < " + std::to_string(Rounds) +
            "; i = i + 1) {\n";
  if (Protected)
    Source += "    P(lock);\n";
  else
    Source += "    P(lock);\n    V(lock);\n"; // sync points without
                                              // protection: racy edges
  for (unsigned V = 0; V != Vars; ++V)
    Source += "    g" + std::to_string(V) + " = g" + std::to_string(V) +
              " + id;\n";
  if (Protected)
    Source += "    V(lock);\n";
  Source += "  }\n  V(done);\n}\n";
  Source += "func main() {\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  spawn worker(" + std::to_string(W + 1) + ");\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  P(done);\n";
  Source += "  print(g0);\n}\n";
  return Source;
}

/// Sparse sharing: each worker has a private shared variable and touches a
/// common one only rarely — the shape where few edge pairs share a
/// variable, so detect()'s up-front closure build dominates its cost.
std::string sparseWorkload(unsigned Workers, unsigned Rounds) {
  std::string Source = "shared int common;\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "shared int own" + std::to_string(W) + ";\n";
  Source += "sem lock = 1;\nsem done;\n";
  for (unsigned W = 0; W != Workers; ++W) {
    std::string Own = "own" + std::to_string(W);
    Source += "func worker" + std::to_string(W) + "() {\n  int i = 0;\n";
    Source += "  for (i = 0; i < " + std::to_string(Rounds) +
              "; i = i + 1) {\n";
    Source += "    P(lock);\n    V(lock);\n"; // sync points, no protection
    Source += "    " + Own + " = " + Own + " + i;\n";
    Source += "    if (i % 16 == 0) common = common + 1;\n";
    Source += "  }\n  V(done);\n}\n";
  }
  Source += "func main() {\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  spawn worker" + std::to_string(W) + "();\n";
  for (unsigned W = 0; W != Workers; ++W)
    Source += "  P(done);\n";
  Source += "  print(common);\n}\n";
  return Source;
}

struct Prepared {
  std::unique_ptr<CompiledProgram> Prog;
  std::unique_ptr<ParallelDynamicGraph> Graph;
};

Prepared prepareSource(const std::string &Source) {
  Prepared Out;
  Out.Prog = mustCompile(Source);
  MachineOptions MOpts;
  MOpts.Seed = 11;
  Machine M(*Out.Prog, MOpts);
  M.run();
  Out.Graph = std::make_unique<ParallelDynamicGraph>(
      M.log(), Out.Prog->Symbols->NumSharedVars);
  return Out;
}

Prepared prepare(unsigned Workers, unsigned Rounds, bool Protected) {
  Prepared Out;
  Out.Prog = mustCompile(raceWorkload(Workers, Rounds, 4, Protected));
  MachineOptions MOpts;
  MOpts.Seed = 11;
  Machine M(*Out.Prog, MOpts);
  M.run();
  Out.Graph = std::make_unique<ParallelDynamicGraph>(
      M.log(), Out.Prog->Symbols->NumSharedVars);
  return Out;
}

void detectOn(benchmark::State &State, const Prepared &P, bool AllPairs) {
  RaceDetector Detector(*P.Graph, *P.Prog->Symbols);

  uint64_t Pairs = 0;
  uint64_t ClosureNs = 0;
  size_t Races = 0;
  unsigned Edges = 0;
  for (uint32_t Pid = 0; Pid != P.Graph->numProcs(); ++Pid)
    Edges += P.Graph->edges(Pid).size();
  for (auto _ : State) {
    auto Result = AllPairs ? Detector.detectAllPairs() : Detector.detect();
    benchmark::DoNotOptimize(Result.Races.size());
    Pairs = Result.PairsExamined;
    Races = Result.Races.size();
    ClosureNs = Result.ClosureBuildNs;
  }
  State.counters["Edges"] = double(Edges);
  State.counters["PairsExamined"] = double(Pairs);
  State.counters["Races"] = double(Races);
  // The E5 throughput column: candidate combinations tested per second.
  // Comparable across the two detectors only on identical workloads — they
  // count different candidate universes (see RaceDetector.h).
  State.counters["Pairs/s"] = benchmark::Counter(
      double(Pairs), benchmark::Counter::kIsIterationInvariantRate);
  if (!AllPairs)
    State.counters["ClosureBuildMs"] = double(ClosureNs) / 1e6;
}

void naive_racy(benchmark::State &State) {
  auto P = prepare(unsigned(State.range(0)), unsigned(State.range(1)),
                   false);
  detectOn(State, P, /*AllPairs=*/true);
}
void naive_racefree(benchmark::State &State) {
  auto P = prepare(unsigned(State.range(0)), unsigned(State.range(1)),
                   true);
  detectOn(State, P, /*AllPairs=*/true);
}
void naive_sparse(benchmark::State &State) {
  auto P = prepareSource(
      sparseWorkload(unsigned(State.range(0)), unsigned(State.range(1))));
  detectOn(State, P, /*AllPairs=*/true);
}
void vectorized_racy(benchmark::State &State) {
  auto P = prepare(unsigned(State.range(0)), unsigned(State.range(1)),
                   false);
  detectOn(State, P, /*AllPairs=*/false);
}
void vectorized_racefree(benchmark::State &State) {
  auto P = prepare(unsigned(State.range(0)), unsigned(State.range(1)),
                   true);
  detectOn(State, P, /*AllPairs=*/false);
}
void vectorized_sparse(benchmark::State &State) {
  auto P = prepareSource(
      sparseWorkload(unsigned(State.range(0)), unsigned(State.range(1))));
  detectOn(State, P, /*AllPairs=*/false);
}

} // namespace

// Args: {workers, rounds per worker}.
#define RACE_ARGS ->Args({2, 8})->Args({4, 8})->Args({4, 32})->Args({8, 32})

BENCHMARK(naive_racy) RACE_ARGS;
BENCHMARK(vectorized_racy) RACE_ARGS;
BENCHMARK(naive_racefree) RACE_ARGS;
BENCHMARK(vectorized_racefree) RACE_ARGS;
BENCHMARK(naive_sparse) RACE_ARGS;
BENCHMARK(vectorized_sparse) RACE_ARGS;

BENCHMARK_MAIN();
