//===- pardyn/RaceDetector.h - §6.4 race detection --------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Race detection over the parallel dynamic graph, Defs 6.1–6.4: two
/// *simultaneous* internal edges (neither ordered before the other) race
/// when their shared READ/WRITE sets exhibit a read/write or write/write
/// conflict; an execution instance is race-free iff no pair of
/// simultaneous edges races. Race-freedom of the instance is what
/// validates the prelogs/unit logs for replay (§5.5).
///
/// One detector, detect(), answers §7's remark that "the problem of
/// finding all pairs of possible conflicting edges is more expensive ...
/// we are currently investigating algorithms to reduce the cost": per-edge
/// simultaneity bitset rows from the batched happens-before closure
/// (EdgeClosure.h), an inverted shared-var → writer/reader-edge index,
/// and SIMD word kernels (support/Simd.h) enumerating conflicting
/// partners by row ∧ mask. Its PairsExamined counts the candidate
/// (pair, variable) combinations those masks enumerate.
///
/// detectAllPairs() is the specification oracle: Defs 6.1–6.4 applied
/// literally to every pair of edges from different processes
/// (PairsExamined counts those pairs). The tests, the fuzzer's oracle
/// matrix and bench_race_detection (experiment E5) hold detect() to its
/// race list byte-for-byte.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PARDYN_RACEDETECTOR_H
#define PPD_PARDYN_RACEDETECTOR_H

#include "pardyn/ParallelDynamicGraph.h"
#include "sema/Symbols.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppd {

enum class RaceKind : uint8_t { WriteWrite, ReadWrite };

struct Race {
  uint32_t SharedIdx = 0; ///< dense shared-variable index.
  VarId Var = InvalidId;  ///< the shared variable.
  EdgeRef First;          ///< canonical order: lower pid first.
  EdgeRef Second;
  RaceKind Kind = RaceKind::WriteWrite;

  friend bool operator==(const Race &A, const Race &B) {
    return A.SharedIdx == B.SharedIdx && A.First == B.First &&
           A.Second == B.Second && A.Kind == B.Kind;
  }
};

struct RaceDetectionResult {
  std::vector<Race> Races;
  /// Candidate combinations whose ordering was actually tested — the cost
  /// driver §7 worries about. Per-detector semantics (see file comment).
  uint64_t PairsExamined = 0;
  /// detect() only: wall time spent building the happens-before closure
  /// rows (the E5 "closure build" column).
  uint64_t ClosureBuildNs = 0;

  bool raceFree() const { return Races.empty(); } // Def 6.4
};

class RaceDetector {
public:
  RaceDetector(const ParallelDynamicGraph &Graph, const SymbolTable &Symbols);

  /// Runs one detection pass on the calling thread.
  RaceDetectionResult detect() const;

  /// The specification oracle: every cross-process pair, ordered through
  /// the graph and classified per Def 6.3. Not safe to call concurrently
  /// on one detector instance: it classifies pairs through member scratch
  /// sets (which is what keeps it allocation-free per pair).
  RaceDetectionResult detectAllPairs() const;

  /// Human-readable description naming the variable and both edges.
  std::string describe(const Race &R, const Program &P) const;

  /// Grouped report: races collapsed by (variable, kind, the two ending
  /// statements), with occurrence counts — loops otherwise repeat the
  /// same conflict once per iteration's edge.
  std::string summarize(const RaceDetectionResult &Result,
                        const Program &P) const;

private:
  void classifyPair(EdgeRef A, EdgeRef B, std::vector<Race> &Out) const;
  Race makeRace(EdgeRef A, EdgeRef B, uint32_t SharedIdx,
                RaceKind Kind) const;
  static void canonicalize(RaceDetectionResult &Result);

  const ParallelDynamicGraph &Graph;
  const SymbolTable &Symbols;
  std::vector<VarId> SharedToVar; ///< SharedIndex → VarId.
  /// Per-pair classification scratch, sized once to the shared-var
  /// universe so classifyPair never allocates (it used to copy three
  /// BitVarSets per pair). Mutable: detect() is logically const.
  mutable BitVarSet ScratchWW, ScratchRW, ScratchWR;
};

} // namespace ppd

#endif // PPD_PARDYN_RACEDETECTOR_H
