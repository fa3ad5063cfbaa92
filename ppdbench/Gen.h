//===- ppdbench/Gen.h - Seeded PPL program generator ------------*- C++ -*-===//
//
// Part of the PPD end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the PPL program a workload debugs. The shape is fixed by a
/// GenSpec; the seed only picks the constants. So every seed yields a
/// program of the same size with the same calls in every process, and one
/// seed always yields the identical program.
///
/// Every worker runs `step` once per round: a compute loop of Grain
/// iterations, then one critical section that adds to `checkpoint` and to
/// one element of `cells` (the cross-process data flow flowback follows).
/// Printed values are commutative sums of per-worker private results, so
/// they do not depend on the schedule. Each planted race variable is
/// written by two workers before their first synchronization and never
/// read, so race detection must report exactly those variables.
///
//===----------------------------------------------------------------------===//

#ifndef PPDBENCH_GEN_H
#define PPDBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace ppdbench {

struct GenSpec {
  unsigned Workers = 2; ///< spawned processes (main is one more).
  unsigned Helpers = 0; ///< small functions, each called once by a worker.
  unsigned Rounds = 1;  ///< step() calls per worker.
  unsigned Grain = 1;   ///< compute iterations per round.
  unsigned Cells = 1;   ///< shared array updated under the lock.
  unsigned Races = 1;   ///< planted race variables.
};

struct GenProgram {
  std::string Source;
  /// Names of the planted race variables, sorted.
  std::vector<std::string> PlantedRaces;
};

GenProgram generateProgram(const GenSpec &Spec, uint64_t Seed);

} // namespace ppdbench

#endif // PPDBENCH_GEN_H
