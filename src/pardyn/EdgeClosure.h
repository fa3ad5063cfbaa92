//===- pardyn/EdgeClosure.h - Batched happens-before closure ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched edge-ordering closure for RaceDetector::detect(). The
/// all-pairs oracle answers "are edges A and B simultaneous?" (Def 6.1) one
/// pair at a time through two vector-clock queries; this class computes
/// the whole relation up front and turns the question into a single bit
/// test.
///
/// The key structural fact: vector clocks are componentwise monotone along
/// each process's node sequence (they were computed in topological order
/// with componentwise max — the scalar form of a word-wide OR closure).
/// Hence, for a fixed edge B and a fixed other process p, the edges of p
/// ordered *before* B form a prefix of p's edge sequence, the edges
/// ordered *after* B form a suffix, and the simultaneous edges are exactly
/// the contiguous interval between them. The closure therefore reduces to
/// one [lo, hi) interval per (edge, process) pair — found by reading one
/// clock component and binary-searching another — and the per-edge
/// "simultaneous" bitset row is materialized by word-filling those
/// intervals into a flat VarSetArena.
///
/// Rows are indexed by a dense global edge id (process-major, end-node
/// order), which is also the order RaceDetector's canonical race sort
/// expects. When a trace is so large that E² bits exceed MaxRowBytes the
/// rows are skipped and callers fall back to the interval bounds, which
/// are always present and answer the same question with two compares.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PARDYN_EDGECLOSURE_H
#define PPD_PARDYN_EDGECLOSURE_H

#include "pardyn/ParallelDynamicGraph.h"
#include "support/FixedVarSet.h"

#include <cstdint>
#include <vector>

namespace ppd {

class EdgeClosure {
public:
  /// Builds the closure over every internal edge of \p Graph. Rows are
  /// materialized unless they would exceed \p MaxRowBytes.
  explicit EdgeClosure(const ParallelDynamicGraph &Graph,
                       size_t MaxRowBytes = size_t(256) << 20);

  uint32_t numEdges() const { return NumEdges; }
  uint32_t numProcs() const { return uint32_t(Base.size()); }

  /// Dense id of \p E: process-major, end-node order.
  uint32_t globalId(EdgeRef E) const { return Base[E.Pid] + E.EndNode - 1; }
  EdgeRef edgeOf(uint32_t Gid) const {
    uint32_t Pid = PidOf[Gid];
    return EdgeRef{Pid, Gid - Base[Pid] + 1};
  }

  /// Whether the bitset rows were materialized (small/medium traces).
  bool hasRows() const { return Rows.numRows() != 0; }

  /// The edges simultaneous with global edge \p Gid, one bit per global
  /// edge id. Only valid when hasRows().
  const FixedVarSet simultaneousRow(uint32_t Gid) const {
    return Rows.row(Gid);
  }

  /// Def 6.1 simultaneity as a closure query. With rows: one bit test;
  /// without: two compares against the precomputed interval bounds.
  bool simultaneous(uint32_t A, uint32_t B) const {
    if (hasRows())
      return Rows.row(A).contains(B);
    uint32_t P = PidOf[B];
    const Interval &I = Bounds[size_t(A) * Base.size() + P];
    return B >= I.Lo && B < I.Hi;
  }

  /// Wall time spent building the closure, for the E5 bench column.
  uint64_t buildNanos() const { return BuildNanos; }
  /// Row-arena footprint (0 when rows were skipped).
  size_t rowBytes() const { return Rows.bytes(); }

private:
  /// Global-id interval [Lo, Hi) of one process's edges simultaneous with
  /// one edge. Empty intervals are Lo == Hi.
  struct Interval {
    uint32_t Lo = 0;
    uint32_t Hi = 0;
  };

  std::vector<uint32_t> Base;  ///< first global id per process.
  std::vector<uint32_t> PidOf; ///< global id → process.
  /// Per (edge, process) simultaneity interval, row-major by edge.
  std::vector<Interval> Bounds;
  VarSetArena Rows; ///< one E-bit row per edge; empty when too large.
  uint32_t NumEdges = 0;
  uint64_t BuildNanos = 0;
};

} // namespace ppd

#endif // PPD_PARDYN_EDGECLOSURE_H
