//===- pardyn/RaceDetector.cpp --------------------------------------------===//
//
// Part of PPD. See RaceDetector.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/RaceDetector.h"

#include "lang/AstPrinter.h"
#include "pardyn/EdgeClosure.h"
#include "support/FixedVarSet.h"

#include <algorithm>
#include <cstring>
#include <map>

using namespace ppd;

RaceDetector::RaceDetector(const ParallelDynamicGraph &Graph,
                           const SymbolTable &Symbols)
    : Graph(Graph), Symbols(Symbols) {
  SharedToVar.assign(Symbols.NumSharedVars, InvalidId);
  for (const VarInfo &Info : Symbols.Vars)
    if (Info.SharedIndex != InvalidId)
      SharedToVar[Info.SharedIndex] = Info.Id;
  ScratchWW.reserveFor(Symbols.NumSharedVars);
  ScratchRW.reserveFor(Symbols.NumSharedVars);
  ScratchWR.reserveFor(Symbols.NumSharedVars);
}

Race RaceDetector::makeRace(EdgeRef A, EdgeRef B, uint32_t SharedIdx,
                            RaceKind Kind) const {
  // Canonical order so both detectors produce identical race lists.
  if (B.Pid < A.Pid || (B.Pid == A.Pid && B.EndNode < A.EndNode))
    std::swap(A, B);
  Race R;
  R.SharedIdx = SharedIdx;
  R.Var = SharedToVar[SharedIdx];
  R.First = A;
  R.Second = B;
  R.Kind = Kind;
  return R;
}

void RaceDetector::classifyPair(EdgeRef A, EdgeRef B,
                                std::vector<Race> &Out) const {
  const InternalEdge &EA = Graph.edge(A);
  const InternalEdge &EB = Graph.edge(B);

  // Fused pretest: most simultaneous pairs don't conflict at all; one
  // early-exit pass over (W_A ∪ R_A) ∩ ... words rejects them before the
  // three classifying intersections below.
  if (!EA.Writes.intersectsAny(EB.Writes, EB.Reads) &&
      !EB.Writes.intersects(EA.Reads))
    return;

  // Def 6.3: write/write and read/write conflicts per shared variable.
  // The scratch members are sized to the shared universe once, so these
  // assignments reuse capacity instead of allocating three sets per pair.
  BitVarSet &WW = ScratchWW;
  WW.assignIntersection(EA.Writes, EB.Writes);
  WW.forEach([&](unsigned S) {
    Out.push_back(makeRace(A, B, S, RaceKind::WriteWrite));
  });

  BitVarSet &RW = ScratchRW;
  RW.assignIntersection(EA.Reads, EB.Writes);
  RW.forEach([&](unsigned S) {
    if (!WW.contains(S))
      Out.push_back(makeRace(A, B, S, RaceKind::ReadWrite));
  });

  BitVarSet &WR = ScratchWR;
  WR.assignIntersection(EA.Writes, EB.Reads);
  WR.forEach([&](unsigned S) {
    if (!WW.contains(S) && !RW.contains(S))
      Out.push_back(makeRace(A, B, S, RaceKind::ReadWrite));
  });
}

void RaceDetector::canonicalize(RaceDetectionResult &Result) {
  // Canonical result order, independent of discovery order — this is what
  // makes the two detectors' race lists byte-comparable.
  std::sort(Result.Races.begin(), Result.Races.end(),
            [](const Race &A, const Race &B) {
              auto KeyOf = [](const Race &R) {
                return std::make_tuple(R.SharedIdx, R.First.Pid,
                                       R.First.EndNode, R.Second.Pid,
                                       R.Second.EndNode, uint8_t(R.Kind));
              };
              return KeyOf(A) < KeyOf(B);
            });
  Result.Races.erase(std::unique(Result.Races.begin(), Result.Races.end()),
                     Result.Races.end());
}

RaceDetectionResult RaceDetector::detectAllPairs() const {
  RaceDetectionResult Result;
  std::vector<EdgeRef> All = Graph.allEdges();
  for (size_t I = 0; I != All.size(); ++I) {
    for (size_t J = I + 1; J != All.size(); ++J) {
      if (All[I].Pid == All[J].Pid)
        continue;
      ++Result.PairsExamined;
      if (!Graph.simultaneous(All[I], All[J]))
        continue;
      classifyPair(All[I], All[J], Result.Races);
    }
  }
  canonicalize(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// detect(): batched closure + inverted index + SIMD sweep.
//===----------------------------------------------------------------------===//

RaceDetectionResult RaceDetector::detect() const {
  RaceDetectionResult Result;
  const uint32_t NumShared = uint32_t(SharedToVar.size());

  // Layer 2: the batched happens-before closure — simultaneity becomes a
  // bit test (or two compares on row-less giant traces).
  EdgeClosure Closure(Graph);
  Result.ClosureBuildNs = Closure.buildNanos();
  const uint32_t E = Closure.numEdges();
  if (E == 0 || NumShared == 0)
    return Result;

  // Layer 1: all per-edge READ/WRITE sets in one flat, universe-width
  // arena (row 2g = reads of edge g, row 2g+1 = writes), memcpy'd from
  // the graph's BitVarSets — the sweep below never touches a
  // grow-on-demand set again.
  VarSetArena Sets(E * 2, NumShared);
  const uint32_t SetWords = Sets.wordsPerRow();
  // Inverted index: shared var → writer edges / reader-only edges, in
  // ascending global-id order (the construction below guarantees it).
  std::vector<std::vector<uint32_t>> WritersOf(NumShared);
  std::vector<std::vector<uint32_t>> ReadersOf(NumShared);
  for (uint32_t Gid = 0; Gid != E; ++Gid) {
    const InternalEdge &Edge = Graph.edge(Closure.edgeOf(Gid));
    FixedVarSet R = Sets.row(2 * Gid);
    FixedVarSet W = Sets.row(2 * Gid + 1);
    if (size_t N = std::min<size_t>(Edge.Reads.numWords(), SetWords))
      std::memcpy(R.words(), Edge.Reads.wordsData(), N * sizeof(uint64_t));
    if (size_t N = std::min<size_t>(Edge.Writes.numWords(), SetWords))
      std::memcpy(W.words(), Edge.Writes.wordsData(), N * sizeof(uint64_t));
    W.forEach([&](unsigned S) { WritersOf[S].push_back(Gid); });
    // Readers that also write S classify as write/write there; keeping
    // them out of the reader list is what makes the sweep emit each
    // conflict exactly once with the same kind detectAllPairs() picks.
    R.forEach([&](unsigned S) {
      if (!W.contains(S))
        ReadersOf[S].push_back(Gid);
    });
  }

  // Layer 3: the per-variable sweep. Candidate pairs come from row ∧ mask
  // (rows present) or a bounds-tested pairwise loop (giant traces). The
  // candidate and mask rows span the edge universe and are reused across
  // variables.
  VarSetArena Scratch(2, E);
  FixedVarSet Mask = Scratch.row(0);
  FixedVarSet Cand = Scratch.row(1);
  std::vector<Race> &Out = Result.Races;
  for (uint32_t S = 0; S != NumShared; ++S) {
    const std::vector<uint32_t> &Ws = WritersOf[S];
    if (Ws.empty())
      continue;
    const std::vector<uint32_t> &Rs = ReadersOf[S];
    Result.PairsExamined += uint64_t(Ws.size()) * (Ws.size() - 1) / 2 +
                            uint64_t(Ws.size()) * Rs.size();
    if (!Closure.hasRows()) {
      for (size_t I = 0; I != Ws.size(); ++I)
        for (size_t J = I + 1; J != Ws.size(); ++J)
          if (Closure.simultaneous(Ws[I], Ws[J]))
            Out.push_back(makeRace(Closure.edgeOf(Ws[I]),
                                   Closure.edgeOf(Ws[J]), S,
                                   RaceKind::WriteWrite));
      for (uint32_t W : Ws)
        for (uint32_t R : Rs)
          if (Closure.simultaneous(W, R))
            Out.push_back(makeRace(Closure.edgeOf(W), Closure.edgeOf(R), S,
                                   RaceKind::ReadWrite));
      continue;
    }
    // Write/write: partners above the current writer only, so each
    // unordered pair surfaces exactly once.
    if (Ws.size() > 1) {
      Mask.clear();
      for (uint32_t G : Ws)
        Mask.insert(G);
      for (size_t I = 0; I + 1 != Ws.size(); ++I) {
        uint32_t A = Ws[I];
        Cand.assignIntersection(Closure.simultaneousRow(A), Mask);
        Cand.forEachFrom(A + 1, [&](unsigned B) {
          Out.push_back(makeRace(Closure.edgeOf(A), Closure.edgeOf(B), S,
                                 RaceKind::WriteWrite));
        });
      }
    }
    // Read/write: reader side never writes S, so (writer, reader) pairs
    // are unique without ordering tricks.
    if (!Rs.empty()) {
      Mask.clear();
      for (uint32_t G : Rs)
        Mask.insert(G);
      for (uint32_t A : Ws) {
        Cand.assignIntersection(Closure.simultaneousRow(A), Mask);
        Cand.forEach([&](unsigned B) {
          Out.push_back(makeRace(Closure.edgeOf(A), Closure.edgeOf(B), S,
                                 RaceKind::ReadWrite));
        });
      }
    }
  }

  canonicalize(Result);
  return Result;
}

std::string RaceDetector::describe(const Race &R, const Program &P) const {
  std::string Out = R.Kind == RaceKind::WriteWrite ? "write/write"
                                                   : "read/write";
  Out += " race on shared variable '";
  Out += Symbols.var(R.Var).Name;
  Out += "' between process " + std::to_string(R.First.Pid);
  const SyncNode &N1 = Graph.node({R.First.Pid, R.First.EndNode});
  if (N1.Stmt < P.numStmts())
    Out += " (edge ending at " + AstPrinter::summarize(*P.stmt(N1.Stmt)) +
           ")";
  Out += " and process " + std::to_string(R.Second.Pid);
  const SyncNode &N2 = Graph.node({R.Second.Pid, R.Second.EndNode});
  if (N2.Stmt < P.numStmts())
    Out += " (edge ending at " + AstPrinter::summarize(*P.stmt(N2.Stmt)) +
           ")";
  return Out;
}

std::string RaceDetector::summarize(const RaceDetectionResult &Result,
                                    const Program &P) const {
  if (Result.raceFree())
    return "race-free execution instance (Def 6.4)\n";

  // Group by (variable, kind, the statements ending the two edges): the
  // many per-iteration edges of a loop collapse into one line.
  std::map<std::tuple<VarId, uint8_t, StmtId, StmtId>, unsigned> Groups;
  for (const Race &R : Result.Races) {
    StmtId S1 = Graph.node({R.First.Pid, R.First.EndNode}).Stmt;
    StmtId S2 = Graph.node({R.Second.Pid, R.Second.EndNode}).Stmt;
    if (S2 < S1)
      std::swap(S1, S2);
    ++Groups[{R.Var, uint8_t(R.Kind), S1, S2}];
  }

  std::string Out;
  for (const auto &[Key, Count] : Groups) {
    const auto &[Var, Kind, S1, S2] = Key;
    Out += RaceKind(Kind) == RaceKind::WriteWrite ? "write/write"
                                                  : "read/write";
    Out += " race on shared variable '" + Symbols.var(Var).Name + "'";
    if (S1 < P.numStmts())
      Out += " near " + AstPrinter::summarize(*P.stmt(S1));
    if (S2 < P.numStmts() && S2 != S1)
      Out += " / " + AstPrinter::summarize(*P.stmt(S2));
    Out += "  (x" + std::to_string(Count) + ")\n";
  }
  return Out;
}
