//===- pardyn/ParallelDynamicGraph.cpp ------------------------------------===//
//
// Part of PPD. See ParallelDynamicGraph.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/ParallelDynamicGraph.h"

#include "lang/Ast.h"
#include "lang/AstPrinter.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

ParallelDynamicGraph::ParallelDynamicGraph(unsigned NumSharedVars,
                                           uint32_t NumProcs)
    : NumShared(NumSharedVars) {
  Nodes.resize(NumProcs);
  Edges.resize(NumProcs);
}

ParallelDynamicGraph::ParallelDynamicGraph(const ExecutionLog &Log,
                                           unsigned NumSharedVars)
    : ParallelDynamicGraph(NumSharedVars, uint32_t(Log.Procs.size())) {
  for (uint32_t Pid = 0; Pid != Log.Procs.size(); ++Pid)
    addProcess(Pid, Log.Procs[Pid]);
  finalize();
}

void ParallelDynamicGraph::addProcess(uint32_t Pid, const ProcessLog &PL) {
  assert(Pid < Nodes.size() && "pid out of range");
  assert(Nodes[Pid].empty() && "process added twice");
  appendProcess(Pid, PL, 0);
}

void ParallelDynamicGraph::appendProcess(uint32_t Pid, const ProcessLog &PL,
                                         uint32_t FromRecord) {
  assert(Pid <= Nodes.size() && "pid out of range");
  if (Pid == Nodes.size()) {
    Nodes.emplace_back();
    Edges.emplace_back();
  }
  // Collect the process's sync nodes and internal edges.
  for (uint32_t Idx = FromRecord; Idx < PL.Records.size(); ++Idx) {
    const LogRecord &R = PL.Records[Idx];
    if (R.Kind != LogRecordKind::SyncEvent)
      continue;
    SyncNode N;
    N.Kind = R.Sync;
    N.Object = R.Id;
    N.Seq = R.Seq;
    N.PartnerSeq = R.PartnerSeq;
    N.Stmt = R.Stmt;
    N.RecordIdx = Idx;

    if (!Nodes[Pid].empty()) {
      InternalEdge E;
      E.Pid = Pid;
      E.EndNode = uint32_t(Nodes[Pid].size());
      // Pre-size to the shared segment so the insert loops never
      // reallocate. Ids outside it come only from corrupt logs: they are
      // dropped, and finalize() rejects the graph.
      E.Reads.reserveFor(NumShared);
      E.Writes.reserveFor(NumShared);
      for (uint32_t S : R.ReadSet)
        if (S < NumShared)
          E.Reads.insert(S);
        else
          Sound = false;
      for (uint32_t S : R.WriteSet)
        if (S < NumShared)
          E.Writes.insert(S);
        else
          Sound = false;
      Edges[Pid].push_back(std::move(E));
    }
    Nodes[Pid].push_back(std::move(N));
  }
}

void ParallelDynamicGraph::adoptProcess(uint32_t Pid,
                                        std::vector<SyncNode> ProcNodes,
                                        std::vector<InternalEdge> ProcEdges) {
  assert(Pid < Nodes.size() && "pid out of range");
  assert(Nodes[Pid].empty() && "process added twice");
  assert((ProcNodes.empty() ? ProcEdges.empty()
                            : ProcEdges.size() == ProcNodes.size() - 1) &&
         "edge i must end at node i+1");
  Nodes[Pid] = std::move(ProcNodes);
  Edges[Pid] = std::move(ProcEdges);
}

bool ParallelDynamicGraph::finalize() {
  // Seq lookup table. The machine numbers sync events densely from 0, so
  // a sound graph's seqs are exactly [0, node count): checking each node
  // in O(1) here bounds the table and guarantees that every predecessor
  // (a partner, the process's previous node) has a smaller seq.
  size_t NumNodes = 0;
  for (const std::vector<SyncNode> &ProcNodes : Nodes)
    NumNodes += ProcNodes.size();
  BySeq.assign(NumNodes, SyncNodeRef());
  if (!Sound)
    return reject();
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      if (N.Seq >= NumNodes || BySeq[N.Seq].valid() || !nodeOrdered(Pid, Idx))
        return reject();
      BySeq[N.Seq] = {Pid, Idx};
    }

  // Vector clocks, processed in global seq order — a topological order of
  // the graph, since every synchronization edge goes from a lower to a
  // higher sequence number.
  for (const SyncNodeRef &Ref : BySeq) {
    SyncNode &N = Nodes[Ref.Pid][Ref.Index];
    N.Clock.assign(Nodes.size(), 0);
    if (Ref.Index > 0) {
      const SyncNode &Prev = Nodes[Ref.Pid][Ref.Index - 1];
      N.Clock = Prev.Clock;
    }
    if (N.PartnerSeq != NoPartner) {
      const SyncNode &Partner = node(BySeq[N.PartnerSeq]);
      for (size_t I = 0; I != N.Clock.size(); ++I)
        N.Clock[I] = std::max(N.Clock[I], Partner.Clock[I]);
    }
    N.Clock[Ref.Pid] = Ref.Index + 1;
  }
  FinalizeWatermark = BySeq.size();
  return true;
}

bool ParallelDynamicGraph::nodeOrdered(uint32_t Pid, uint32_t Idx) const {
  const SyncNode &N = Nodes[Pid][Idx];
  return N.Kind <= SyncKind::Stopped &&
         (Idx == 0 || N.Seq > Nodes[Pid][Idx - 1].Seq) &&
         (N.PartnerSeq == NoPartner || N.PartnerSeq < N.Seq);
}

bool ParallelDynamicGraph::reject() {
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid) {
    Nodes[Pid].clear();
    Edges[Pid].clear();
  }
  BySeq.clear();
  FinalizeWatermark = 0;
  return false;
}

bool ParallelDynamicGraph::finalizeTail() {
  if (!Sound)
    return reject();
  // Zero-extend already-finalized clocks when streaming grew the process
  // count: component p stays 0 for old nodes because none of a
  // later-arriving process's nodes can happen-before a node sealed in an
  // earlier cut.
  for (std::vector<SyncNode> &ProcNodes : Nodes)
    for (SyncNode &N : ProcNodes)
      if (!N.Clock.empty() && N.Clock.size() < Nodes.size())
        N.Clock.resize(Nodes.size(), 0);

  // Extend the seq lookup and register the appended nodes (empty clock =
  // not yet finalized), each under finalize()'s O(1) checks. Their seqs
  // all land at or past the watermark, bounded by the cut — the ingest
  // session rejects anything else before it applies.
  uint64_t MaxSeq = BySeq.empty() ? 0 : uint64_t(BySeq.size()) - 1;
  for (const std::vector<SyncNode> &ProcNodes : Nodes)
    for (const SyncNode &N : ProcNodes)
      MaxSeq = std::max(MaxSeq, N.Seq);
  if (BySeq.size() < size_t(MaxSeq) + 1)
    BySeq.resize(size_t(MaxSeq) + 1);
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      if (!N.Clock.empty())
        continue;
      if (BySeq[N.Seq].valid() || !nodeOrdered(Pid, Idx))
        return reject();
      BySeq[N.Seq] = {Pid, Idx};
    }

  // Same clock step as finalize(), resumed at the watermark: processing
  // in global seq order is still a topological order, and every
  // predecessor (previous node of the process, partner) is either below
  // the watermark — finalized in an earlier round, zero-extended above —
  // or earlier in this walk.
  for (uint64_t S = FinalizeWatermark; S < BySeq.size(); ++S) {
    const SyncNodeRef Ref = BySeq[S];
    if (!Ref.valid())
      continue;
    SyncNode &N = Nodes[Ref.Pid][Ref.Index];
    if (!N.Clock.empty())
      continue; // registered before this round's watermark
    N.Clock.assign(Nodes.size(), 0);
    if (Ref.Index > 0) {
      const SyncNode &Prev = Nodes[Ref.Pid][Ref.Index - 1];
      N.Clock = Prev.Clock;
      N.Clock.resize(Nodes.size(), 0);
    }
    if (N.PartnerSeq != NoPartner) {
      assert(BySeq[N.PartnerSeq].valid() && "dangling partner sequence");
      const SyncNode &Partner = node(BySeq[N.PartnerSeq]);
      for (size_t I = 0; I != Partner.Clock.size(); ++I)
        N.Clock[I] = std::max(N.Clock[I], Partner.Clock[I]);
    }
    N.Clock[Ref.Pid] = Ref.Index + 1;
  }
  FinalizeWatermark = BySeq.size();
  return true;
}

std::vector<EdgeRef> ParallelDynamicGraph::allEdges() const {
  std::vector<EdgeRef> Out;
  for (uint32_t Pid = 0; Pid != Edges.size(); ++Pid)
    for (uint32_t I = 0; I != Edges[Pid].size(); ++I)
      Out.push_back({Pid, I + 1});
  return Out;
}

SyncNodeRef ParallelDynamicGraph::partnerOf(SyncNodeRef Ref) const {
  const SyncNode &N = node(Ref);
  if (N.PartnerSeq == NoPartner || N.PartnerSeq >= BySeq.size())
    return SyncNodeRef();
  return BySeq[N.PartnerSeq];
}

bool ParallelDynamicGraph::happensBefore(SyncNodeRef A, SyncNodeRef B) const {
  if (A == B)
    return false;
  // A → B iff B's clock covers A in A's own process: the clock component
  // VC[p] counts how many of p's nodes happen-before-or-equal the owner.
  return node(B).Clock[A.Pid] >= A.Index + 1;
}

bool ParallelDynamicGraph::edgeHappensBefore(EdgeRef A, EdgeRef B) const {
  // end(A) = A.EndNode; start(B) = B.EndNode - 1.
  SyncNodeRef EndA{A.Pid, A.EndNode};
  SyncNodeRef StartB{B.Pid, B.EndNode - 1};
  if (EndA == StartB)
    return true; // same node: A's end is B's start (consecutive edges)
  return happensBefore(EndA, StartB);
}

bool ParallelDynamicGraph::simultaneous(EdgeRef A, EdgeRef B) const {
  if (A.Pid == B.Pid)
    return false; // same process: always ordered
  return !edgeHappensBefore(A, B) && !edgeHappensBefore(B, A);
}

EdgeRef ParallelDynamicGraph::edgeContaining(uint32_t Pid,
                                             uint32_t RecordIdx) const {
  const std::vector<SyncNode> &ProcNodes = Nodes[Pid];
  for (uint32_t I = 1; I < ProcNodes.size(); ++I)
    if (RecordIdx > ProcNodes[I - 1].RecordIdx &&
        RecordIdx <= ProcNodes[I].RecordIdx)
      return {Pid, I};
  // Past the last sync node: the process stopped mid-edge. Treat the open
  // tail as an edge ending at a virtual node after the last one — callers
  // that only need ordering can use the last node conservatively. We
  // return the edge ending at the last node if the position is beyond it.
  if (!ProcNodes.empty() && RecordIdx > ProcNodes.back().RecordIdx &&
      ProcNodes.size() >= 2)
    return {Pid, uint32_t(ProcNodes.size() - 1)};
  return EdgeRef();
}

EdgeRef ParallelDynamicGraph::lastWriterBefore(EdgeRef Reader,
                                               uint32_t SharedIdx,
                                               EdgeRef *RaceWitness) const {
  if (RaceWitness)
    *RaceWitness = EdgeRef();
  EdgeRef Best;
  for (uint32_t Pid = 0; Pid != Edges.size(); ++Pid) {
    for (uint32_t I = 0; I != Edges[Pid].size(); ++I) {
      const InternalEdge &E = Edges[Pid][I];
      if (!E.Writes.contains(SharedIdx))
        continue;
      EdgeRef Ref{Pid, I + 1};
      if (Ref == Reader)
        continue;
      if (Pid == Reader.Pid) {
        // Same process: ordered by position.
        if (Ref.EndNode > Reader.EndNode)
          continue;
      } else if (simultaneous(Ref, Reader)) {
        if (RaceWitness)
          *RaceWitness = Ref;
        continue;
      } else if (!edgeHappensBefore(Ref, Reader)) {
        continue; // strictly after the reader
      }
      if (!Best.valid() || edgeHappensBefore(Best, Ref))
        Best = Ref;
    }
  }
  return Best;
}

std::vector<EdgeRef>
ParallelDynamicGraph::writersBefore(EdgeRef Reader, uint32_t SharedIdx,
                                    EdgeRef *RaceWitness) const {
  if (RaceWitness)
    *RaceWitness = EdgeRef();
  std::vector<EdgeRef> Writers;
  for (uint32_t Pid = 0; Pid != Edges.size(); ++Pid) {
    for (uint32_t I = 0; I != Edges[Pid].size(); ++I) {
      const InternalEdge &E = Edges[Pid][I];
      if (!E.Writes.contains(SharedIdx))
        continue;
      EdgeRef Ref{Pid, I + 1};
      if (Ref == Reader)
        continue;
      if (Pid == Reader.Pid) {
        if (Ref.EndNode > Reader.EndNode)
          continue;
      } else if (simultaneous(Ref, Reader)) {
        if (RaceWitness)
          *RaceWitness = Ref;
        continue;
      } else if (!edgeHappensBefore(Ref, Reader)) {
        continue;
      }
      Writers.push_back(Ref);
    }
  }
  std::sort(Writers.begin(), Writers.end(),
            [this](EdgeRef A, EdgeRef B) {
              return Nodes[A.Pid][A.EndNode].Seq >
                     Nodes[B.Pid][B.EndNode].Seq;
            });
  return Writers;
}

std::string ParallelDynamicGraph::dot(const Program &P) const {
  DotWriter W("parallel_dynamic_graph");
  auto NodeId = [](uint32_t Pid, uint32_t Idx) {
    return "p" + std::to_string(Pid) + "_n" + std::to_string(Idx);
  };

  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid) {
    W.beginCluster("p" + std::to_string(Pid),
                   "process " + std::to_string(Pid));
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      const SyncNode &N = Nodes[Pid][Idx];
      std::string Label = syncKindName(N.Kind);
      if (N.Stmt < P.numStmts())
        Label += "\n" + AstPrinter::summarize(*P.stmt(N.Stmt));
      W.node(NodeId(Pid, Idx), Label, {"shape=circle"});
      if (Idx > 0) {
        const InternalEdge &E = Edges[Pid][Idx - 1];
        std::string Attr = "style=bold";
        std::string EdgeLabel;
        if (!E.Reads.empty())
          EdgeLabel += "R:" + std::to_string(E.Reads.size());
        if (!E.Writes.empty())
          EdgeLabel += " W:" + std::to_string(E.Writes.size());
        std::vector<std::string> Attrs = {Attr};
        if (!EdgeLabel.empty())
          Attrs.push_back("label=\"" + DotWriter::escape(EdgeLabel) + "\"");
        W.edge(NodeId(Pid, Idx - 1), NodeId(Pid, Idx), Attrs);
      }
    }
    W.endCluster();
  }

  // Synchronization edges across processes.
  for (uint32_t Pid = 0; Pid != Nodes.size(); ++Pid)
    for (uint32_t Idx = 0; Idx != Nodes[Pid].size(); ++Idx) {
      SyncNodeRef Partner = partnerOf({Pid, Idx});
      if (Partner.valid())
        W.edge(NodeId(Partner.Pid, Partner.Index), NodeId(Pid, Idx),
               {"style=dashed", "constraint=false"});
    }
  return W.str();
}
