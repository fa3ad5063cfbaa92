//===- trace/TraceEvent.h - Fine-grained execution traces -------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fine-grained event stream the dynamic program dependence graph is
/// built from. Under incremental tracing these events are regenerated on
/// demand by replaying one log interval through the emulation package
/// (§5.3); under the full-tracing baseline of experiment E2 every process
/// produces them during execution, which is exactly the cost the paper's
/// mechanism exists to avoid.
///
/// One event is recorded per executed statement, carrying the values the
/// statement actually read and wrote (array accesses include the element
/// index). Call boundaries get their own events so calls can appear as
/// sub-graph nodes (§4.2); a skipped nested interval (Fig 5.2) records a
/// CallSkipped event holding the postlog-supplied return value.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_TRACE_TRACEEVENT_H
#define PPD_TRACE_TRACEEVENT_H

#include "lang/Ast.h"
#include "support/SmallVec.h"

#include <cstdint>

namespace ppd {

/// One dynamic variable access.
struct TraceAccess {
  VarId Var = InvalidId;
  int64_t Value = 0;
  int64_t Index = -1; ///< array element, or -1 for scalars.

  friend bool operator==(const TraceAccess &A,
                         const TraceAccess &B) = default;
};

enum class TraceEventKind : uint8_t {
  Stmt,        ///< execution of one statement (singular node)
  CallBegin,   ///< user-function call entered (opens a sub-graph)
  CallEnd,     ///< call returned (closes the sub-graph; Value = result)
  CallSkipped, ///< nested logged interval applied from its postlog
               ///< instead of re-execution (Value = logged result)
};

struct TraceEvent {
  TraceEventKind Kind = TraceEventKind::Stmt;
  uint32_t Pid = 0;
  /// Dense per-process event number, in execution order.
  uint32_t Index = 0;
  /// The statement executed (Stmt events) or the call site (Call* events).
  StmtId Stmt = InvalidId;
  /// Callee function index (Call* events).
  uint32_t Callee = InvalidId;
  /// Return value (CallEnd/CallSkipped).
  int64_t Value = 0;
  /// Argument values (CallBegin). Inline storage: events are constructed
  /// once per replayed statement, so a heap allocation per access list
  /// would put the allocator on the replay engines' hot path (it was
  /// ~half the per-statement cost of a warm replay before these were
  /// SmallVecs). Typical statements read one or two variables and write
  /// at most one; the spill path covers the rest.
  SmallVec<int64_t, 2> Args;
  SmallVec<TraceAccess, 2> Reads;
  SmallVec<TraceAccess, 1> Writes;
  /// Call events (CallBegin/CallSkipped): how many reads the calling
  /// statement's event had recorded when the call began. Its later reads
  /// happen after the callee returns, so they see the callee's writes.
  uint32_t CallerReads = 0;
  /// Predicate outcome: set for if/while/for condition events.
  bool IsPredicate = false;
  bool BranchTaken = false;
  /// Position of the process's log cursor when this event was created —
  /// i.e. how many log records precede it. Locates the event's
  /// synchronization-unit instance / internal edge for cross-process
  /// dependence resolution (§6.3).
  uint32_t LogCursor = 0;

  /// Approximate serialized size — the currency of experiment E2.
  size_t byteSize() const {
    return 16 + 8 * Args.size() + 17 * (Reads.size() + Writes.size());
  }

  /// Field-wise equality: the determinism tests assert that cached,
  /// parallel, and fresh serial replays agree bit for bit.
  friend bool operator==(const TraceEvent &A, const TraceEvent &B) = default;
};

/// The events of one process, in execution order.
class TraceBuffer {
public:
  std::vector<TraceEvent> Events;
  /// Log positions of the synchronization records the trace passed, in
  /// order (those inside skipped nested calls too). Two events lie on the
  /// same internal edge (§6.2) iff none falls between their LogCursors.
  std::vector<uint32_t> SyncRecords;

  TraceEvent &append(TraceEvent Event) {
    Event.Index = uint32_t(Events.size());
    Events.push_back(std::move(Event));
    return Events.back();
  }

  /// In-place append for the per-statement hot path: constructs the event
  /// directly in the buffer (no intermediate move of the ~200-byte
  /// event), numbered and defaulted to Stmt kind. Callers fill the rest.
  TraceEvent &emplace() {
    TraceEvent &E = Events.emplace_back();
    E.Index = uint32_t(Events.size() - 1);
    return E;
  }

  size_t byteSize() const {
    size_t Size = 0;
    for (const TraceEvent &E : Events)
      Size += E.byteSize();
    return Size + 4 * SyncRecords.size();
  }
};

} // namespace ppd

#endif // PPD_TRACE_TRACEEVENT_H
