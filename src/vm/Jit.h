//===- vm/Jit.h - Copy-and-patch replay JIT ---------------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay JIT tier (DESIGN.md §11). Hot e-block regions of the
/// emulation package compile to straight-line native x86-64: every slot of
/// a function's DecodedChunk gets a per-opcode stencil emitted at a known
/// native offset, so jump targets patch directly and a re-entry after a
/// side-exit lands on any pc. The emitter set is generated from the same
/// OpcodeTable.h X-macro as both interpreters — a new opcode that lacks a
/// stencil is a compile error here, not a silent drift.
///
/// Side-exit contract: native code handles the pure stack/arithmetic/
/// memory/branch ops inline (calling tiny trace helpers through
/// JitContext where the decoded engine would append to the open event) and
/// exits to the interpreter for everything that touches the log cursor or
/// the frame stack — sync records, prelog/postlog/unit logs, calls,
/// returns, builtins, I/O — plus quantum (budget) expiry and runtime
/// failures. The exit reports (kind, pc); the replay engine performs the
/// operation with the exact same shared helpers the decoded engine uses
/// and re-enters native code at the new pc. Instruction accounting is
/// carried in a register and synced at every exit, so step counts are
/// bit-identical to the decoded engine — which stays on as the always-on
/// differential oracle (tests/jit_test.cpp, the fuzz oracle matrix).
///
/// Tier-up: compilation is per function, deferred until an e-block of that
/// function has replayed HotThreshold times (the first, cold replay runs
/// decoded; cache-driven re-executions amortize the compile). A function
/// whose stack depths cannot be proven statically, or that would exceed
/// the code budget, marks itself failed and its e-blocks replay decoded
/// forever — fallback is always transparent, never an error.
///
/// PPD_JIT=OFF builds and non-x86-64 hosts compile the backend out:
/// JitProgram::create returns null and every caller falls back to the
/// decoded tier.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_VM_JIT_H
#define PPD_VM_JIT_H

#include "support/ExecMem.h"
#include "trace/TraceEvent.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#ifndef PPD_JIT
#define PPD_JIT 1
#endif

#if PPD_JIT && defined(__x86_64__) && PPD_EXECMEM_SUPPORTED
#define PPD_JIT_ENABLED 1
#else
#define PPD_JIT_ENABLED 0
#endif

namespace ppd {

class CompiledProgram;

/// Why native code handed control back to the replay engine.
enum class JitExitKind : uint32_t {
  /// The pc needs an interpreter step (sync, log, call, builtin, I/O).
  Interp = 0,
  /// The instruction budget (quantum) expired; the budget check already
  /// charged the failing instruction, exactly like the decoded prologue.
  Budget,
  /// A trace-statement helper saw the Stop marker / end condition.
  Stop,
  /// Runtime failures detected inline; the engine reports them with the
  /// failing slot's statement id.
  FailIndexOOB,
  FailDiv0,
  FailMod0,
};

struct JitExit {
  JitExitKind Kind = JitExitKind::Interp;
  /// The pc the exit refers to: the instruction to execute next (Interp),
  /// or the instruction that failed / exhausted the budget.
  uint32_t Ip = 0;
};

/// The register file native code runs against. Standard-layout; the
/// emitter addresses fields by offsetof, the replay engine fills them in
/// before entry and reads them back after exit.
struct JitContext {
  /// One past the live top of the operand stack (grows up). The engine
  /// pre-reserves the function's proven maximum depth, so native pushes
  /// never reallocate.
  int64_t *StackTop = nullptr;
  /// Innermost frame's local slots.
  int64_t *Slots = nullptr;
  int64_t *Shared = nullptr;
  int64_t *Priv = nullptr;
  /// Instruction accounting, live in a register while native code runs.
  uint64_t Instructions = 0;
  uint64_t MaxInstructions = 0;
  /// Opaque host (the Replayer) passed to every helper.
  void *Host = nullptr;
  /// Access-trace bump buffers: native code records each variable read/
  /// write as three inline stores plus a cursor bump instead of a helper
  /// call; the engine flushes the buffered accesses into the open trace
  /// event at every helper call and side exit, preserving the decoded
  /// engine's event content and order exactly. Stencils check for space
  /// *before* charging the instruction and take an uncharged Interp exit
  /// when a buffer is full, so the interpreter replays that instruction
  /// (and traces it directly) with identical accounting.
  TraceAccess *ReadTop = nullptr;
  TraceAccess *ReadLimit = nullptr;
  TraceAccess *WriteTop = nullptr;
  TraceAccess *WriteLimit = nullptr;
  /// Returns nonzero when replay must stop (Stop marker / end-of-log).
  int (*TraceStmt)(void *Host, uint32_t Pc) = nullptr;
  void (*TraceBranch)(void *Host, int64_t Cond) = nullptr;
  void (*Print)(void *Host, int64_t Value, uint32_t Pc) = nullptr;
};

/// One function's compiled code: native offsets per decoded slot plus the
/// static stack depths the entry protocol checks.
class JitCode {
public:
  /// Enters native code at decoded pc \p Ip. The context must be fully
  /// populated; returns the side exit that ended the native run.
  JitExit enter(JitContext &Ctx, uint32_t Ip) const;

  /// Native offset of each decoded slot; -1 where no stencil was emitted
  /// (the entry check routes those pcs to the interpreter).
  std::vector<int32_t> NativeOff;
  /// Proven operand-stack depth at each slot; -1 = unreachable/unknown.
  std::vector<int32_t> DepthAt;
  /// Maximum depth any emitted stencil can reach (reserve this much).
  uint32_t MaxStackDepth = 0;

  ExecMemArena::Block *Block = nullptr;
};

struct JitOptions {
  /// E-block replay count at which its function compiles. 2 = first
  /// (cold) replay runs decoded, cache-driven re-executions run native.
  uint32_t HotThreshold = 2;
  size_t CodeBudgetBytes = ExecMemArena::DefaultBudget;
};

struct JitStats {
  uint64_t Compiles = 0;
  uint64_t CompileFailures = 0;
  uint64_t CompileNs = 0;
  uint64_t ExecNs = 0;
  /// Side exits taken to the interpreter (Interp kind only).
  uint64_t Bailouts = 0;
  /// Replays that entered native code at least once.
  uint64_t JittedReplays = 0;
};

/// Program-wide JIT state: per-function compiled code (published
/// lock-free), per-e-block hotness counters, the code arena, counters.
/// Shared by every ReplayEngine of a program (server sessions share one
/// via SessionRegistry), so hotness and compiles aggregate per program.
class JitProgram {
public:
  /// Null when the backend is compiled out or the host is not x86-64 —
  /// callers fall back to the decoded tier on null.
  static std::shared_ptr<JitProgram> create(const CompiledProgram &Prog,
                                            const JitOptions &Options = {});

  ~JitProgram();

  /// Bumps the e-block's replay counter; true once it is hot enough that
  /// this replay should use native code.
  bool shouldTier(uint32_t EBlockId);

  /// The function's compiled code, compiling on first demand. Null when
  /// compilation failed (unsupported shape / code budget) — permanently,
  /// so callers stop asking.
  const JitCode *getOrCompile(uint32_t Func);

  JitStats stats() const;
  /// Accounts one replay that ran through the JIT tier; JittedReplays only
  /// counts it when native code was actually entered (a replay whose every
  /// compile failed runs fully interpreted and does not count).
  void noteExec(uint64_t Ns, uint64_t Bailouts, bool EnteredNative);

  const JitOptions &options() const { return Options; }

private:
  JitProgram(const CompiledProgram &Prog, const JitOptions &Options);

  const CompiledProgram &Prog;
  JitOptions Options;
  ExecMemArena Arena;

  struct FuncEntry {
    std::atomic<const JitCode *> Code{nullptr};
    std::atomic<bool> Failed{false};
  };
  std::vector<FuncEntry> Funcs;
  std::vector<std::unique_ptr<JitCode>> Owned;
  std::vector<std::atomic<uint32_t>> Hotness;
  std::mutex CompileMutex;

  mutable std::atomic<uint64_t> Compiles{0};
  mutable std::atomic<uint64_t> CompileFailures{0};
  mutable std::atomic<uint64_t> CompileNs{0};
  mutable std::atomic<uint64_t> ExecNs{0};
  mutable std::atomic<uint64_t> Bailouts{0};
  mutable std::atomic<uint64_t> JittedReplays{0};
};

} // namespace ppd

#endif // PPD_VM_JIT_H
