//===- vm/Jit.cpp - Copy-and-patch replay JIT -----------------------------===//
//
// Part of PPD. See Jit.h for the tier's contract.
//
// Compilation is per function: every slot of the DecodedChunk gets a
// stencil at a recorded native offset (so any pc is an entry point and a
// jump target), preceded by one entry thunk and one exit stub shared by
// the whole function. A forward depth analysis proves the operand-stack
// depth at every reachable slot first; functions where the depth cannot
// be proven (or that exceed the code budget) fail compilation permanently
// and replay decoded — fallback, never an error.
//
// Register plan (SysV, all callee-saved so helper calls preserve them):
//   rbx  operand-stack end pointer (one past top; top lives at [rbx-8])
//   r12  innermost frame's local slots
//   r13  the JitContext
//   r14  Instructions          r15  MaxInstructions
//
// Every slot that the decoded engine charges opens with the same budget
// prologue as runDecoded's loop header — charge-then-check, exiting with
// the instruction already counted — so step accounting is bit-identical.
// Fused superinstructions re-check the budget between their halves and
// fall through into the second half's own slot when it is exhausted,
// reproducing the decoded engine's split exactly (Decoded.h).
//
//===----------------------------------------------------------------------===//

#include "vm/Jit.h"

#include "compiler/CompiledProgram.h"
#include "lang/Ast.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <type_traits>

using namespace ppd;

static_assert(std::is_standard_layout_v<JitContext>,
              "the emitter addresses JitContext by offsetof");
// The access-buffer stencils store TraceAccess fields by hard-coded
// offset: Var (u32) at 0, Value at 8, Index at 16, 24-byte stride.
static_assert(offsetof(TraceAccess, Var) == 0 &&
                  offsetof(TraceAccess, Value) == 8 &&
                  offsetof(TraceAccess, Index) == 16 &&
                  sizeof(TraceAccess) == 24,
              "the emitter stores TraceAccess fields by fixed offset");

#if PPD_JIT_ENABLED

namespace {

//===----------------------------------------------------------------------===//
// A minimal x86-64 byte emitter
//===----------------------------------------------------------------------===//

enum Reg {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// Condition codes (the tttn field of jcc/setcc).
enum Cond {
  CC_B = 0x2,
  CC_AE = 0x3,
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_S = 0x8,
  CC_L = 0xC,
  CC_GE = 0xD,
  CC_LE = 0xE,
  CC_G = 0xF,
};

class Asm {
public:
  std::vector<uint8_t> Buf;
  bool Ok = true;

  size_t size() const { return Buf.size(); }
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int K = 0; K != 4; ++K)
      Buf.push_back(uint8_t(V >> (8 * K)));
  }
  void i32(int32_t V) { u32(uint32_t(V)); }
  void u64(uint64_t V) {
    for (int K = 0; K != 8; ++K)
      Buf.push_back(uint8_t(V >> (8 * K)));
  }

  void rex(bool W, int R, int X, int B) {
    uint8_t V = 0x40 | (W << 3) | ((R >> 3) << 2) | ((X >> 3) << 1) | (B >> 3);
    if (V != 0x40 || W)
      u8(V);
  }
  void modrm(int Mod, int R, int M) {
    u8(uint8_t((Mod << 6) | ((R & 7) << 3) | (M & 7)));
  }

  /// ModRM+SIB+disp for [Base + Disp].
  void mem(int R, int Base, int32_t Disp) {
    bool NeedSib = (Base & 7) == 4; // rsp/r12
    int Mod = (Disp == 0 && (Base & 7) != 5) ? 0
              : (Disp >= -128 && Disp <= 127) ? 1
                                              : 2;
    modrm(Mod, R, NeedSib ? 4 : Base);
    if (NeedSib)
      u8(uint8_t(0x24 | ((Base & 7)))); // scale 0, index none, base
    if (Mod == 1)
      u8(uint8_t(int8_t(Disp)));
    else if (Mod == 2)
      i32(Disp);
  }

  /// ModRM+SIB+disp for [Base + Index*8 + Disp].
  void memIdx(int R, int Base, int Index, int32_t Disp) {
    int Mod = (Disp == 0 && (Base & 7) != 5) ? 0
              : (Disp >= -128 && Disp <= 127) ? 1
                                              : 2;
    modrm(Mod, R, 4);
    u8(uint8_t((3 << 6) | ((Index & 7) << 3) | (Base & 7)));
    if (Mod == 1)
      u8(uint8_t(int8_t(Disp)));
    else if (Mod == 2)
      i32(Disp);
  }

  // mov dst, src
  void movRR(int Dst, int Src) {
    rex(1, Dst, 0, Src);
    u8(0x8B);
    modrm(3, Dst, Src);
  }
  // mov dst, [base+disp]
  void movRM(int Dst, int Base, int32_t Disp) {
    rex(1, Dst, 0, Base);
    u8(0x8B);
    mem(Dst, Base, Disp);
  }
  // mov [base+disp], src
  void movMR(int Base, int32_t Disp, int Src) {
    rex(1, Src, 0, Base);
    u8(0x89);
    mem(Src, Base, Disp);
  }
  // mov dst, [base+idx*8+disp]
  void movRMIdx(int Dst, int Base, int Idx, int32_t Disp) {
    rex(1, Dst, Idx, Base);
    u8(0x8B);
    memIdx(Dst, Base, Idx, Disp);
  }
  // mov [base+idx*8+disp], src
  void movMRIdx(int Base, int Idx, int32_t Disp, int Src) {
    rex(1, Src, Idx, Base);
    u8(0x89);
    memIdx(Src, Base, Idx, Disp);
  }
  // movabs dst, imm64
  void movRI64(int Dst, uint64_t Imm) {
    rex(1, 0, 0, Dst);
    u8(uint8_t(0xB8 | (Dst & 7)));
    u64(Imm);
  }
  // mov dst, imm32 (sign-extended to 64)
  void movRIs32(int Dst, int32_t Imm) {
    rex(1, 0, 0, Dst);
    u8(0xC7);
    modrm(3, 0, Dst);
    i32(Imm);
  }
  // mov dst32, imm32 (zero-extends)
  void movRI32z(int Dst, uint32_t Imm) {
    if (Dst >= 8)
      u8(0x41);
    u8(uint8_t(0xB8 | (Dst & 7)));
    u32(Imm);
  }
  // mov qword [base+disp], imm32 (sign-extended)
  void movMIs32(int Base, int32_t Disp, int32_t Imm) {
    rex(1, 0, 0, Base);
    u8(0xC7);
    mem(0, Base, Disp);
    i32(Imm);
  }
  // mov dword [base+disp], imm32 (32-bit store)
  void movM32I(int Base, int32_t Disp, uint32_t Imm) {
    rex(0, 0, 0, Base);
    u8(0xC7);
    mem(0, Base, Disp);
    u32(Imm);
  }
  void addRI8(int Reg, int8_t Imm) {
    rex(1, 0, 0, Reg);
    u8(0x83);
    modrm(3, 0, Reg);
    u8(uint8_t(Imm));
  }
  void subRI8(int Reg, int8_t Imm) {
    rex(1, 0, 0, Reg);
    u8(0x83);
    modrm(3, 5, Reg);
    u8(uint8_t(Imm));
  }
  // cmp a, b
  void cmpRR(int A, int B) {
    rex(1, B, 0, A);
    u8(0x39);
    modrm(3, B, A);
  }
  void cmpRI32(int Reg, int32_t Imm) {
    rex(1, 0, 0, Reg);
    u8(0x81);
    modrm(3, 7, Reg);
    i32(Imm);
  }
  void cmpRI8(int Reg, int8_t Imm) {
    rex(1, 0, 0, Reg);
    u8(0x83);
    modrm(3, 7, Reg);
    u8(uint8_t(Imm));
  }
  // cmp a, [base+disp]
  void cmpRM(int A, int Base, int32_t Disp) {
    rex(1, A, 0, Base);
    u8(0x3B);
    mem(A, Base, Disp);
  }
  void testRR(int A, int B) {
    rex(1, B, 0, A);
    u8(0x85);
    modrm(3, B, A);
  }
  void testEaxEax() {
    u8(0x85);
    u8(0xC0);
  }
  void incR(int Reg) {
    rex(1, 0, 0, Reg);
    u8(0xFF);
    modrm(3, 0, Reg);
  }
  // add/sub [base+disp], src
  void addMR(int Base, int32_t Disp, int Src) {
    rex(1, Src, 0, Base);
    u8(0x01);
    mem(Src, Base, Disp);
  }
  void subMR(int Base, int32_t Disp, int Src) {
    rex(1, Src, 0, Base);
    u8(0x29);
    mem(Src, Base, Disp);
  }
  // imul dst, [base+disp]
  void imulRM(int Dst, int Base, int32_t Disp) {
    rex(1, Dst, 0, Base);
    u8(0x0F);
    u8(0xAF);
    mem(Dst, Base, Disp);
  }
  // add/sub qword [base+disp], imm32 (sign-extended)
  void addMIs32(int Base, int32_t Disp, int32_t Imm) {
    rex(1, 0, 0, Base);
    u8(0x81);
    mem(0, Base, Disp);
    i32(Imm);
  }
  void subMIs32(int Base, int32_t Disp, int32_t Imm) {
    rex(1, 0, 0, Base);
    u8(0x81);
    mem(5, Base, Disp);
    i32(Imm);
  }
  // imul dst, src, imm32
  void imulRRI32(int Dst, int Src, int32_t Imm) {
    rex(1, Dst, 0, Src);
    u8(0x69);
    modrm(3, Dst, Src);
    i32(Imm);
  }
  // neg qword [base+disp]
  void negM(int Base, int32_t Disp) {
    rex(1, 0, 0, Base);
    u8(0xF7);
    mem(3, Base, Disp);
  }
  void cqo() {
    u8(0x48);
    u8(0x99);
  }
  void idivR(int Reg) {
    rex(1, 0, 0, Reg);
    u8(0xF7);
    modrm(3, 7, Reg);
  }
  void xorEaxEax() {
    u8(0x31);
    u8(0xC0);
  }
  void setccAl(int CC) {
    u8(0x0F);
    u8(uint8_t(0x90 | CC));
    u8(0xC0);
  }
  void movzxEaxAl() {
    u8(0x0F);
    u8(0xB6);
    u8(0xC0);
  }
  void leaRM(int Dst, int Base, int32_t Disp) {
    rex(1, Dst, 0, Base);
    u8(0x8D);
    mem(Dst, Base, Disp);
  }
  void repStosq() {
    u8(0xF3);
    u8(0x48);
    u8(0xAB);
  }
  /// jcc rel32 with a placeholder; returns the rel32's position.
  size_t jccRel32(int CC) {
    u8(0x0F);
    u8(uint8_t(0x80 | CC));
    size_t Pos = size();
    i32(0);
    return Pos;
  }
  size_t jmpRel32() {
    u8(0xE9);
    size_t Pos = size();
    i32(0);
    return Pos;
  }
  void jmpR(int Reg) {
    if (Reg >= 8)
      u8(0x41);
    u8(0xFF);
    modrm(3, 4, Reg);
  }
  // call qword [base+disp]
  void callM(int Base, int32_t Disp) {
    if (Base >= 8)
      u8(0x41);
    u8(0xFF);
    mem(2, Base, Disp);
  }
  void pushR(int Reg) {
    if (Reg >= 8)
      u8(0x41);
    u8(uint8_t(0x50 | (Reg & 7)));
  }
  void popR(int Reg) {
    if (Reg >= 8)
      u8(0x41);
    u8(uint8_t(0x58 | (Reg & 7)));
  }
  void ret() { u8(0xC3); }

  void patchAt(size_t Pos, int32_t V) {
    for (int K = 0; K != 4; ++K)
      Buf[Pos + K] = uint8_t(uint32_t(V) >> (8 * K));
  }
  /// Points the rel32 at \p Pos to the current position.
  void patchHere(size_t Pos) { patchAt(Pos, int32_t(size() - (Pos + 4))); }
  /// Points the rel32 at \p Pos to buffer offset \p Target.
  void patchTo(size_t Pos, size_t Target) {
    patchAt(Pos, int32_t(int64_t(Target) - int64_t(Pos + 4)));
  }
};

int ccOfCmp(CmpKind Kind) {
  switch (Kind) {
  case CmpKind::Eq:
    return CC_E;
  case CmpKind::Ne:
    return CC_NE;
  case CmpKind::Lt:
    return CC_L;
  case CmpKind::Le:
    return CC_LE;
  case CmpKind::Gt:
    return CC_G;
  case CmpKind::Ge:
    return CC_GE;
  }
  return CC_E;
}

constexpr int32_t off(size_t O) { return int32_t(O); }
#define CTX_OFF(Field) off(offsetof(JitContext, Field))

//===----------------------------------------------------------------------===//
// Per-function compiler: depth analysis + stencil emission
//===----------------------------------------------------------------------===//

class FuncCompiler {
public:
  FuncCompiler(const CompiledProgram &Prog, const CompiledFunction &F)
      : Prog(Prog), F(F), Ins(F.EmuDecoded.data()), N(F.EmuDecoded.size()) {}

  /// Emits the whole function into Code's byte buffer; false = fall back.
  bool compile(JitCode &Code, std::vector<uint8_t> &Buf);

private:
  bool analyze();
  bool effect(const DecodedInstr &I, uint32_t Ip, int &Pops, int &Pushes,
              uint32_t *Succs, int &NS) const;

  void emitThunks();
  void emitSlot(const DecodedInstr &I, uint32_t Ip);

  // Building blocks.
  void emitExit(JitExitKind Kind, uint32_t Ip);
  void emitPrologue(uint32_t Ip);
  void opPush(int Reg);
  void opPop(int Reg);
  /// Post-store/load trace helper call: value in rax, index in rcx when
  /// IdxInRcx (else -1).
  void emitAccessCheck(int32_t TopOff, int32_t LimitOff, uint32_t Ip);
  void emitAccessStore(int32_t TopOff, int32_t Var, bool IdxInRcx);
  struct Bounds {
    size_t J1, J2;
  };
  Bounds emitBoundsCheck(int64_t Limit);
  void finishBoundsCheck(Bounds B, uint32_t Ip);
  /// A*8 as an addressing displacement; clears Ok when it cannot encode.
  int32_t dispMul8(int32_t A);

  // One emitter per decoded opcode, required by the X-macro switch.
  void emitPushConst(const DecodedInstr &I, uint32_t Ip);
  void emitPop(const DecodedInstr &I, uint32_t Ip);
  void emitToBool(const DecodedInstr &I, uint32_t Ip);
  void emitLoadLocal(const DecodedInstr &I, uint32_t Ip);
  void emitStoreLocal(const DecodedInstr &I, uint32_t Ip);
  void emitLoadLocalElem(const DecodedInstr &I, uint32_t Ip);
  void emitStoreLocalElem(const DecodedInstr &I, uint32_t Ip);
  void emitZeroLocal(const DecodedInstr &I, uint32_t Ip);
  void emitLoadShared(const DecodedInstr &I, uint32_t Ip);
  void emitStoreShared(const DecodedInstr &I, uint32_t Ip);
  void emitLoadSharedElem(const DecodedInstr &I, uint32_t Ip);
  void emitStoreSharedElem(const DecodedInstr &I, uint32_t Ip);
  void emitLoadPriv(const DecodedInstr &I, uint32_t Ip);
  void emitStorePriv(const DecodedInstr &I, uint32_t Ip);
  void emitLoadPrivElem(const DecodedInstr &I, uint32_t Ip);
  void emitStorePrivElem(const DecodedInstr &I, uint32_t Ip);
  void emitAdd(const DecodedInstr &I, uint32_t Ip);
  void emitSub(const DecodedInstr &I, uint32_t Ip);
  void emitMul(const DecodedInstr &I, uint32_t Ip);
  void emitDiv(const DecodedInstr &I, uint32_t Ip);
  void emitMod(const DecodedInstr &I, uint32_t Ip);
  void emitNeg(const DecodedInstr &I, uint32_t Ip);
  void emitNot(const DecodedInstr &I, uint32_t Ip);
  void emitCmp(const DecodedInstr &I, uint32_t Ip);
  void emitCmpEq(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitCmpNe(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitCmpLt(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitCmpLe(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitCmpGt(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitCmpGe(const DecodedInstr &I, uint32_t Ip) { emitCmp(I, Ip); }
  void emitJump(const DecodedInstr &I, uint32_t Ip);
  void emitJumpIfFalse(const DecodedInstr &I, uint32_t Ip);
  void emitJumpIfTrue(const DecodedInstr &I, uint32_t Ip);
  void emitJumpIfCmp(const DecodedInstr &I, uint32_t Ip);
  void emitStoreLocalImm(const DecodedInstr &I, uint32_t Ip);
  void emitPrintVal(const DecodedInstr &I, uint32_t Ip);
  void emitTraceStmt(const DecodedInstr &I, uint32_t Ip);
  // Side-exit opcodes: everything that touches the log cursor or the
  // frame stack leaves native code; the replay engine executes the slot
  // with the interpreters' shared helpers and re-enters.
  void emitInterp(const DecodedInstr &, uint32_t Ip) {
    emitExit(JitExitKind::Interp, Ip);
  }
  void emitCall(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitRet(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitCallBuiltin(const DecodedInstr &I, uint32_t Ip) {
    emitInterp(I, Ip);
  }
  void emitSemP(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitSemV(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitSendCh(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitRecvCh(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitSpawnProc(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitInputVal(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitPrelog(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitPostlog(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitUnitLog(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }
  void emitTraceCallBegin(const DecodedInstr &I, uint32_t Ip) {
    emitInterp(I, Ip);
  }
  void emitTraceCallEnd(const DecodedInstr &I, uint32_t Ip) {
    emitInterp(I, Ip);
  }
  void emitHalt(const DecodedInstr &I, uint32_t Ip) { emitInterp(I, Ip); }

  const CompiledProgram &Prog;
  const CompiledFunction &F;
  const DecodedInstr *Ins;
  uint32_t N;

  Asm A;
  std::vector<int32_t> DepthAt;
  std::vector<int32_t> NativeOff;
  uint32_t MaxDepth = 0;
  size_t ExitStubOff = 0;
  /// Pending rel32s into other slots, patched once every offset is known.
  std::vector<std::pair<size_t, uint32_t>> Fixups;
  bool Ok = true;
};

int32_t FuncCompiler::dispMul8(int32_t V) {
  if (V < 0 || int64_t(V) * 8 > INT32_MAX) {
    Ok = false;
    return 0;
  }
  return V * 8;
}

void FuncCompiler::opPush(int Reg) {
  A.movMR(RBX, 0, Reg);
  A.addRI8(RBX, 8);
}

void FuncCompiler::opPop(int Reg) {
  A.subRI8(RBX, 8);
  A.movRM(Reg, RBX, 0);
}

void FuncCompiler::emitExit(JitExitKind Kind, uint32_t Ip) {
  A.movRI64(RAX, (uint64_t(uint32_t(Kind)) << 32) | Ip);
  size_t Pos = A.jmpRel32();
  A.patchTo(Pos, ExitStubOff);
}

// The decoded loop's header, verbatim: charge the instruction, then exit
// if the budget was already exhausted (so the count ends one past Max,
// exactly like `Result.Instructions++ >= Options.MaxInstructions`).
void FuncCompiler::emitPrologue(uint32_t Ip) {
  A.cmpRR(R14, R15);
  size_t Jb = A.jccRel32(CC_B);
  A.incR(R14);
  emitExit(JitExitKind::Budget, Ip);
  A.patchHere(Jb);
  A.incR(R14);
}

// Buffered access tracing: emitAccessCheck runs BEFORE the budget
// prologue — a full buffer takes an uncharged Interp exit, so the
// interpreter executes (and traces) the instruction with identical
// accounting. It leaves the cursor in rdx; the code between check and
// store (prologue, stack ops, bounds checks) must preserve rdx.
// emitAccessStore appends {Var, rax, rcx-or--1} and bumps the cursor —
// three stores instead of a helper call, the decoded engine's
// traceRead/traceWrite deferred to the next flush point.
void FuncCompiler::emitAccessCheck(int32_t TopOff, int32_t LimitOff,
                                   uint32_t Ip) {
  A.movRM(RDX, R13, TopOff);
  A.cmpRM(RDX, R13, LimitOff);
  size_t JOk = A.jccRel32(CC_B);
  emitExit(JitExitKind::Interp, Ip);
  A.patchHere(JOk);
}

void FuncCompiler::emitAccessStore(int32_t TopOff, int32_t Var,
                                   bool IdxInRcx) {
  A.movM32I(RDX, 0, uint32_t(Var)); // TraceAccess::Var
  A.movMR(RDX, 8, RAX);             // ::Value
  if (IdxInRcx)
    A.movMR(RDX, 16, RCX); // ::Index
  else
    A.movMIs32(RDX, 16, -1);
  A.addRI8(RDX, 24);
  A.movMR(R13, TopOff, RDX);
}

FuncCompiler::Bounds FuncCompiler::emitBoundsCheck(int64_t Limit) {
  A.testRR(RCX, RCX);
  size_t J1 = A.jccRel32(CC_S);
  if (Limit >= INT32_MIN && Limit <= INT32_MAX) {
    A.cmpRI32(RCX, int32_t(Limit));
  } else {
    // rsi, not rdx: the access-buffer cursor is live in rdx here.
    A.movRI64(RSI, uint64_t(Limit));
    A.cmpRR(RCX, RSI);
  }
  size_t J2 = A.jccRel32(CC_GE);
  return {J1, J2};
}

void FuncCompiler::finishBoundsCheck(Bounds B, uint32_t Ip) {
  size_t Over = A.jmpRel32();
  A.patchHere(B.J1);
  A.patchHere(B.J2);
  emitExit(JitExitKind::FailIndexOOB, Ip);
  A.patchHere(Over);
}

// PushConst fuses with an immediately following pure binop into one
// immediate ALU op on the live top-of-stack slot (the dominant pattern of
// compute-heavy expression chains — it halves their op count). The budget
// is re-checked between the halves like emitJumpIfCmp: on expiry the
// const is pushed and control falls through into the binop's own slot,
// whose prologue then reports the expiry, so accounting stays
// bit-identical to the decoded engine executing two instructions. The
// second slot keeps its standalone stencil, so jumps to it and side-exit
// re-entry at Ip + 1 still work.
void FuncCompiler::emitPushConst(const DecodedInstr &I, uint32_t Ip) {
  DOp Next = Ip + 1 < N ? Ins[Ip + 1].Opcode : DOp::Halt;
  bool ImmFits = I.Imm >= INT32_MIN && I.Imm <= INT32_MAX;
  bool Fuse = ImmFits && (Next == DOp::Add || Next == DOp::Sub ||
                          Next == DOp::Mul ||
                          // Div/Mod only with a divisor that can neither
                          // fail nor take the wrap path.
                          ((Next == DOp::Div || Next == DOp::Mod) &&
                           I.Imm != 0 && I.Imm != -1));
  emitPrologue(Ip);
  if (Fuse) {
    A.cmpRR(R14, R15);
    size_t JExh = A.jccRel32(CC_AE);
    A.incR(R14);
    switch (Next) {
    case DOp::Add:
      A.addMIs32(RBX, -8, int32_t(I.Imm));
      break;
    case DOp::Sub:
      A.subMIs32(RBX, -8, int32_t(I.Imm));
      break;
    case DOp::Mul:
      A.movRM(RAX, RBX, -8);
      A.imulRRI32(RAX, RAX, int32_t(I.Imm));
      A.movMR(RBX, -8, RAX);
      break;
    case DOp::Div:
    case DOp::Mod:
      A.movRIs32(RCX, int32_t(I.Imm));
      A.movRM(RAX, RBX, -8);
      A.cqo();
      A.idivR(RCX);
      A.movMR(RBX, -8, Next == DOp::Div ? RAX : RDX);
      break;
    default:
      break;
    }
    Fixups.emplace_back(A.jmpRel32(), Ip + 2);
    A.patchHere(JExh);
  }
  A.movRI64(RAX, uint64_t(I.Imm));
  opPush(RAX);
}

void FuncCompiler::emitPop(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  A.subRI8(RBX, 8);
}

void FuncCompiler::emitToBool(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  A.movRM(RAX, RBX, -8);
  A.testRR(RAX, RAX);
  A.setccAl(CC_NE);
  A.movzxEaxAl();
  A.movMR(RBX, -8, RAX);
}

void FuncCompiler::emitLoadLocal(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  A.movRM(RAX, R12, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, false);
}

void FuncCompiler::emitStoreLocal(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX);
  A.movMR(R12, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, false);
}

void FuncCompiler::emitLoadLocalElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movRMIdx(RAX, R12, RCX, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitStoreLocalElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX); // value first, then index — the decoded pop order
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movMRIdx(R12, RCX, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitZeroLocal(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  A.leaRM(RDI, R12, dispMul8(I.A));
  A.movRI64(RCX, uint64_t(I.Imm));
  A.xorEaxEax();
  A.repStosq(); // preserves rdx, the access cursor
  emitAccessStore(CTX_OFF(WriteTop), I.B, false); // rax is the 0 written
}

void FuncCompiler::emitLoadShared(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  A.movRM(RSI, R13, CTX_OFF(Shared));
  A.movRM(RAX, RSI, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, false);
}

void FuncCompiler::emitStoreShared(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX);
  A.movRM(RSI, R13, CTX_OFF(Shared));
  A.movMR(RSI, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, false);
}

void FuncCompiler::emitLoadSharedElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movRM(RSI, R13, CTX_OFF(Shared));
  A.movRMIdx(RAX, RSI, RCX, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitStoreSharedElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX);
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movRM(RSI, R13, CTX_OFF(Shared));
  A.movMRIdx(RSI, RCX, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitLoadPriv(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  A.movRM(RSI, R13, CTX_OFF(Priv));
  A.movRM(RAX, RSI, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, false);
}

void FuncCompiler::emitStorePriv(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX);
  A.movRM(RSI, R13, CTX_OFF(Priv));
  A.movMR(RSI, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, false);
}

void FuncCompiler::emitLoadPrivElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(ReadTop), CTX_OFF(ReadLimit), Ip);
  emitPrologue(Ip);
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movRM(RSI, R13, CTX_OFF(Priv));
  A.movRMIdx(RAX, RSI, RCX, dispMul8(I.A));
  opPush(RAX);
  emitAccessStore(CTX_OFF(ReadTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitStorePrivElem(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  opPop(RAX);
  opPop(RCX);
  Bounds B = emitBoundsCheck(I.Imm);
  A.movRM(RSI, R13, CTX_OFF(Priv));
  A.movMRIdx(RSI, RCX, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, true);
  finishBoundsCheck(B, Ip);
}

void FuncCompiler::emitAdd(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  A.addMR(RBX, -8, RAX); // two's-complement wrap == wrapAdd
}

void FuncCompiler::emitSub(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  A.subMR(RBX, -8, RAX);
}

void FuncCompiler::emitMul(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  A.imulRM(RAX, RBX, -8);
  A.movMR(RBX, -8, RAX);
}

// Div/Mod: the B==-1 cases take the wrapDiv/wrapMod special paths inline
// (INT64_MIN / -1 traps on x86; the helpers define it as wrapNeg / 0).
void FuncCompiler::emitDiv(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RCX);            // B
  A.movRM(RAX, RBX, -8); // A
  A.testRR(RCX, RCX);
  size_t JFail = A.jccRel32(CC_E);
  A.cmpRI8(RCX, -1);
  size_t JNeg = A.jccRel32(CC_E);
  A.cqo();
  A.idivR(RCX);
  A.movMR(RBX, -8, RAX);
  size_t Over1 = A.jmpRel32();
  A.patchHere(JNeg);
  A.negM(RBX, -8);
  size_t Over2 = A.jmpRel32();
  A.patchHere(JFail);
  emitExit(JitExitKind::FailDiv0, Ip);
  A.patchHere(Over1);
  A.patchAt(Over2, int32_t(A.size() - (Over2 + 4)));
}

void FuncCompiler::emitMod(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RCX);
  A.movRM(RAX, RBX, -8);
  A.testRR(RCX, RCX);
  size_t JFail = A.jccRel32(CC_E);
  A.cmpRI8(RCX, -1);
  size_t JNeg = A.jccRel32(CC_E);
  A.cqo();
  A.idivR(RCX);
  A.movMR(RBX, -8, RDX); // remainder
  size_t Over1 = A.jmpRel32();
  A.patchHere(JNeg);
  A.movMIs32(RBX, -8, 0); // wrapMod(A, -1) == 0
  size_t Over2 = A.jmpRel32();
  A.patchHere(JFail);
  emitExit(JitExitKind::FailMod0, Ip);
  A.patchHere(Over1);
  A.patchAt(Over2, int32_t(A.size() - (Over2 + 4)));
}

void FuncCompiler::emitNeg(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  A.negM(RBX, -8);
}

void FuncCompiler::emitNot(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  A.movRM(RAX, RBX, -8);
  A.testRR(RAX, RAX);
  A.setccAl(CC_E);
  A.movzxEaxAl();
  A.movMR(RBX, -8, RAX);
}

void FuncCompiler::emitCmp(const DecodedInstr &I, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);            // B
  A.movRM(RCX, RBX, -8); // A
  A.cmpRR(RCX, RAX);
  A.setccAl(ccOfCmp(CmpKind(I.Sub)));
  A.movzxEaxAl();
  A.movMR(RBX, -8, RAX);
}

void FuncCompiler::emitJump(const DecodedInstr &I, uint32_t Ip) {
  emitPrologue(Ip);
  Fixups.emplace_back(A.jmpRel32(), uint32_t(I.A));
}

void FuncCompiler::emitJumpIfFalse(const DecodedInstr &I, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  // The branch helper records IsPredicate/BranchTaken on the open event,
  // unconditionally like the decoded handler. The condition survives the
  // call at [rbx] — the slot it was just popped from.
  A.movRR(RSI, RAX);
  A.movRM(RDI, R13, CTX_OFF(Host));
  A.callM(R13, CTX_OFF(TraceBranch));
  A.movRM(RAX, RBX, 0);
  A.testRR(RAX, RAX);
  Fixups.emplace_back(A.jccRel32(CC_E), uint32_t(I.A));
}

void FuncCompiler::emitJumpIfTrue(const DecodedInstr &I, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  A.movRR(RSI, RAX);
  A.movRM(RDI, R13, CTX_OFF(Host));
  A.callM(R13, CTX_OFF(TraceBranch));
  A.movRM(RAX, RBX, 0);
  A.testRR(RAX, RAX);
  Fixups.emplace_back(A.jccRel32(CC_NE), uint32_t(I.A));
}

// Fused Cmp + JumpIf: charge the compare; the branch half re-checks the
// budget and, when exhausted, pushes the compare result and falls through
// into the branch's own slot — whose prologue then reports the expiry —
// reproducing the decoded engine's superinstruction split bit for bit.
void FuncCompiler::emitJumpIfCmp(const DecodedInstr &I, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX); // B
  opPop(RCX); // A
  A.cmpRR(RCX, RAX);
  A.setccAl(ccOfCmp(CmpKind(I.Sub >> 1)));
  A.movzxEaxAl(); // rax = Cond
  A.cmpRR(R14, R15);
  size_t JExh = A.jccRel32(CC_AE);
  A.incR(R14);
  A.movMR(RBX, 0, RAX); // stash Cond in the free slot above the stack
  A.movRR(RSI, RAX);
  A.movRM(RDI, R13, CTX_OFF(Host));
  A.callM(R13, CTX_OFF(TraceBranch));
  A.movRM(RAX, RBX, 0);
  A.testRR(RAX, RAX);
  Fixups.emplace_back(A.jccRel32((I.Sub & 1) ? CC_NE : CC_E), uint32_t(I.A));
  Fixups.emplace_back(A.jmpRel32(), Ip + 2);
  A.patchHere(JExh);
  opPush(RAX); // leave Cond for the branch slot, fall through into it
}

// Fused PushConst + StoreLocal, split the same way.
void FuncCompiler::emitStoreLocalImm(const DecodedInstr &I, uint32_t Ip) {
  emitAccessCheck(CTX_OFF(WriteTop), CTX_OFF(WriteLimit), Ip);
  emitPrologue(Ip);
  A.cmpRR(R14, R15);
  size_t JExh = A.jccRel32(CC_AE);
  A.incR(R14);
  A.movRI64(RAX, uint64_t(I.Imm));
  A.movMR(R12, dispMul8(I.A), RAX);
  emitAccessStore(CTX_OFF(WriteTop), I.B, false);
  Fixups.emplace_back(A.jmpRel32(), Ip + 2);
  A.patchHere(JExh);
  A.movRI64(RAX, uint64_t(I.Imm));
  opPush(RAX);
}

void FuncCompiler::emitPrintVal(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  opPop(RAX);
  A.movRR(RSI, RAX);
  A.movRM(RDI, R13, CTX_OFF(Host));
  A.movRI32z(RDX, Ip); // the helper resolves the slot's statement id
  A.callM(R13, CTX_OFF(Print));
}

void FuncCompiler::emitTraceStmt(const DecodedInstr &, uint32_t Ip) {
  emitPrologue(Ip);
  A.movRM(RDI, R13, CTX_OFF(Host));
  A.movRI32z(RSI, Ip);
  A.callM(R13, CTX_OFF(TraceStmt));
  A.testEaxEax();
  size_t JCont = A.jccRel32(CC_E);
  emitExit(JitExitKind::Stop, Ip);
  A.patchHere(JCont);
}

void FuncCompiler::emitSlot(const DecodedInstr &I, uint32_t Ip) {
  // Generated from the opcode table: a new opcode without an emitter is a
  // compile error here, so the JIT cannot silently drift from the
  // interpreters' instruction set.
  switch (I.Opcode) {
#define PPD_EMIT_CASE(Name)                                                    \
  case DOp::Name:                                                              \
    emit##Name(I, Ip);                                                         \
    break;
    PPD_DECODED_OPCODES(PPD_EMIT_CASE)
#undef PPD_EMIT_CASE
  }
}

void FuncCompiler::emitThunks() {
  // Entry thunk at offset 0: uint64_t(*)(JitContext *rdi, const void *rsi).
  A.pushR(RBP);
  A.movRR(RBP, RSP);
  A.pushR(RBX);
  A.pushR(R12);
  A.pushR(R13);
  A.pushR(R14);
  A.pushR(R15);
  A.subRI8(RSP, 8); // 16-byte alignment for helper calls
  A.movRR(R13, RDI);
  A.movRM(RBX, R13, CTX_OFF(StackTop));
  A.movRM(R12, R13, CTX_OFF(Slots));
  A.movRM(R14, R13, CTX_OFF(Instructions));
  A.movRM(R15, R13, CTX_OFF(MaxInstructions));
  A.jmpR(RSI);

  // Exit stub: every stencil reaches it with the packed (kind, pc) in rax.
  ExitStubOff = A.size();
  A.movMR(R13, CTX_OFF(StackTop), RBX);
  A.movMR(R13, CTX_OFF(Instructions), R14);
  A.addRI8(RSP, 8);
  A.popR(R15);
  A.popR(R14);
  A.popR(R13);
  A.popR(R12);
  A.popR(RBX);
  A.popR(RBP);
  A.ret();
}

bool FuncCompiler::effect(const DecodedInstr &I, uint32_t Ip, int &Pops,
                          int &Pushes, uint32_t *Succs, int &NS) const {
  NS = 0;
  auto Next = [&](uint32_t S) { Succs[NS++] = S; };
  switch (I.Opcode) {
  case DOp::PushConst:
  case DOp::LoadLocal:
  case DOp::LoadShared:
  case DOp::LoadPriv:
  case DOp::RecvCh:
  case DOp::InputVal:
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::Pop:
  case DOp::StoreLocal:
  case DOp::StoreShared:
  case DOp::StorePriv:
  case DOp::SendCh:
  case DOp::PrintVal:
    Pops = 1;
    Next(Ip + 1);
    break;
  case DOp::ToBool:
  case DOp::Neg:
  case DOp::Not:
  case DOp::LoadLocalElem:
  case DOp::LoadSharedElem:
  case DOp::LoadPrivElem:
    Pops = 1;
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::StoreLocalElem:
  case DOp::StoreSharedElem:
  case DOp::StorePrivElem:
    Pops = 2;
    Next(Ip + 1);
    break;
  case DOp::ZeroLocal:
    if (I.Imm < 0)
      return false;
    Next(Ip + 1);
    break;
  case DOp::Add:
  case DOp::Sub:
  case DOp::Mul:
  case DOp::Div:
  case DOp::Mod:
  case DOp::CmpEq:
  case DOp::CmpNe:
  case DOp::CmpLt:
  case DOp::CmpLe:
  case DOp::CmpGt:
  case DOp::CmpGe:
    Pops = 2;
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::Jump:
    Next(uint32_t(I.A));
    break;
  case DOp::JumpIfFalse:
  case DOp::JumpIfTrue:
    Pops = 1;
    Next(Ip + 1);
    Next(uint32_t(I.A));
    break;
  case DOp::JumpIfCmp:
    // Analyzed as its first half (the compare); the following slot is the
    // still-individually-decoded branch, which propagates to the real
    // successors — exactly the depths the fused stencil's fast path jumps
    // with. Validate the pairing the decoder guarantees.
    if (Ip + 1 >= N ||
        (Ins[Ip + 1].Opcode != DOp::JumpIfFalse &&
         Ins[Ip + 1].Opcode != DOp::JumpIfTrue) ||
        Ins[Ip + 1].A != I.A)
      return false;
    Pops = 2;
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::StoreLocalImm:
    if (Ip + 1 >= N || Ins[Ip + 1].Opcode != DOp::StoreLocal ||
        Ins[Ip + 1].A != I.A)
      return false;
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::Call:
    if (I.B < 0)
      return false;
    Pops = I.B;
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::CallBuiltin:
    switch (Builtin(I.A)) {
    case Builtin::Sqrt:
    case Builtin::Abs:
      Pops = 1;
      break;
    case Builtin::Min:
    case Builtin::Max:
      Pops = 2;
      break;
    case Builtin::None:
      return false;
    }
    Pushes = 1;
    Next(Ip + 1);
    break;
  case DOp::SpawnProc:
    if (I.B < 0)
      return false;
    Pops = I.B;
    Next(Ip + 1);
    break;
  case DOp::SemP:
  case DOp::SemV:
  case DOp::Prelog:
  case DOp::UnitLog:
  case DOp::TraceStmt:
  case DOp::TraceCallBegin:
  case DOp::TraceCallEnd:
    Next(Ip + 1);
    break;
  case DOp::Postlog:
    // Normally terminal, but a what-if divergence continues past it.
    Next(Ip + 1);
    break;
  case DOp::Ret:
  case DOp::Halt:
    break; // terminal
  }
  return true;
}

bool FuncCompiler::analyze() {
  if (N == 0)
    return false;
  DepthAt.assign(N, -1);
  std::vector<uint32_t> Work;
  auto Seed = [&](uint32_t Ip) {
    if (Ip >= N)
      return false;
    if (DepthAt[Ip] == -1) {
      DepthAt[Ip] = 0;
      Work.push_back(Ip);
    }
    return DepthAt[Ip] == 0;
  };
  // Entry points: the function head (doCall) and every e-block entry of
  // this function (interval replay starts there with an empty stack).
  if (!Seed(0))
    return false;
  for (const EBlockInfo &EB : Prog.EBlocks)
    if (EB.Func == F.Index && !Seed(EB.EmuEntryPc))
      return false;

  while (!Work.empty()) {
    uint32_t Ip = Work.back();
    Work.pop_back();
    int32_t D = DepthAt[Ip];
    int Pops = 0, Pushes = 0, NS = 0;
    uint32_t Succs[2];
    if (!effect(Ins[Ip], Ip, Pops, Pushes, Succs, NS))
      return false;
    if (D < Pops)
      return false;
    int32_t DN = D - Pops + Pushes;
    MaxDepth = std::max(MaxDepth, uint32_t(std::max(D, DN)));
    for (int K = 0; K != NS; ++K) {
      uint32_t S = Succs[K];
      if (S >= N)
        return false;
      if (DepthAt[S] == -1) {
        DepthAt[S] = DN;
        Work.push_back(S);
      } else if (DepthAt[S] != DN) {
        return false; // conflicting depths: not a static stack machine?
      }
    }
  }
  return true;
}

bool FuncCompiler::compile(JitCode &Code, std::vector<uint8_t> &Buf) {
  if (!analyze())
    return false;

  emitThunks();
  NativeOff.assign(N, -1);
  for (uint32_t Ip = 0; Ip != N; ++Ip) {
    NativeOff[Ip] = int32_t(A.size());
    if (DepthAt[Ip] < 0) {
      // Unreachable in the analysis: keep the slot enterable but punt it
      // straight back to the interpreter.
      emitExit(JitExitKind::Interp, Ip);
      continue;
    }
    emitSlot(Ins[Ip], Ip);
  }
  for (auto &[Pos, Target] : Fixups) {
    if (Target >= N)
      return false;
    A.patchTo(Pos, size_t(NativeOff[Target]));
  }
  if (!A.Ok || !Ok)
    return false;

  Code.NativeOff = std::move(NativeOff);
  Code.DepthAt = std::move(DepthAt);
  Code.MaxStackDepth = MaxDepth;
  Buf = std::move(A.Buf);
  return true;
}

} // namespace

#endif // PPD_JIT_ENABLED

//===----------------------------------------------------------------------===//
// JitCode / JitProgram
//===----------------------------------------------------------------------===//

JitExit JitCode::enter(JitContext &Ctx, uint32_t Ip) const {
#if PPD_JIT_ENABLED
  using Fn = uint64_t (*)(JitContext *, const void *);
  Fn Entry = reinterpret_cast<Fn>(reinterpret_cast<void *>(Block->Data));
  uint64_t Packed = Entry(&Ctx, Block->Data + NativeOff[Ip]);
  return {JitExitKind(uint32_t(Packed >> 32)), uint32_t(Packed)};
#else
  (void)Ctx;
  (void)Ip;
  return {};
#endif
}

JitProgram::JitProgram(const CompiledProgram &Prog, const JitOptions &Options)
    : Prog(Prog), Options(Options), Arena(Options.CodeBudgetBytes),
      Funcs(Prog.Funcs.size()), Hotness(Prog.EBlocks.size()) {}

JitProgram::~JitProgram() = default;

std::shared_ptr<JitProgram> JitProgram::create(const CompiledProgram &Prog,
                                               const JitOptions &Options) {
#if PPD_JIT_ENABLED
  if (!ExecMemArena::supported())
    return nullptr;
  return std::shared_ptr<JitProgram>(new JitProgram(Prog, Options));
#else
  (void)Prog;
  (void)Options;
  return nullptr;
#endif
}

bool JitProgram::shouldTier(uint32_t EBlockId) {
  if (EBlockId >= Hotness.size())
    return false;
  std::atomic<uint32_t> &H = Hotness[EBlockId];
  uint32_t Count = H.load(std::memory_order_relaxed);
  if (Count < UINT32_MAX)
    H.fetch_add(1, std::memory_order_relaxed);
  return Count + 1 >= Options.HotThreshold;
}

const JitCode *JitProgram::getOrCompile(uint32_t Func) {
#if PPD_JIT_ENABLED
  if (Func >= Funcs.size())
    return nullptr;
  FuncEntry &E = Funcs[Func];
  if (const JitCode *C = E.Code.load(std::memory_order_acquire))
    return C;
  if (E.Failed.load(std::memory_order_relaxed))
    return nullptr;

  std::lock_guard<std::mutex> Lock(CompileMutex);
  if (const JitCode *C = E.Code.load(std::memory_order_acquire))
    return C;
  if (E.Failed.load(std::memory_order_relaxed))
    return nullptr;

  auto T0 = std::chrono::steady_clock::now();
  auto Code = std::make_unique<JitCode>();
  std::vector<uint8_t> Buf;
  bool CompiledOk = FuncCompiler(Prog, Prog.func(Func)).compile(*Code, Buf);
  if (CompiledOk) {
    Code->Block = Arena.allocate(Buf.size());
    if (Code->Block) {
      std::memcpy(Code->Block->Data, Buf.data(), Buf.size());
      CompiledOk = Arena.makeExecutable(*Code->Block);
      if (!CompiledOk)
        Arena.release(Code->Block);
    } else {
      CompiledOk = false; // over the code budget: decoded tier forever
    }
  }
  CompileNs.fetch_add(
      uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - T0)
                   .count()),
      std::memory_order_relaxed);

  if (!CompiledOk) {
    CompileFailures.fetch_add(1, std::memory_order_relaxed);
    E.Failed.store(true, std::memory_order_release);
    return nullptr;
  }
  Compiles.fetch_add(1, std::memory_order_relaxed);
  const JitCode *Raw = Code.get();
  Owned.push_back(std::move(Code));
  E.Code.store(Raw, std::memory_order_release);
  return Raw;
#else
  (void)Func;
  return nullptr;
#endif
}

JitStats JitProgram::stats() const {
  JitStats S;
  S.Compiles = Compiles.load(std::memory_order_relaxed);
  S.CompileFailures = CompileFailures.load(std::memory_order_relaxed);
  S.CompileNs = CompileNs.load(std::memory_order_relaxed);
  S.ExecNs = ExecNs.load(std::memory_order_relaxed);
  S.Bailouts = Bailouts.load(std::memory_order_relaxed);
  S.JittedReplays = JittedReplays.load(std::memory_order_relaxed);
  return S;
}

void JitProgram::noteExec(uint64_t Ns, uint64_t ExitCount,
                          bool EnteredNative) {
  ExecNs.fetch_add(Ns, std::memory_order_relaxed);
  Bailouts.fetch_add(ExitCount, std::memory_order_relaxed);
  if (EnteredNative)
    JittedReplays.fetch_add(1, std::memory_order_relaxed);
}
