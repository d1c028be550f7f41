/**
 * @file
 * Micro-op and op-class definitions shared by every model in the repo.
 *
 * The simulated ISA is a RISC (Alpha-like) machine: at most two source
 * registers and one destination register per operation. Stores are
 * decoded into two separate micro-ops (address generation plus the
 * actual store-data operation), matching the Pentium-4-style split the
 * paper's base machine uses (Section 2.1).
 */

#ifndef MOP_ISA_UOP_HH
#define MOP_ISA_UOP_HH

#include <array>
#include <cstdint>
#include <string>

namespace mop::isa
{

/** Operation classes with distinct scheduling/execution behaviour. */
enum class OpClass : uint8_t
{
    IntAlu,     ///< single-cycle integer ALU op
    IntMult,    ///< integer multiply (3 cycles)
    IntDiv,     ///< integer divide (20 cycles, unpipelined)
    Load,       ///< load: 1-cycle addr-gen then cache access
    StoreAddr,  ///< store address generation (single-cycle)
    StoreData,  ///< store data move; data written to memory at commit
    Branch,     ///< conditional direct branch (single-cycle)
    Jump,       ///< unconditional direct jump/call (single-cycle)
    JumpInd,    ///< indirect jump/return (single-cycle, indirect ctrl)
    FpAlu,      ///< FP add/sub/cmp (2 cycles)
    FpMult,     ///< FP multiply (4 cycles)
    FpDiv,      ///< FP divide (24 cycles, unpipelined)
    Nop,        ///< filtered by the decoder, never reaches rename
};

constexpr size_t kNumOpClasses = size_t(OpClass::Nop) + 1;

/** Functional-unit pools of the Table 1 machine. */
enum class FuKind : uint8_t
{
    IntAluFu,    ///< 4 units; also executes StoreAddr and control ops
    IntMultDiv,  ///< 2 units
    FpAluFu,     ///< 2 units
    FpMultDiv,   ///< 2 units
    MemPort,     ///< 2 general memory ports (loads, store data)
    None,        ///< nops
};

constexpr size_t kNumFuKinds = size_t(FuKind::None);

/** Invalid/absent register designator. */
constexpr int16_t kNoReg = -1;

/** Number of logical registers (integer + FP name spaces combined). */
constexpr int kNumLogicalRegs = 64;

/** Integer zero register (reads ready immediately, writes discarded). */
constexpr int16_t kZeroReg = 31;
/** FP zero register. */
constexpr int16_t kFpZeroReg = 63;

/** Execution latency in cycles once the op reaches its FU.
 *  Loads add the memory-hierarchy access on top of address generation. */
constexpr int
opLatency(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:
      case OpClass::StoreAddr:
      case OpClass::StoreData:
      case OpClass::Branch:
      case OpClass::Jump:
      case OpClass::JumpInd:
        return 1;
      case OpClass::IntMult:
        return 3;
      case OpClass::IntDiv:
        return 20;
      case OpClass::Load:
        return 1;  // address generation; cache access added by the core
      case OpClass::FpAlu:
        return 2;
      case OpClass::FpMult:
        return 4;
      case OpClass::FpDiv:
        return 24;
      case OpClass::Nop:
        return 0;
    }
    return 1;
}

/** Which functional-unit pool executes this op class. */
constexpr FuKind
opFuKind(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:
      case OpClass::StoreAddr:
      case OpClass::Branch:
      case OpClass::Jump:
      case OpClass::JumpInd:
        return FuKind::IntAluFu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuKind::IntMultDiv;
      case OpClass::Load:
      case OpClass::StoreData:
        return FuKind::MemPort;
      case OpClass::FpAlu:
        return FuKind::FpAluFu;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return FuKind::FpMultDiv;
      case OpClass::Nop:
        return FuKind::None;
    }
    return FuKind::IntAluFu;
}

/** True for ops whose FU does not accept a new op every cycle. */
constexpr bool
opUnpipelined(OpClass c)
{
    return c == OpClass::IntDiv || c == OpClass::FpDiv;
}

/** True if this class transfers control. */
constexpr bool
opIsControl(OpClass c)
{
    return c == OpClass::Branch || c == OpClass::Jump ||
           c == OpClass::JumpInd;
}

/** True if control transfer target cannot be encoded in a MOP pointer
 *  control bit (indirect jumps, Section 5.1.3). */
constexpr bool
opIsIndirectControl(OpClass c)
{
    return c == OpClass::JumpInd;
}

/**
 * True for MOP candidate classes: single-cycle ALU, store address
 * generation and control instructions (Section 4.1). Store-data ops are
 * not candidates; they represent the half of a store the paper does not
 * count (Figure 7 counts each store once, as its address generation).
 * Indirect control breaks MOP pointer encoding, so it is conservatively
 * a non-candidate and can never be grouped (Section 5.1.3).
 */
constexpr bool
opIsMopCandidate(OpClass c)
{
    return c == OpClass::IntAlu || c == OpClass::StoreAddr ||
           c == OpClass::Branch || c == OpClass::Jump;
}

const char *opClassName(OpClass c);

/**
 * A dynamic micro-op: the unit that flows from the trace source through
 * decode, rename, the scheduler and the ROB.
 */
struct MicroOp
{
    uint64_t seq = 0;        ///< dynamic µop sequence number
    uint64_t pc = 0;         ///< PC of the parent instruction
    OpClass op = OpClass::Nop;
    int16_t dst = kNoReg;    ///< logical destination register
    std::array<int16_t, 2> src = {kNoReg, kNoReg};
    uint64_t memAddr = 0;    ///< effective address (loads/stores)
    bool taken = false;      ///< actual outcome (control ops)
    uint64_t target = 0;     ///< actual target (control ops)
    bool firstUop = true;    ///< first µop of its instruction (IPC unit)

    int
    numSrcs() const
    {
        return int(src[0] != kNoReg) + int(src[1] != kNoReg);
    }

    bool hasDst() const { return dst != kNoReg; }
    bool isControl() const { return opIsControl(op); }
    bool isLoad() const { return op == OpClass::Load; }
    bool isStoreAddr() const { return op == OpClass::StoreAddr; }

    bool isMopCandidate() const { return opIsMopCandidate(op); }

    /** Value-generating MOP candidate: may be a MOP head (Section 4.1). */
    bool
    isValueGenCandidate() const
    {
        return isMopCandidate() && hasDst();
    }

    std::string toString() const;
};

} // namespace mop::isa

#endif // MOP_ISA_UOP_HH
