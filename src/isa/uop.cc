#include "isa/uop.hh"

#include <sstream>

namespace mop::isa
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMult: return "IntMult";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::Load: return "Load";
      case OpClass::StoreAddr: return "StoreAddr";
      case OpClass::StoreData: return "StoreData";
      case OpClass::Branch: return "Branch";
      case OpClass::Jump: return "Jump";
      case OpClass::JumpInd: return "JumpInd";
      case OpClass::FpAlu: return "FpAlu";
      case OpClass::FpMult: return "FpMult";
      case OpClass::FpDiv: return "FpDiv";
      case OpClass::Nop: return "Nop";
    }
    return "?";
}

std::string
MicroOp::toString() const
{
    std::ostringstream ss;
    ss << "[" << seq << " pc=0x" << std::hex << pc << std::dec << " "
       << opClassName(op);
    if (hasDst())
        ss << " r" << dst << " <-";
    for (int i = 0; i < 2; ++i)
        if (src[i] != kNoReg)
            ss << " r" << src[i];
    if (isLoad() || isStoreAddr() || op == OpClass::StoreData)
        ss << " @0x" << std::hex << memAddr << std::dec;
    if (isControl())
        ss << (taken ? " T" : " NT");
    ss << "]";
    return ss.str();
}

} // namespace mop::isa
