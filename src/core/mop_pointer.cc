#include "core/mop_pointer.hh"

#include <utility>

namespace mop::core
{

namespace
{

constexpr size_t kInitialSlots = 256;

/** Fibonacci hashing: the multiply spreads the PC's low bits (all
 *  that vary within a program) over the high bits kept by the mask. */
size_t
homeSlot(uint64_t pc, size_t mask)
{
    return size_t((pc * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

} // namespace

MopPointerCache::MopPointerCache() : slots_(kInitialSlots) {}

size_t
MopPointerCache::find(uint64_t pc) const
{
    size_t mask = slots_.size() - 1;
    size_t i = homeSlot(pc, mask);
    while (slots_[i].used() && slots_[i].pc != pc)
        i = (i + 1) & mask;
    return i;
}

void
MopPointerCache::erase(size_t i)
{
    size_t mask = slots_.size() - 1;
    for (size_t j = (i + 1) & mask; slots_[j].used(); j = (j + 1) & mask) {
        // The member at j may fill the hole at i unless its home slot
        // lies cyclically in (i, j].
        size_t home = homeSlot(slots_[j].pc, mask);
        if (((j - home) & mask) >= ((j - i) & mask)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i] = Slot{};
    --used_;
}

void
MopPointerCache::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot &s : old)
        if (s.used())
            slots_[find(s.pc)] = s;
}

void
MopPointerCache::write(uint64_t pc, const MopPointer &p)
{
    if (!p.valid())
        return;
    size_t i = find(pc);
    if ((slots_[i].entry.excluded >> (p.offset & 7)) & 1)
        return;
    if (!slots_[i].used()) {
        if (2 * (used_ + 1) > slots_.size()) {
            grow();
            i = find(pc);
        }
        slots_[i].pc = pc;
        ++used_;
    }
    if (!slots_[i].entry.ptr.valid())
        ++pointers_;
    slots_[i].entry.ptr = p;
    ++writes_;
    ++version_;
}

void
MopPointerCache::deleteAndExclude(uint64_t pc)
{
    PointerProbe &e = slots_[find(pc)].entry;
    if (!e.ptr.valid())
        return;
    e.excluded |= uint8_t(1u << (e.ptr.offset & 7));
    e.ptr = MopPointer{};
    --pointers_;
    ++filterDeletions_;
    ++version_;
}

void
MopPointerCache::evictLine(uint64_t line_addr, uint32_t line_bytes)
{
    bool any = false;
    for (uint64_t pc = line_addr; pc < line_addr + line_bytes; pc += 4) {
        size_t i = find(pc);
        PointerProbe &e = slots_[i].entry;
        if (!e.ptr.valid())
            continue;
        e.ptr = MopPointer{};
        --pointers_;
        any = true;
        if (!e.excluded)
            erase(i);
    }
    if (any) {
        ++lineEvictions_;
        ++version_;
    }
}

} // namespace mop::core
