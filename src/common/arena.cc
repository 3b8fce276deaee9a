#include "common/arena.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

#include "common/logging.hh"

namespace widx {

namespace {

constexpr std::size_t kHugePageBytes = std::size_t(2) << 20;

std::size_t
roundUp(std::size_t v, std::size_t to)
{
    return (v + to - 1) & ~(to - 1);
}

} // namespace

void
Arena::Unmap::operator()(unsigned char *p) const
{
    munmap(p, bytes);
}

Arena::Arena(std::size_t chunk_bytes)
    : chunkBytes_(chunk_bytes)
{
    panic_if(chunk_bytes == 0, "arena chunk size must be nonzero");
}

Arena::Chunk &
Arena::ensureRoom(std::size_t bytes, std::size_t align)
{
    if (!chunks_.empty()) {
        Chunk &c = chunks_.back();
        std::size_t aligned = (c.used + align - 1) & ~(align - 1);
        if (aligned + bytes <= c.size)
            return c;
    }
    std::size_t want = bytes + align > chunkBytes_ ? bytes + align
                                                   : chunkBytes_;
    // The kernel hands out zeroed pages, so nothing is touched here:
    // a page costs RSS only once the index writes it.
    const std::size_t page = std::size_t(sysconf(_SC_PAGESIZE));
    const std::size_t len = roundUp(want, page);
    void *m = mmap(nullptr, len + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED)
        throw std::bad_alloc();
    auto *base = static_cast<unsigned char *>(m);
    Chunk c;
    c.data = std::unique_ptr<unsigned char[], Unmap>(
        base, Unmap{len + page});
    panic_if(mprotect(base + len, page, PROT_NONE) != 0,
             "arena guard page: mprotect failed");
    // Advice only: where THP is off or the interior holds no whole
    // huge page, the chunk simply stays on base pages.
    const auto lo = roundUp(reinterpret_cast<std::uintptr_t>(base),
                            kHugePageBytes);
    const auto hi = (reinterpret_cast<std::uintptr_t>(base) + len) &
                    ~(kHugePageBytes - 1);
    if (hi > lo)
        (void)madvise(reinterpret_cast<void *>(lo), hi - lo,
                      MADV_HUGEPAGE);
    c.size = want;
    c.used = 0;
    reserved_ += want;
    chunks_.push_back(std::move(c));
    return chunks_.back();
}

void *
Arena::allocateBytes(std::size_t bytes, std::size_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two, got %zu", align);
    if (bytes == 0)
        bytes = 1;
    Chunk &c = ensureRoom(bytes, align);
    std::size_t base = reinterpret_cast<std::size_t>(c.data.get());
    std::size_t aligned = (base + c.used + align - 1) & ~(align - 1);
    c.used = aligned - base + bytes;
    allocated_ += bytes;
    return reinterpret_cast<void *>(aligned);
}

void
Arena::releaseAll()
{
    chunks_.clear();
    allocated_ = 0;
    reserved_ = 0;
}

} // namespace widx
