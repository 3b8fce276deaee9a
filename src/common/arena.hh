/**
 * @file
 * Bump-pointer arena allocator.
 *
 * The hash index and node lists live in one (or a few) contiguous
 * chunks so that (a) the simulated footprint matches the logical data
 * size and (b) host pointers double as simulated addresses with
 * realistic page/cache-block structure. Allocation never moves
 * existing objects, so node pointers stay valid for the lifetime of
 * the arena.
 *
 * Each chunk is its own anonymous private mapping:
 *  - The kernel zeroes the pages, so the arena never writes them
 *    itself, and a page costs resident memory only once a caller
 *    touches it.
 *  - The chunk's 2 MiB-aligned interior is advised MADV_HUGEPAGE, so
 *    where transparent huge pages are allowed by madvise the hash
 *    index sits on 2 MiB pages, the large pages the paper's system
 *    (and the simulator, sim/params.hh) assumes. Where THP is off, or
 *    the chunk holds no whole 2 MiB page, the advice fails or does
 *    nothing and the chunk stays on base pages, silently.
 *  - One PROT_NONE guard page follows the mapping, so a write past a
 *    chunk's last page faults in every build, not only under ASan.
 */

#ifndef WIDX_COMMON_ARENA_HH
#define WIDX_COMMON_ARENA_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace widx {

/**
 * Chunked bump allocator. Objects are allocated front-to-back from
 * large chunks; everything is freed at once when the arena dies.
 */
class Arena
{
  public:
    /** @param chunk_bytes size of each backing chunk. */
    explicit Arena(std::size_t chunk_bytes = 16u << 20);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;
    Arena(Arena &&) = default;
    Arena &operator=(Arena &&) = default;

    /**
     * Allocate raw storage.
     *
     * @param bytes number of bytes, may exceed the chunk size (the
     *        allocation then gets a chunk of its own).
     * @param align alignment, must be a power of two.
     * @return pointer to zero-initialized storage.
     * @throw std::bad_alloc when the system refuses a new chunk.
     */
    void *allocateBytes(std::size_t bytes, std::size_t align = 8);

    /** Allocate and default-construct a T. T must be trivially
     *  destructible (the arena never runs destructors). */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *p = allocateBytes(sizeof(T), alignof(T));
        return new (p) T(std::forward<Args>(args)...);
    }

    /** Allocate a zero-initialized array of n Ts. */
    template <typename T>
    T *
    makeArray(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *p = allocateBytes(sizeof(T) * n, alignof(T));
        return static_cast<T *>(p);
    }

    /** Total bytes handed out to callers so far. */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Total chunk bytes reserved so far (each mapping rounds this
     *  chunk's size up to whole pages, plus its guard page). */
    std::size_t reservedBytes() const { return reserved_; }

    /** Release all chunks; outstanding pointers become invalid. */
    void releaseAll();

  private:
    /** Deleter for one chunk mapping, guard page included. No
     *  member initializer: gcc would then not see the type as
     *  default-constructible inside the unfinished Arena. An empty
     *  unique_ptr value-initializes it, so `bytes` reads 0. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(unsigned char *p) const;
    };

    struct Chunk
    {
        std::unique_ptr<unsigned char[], Unmap> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    Chunk &ensureRoom(std::size_t bytes, std::size_t align);

    std::size_t chunkBytes_;
    std::size_t allocated_ = 0;
    std::size_t reserved_ = 0;
    std::vector<Chunk> chunks_;
};

} // namespace widx

#endif // WIDX_COMMON_ARENA_HH
