/**
 * @file
 * Epoch-based reclamation for lock-free probe paths.
 *
 * The walkers never take locks on the probe path (the whole point of
 * the Widx schedule is to keep the miss pipeline full), so a writer
 * that unlinks a node or swaps out a bucket array cannot free the
 * memory immediately: an in-flight AMAC probe may still hold a
 * pointer into it. The classic answer is epoch-based reclamation
 * (Fraser's scheme, as used by every serious lock-free index since):
 *
 *   - A global epoch counter advances monotonically (writers bump it
 *     once per mutation batch).
 *   - Each reader thread *pins* the current epoch before touching
 *     retired-capable memory and *unpins* when done. Pinned state
 *     lives in a fixed array of cache-line-padded slots so readers
 *     never contend with each other.
 *   - A writer that retires an object records the epoch at retire
 *     time. The object is reclaimable once `safeBefore()` exceeds
 *     that epoch — i.e. every reader pinned *after* the retire, so
 *     none can hold a pre-retire pointer.
 *
 * The manager only tracks epochs; retired-object limbo lists live
 * with their owners (per-shard, drained by that shard's single
 * writer) so reclamation never crosses shard ownership.
 *
 * Usage on the read side is RAII:
 *
 *     widx::EpochGuard g(epochs, slot);   // pin
 *     ... lock-free probes ...
 *     // unpin at scope exit
 *
 * Slots are claimed once per thread (acquireSlot) and released when
 * the thread retires. Pin/unpin are two relaxed-ish atomic ops on a
 * thread-private cache line — nanoseconds, invisible next to a DRAM
 * miss.
 */

#ifndef WIDX_COMMON_EPOCH_HH
#define WIDX_COMMON_EPOCH_HH

#include <atomic>

#include "common/logging.hh"
#include "common/types.hh"

namespace widx {

class EpochManager
{
  public:
    /** Fixed reader-slot capacity: enough for every walker plus
     *  ad-hoc reader threads in any supported topology. */
    static constexpr unsigned kMaxSlots = 64;

    /** Sentinel stored in an unpinned slot. */
    static constexpr u64 kIdle = ~u64(0);

    EpochManager() = default;
    EpochManager(const EpochManager &) = delete;
    EpochManager &operator=(const EpochManager &) = delete;

    /** Claim a reader slot for the calling thread. Slots are a
     *  process-lifetime resource here: walkers claim at spawn and
     *  release at join. Panics if all slots are taken. */
    unsigned
    acquireSlot()
    {
        for (unsigned i = 0; i < kMaxSlots; ++i) {
            bool expected = false;
            if (slots_[i].claimed.compare_exchange_strong(
                    expected, true, std::memory_order_acq_rel))
                return i;
        }
        panic("epoch: out of reader slots (max %u)", kMaxSlots);
    }

    void
    releaseSlot(unsigned slot)
    {
        fatal_if(slot >= kMaxSlots, "epoch: bad slot %u", slot);
        slots_[slot].epoch.store(kIdle, std::memory_order_release);
        slots_[slot].claimed.store(false, std::memory_order_release);
    }

    /** Pin the current epoch in `slot`. seq_cst so the pin publishes
     *  before any subsequent probe load and is globally ordered
     *  against a concurrent writer's retire — the one fence per
     *  claimed *window* (hundreds of keys), not per probe. */
    void
    pin(unsigned slot)
    {
        const u64 e = epoch_.load(std::memory_order_relaxed);
        slots_[slot].epoch.store(e, std::memory_order_seq_cst);
    }

    /** Unpin: probe loads must complete before the release store. */
    void
    unpin(unsigned slot)
    {
        slots_[slot].epoch.store(kIdle, std::memory_order_release);
    }

    u64
    current() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    /** Writer-side: advance the global epoch (once per mutation
     *  batch). Returns the new epoch. */
    u64
    advance()
    {
        return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    /** Smallest epoch any reader might still be inside. An object
     *  retired at epoch `e` is reclaimable iff `e < safeBefore()`:
     *  every pinned reader entered after the retiring writer's
     *  advance, so none can hold a pre-retire pointer. seq_cst load
     *  pairs with the pin's seq_cst store — a reader that pinned
     *  before this load is seen; one that pins after it pinned a
     *  post-advance epoch. */
    u64
    safeBefore() const
    {
        u64 min = epoch_.load(std::memory_order_seq_cst);
        for (unsigned i = 0; i < kMaxSlots; ++i) {
            const u64 e =
                slots_[i].epoch.load(std::memory_order_seq_cst);
            if (e != kIdle && e < min)
                min = e;
        }
        return min;
    }

    /** Observability: how far the slowest pinned reader lags the
     *  current epoch (0 when no reader is pinned behind it). */
    u64
    lag() const
    {
        const u64 cur = epoch_.load(std::memory_order_acquire);
        const u64 safe = safeBefore();
        return cur > safe ? cur - safe : 0;
    }

    /** Number of currently pinned reader slots (diagnostics). */
    unsigned pinnedReaders() const;

  private:
    // widx-lint: padded -- per-reader slots are written by distinct
    // threads on every window claim; sharing a line would put the
    // pin/unpin stores of different walkers in false sharing.
    struct alignas(kCacheBlockBytes) Slot
    {
        std::atomic<u64> epoch{kIdle};
        std::atomic<bool> claimed{false};
    };
    static_assert(sizeof(Slot) == kCacheBlockBytes);

    alignas(kCacheBlockBytes) std::atomic<u64> epoch_{1};
    Slot slots_[kMaxSlots];
};

/** RAII pin: pins at construction, unpins at scope exit. */
class EpochGuard
{
  public:
    EpochGuard(EpochManager &mgr, unsigned slot)
        : mgr_(mgr), slot_(slot)
    {
        mgr_.pin(slot_);
    }

    ~EpochGuard() { mgr_.unpin(slot_); }

    EpochGuard(const EpochGuard &) = delete;
    EpochGuard &operator=(const EpochGuard &) = delete;

  private:
    EpochManager &mgr_;
    unsigned slot_;
};

} // namespace widx

#endif // WIDX_COMMON_EPOCH_HH
