/**
 * @file
 * Bounded lock-light span ring for per-request tracing.
 *
 * A request that opts in (nonzero `SubmitOptions::traceId`, carried
 * over the wire by the trace-id frame flag) gets an instant span
 * event stamped at each point the latency board already touches:
 * submit, window seal, first walker claim, drain done, and
 * completion reap. Events land in a fixed-size power-of-two ring;
 * under overload the ring overwrites its oldest entries — tracing
 * never blocks, allocates, or back-pressures the request path.
 *
 * Writer protocol (wait-free): a writer takes a global ticket t
 * with one relaxed fetch_add, then claims its slot under a per-slot
 * sequence (seqlock flavored): one CAS moves seq from an older even
 * value to 2t + 1 (write begins), then the fields, then
 * seq <- 2t + 2 (write complete, release). A writer that finds the
 * slot odd (another writer mid-write) or already at 2t + 1 or past
 * it (a later lap owns the slot) drops its event instead of
 * waiting, so two writers a lap apart can never interleave their
 * field stores. Readers load seq (acquire), copy the fields, and
 * re-check seq — a slot rewritten mid-copy is detected and skipped,
 * not mis-reported. Every field is an atomic accessed relaxed, so
 * the race is benign under TSan too, by construction rather than by
 * suppression.
 *
 * `renderChromeTrace()` emits the snapshot as chrome://tracing /
 * Perfetto "traceEvents" JSON — instant events keyed by trace id —
 * which the example server dumps on SIGUSR1.
 */

#ifndef WIDX_OBS_TRACE_HH
#define WIDX_OBS_TRACE_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace widx::obs {

/** Where in a request's life a span event was stamped. */
enum class SpanPoint : u8 {
    Submit = 0,    ///< request accepted into the service
    WindowSeal,    ///< the admission window holding it sealed
    FirstClaim,    ///< a walker first claimed one of its windows
    DrainDone,     ///< last window drained; result published
    Reap,          ///< completion reaped off a CompletionQueue
};

const char *spanPointName(SpanPoint p);

class TraceRing
{
  public:
    struct Event
    {
        u64 traceId = 0;
        u64 tsNs = 0; ///< monotonicNowNs() at the stamp
        SpanPoint point = SpanPoint::Submit;
        u32 arg = 0; ///< point-specific detail (e.g. walker id)
    };

    /** @param capacity slots, rounded up to a power of two. */
    explicit TraceRing(std::size_t capacity = 4096);

    /** Stamp one span event (wait-free, never blocks; dropped when
     *  another writer holds or has overtaken the slot). */
    // widx-lint: seqlock-writer
    void
    record(u64 traceId, SpanPoint point, u64 tsNs, u32 arg = 0)
    {
        const u64 t = head_.fetch_add(1, std::memory_order_relaxed);
        Slot &s = slots_[t & mask_];
        // A failed CAS means another writer claimed the slot since
        // the load, so the retries are bounded by the older tickets
        // that share it.
        u64 seq = s.seq.load(std::memory_order_relaxed);
        do {
            if ((seq & 1) != 0 || seq >= 2 * t + 1)
                return;
        } while (!s.seq.compare_exchange_strong(
            seq, 2 * t + 1, std::memory_order_acq_rel,
            std::memory_order_relaxed));
        s.traceId.store(traceId, std::memory_order_relaxed);
        s.tsNs.store(tsNs, std::memory_order_relaxed);
        s.point.store(u32(point), std::memory_order_relaxed);
        s.arg.store(arg, std::memory_order_relaxed);
        s.seq.store(2 * t + 2, std::memory_order_release);
    }

    /** Copy out the surviving events, oldest first. Torn slots
     *  (overwritten mid-read) are skipped. Safe concurrent with
     *  writers; the cut is approximate while they run. */
    std::vector<Event> snapshot() const;

    /** Tickets ever taken, dropped events included (>= capacity
     *  means wrapped). */
    u64
    recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Render a snapshot as chrome://tracing "traceEvents" JSON. */
    std::string renderChromeTrace() const;

  private:
    struct alignas(kCacheBlockBytes) Slot
    {
        std::atomic<u64> seq{0}; ///< 0 empty; odd busy; even done
        std::atomic<u64> traceId{0};
        std::atomic<u64> tsNs{0};
        std::atomic<u32> point{0};
        std::atomic<u32> arg{0};
    };

    std::unique_ptr<Slot[]> slots_;
    u64 mask_;
    std::atomic<u64> head_{0};
};

} // namespace widx::obs

#endif // WIDX_OBS_TRACE_HH
