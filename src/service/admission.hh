/**
 * @file
 * SLO-driven admission control for the index service.
 *
 * The service's central latency trade — hold a tail window open so
 * drains see full-width batches, at the cost of queue-wait for the
 * requests parked in it — was a static bool (coalesceTails). That is
 * the wrong shape for a server: the right hold depends on load, and
 * under overload no hold policy saves you — only shedding does.
 * AdmissionController closes the loop on the measured signal
 * instead:
 *
 *  - **Signal.** Walkers feed each request's queue-wait (submit ->
 *    first window claim) into a dedicated sharded LatencyRecorder at
 *    claim time; the controller samples it in wall-clock intervals
 *    (LatencyRecorder::intervalSince) and reads the *window's* p99 —
 *    a moving percentile over recent traffic, not the run's history.
 *
 *  - **Actuators.** Two, engaged AIMD-style in sequence:
 *    `holdKeys` — seal an open window once it holds this many keys
 *    (chunk = full coalescing, 1 = seal immediately; this is the
 *    coalesceTails axis made continuous); and `budgetKeys` — a bound
 *    on keys parked in the admission queues, over which submit()
 *    rejects (backpressure). Over target, the controller first
 *    halves the hold (stop trading latency for width), then halves
 *    the budget (shed: under sustained overload queue-wait is
 *    queue-depth divided by drain rate, so bounding the queue is the
 *    only lever that bounds the percentile). Under target it
 *    recovers additively — budget first, hold last — so a load dip
 *    doesn't slingshot into full coalescing.
 *
 *  - **Cadence.** One walker per interval is elected by CAS to run
 *    the adjustment (observe() is called after every drained window;
 *    losers and below-minimum-sample intervals cost one relaxed
 *    load). Intervals with fewer than `kMinIntervalSamples` claims
 *    leave the cursor in place so sparse traffic accumulates instead
 *    of being judged on noise.
 *
 * The controller never touches the service's queues itself — it only
 * publishes the two knobs as relaxed atomics that the submit path
 * reads. See src/service/README.md ("Overload and failure
 * handling").
 */

#ifndef WIDX_SERVICE_ADMISSION_HH
#define WIDX_SERVICE_ADMISSION_HH

#include <atomic>

#include "common/latency.hh"
#include "common/thread_safety.hh"

namespace widx::sw {

/** Closed-loop admission knobs (ServiceConfig::admission). */
struct AdmissionConfig
{
    /** Master switch: on, the AIMD controller drives tail-window
     *  holds and the queue budget and ServiceConfig::coalesceTails
     *  is ignored (off keeps the static coalesceTails behavior as a
     *  forced mode). */
    bool adaptive = false;
    /** The SLO: windowed queue-wait p99 the controller steers to. */
    u64 targetQueueP99Ns = 2'000'000;
    /** Controller cadence: adjust at most once per interval. */
    u64 intervalNs = 2'000'000;
};

/** Point-in-time controller state (ServiceStats::admission). */
struct AdmissionSnapshot
{
    u32 holdKeys = 0;      ///< current open-window seal threshold
    u64 budgetKeys = 0;    ///< current queued-key budget
    u64 adjustments = 0;   ///< judged intervals
    u64 decreases = 0;     ///< intervals that halved hold or budget
    u64 lastWindowP99Ns = 0; ///< last judged interval's queue p99
    u64 lastWindowCount = 0; ///< samples in that interval
};

class AdmissionController
{
  public:
    /** Minimum claims in an interval before it is judged; sparser
     *  intervals accumulate into the next one. */
    static constexpr u64 kMinIntervalSamples = 32;
    /** Additive recovery step for the hold threshold (keys). */
    static constexpr u32 kHoldStepKeys = 8;
    /** Additive recovery step for the queue budget (keys). */
    static constexpr u64 kBudgetStepKeys = 512;
    /** Floor the budget never shrinks below (keeps a full window's
     *  worth of admission even at max shed). */
    static constexpr u64 kMinBudgetKeys = 256;
    /** Ceiling / initial value of the queue budget. */
    static constexpr u64 kMaxBudgetKeys = u64(1) << 20;

    /** @param chunkKeys the service's dispatch-window capacity (the
     *  hold ceiling); @param recorderShards concurrency shards for
     *  the claim-time recorder (walkers + 1, as elsewhere). */
    AdmissionController(const AdmissionConfig &cfg, u32 chunkKeys,
                        unsigned recorderShards);

    /** The open-window seal threshold, in [1, chunkKeys]. */
    u32
    holdKeys() const
    {
        return hold_.load(std::memory_order_relaxed);
    }

    /** The queued-key budget submit() enforces. */
    u64
    budgetKeys() const
    {
        return budget_.load(std::memory_order_relaxed);
    }

    /** Feed one request's measured queue-wait (called by the walker
     *  that first claims a segment of the request). */
    void
    recordQueueWait(u64 ns)
    {
        rec_.record(ns);
    }

    /** Controller tick: cheap unless `nowNs` crossed the interval
     *  boundary *and* this caller wins the CAS election, in which
     *  case the interval is sampled and the knobs adjust. Called by
     *  walkers after each drained window. */
    void observe(u64 nowNs);

    AdmissionSnapshot snapshot() const;

  private:
    /** The elected adjuster's interval judgement; needs the cursor
     *  lock (observe() try-locks and skips when a previous adjuster
     *  is still inside). */
    void adjustLocked() WIDX_REQUIRES(m_);

    const AdmissionConfig cfg_;
    const u32 chunk_;

    std::atomic<u32> hold_;
    std::atomic<u64> budget_;
    std::atomic<u64> nextAdjustNs_{0};

    std::atomic<u64> adjustments_{0};
    std::atomic<u64> decreases_{0};
    std::atomic<u64> lastP99_{0};
    std::atomic<u64> lastCount_{0};

    LatencyRecorder rec_;
    /** Interval cursor; only the elected adjuster (under m_)
     *  advances it. */
    Mutex m_;
    LatencyHistogram cursor_ WIDX_GUARDED_BY(m_);
};

} // namespace widx::sw

#endif // WIDX_SERVICE_ADMISSION_HH
