/**
 * @file
 * Transport-generic core of the open-loop generator.
 *
 * `runOpenLoop` (local service) and `runOpenLoopNet` (TCP client)
 * are the same experiment over different submission surfaces:
 * schedule arrivals, submit without waiting, reap completions in
 * batches from a CompletionQueue, and measure each request from its
 * *scheduled* arrival to its stamped completion. This header holds
 * that shared core so the two transports cannot drift apart in
 * measurement discipline.
 *
 * The Submit callable issues one request: submit(tag, keys,
 * deadlineAbsNs) with deadlineAbsNs an absolute monotonic deadline
 * (0 = none). Its completion must eventually land on `cq` carrying
 * the same tag, with `result.completedAtNs` stamped at completion
 * time (the service stamps at publication; the net client stamps at
 * receipt) — reap order and reap delay never inflate a measurement.
 *
 * Tags are arrival indexes: tag i's scheduled time lives in a flat
 * array the reaper indexes on completion. A request whose
 * completion lands more than `drainTimeout` after its scheduled
 * arrival counts as timed-out (latency unrecorded); one that never
 * completes within `drainTimeout` of the last submission is counted
 * timed-out and left behind — the queue is shared-owned, so a
 * straggler completing after return pushes into a queue nobody
 * reads instead of freed memory.
 */

#ifndef WIDX_SERVICE_OPEN_LOOP_DRIVER_HH
#define WIDX_SERVICE_OPEN_LOOP_DRIVER_HH

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "service/open_loop.hh"

namespace widx::sw::detail {

/** Advance the arrival schedule by one draw (ns since run start). */
inline u64
nextArrival(u64 schedNs, const OpenLoopOptions &opt, Rng &rng)
{
    const double meanGapNs = 1e9 / opt.ratePerSec;
    switch (opt.arrivals) {
    case ArrivalProcess::Uniform:
        return schedNs + u64(meanGapNs);
    case ArrivalProcess::Poisson:
        // Exponential gap: -ln(U) * mean, U in (0, 1].
        return schedNs +
               u64(-std::log(1.0 - rng.uniform()) * meanGapNs);
    case ArrivalProcess::OnOff: {
        // Draw at the boosted in-burst rate, then fold arrivals
        // that fall past the on-window into the next burst start.
        const double boosted = meanGapNs * opt.onFraction;
        u64 next =
            schedNs + u64(-std::log(1.0 - rng.uniform()) * boosted);
        const u64 onLen = u64(opt.onFraction * double(opt.periodNs));
        const u64 inPeriod = next % opt.periodNs;
        if (inPeriod >= onLen)
            next += opt.periodNs - inPeriod;
        return next;
    }
    }
    return schedNs;
}

/** Drive one open-loop run over a submission transport (see file
 *  comment for the Submit contract). */
template <typename Submit>
OpenLoopReport
runOpenLoopOver(std::shared_ptr<CompletionQueue> cq,
                Submit &&submitOne, std::span<const u64> keyPool,
                const OpenLoopOptions &opt)
{
    fatal_if(opt.ratePerSec <= 0.0, "open loop needs a positive rate");
    fatal_if(keyPool.size() < opt.keysPerRequest,
             "key pool smaller than one request");

    OpenLoopReport rep;
    // tag -> scheduled arrival (ns since t0). Written by the
    // generator before the submission that publishes the tag; the
    // reaper reads it only after reaping that tag's completion, so
    // the queue's mutex orders the accesses.
    std::vector<u64> schedOf(opt.requests, 0);
    std::atomic<std::size_t> inFlight{0};
    std::atomic<u64> submitted{0};
    std::atomic<u64> doneAtNs{0}; ///< 0 until submissions end

    // Completions recorded single-threaded on the reaper; latency
    // is completedAtNs minus the *scheduled* arrival — generator
    // backlog is charged to the requests that suffered it (no
    // coordinated omission).
    //
    // Tallies live in a run-local metrics registry (direct Counter
    // handles, relaxed-atomic cells) and the report reads the same
    // cells — the widx_openloop_* families either transport's
    // harness would export, so report and exposition cannot
    // disagree.
    LatencyHistogram hist;
    obs::MetricsRegistry reg;
    obs::Counter cScheduled = reg.counter(
        "widx_openloop_scheduled_total", "Arrivals generated.");
    obs::Counter cSubmitted =
        reg.counter("widx_openloop_submitted_total",
                    "Arrivals that reached submit().");
    obs::Counter cShedCap =
        reg.counter("widx_openloop_shed_client_cap_total",
                    "Arrivals shed by the client in-flight cap.");
    obs::Counter cCompleted =
        reg.counter("widx_openloop_completed_total",
                    "Ok completions (latency-recorded).");
    obs::Counter cGoodput =
        reg.counter("widx_openloop_goodput_total",
                    "Ok completions within the SLO.");
    obs::Counter cRejected =
        reg.counter("widx_openloop_rejected_total",
                    "Server-side refusals (Rejected/Cancelled).");
    obs::Counter cExpired =
        reg.counter("widx_openloop_expired_total",
                    "Completions with DeadlineExceeded.");
    obs::Counter cTimedOut =
        reg.counter("widx_openloop_timed_out_total",
                    "Requests written off after drainTimeout.");
    u64 reaped = 0;
    const u64 drainNs = u64(opt.drainTimeout.count());
    const u64 sloNs = opt.sloNs ? opt.sloNs : opt.deadlineNs;
    const u64 t0 = monotonicNowNs();

    // The reaper drains completions in batches, in whatever order
    // they finish — a stalled request cannot pin completed ones
    // behind it against the in-flight cap. It exits once every
    // submitted request is reaped, or `drainTimeout` after the last
    // submission with stragglers counted timed-out (a lost request
    // must not hang the run).
    std::thread reaper([&] {
        std::vector<Completion> batch;
        for (;;) {
            batch.clear();
            cq->reap(batch, 1024, std::chrono::milliseconds(10));
            for (const Completion &c : batch) {
                inFlight.fetch_sub(1, std::memory_order_relaxed);
                const u64 sched = t0 + schedOf[c.tag];
                const u64 lat =
                    c.result.completedAtNs > sched
                        ? c.result.completedAtNs - sched
                        : 0;
                if (lat > drainNs) {
                    // Completed, but past measurement patience:
                    // whatever the status says, the client had
                    // written it off.
                    cTimedOut.inc();
                    continue;
                }
                switch (c.result.status) {
                case Status::Ok:
                    cCompleted.inc();
                    hist.record(lat);
                    if (sloNs == 0 || lat <= sloNs)
                        cGoodput.inc();
                    break;
                case Status::DeadlineExceeded:
                    cExpired.inc();
                    break;
                case Status::Rejected:
                case Status::Cancelled:
                case Status::UnsupportedVersion:
                    // Cancelled can only appear if the server goes
                    // away mid-run; all three are server-side
                    // refusals (UnsupportedVersion = a mutation
                    // kind on an un-negotiated connection).
                    cRejected.inc();
                    break;
                }
            }
            reaped += batch.size();
            const u64 doneAt =
                doneAtNs.load(std::memory_order_acquire);
            if (!doneAt)
                continue;
            if (reaped >=
                submitted.load(std::memory_order_relaxed))
                return;
            if (cq->closed() ||
                monotonicNowNs() > doneAt + drainNs) {
                // Stragglers (or a dead transport): count what will
                // never be measured and stop waiting.
                cTimedOut.inc(
                    submitted.load(std::memory_order_relaxed) -
                    reaped);
                return;
            }
        }
    });

    Rng rng(opt.seed);
    u64 schedNs = 0;
    std::size_t base = 0;
    for (u64 i = 0; i < opt.requests; ++i) {
        schedNs = nextArrival(schedNs, opt, rng);
        cScheduled.inc();

        // Pace to the schedule: sleep while far out, yield-spin the
        // last stretch. Running late is fine — the submission goes
        // out immediately and the lateness lands in the latency of
        // this (and only this) request's measurement.
        const u64 target = t0 + schedNs;
        for (;;) {
            const u64 now = monotonicNowNs();
            if (now >= target)
                break;
            if (target - now > 200'000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(target - now -
                                             100'000));
            else
                std::this_thread::yield();
        }

        if (inFlight.load(std::memory_order_relaxed) >=
            opt.maxInFlight) {
            cShedCap.inc();
            continue;
        }
        if (base + opt.keysPerRequest > keyPool.size())
            base = 0;
        schedOf[i] = schedNs;
        inFlight.fetch_add(1, std::memory_order_relaxed);
        submitted.fetch_add(1, std::memory_order_relaxed);
        submitOne(i, keyPool.subspan(base, opt.keysPerRequest),
                  opt.deadlineNs ? t0 + schedNs + opt.deadlineNs
                                 : u64{0});
        base += opt.keysPerRequest;
        cSubmitted.inc();
    }
    doneAtNs.store(monotonicNowNs(), std::memory_order_release);
    reaper.join();

    // The counters above are the single source of truth.
    rep.scheduled = cScheduled.value();
    rep.submitted = cSubmitted.value();
    rep.shedClientCap = cShedCap.value();
    rep.completed = cCompleted.value();
    rep.timedOut = cTimedOut.value();
    rep.rejected = cRejected.value();
    rep.expired = cExpired.value();
    rep.goodput = cGoodput.value();
    rep.elapsedSec = double(monotonicNowNs() - t0) * 1e-9;
    rep.offeredRate =
        rep.elapsedSec > 0 ? double(rep.scheduled) / rep.elapsedSec
                           : 0.0;
    rep.achievedRate =
        rep.elapsedSec > 0 ? double(rep.completed) / rep.elapsedSec
                           : 0.0;
    rep.goodputRate =
        rep.elapsedSec > 0 ? double(rep.goodput) / rep.elapsedSec
                           : 0.0;
    rep.latency = hist.summarize();
    rep.hist = hist;
    return rep;
}

} // namespace widx::sw::detail

#endif // WIDX_SERVICE_OPEN_LOOP_DRIVER_HH
