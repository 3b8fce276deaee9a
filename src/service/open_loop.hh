/**
 * @file
 * Open-loop (arrival-rate) load generator for the index service.
 *
 * A closed-loop client submits a request, blocks on its ticket,
 * and only then submits the next one — so a stalled walker stalls
 * the *generator*, and the requests that would have arrived during
 * the stall (exactly the ones that would have seen the tail
 * latency) are simply never sent. That is coordinated
 * omission, and it makes closed-loop percentile numbers flatter the
 * system under test. The load-generation literature's fix is
 * open-loop injection: arrivals follow an external stochastic
 * process (Poisson for independent clients) that does not care how
 * the server is doing, and each request's latency is measured from
 * its *scheduled arrival time* — so when the generator falls behind
 * a stall, the backlog shows up in the recorded latencies instead
 * of disappearing.
 *
 * `runOpenLoop` drives an IndexService that way:
 *
 *  - arrivals are drawn from a configurable process (Poisson
 *    exponential gaps, deterministic uniform gaps, or an on-off
 *    bursty train that packs the same average rate into periodic
 *    bursts);
 *  - submissions go through `submitAsync` onto a CompletionQueue —
 *    no per-request ticket, no wait — and a reaper thread drains
 *    completions in batches in whatever order they finish (a
 *    stalled request must not pin completed ones behind it),
 *    recording `result.completedAtNs - scheduledArrival` (the
 *    service stamps completion, so reap delay never inflates the
 *    measurement);
 *  - a bounded in-flight cap stops a saturated service from eating
 *    unbounded memory: arrivals that find the cap full are *shed*
 *    (counted, not submitted). The cap counts submitted-but-
 *    unreaped requests: a completion landing more than
 *    `drainTimeout` after its scheduled arrival counts as timed-out
 *    (latency unrecorded), and one still missing `drainTimeout`
 *    after the last submission is written off the same way.
 *
 * The shared core (one generator + one batch reaper over any
 * submission transport) lives in open_loop_driver.hh; the TCP
 * variant in src/net/open_loop_net.hh runs the identical experiment
 * over a socket.
 *
 * The key pool passed in must outlive the run; if any request timed
 * out, the service may still be draining it after return, so the
 * pool must then also outlive the service.
 */

#ifndef WIDX_SERVICE_OPEN_LOOP_HH
#define WIDX_SERVICE_OPEN_LOOP_HH

#include <chrono>
#include <span>

#include "common/latency.hh"
#include "service/index_service.hh"

namespace widx::sw {

/** Arrival process the open-loop generator draws from. */
enum class ArrivalProcess
{
    Poisson, ///< exponential inter-arrival gaps (memoryless)
    Uniform, ///< deterministic 1/rate gaps (pacing floor)
    OnOff,   ///< Poisson bursts: the whole rate packed into the
             ///< first `onFraction` of every `periodNs` cycle
};

struct OpenLoopOptions
{
    double ratePerSec = 100e3; ///< target average arrival rate
    u64 requests = 10000;      ///< scheduled arrivals to generate
    std::size_t keysPerRequest = 64;
    RequestKind kind = RequestKind::Count;
    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    /** OnOff only: fraction of each period that receives arrivals
     *  (at rate / onFraction, so the average rate is preserved). */
    double onFraction = 0.25;
    u64 periodNs = 2'000'000; ///< OnOff cycle length
    /** Submitted-but-uncompleted cap; arrivals over it are shed. */
    std::size_t maxInFlight = 4096;
    /** Measurement patience per request (from its scheduled
     *  arrival): past this it counts as timed-out and its latency
     *  is not recorded, though it holds its in-flight slot until
     *  the service completes it. */
    std::chrono::nanoseconds drainTimeout = std::chrono::seconds(5);
    /** Per-request service deadline, relative to the *scheduled*
     *  arrival (0 = none): each submission carries the absolute
     *  deadline schedNs + deadlineNs, so a generator running late
     *  burns deadline budget exactly like a queue would — the
     *  open-loop discipline applied to deadlines. */
    u64 deadlineNs = 0;
    /** Goodput SLO, from scheduled arrival to service-stamped
     *  completion: Ok completions within it count as goodput.
     *  0 falls back to deadlineNs; both 0 = every Ok completion is
     *  goodput. */
    u64 sloNs = 0;
    u64 seed = 1;
};

struct OpenLoopReport
{
    u64 scheduled = 0;     ///< arrivals generated
    u64 submitted = 0;     ///< arrivals that reached submit()
    /** Shed accounting, split by who refused: the generator's own
     *  in-flight cap (client-side, never submitted) vs the
     *  service's admission control (submitted, completed fast with
     *  Status::Rejected). Conflating them would let a report blame
     *  the service for the harness's cap or vice versa. */
    u64 shedClientCap = 0;
    u64 rejected = 0;
    u64 expired = 0;  ///< completed Status::DeadlineExceeded
    u64 timedOut = 0; ///< tickets abandoned after drainTimeout
    u64 completed = 0; ///< Ok completions (latency-recorded)
    /** Ok completions within the SLO (see OpenLoopOptions::sloNs). */
    u64 goodput = 0;
    double elapsedSec = 0;
    double offeredRate = 0;  ///< scheduled / elapsed
    double achievedRate = 0; ///< completed / elapsed
    double goodputRate = 0;  ///< goodput / elapsed
    /** Scheduled-arrival -> service-stamped completion (Ok only). */
    LatencySnapshot latency;
    LatencyHistogram hist; ///< full histogram behind `latency`
};

/** Drive `service` open-loop per `opt`, drawing request key spans
 *  round-robin from `keyPool` (see file comment for lifetime). */
OpenLoopReport runOpenLoop(IndexService &service,
                           std::span<const u64> keyPool,
                           const OpenLoopOptions &opt);

} // namespace widx::sw

#endif // WIDX_SERVICE_OPEN_LOOP_HH
