/**
 * @file
 * Persistent index service: always-on walkers serving concurrent
 * probe / count / hash-join requests.
 *
 * The paper's dispatcher/walker split assumes one big probe phase:
 * spawn K threads, drain one key span, join. A server handling many
 * small concurrent queries inverts the shape: requests are tiny,
 * arrive from many client threads, and never stop. IndexService
 * turns the walker machinery into a long-lived server object:
 *
 *  - **Shards.** The service owns a ShardedIndex: the bucket+tag
 *    space hash-range-partitioned into S per-arena shards (shard
 *    selector folded into the bucket indexing, FirstTouch or
 *    topology-aware NodeBound placement), or a single-shard view of
 *    an existing HashIndex.
 *
 *  - **Persistent walkers.** K walker threads are spawned once and
 *    park on a condvar between requests — no per-call thread spawn
 *    or join. Optional CPU pinning, slot-folded over the usable
 *    CPUs.
 *
 *  - **Submission / completion.** The core surface is asynchronous:
 *    clients submitAsync(kind, keys, opts, sink) from any thread
 *    (the submission queue is a mutex-guarded MPSC structure —
 *    contended per request, never per key) and the request's result
 *    is *delivered* when its last segment completes — to a callback,
 *    or onto a CompletionQueue the client reaps in batches. Nothing
 *    blocks between submissions, so a single client thread keeps
 *    thousands of probes in flight. The blocking ResultTicket
 *    (submit + get) and the probe/count/join conveniences are thin
 *    sinks over the same completion path — status CAS, deadline
 *    handling, and latency stamping are identical on every route.
 *
 *  - **Admission batching.** Each request is sliced into chunks of
 *    `pipeline.batch` keys. Full chunks seal immediately, as
 *    windows of up to HashIndex::kMaxProbeBatch (1024) keys: with F
 *    full chunks and K walkers, min(F, K·⌈F / (K·m)⌉) windows of
 *    m = 1024 / batch chunks or fewer, so one claim keeps the AMAC
 *    ring full across up to 1024 keys and a request on an idle
 *    service still spreads over every walker. Sub-chunk tails land
 *    in one shared *open* window where concurrent small requests
 *    coalesce up to `pipeline.batch` keys. A walker with
 *    nothing sealed grabs the open window as-is, so a lone small
 *    request is served immediately — but when walkers are busy the
 *    open window keeps filling, and the AMAC drains see full-width
 *    windows even when every client sends a handful of keys. Any
 *    free walker claims the next window, whichever shards its keys
 *    hash to: the draining walker hashes the window and resolves
 *    each key's shard mid-drain.
 *
 *  - **Overload and failure handling.** submit() takes an optional
 *    absolute deadline; the admission queues are bounded (statically
 *    via ServiceConfig::maxQueuedKeys and/or by an SLO-driven AIMD
 *    admission controller that also drives the tail-window hold
 *    threshold); over-budget, expired, and shutdown-stranded
 *    requests complete *fast* with a non-Ok Status on their ticket
 *    instead of draining — a waiter can never hang. An optional
 *    watchdog reports walkers stuck inside one window drain. See
 *    src/service/README.md ("Overload and failure handling").
 *
 *  - **Determinism.** A window is drained by exactly one walker,
 *    which places each segment's records by counting, with no
 *    sort: it counts every key's matches during the drain, prefix-
 *    sums the counts into write cursors, and drops each record at
 *    its key's cursor in emission order (per-key chain order).
 *    Segments merge by (request, slot) id, so every request's
 *    result sequence is byte-identical to a single-threaded
 *    HashIndex::probeBatch over its keys, independent of walker
 *    count, shard count, coalescing, and thread timing.
 *
 * See src/service/README.md for the architecture write-up.
 */

#ifndef WIDX_SERVICE_INDEX_SERVICE_HH
#define WIDX_SERVICE_INDEX_SERVICE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/latency.hh"
#include "common/thread_safety.hh"
#include "obs/metrics.hh"
#include "service/service_config.hh"
#include "service/sharded_index.hh"
#include "swwalkers/probers.hh"

namespace widx::obs {
class TraceRing;
}

namespace widx::sw {

/** What a request asks the walkers to do with its keys. */
enum class RequestKind
{
    Count,  ///< tally matches; no records materialized
    Probe,  ///< materialize (i, key, payload) records
    Join,   ///< probe-side of a hash join: identical records, read
            ///< as (probe row i, key, build row payload)
    Insert, ///< writer path: insert (key, payload) pairs; matches
            ///< counts keys inserted (mutation kinds need a service
            ///< built with ServiceConfig::mutation.enabled)
    Delete, ///< writer path: erase every entry of each key; matches
            ///< counts nodes erased
    Upsert, ///< writer path: overwrite the first match's payload or
            ///< insert; matches counts in-place updates
};

/** Total request kinds (sizing per-kind tables). */
inline constexpr unsigned kNumRequestKinds = 6;

/** Is this kind a writer-path (mutation) kind? */
constexpr bool
isMutationKind(RequestKind k)
{
    return k == RequestKind::Insert || k == RequestKind::Delete ||
           k == RequestKind::Upsert;
}

/** How a request's ticket completed. Every submitted ticket
 *  completes with exactly one of these — backpressure, deadlines,
 *  and shutdown all complete tickets fast rather than dropping them,
 *  so a waiter can never hang on a request the service gave up on. */
enum class Status : u8
{
    Ok = 0,           ///< fully drained; results are authoritative
    Rejected,         ///< shed at submit: the admission queues were
                      ///< over budget; nothing was drained
    DeadlineExceeded, ///< past its deadline at submit or window
                      ///< claim; any drained portion is partial
    Cancelled,        ///< the service stopped with the request still
                      ///< queued; any drained portion is partial
    UnsupportedVersion, ///< the peer speaks a wire protocol version
                        ///< (or request kind) this side does not;
                        ///< nothing was drained. Produced by the
                        ///< net front-end, never by the service
                        ///< walkers themselves.
};

/** Human-readable status label (stable, for logs and tests). */
const char *statusName(Status s);

/** A served request's result. For Probe/Join, `recs` is the exact
 *  sequence a single-threaded probeBatch over the request's keys
 *  would emit (ascending key position, chain order within a key).
 *  Only Status::Ok results carry that guarantee: non-Ok results may
 *  hold a partial (or empty) record set and exist so the waiter
 *  learns the outcome — treat their matches/recs as meaningless. */
struct ServiceResult
{
    Status status = Status::Ok;
    u64 matches = 0;
    std::vector<MatchRec> recs;
    /** steady_clock time (monotonicNowNs) at which the result was
     *  published — always stamped, so open-loop clients can compute
     *  scheduled-arrival latency without a reap-time clock read
     *  (reap delay never inflates the measurement). */
    u64 completedAtNs = 0;
    /** SubmitOptions::traceId echoed back (0 = untraced), so a
     *  reaper can stamp the completion-reap span without a side
     *  table. */
    u64 traceId = 0;
};

/** Per-submission options (deadline, tracing, mutation payloads). */
struct SubmitOptions
{
    /** Absolute steady-clock deadline (monotonicNowNs scale);
     *  0 = none. A request found past its deadline — at submit, or
     *  when a walker claims a window holding one of its segments —
     *  completes fast with Status::DeadlineExceeded instead of
     *  draining. Segments already mid-drain finish (a drain is
     *  never interrupted), so completion can land somewhat after
     *  the deadline; the guarantee is no *new* per-key work starts
     *  for an expired request. */
    u64 deadlineNs = 0;
    /** Opt-in request tracing: nonzero and ServiceConfig::trace set,
     *  the request's lifecycle points (submit / window seal / first
     *  claim / drain done) stamp span events into the trace ring,
     *  and the id is echoed in ServiceResult::traceId. 0 = no
     *  tracing for this request (the hot path pays one branch). */
    u64 traceId = 0;
    /** Mutation kinds only: one payload per key for Insert/Upsert
     *  (row id / tuple id to store). Must match the key span's
     *  length; ignored (may be empty) for every other kind. Same
     *  lifetime rule as the keys: valid until completion. */
    std::span<const u64> payloads{};
};

namespace detail {
struct ServiceRequest;
struct LatencyBoard;
}

/** One finished async request, as reaped from a CompletionQueue:
 *  the caller's tag plus the same ServiceResult every other
 *  completion route delivers. */
struct Completion
{
    u64 tag = 0;
    ServiceResult result;
};

/**
 * Lock-light completion queue: finished requests are pushed by the
 * completing thread (a walker, or the submitting thread for
 * fast-failed requests) and reaped in batches by any number of
 * client threads. One short mutex hold per push; one per reap
 * *batch* regardless of batch size (the backing vector is swapped
 * out whole), so a reaper never serializes against completions
 * entry by entry.
 *
 * Lifetime: the queue must outlive every request submitted against
 * it. submitAsync's shared_ptr overload makes that automatic (each
 * in-flight request keeps the queue alive); the reference overload
 * leaves it to the caller — reap until every submission has been
 * delivered before destroying the queue.
 */
class CompletionQueue
{
  public:
    CompletionQueue() = default;
    CompletionQueue(const CompletionQueue &) = delete;
    CompletionQueue &operator=(const CompletionQueue &) = delete;

    /** Deliver one completed request (the service's side). */
    void push(u64 tag, ServiceResult &&result);

    /**
     * Reap up to `max` completions into `out` (appended), blocking
     * up to `timeout` for the first one; returns the number
     * appended (0 = timeout with nothing ready, or the queue was
     * closed and drained). Ready completions are returned
     * immediately without waiting for a full batch.
     */
    std::size_t reap(std::vector<Completion> &out, std::size_t max,
                     std::chrono::nanoseconds timeout);

    /** Completions pushed but not yet reaped. */
    std::size_t size() const;

    /** Wake every blocked reaper and make future reaps non-blocking
     *  (they keep draining whatever is already queued). Used by
     *  transports to unstick reapers when the far side goes away;
     *  the service itself never closes a client's queue. */
    void close();
    bool closed() const;

  private:
    mutable Mutex m_;
    CondVar cv_;
    std::vector<Completion> ready_ WIDX_GUARDED_BY(m_);
    bool closed_ WIDX_GUARDED_BY(m_) = false;
};

/** Completion callback for submitAsync. Runs exactly once, on the
 *  completing thread: a walker for drained requests, the submitting
 *  thread for fast-failed (rejected / expired / cancelled / empty)
 *  ones — so it must be cheap and must not block on, or resubmit
 *  into, the service it came from. Exceptions are caught and
 *  logged, never propagated into the walker loop. */
using CompletionFn = std::function<void(ServiceResult &&)>;

/** Outcome of a bounded ticket wait. */
enum class WaitStatus
{
    Ready,   ///< the request completed; get() will not block
    Timeout, ///< still in flight; the ticket stays valid
};

/**
 * One-shot future for a submitted request: the blocking sink over
 * the async completion core, for callers that want exactly one
 * result on the submitting thread.
 *
 * DEPRECATED PATTERN — many tickets polled in a loop. Holding a
 * vector of tickets and sweeping waitFor(0) over them (what
 * runOpenLoop did before the async core existed) burns a
 * mutex+condvar check per ticket per sweep and caps how many
 * requests one thread can keep in flight. Callers issuing many
 * concurrent requests should submitAsync onto a CompletionQueue and
 * reap(max, timeout) in batches instead; keep ResultTicket for
 * single-shot convenience calls.
 *
 * A ticket abandoned in flight (destroyed, or never get()) is safe:
 * the request completes normally and its memory is released as soon
 * as the last reference drops — completion never parks state on the
 * service waiting for a reader (see ServiceStats::liveRequests).
 */
class ResultTicket
{
  public:
    ResultTicket() = default;

    bool valid() const { return req_ != nullptr; }

    /** Block until served; returns the result and invalidates the
     *  ticket. */
    ServiceResult get();

    /**
     * Block until served or until `timeout` elapses, whichever is
     * first. Timeout leaves the ticket valid (the request keeps
     * running; its key span must stay alive until it completes) so
     * an open-loop client can shed or re-poll instead of blocking
     * forever; Ready means get() returns without blocking.
     */
    WaitStatus waitFor(std::chrono::nanoseconds timeout) const;

  private:
    friend class IndexService;
    explicit ResultTicket(std::shared_ptr<detail::ServiceRequest> r)
        : req_(std::move(r))
    {
    }

    std::shared_ptr<detail::ServiceRequest> req_;
};

/** One request kind's latency breakdown. Per request, end-to-end
 *  splits exactly into queue-wait (submit -> the first claim of any
 *  of the request's segments: time spent parked in the admission
 *  queues) plus drain-time (first claim -> result publication),
 *  measured with the same clock reads — the component sums add up
 *  to the end-to-end sum to the nanosecond. For sub-chunk requests
 *  — the single-segment shape that populates the coalescing window
 *  — the whole coalescing hold is therefore in the queue-wait
 *  column; a multi-chunk request's first sealed window ends its
 *  queue-wait, so a hold on its *tail* lands in drain-time
 *  (completion still waits for the last segment). */
struct KindLatency
{
    LatencySnapshot endToEnd;
    LatencySnapshot queueWait;
    LatencySnapshot drainTime;
};

/** Service traffic counters (relaxed; monotone since construction),
 *  read from the same counter cells the registry scrape exports. */
struct ServiceStats
{
    u64 requests = 0;         ///< submitted (every Status included)
    u64 keys = 0;
    u64 windows = 0;          ///< dispatch windows drained
    u64 coalescedWindows = 0; ///< windows spanning >1 request tail
    /** Always 0: walkers share one window queue, so no window is
     *  ever stolen. Kept because bench/e2e's service.stolen_frac
     *  still reads it. */
    u64 stolenWindows = 0;
    /** Outcome split: completedOk is the goodput (fully drained
     *  requests); rejected/expired/cancelled count requests that
     *  completed with the matching non-Ok Status (each request in
     *  exactly one bucket once its ticket completes). */
    u64 completedOk = 0;
    u64 rejected = 0;
    u64 expired = 0;
    u64 cancelled = 0;
    /** Stuck-walker reports from the watchdog (one per stuck
     *  window, 0 with the watchdog off). */
    u64 walkerStalls = 0;
    /** Requests whose state is still allocated: submitted but not
     *  yet completed, plus completed-but-unclaimed ticket results a
     *  client still holds. A gauge, not a counter — it must return
     *  to 0 once traffic stops and every ticket is dropped, which
     *  is what the abandoned-ticket regression test pins (an
     *  abandoned-then-completed request must free promptly, not
     *  linger until service stop). */
    u64 liveRequests = 0;
    /** Admission-controller state (zeroed unless
     *  ServiceConfig::admission.adaptive). */
    AdmissionSnapshot admission{};
    /** Mutation traffic: keys applied by the writer path, summed
     *  over every Insert/Delete/Upsert request and shard (0 unless
     *  mutation is enabled). */
    u64 mutations = 0;
    /** Incremental shard rebuilds triggered by the load-factor
     *  watermark. */
    u64 rebuilds = 0;
    /** Per-kind request latency, indexed by RequestKind (only
     *  Status::Ok requests are recorded — fast-failed tickets would
     *  otherwise drag the percentiles toward the reject path's
     *  microseconds). */
    std::array<KindLatency, kNumRequestKinds> latency{};

    const KindLatency &
    latencyFor(RequestKind k) const
    {
        return latency[unsigned(k)];
    }
};

class IndexService
{
  public:
    /** Serve an existing index (single shard, no copy; the index
     *  and its arena must outlive the service). */
    explicit IndexService(const db::HashIndex &index,
                          const ServiceConfig &cfg = {});

    /** Build cfg.shards hash-range shards from a key column and
     *  serve them (payload r = row id r). */
    IndexService(const db::Column &buildKeys,
                 const db::IndexSpec &spec,
                 const ServiceConfig &cfg = {});

    /** Equivalent to stop(): cancels queued work, finishes in-flight
     *  drains, joins the walkers. */
    ~IndexService();

    IndexService(const IndexService &) = delete;
    IndexService &operator=(const IndexService &) = delete;

    /**
     * Stop serving. Ordering contract, in sequence:
     *
     *  1. New submissions complete immediately with
     *     Status::Cancelled (never undefined, never hung).
     *  2. Every window still parked in the admission queues is
     *     cancelled: each of its requests' tickets completes with
     *     Status::Cancelled (partial results possible for requests
     *     with segments already drained).
     *  3. Windows already claimed by a walker finish draining
     *     normally (a drain is never interrupted), so their
     *     requests may still complete Ok.
     *  4. The walkers (and watchdog, if any) park and join.
     *
     * By return, every ticket ever issued has completed — no waiter
     * can hang on a stopped service — and no walker threads remain.
     * Idempotent; concurrent calls are safe, but only the first
     * caller blocks on the join (the destructor re-joins in any
     * case). Key spans of cancelled requests are not touched after
     * cancellation.
     */
    void stop();

    /**
     * Submit a request from any thread. The key span must stay
     * valid until the returned ticket's get() completes. Empty key
     * spans complete immediately. Check the result's Status: the
     * service completes tickets fast with Rejected (admission
     * queues over budget), DeadlineExceeded (opt.deadlineNs passed)
     * or Cancelled (service stopped) instead of draining them.
     */
    ResultTicket submit(RequestKind kind, std::span<const u64> keys,
                        const SubmitOptions &opt = {});

    /**
     * Asynchronous submission — the core API. Never blocks and
     * returns nothing: the result is *delivered* on completion,
     * exactly once, through `cq` (reap it in batches) or `cb`. The
     * same completion path as submit() — fast-fail statuses
     * (Rejected / DeadlineExceeded / Cancelled) are delivered the
     * same way, from the submitting thread, so a reaper accounts
     * for every submission without a separate error channel.
     *
     * Lifetime: the key span must stay valid until the completion
     * is delivered. The queue must outlive the request — automatic
     * with the shared_ptr overload (the request holds a reference),
     * the caller's job with the reference overload. `tag` is
     * returned verbatim in the reaped Completion; the service never
     * interprets it.
     */
    void submitAsync(RequestKind kind, std::span<const u64> keys,
                     const SubmitOptions &opt,
                     std::shared_ptr<CompletionQueue> cq, u64 tag);
    void submitAsync(RequestKind kind, std::span<const u64> keys,
                     const SubmitOptions &opt, CompletionQueue &cq,
                     u64 tag);
    /** Callback form; see CompletionFn for the execution context. */
    void submitAsync(RequestKind kind, std::span<const u64> keys,
                     const SubmitOptions &opt, CompletionFn cb);

    /** submit + get conveniences. */
    ServiceResult
    probe(std::span<const u64> keys)
    {
        return submit(RequestKind::Probe, keys).get();
    }

    u64
    count(std::span<const u64> keys)
    {
        return submit(RequestKind::Count, keys).get().matches;
    }

    ServiceResult
    join(std::span<const u64> keys)
    {
        return submit(RequestKind::Join, keys).get();
    }

    unsigned walkers() const { return unsigned(threads_.size()); }
    unsigned shards() const { return index_.shards(); }
    const ShardedIndex &index() const { return index_; }

    ServiceStats stats() const;

    /**
     * Export this service's state into a MetricsRegistry: one
     * scrape-time collector appends the service's counter handles
     * (traffic, outcome split, per-walker windows, stalls and
     * hardware counters) and computes the rest — walker sums and
     * ratios, gauges, admission state, tag-filter stats, and the
     * per-kind latency histograms. Registration adds nothing to the
     * request hot path — the cost is paid by the scraper. The
     * service must outlive the registry's last snapshot() (the
     * collector captures `this`).
     */
    void registerMetrics(obs::MetricsRegistry &reg);

    /** Zero the latency histograms (traffic counters keep running).
     *  Only exact while no request is in flight — intended for
     *  benches resetting between rate rows. */
    void resetLatencyStats();

  private:
    /** One request's share of a window: keys [base, base + len) of
     *  req->keys, merged back into the request's result as slot
     *  `slot` (the request's segments in key order). */
    struct Segment
    {
        std::shared_ptr<detail::ServiceRequest> req;
        std::size_t slot;
        std::size_t base;
        /** A run of full chunks (<= kMaxProbeBatch keys) or a
         *  sub-chunk tail. */
        u32 len;
    };

    /** A dispatch window: what one walker drains in one pass. */
    struct Window
    {
        std::vector<Segment> segs;
        u32 keys = 0;
    };

    void start();
    void walkerMain(unsigned w);
    void watchdogMain();
    /** Allocate a request wired to this service (board, live
     *  gauge, deadline); the sink is set by the caller. */
    std::shared_ptr<detail::ServiceRequest>
    makeRequest(RequestKind kind, std::span<const u64> keys,
                const SubmitOptions &opt);
    /** The one submission path every public overload funnels into:
     *  admission, fast-fail completion, walker wakeup. */
    void submitRequest(const std::shared_ptr<detail::ServiceRequest> &req,
                       RequestKind kind, std::span<const u64> keys,
                       const SubmitOptions &opt);
    /** Writer path: apply a mutation request inline on the
     *  submitting thread (per-shard single-writer mutex inside the
     *  ShardedIndex; "mutations are just another completion" — the
     *  result is delivered through the same sink as every read).
     *  Rejected when the service wraps an index it does not own or
     *  mutation is not enabled. */
    void applyMutation(const std::shared_ptr<detail::ServiceRequest> &req,
                       RequestKind kind, std::span<const u64> keys,
                       const SubmitOptions &opt);
    /** Admission: cut the request into the window queue. False
     *  means the request was not enqueued (its Status is already
     *  set to Rejected or Cancelled and the caller completes the
     *  ticket). */
    bool admit(std::shared_ptr<detail::ServiceRequest> req,
               RequestKind kind, std::span<const u64> keys);
    /** Current open-window seal threshold (adaptive or static). */
    u32 holdThreshold() const;
    /** Effective queued-key bound (config + adaptive budget). */
    u64 queuedKeyBound() const;
    /** Retire one segment without draining it; the last segment to
     *  retire completes the ticket. */
    void retireSegment(const Segment &seg);
    /** Stamp WindowSeal span events for a window's traced requests
     *  (called at every seal site; no-op unless tracing is on). */
    void noteSeal(const Window &win) WIDX_REQUIRES(m_);
    /** Scrape-time families computed from state that is not a
     *  counter handle (registerMetrics appends the handles). */
    void collectMetrics(obs::Snapshot &out) const;
    /** Complete a request's ticket: the one place a request is
     *  counted under its final Status. */
    void finishRequest(detail::ServiceRequest &req);
    /** Pop the next window: sealed first, else the open one. */
    bool claim(Window &win) WIDX_REQUIRES(m_);
    /** Drain one claimed window. `found` is the calling walker's
     *  record scratch, reused across its windows. */
    void processWindow(Window &win, std::vector<MatchRec> &found);
    template <typename Index>
    void drainWindow(const Index &idx, Window &win,
                     std::vector<MatchRec> &found);

    ShardedIndex index_;
    ServiceConfig cfg_;
    std::size_t chunk_; ///< resolved pipeline.batch
    unsigned width_;    ///< resolved drain width

    Mutex m_;
    CondVar cv_;
    // The window queue: sealed windows in admission order, plus one
    // open window where sub-chunk tails coalesce.
    std::deque<Window> sealed_ WIDX_GUARDED_BY(m_);
    Window open_ WIDX_GUARDED_BY(m_);
    bool stop_ WIDX_GUARDED_BY(m_) = false;
    std::vector<std::thread> threads_;

    /** Keys parked in the admission queues (open + sealed, not yet
     *  claimed). Mutated under m_; read relaxed for the submit-path
     *  backpressure pre-check. */
    std::atomic<u64> queuedKeys_{0};

    /** SLO-driven admission (null unless admission.adaptive). */
    std::unique_ptr<AdmissionController> adm_;

    /** Per-walker heartbeat for the watchdog: epoch bumps at every
     *  claim and every completion; busySinceNs holds the claim time
     *  while a drain is in progress (0 parked). Null when the
     *  watchdog is off, so the hot path pays nothing. */
    // widx-lint: padded
    struct alignas(kCacheBlockBytes) WalkerBeat
    {
        std::atomic<u64> epoch{0};
        std::atomic<u64> busySinceNs{0};
    };
    std::unique_ptr<WalkerBeat[]> beats_;

    /** The service's counters, as handles into a private registry
     *  (declared once in start(), before any walker runs): stats()
     *  and the scrape read the same cells. */
    obs::MetricsRegistry counters_;
    obs::Counter requests_, keys_, coalesced_;
    /** Completed requests by final Status (indexed by it), bumped
     *  only in finishRequest. UnsupportedVersion is a front-end
     *  answer, never a service outcome: its handle stays a no-op. */
    std::array<obs::Counter, unsigned(Status::UnsupportedVersion) + 1>
        completed_;

    /** Per-walker counter handles (written on the per-window path
     *  and at watchdog reports, never per key; the registry pads
     *  each cell to its own cache line). */
    struct WalkerObs
    {
        obs::Counter windows;
        obs::Counter stalls; ///< watchdog stuck-window reports
        /** Hardware-counter accumulation over sampled windows
         *  (registered only with cfg.perfSamplePeriod; zeros when
         *  perf is denied). */
        obs::Counter sampledWindows, sampledProbes, cycles,
            instructions, llcMisses, dtlbMisses;
    };
    std::vector<WalkerObs> wobs_;
    /** One WalkerObs counter summed over every walker: the service
     *  totals (ServiceStats::windows, ::walkerStalls and their
     *  widx_service_* families) are views over these. */
    u64 sumWalkers(obs::Counter WalkerObs::*counter) const;

    /** Span-trace ring (ServiceConfig::trace; null = tracing off).
     *  Raw pointer resolved at start(); cfg_ keeps the ownership. */
    obs::TraceRing *trace_ = nullptr;

    std::thread watchdog_;
    Mutex wdM_;
    CondVar wdCv_;
    bool wdStop_ WIDX_GUARDED_BY(wdM_) = false;
    /** Serializes the join phase of stop() (idempotency). */
    Mutex joinM_;

    /** Untagged-window counter for the tag filter's re-sampling
     *  (see drainWindow). */
    std::atomic<u64> untaggedWindows_{0};
    /** Live-request gauge (ServiceStats::liveRequests). Shared with
     *  every request — a client can legally hold a ticket past
     *  service destruction, and the request's destructor must still
     *  have a counter to decrement. */
    std::shared_ptr<std::atomic<u64>> liveGauge_ =
        std::make_shared<std::atomic<u64>>(0);

    /** Per-kind x per-component latency recorders. Requests hold a
     *  raw pointer into it; the destructor drains every request
     *  before the board dies. */
    std::unique_ptr<detail::LatencyBoard> board_;
};

} // namespace widx::sw

#endif // WIDX_SERVICE_INDEX_SERVICE_HH
