#include "service/index_service.hh"

#include <algorithm>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/perf_group.hh"
#include "obs/trace.hh"

namespace widx::sw {

namespace detail {

/** Per-kind x per-component latency recorders. Kind indexes rows;
 *  columns are the timestamped components (see KindLatency). */
struct LatencyBoard
{
    enum Component
    {
        E2E = 0,
        Queue = 1,
        Drain = 2,
    };

    explicit LatencyBoard(unsigned shards)
        : rec{{{LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)},
               {LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)},
               {LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)},
               {LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)},
               {LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)},
               {LatencyRecorder(shards), LatencyRecorder(shards),
                LatencyRecorder(shards)}}}
    {
        static_assert(kNumRequestKinds == 6,
                      "grow the row initializer above");
    }

    std::array<std::array<LatencyRecorder, 3>, kNumRequestKinds> rec;
};

/**
 * One submitted request. Chunk c's records are written by exactly
 * one walker (the one that drained c's window) into perChunk[c];
 * the walker that retires the last chunk assembles the result and
 * signals the client. `remaining` decrements with acq_rel so the
 * assembler observes every other walker's chunk writes.
 *
 * Completion is sink-agnostic: finalize() assembles the result the
 * same way for every submission route, then deliver() hands it to
 * the one sink this request was submitted with — the blocking
 * ticket (result parked under the request mutex until get()), a
 * CompletionQueue push, or a callback. After a queue/callback
 * delivery nothing references the result again; the request frees
 * as soon as the last segment's shared_ptr drops.
 */
struct ServiceRequest
{
    /** How the result leaves the service. */
    enum class Sink : u8
    {
        Ticket,   ///< park under m/cv for ResultTicket::get()
        Queue,    ///< push {tag, result} onto cq
        Callback, ///< invoke cb on the completing thread
    };

    RequestKind kind = RequestKind::Count;
    std::span<const u64> keys;
    std::atomic<u64> remaining{0};
    std::atomic<u64> count{0}; ///< Count-kind tally
    std::vector<std::vector<MatchRec>> perChunk;

    /** Absolute deadline (0 = none); written before publication. */
    u64 deadlineNs = 0;
    /** Completion status; transitions once, Ok -> non-Ok, via CAS —
     *  the first marker (deadline check, cancel sweep, reject path)
     *  wins and owns the matching stats counter. */
    std::atomic<u8> status{u8(Status::Ok)};

    bool
    trySetStatus(Status s)
    {
        u8 expect = u8(Status::Ok);
        return status.compare_exchange_strong(
            expect, u8(s), std::memory_order_relaxed);
    }

    /** Latency accounting (board null when recording is off).
     *  tSubmit is stamped in submit(); tFirstDrain by the first
     *  walker to claim a window holding one of this request's
     *  segments (CAS from 0, so exactly one claim wins). The
     *  claim's release on the remaining-countdown orders the stamp
     *  before the finalizer's reads. */
    LatencyBoard *board = nullptr;
    u64 tSubmit = 0;
    std::atomic<u64> tFirstDrain{0};

    /** Opt-in span tracing: nonzero traceId and a live ring stamp
     *  lifecycle events (see obs/trace.hh). */
    u64 traceId = 0;
    obs::TraceRing *trace = nullptr;

    /** Completion sink (fixed before the request is published to
     *  any queue; only the completing thread touches it after). */
    Sink sink = Sink::Ticket;
    std::shared_ptr<CompletionQueue> cq;
    CompletionFn cb;
    u64 tag = 0;

    /** ServiceStats::liveRequests gauge; shared so the decrement
     *  stays valid on tickets outliving the service. */
    std::shared_ptr<std::atomic<u64>> liveGauge;

    Mutex m;
    CondVar cv;
    bool done WIDX_GUARDED_BY(m) = false;
    ServiceResult result WIDX_GUARDED_BY(m);

    ~ServiceRequest()
    {
        if (liveGauge)
            liveGauge->fetch_sub(1, std::memory_order_relaxed);
    }

    /** Hand the assembled result to this request's sink. Queue and
     *  callback sinks release their resources immediately after
     *  delivery — an abandoned client cannot make the service
     *  retain completed-result memory. */
    void
    deliver(ServiceResult &&r)
    {
        switch (sink) {
        case Sink::Ticket: {
            {
                MutexLock lk(m);
                result = std::move(r);
                done = true;
            }
            cv.notifyAll();
            return;
        }
        case Sink::Queue:
            cq->push(tag, std::move(r));
            cq.reset();
            return;
        case Sink::Callback:
            // A throwing callback must not unwind into a walker's
            // drain loop (it would kill the walker and strand every
            // queued request) or a submitter's fast-fail path.
            try {
                cb(std::move(r));
            } catch (const std::exception &e) {
                warn("completion callback threw: %s", e.what());
            } catch (...) {
                warn("completion callback threw a non-exception");
            }
            cb = nullptr;
            return;
        }
    }

    void
    finalize()
    {
        ServiceResult r;
        if (kind == RequestKind::Count || isMutationKind(kind)) {
            // Mutations report their applied-key tally through the
            // same field the count path uses; they never carry recs.
            r.matches = count.load(std::memory_order_relaxed);
        } else {
            // Chunks are position-contiguous and each is sorted by
            // position, so concatenation is already probeBatch
            // order.
            std::size_t total = 0;
            for (const auto &c : perChunk)
                total += c.size();
            r.recs.reserve(total);
            for (auto &c : perChunk)
                r.recs.insert(r.recs.end(), c.begin(), c.end());
            r.matches = total;
            perChunk.clear();
        }
        // Publication timestamp and latency accounting. The same
        // `now` closes both components, so per request
        // queueWait + drainTime == endToEnd exactly (the service
        // test asserts the sums match to the nanosecond). Requests
        // that never hit a walker (empty spans) have
        // tFirstDrain == tSubmit: all latency is queue-wait-free.
        // Only Ok completions are recorded: fast-failed tickets
        // (rejected / expired / cancelled) would drag the service
        // percentiles toward the reject path's microseconds and
        // poison the admission controller's signal.
        r.status = Status(status.load(std::memory_order_relaxed));
        r.traceId = traceId;
        const u64 now = monotonicNowNs();
        r.completedAtNs = now;
        if (trace && traceId)
            trace->record(traceId, obs::SpanPoint::DrainDone, now);
        if (board && r.status == Status::Ok) {
            const u64 fd = tFirstDrain.load(std::memory_order_relaxed);
            const u64 first = fd ? fd : now;
            auto &row = board->rec[unsigned(kind)];
            row[LatencyBoard::E2E].record(now - tSubmit);
            row[LatencyBoard::Queue].record(first - tSubmit);
            row[LatencyBoard::Drain].record(now - first);
        }
        deliver(std::move(r));
    }
};

} // namespace detail

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "Ok";
    case Status::Rejected:
        return "Rejected";
    case Status::DeadlineExceeded:
        return "DeadlineExceeded";
    case Status::Cancelled:
        return "Cancelled";
    case Status::UnsupportedVersion:
        return "UnsupportedVersion";
    }
    return "?";
}

void
CompletionQueue::push(u64 tag, ServiceResult &&result)
{
    {
        MutexLock lk(m_);
        ready_.push_back(Completion{tag, std::move(result)});
    }
    cv_.notifyOne();
}

std::size_t
CompletionQueue::reap(std::vector<Completion> &out, std::size_t max,
                      std::chrono::nanoseconds timeout)
{
    if (max == 0)
        return 0;
    MutexLock lk(m_);
    // Predicate loop inlined (see CondVar): wait until something is
    // ready, the queue closes, or the deadline passes.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (ready_.empty() && !closed_) {
        if (cv_.waitUntil(m_, deadline) == std::cv_status::timeout)
            break;
    }
    if (ready_.empty())
        return 0;
    std::size_t n;
    if (ready_.size() <= max && out.empty()) {
        // Common case — the reaper drains everything into an empty
        // batch: one vector swap, no per-completion moves under the
        // lock.
        n = ready_.size();
        out.swap(ready_);
    } else {
        n = std::min(max, ready_.size());
        out.insert(out.end(),
                   std::make_move_iterator(ready_.begin()),
                   std::make_move_iterator(ready_.begin() + n));
        ready_.erase(ready_.begin(), ready_.begin() + n);
    }
    return n;
}

std::size_t
CompletionQueue::size() const
{
    MutexLock lk(m_);
    return ready_.size();
}

void
CompletionQueue::close()
{
    {
        MutexLock lk(m_);
        closed_ = true;
    }
    cv_.notifyAll();
}

bool
CompletionQueue::closed() const
{
    MutexLock lk(m_);
    return closed_;
}

ServiceResult
ResultTicket::get()
{
    fatal_if(!req_, "get() on an empty ResultTicket");
    MutexLock lk(req_->m);
    while (!req_->done)
        req_->cv.wait(req_->m);
    ServiceResult r = std::move(req_->result);
    lk.unlock();
    req_.reset();
    return r;
}

WaitStatus
ResultTicket::waitFor(std::chrono::nanoseconds timeout) const
{
    fatal_if(!req_, "waitFor() on an empty ResultTicket");
    MutexLock lk(req_->m);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!req_->done) {
        if (req_->cv.waitUntil(req_->m, deadline) ==
            std::cv_status::timeout)
            return req_->done ? WaitStatus::Ready
                              : WaitStatus::Timeout;
    }
    return WaitStatus::Ready;
}

IndexService::IndexService(const db::HashIndex &index,
                           const ServiceConfig &cfg)
    : index_(index), cfg_(cfg)
{
    start();
}

IndexService::IndexService(const db::Column &buildKeys,
                           const db::IndexSpec &spec,
                           const ServiceConfig &cfg)
    : index_(buildKeys, spec, cfg.shards, cfg.numa,
             cfg.pinWalkers, cfg.topology, cfg.mutation),
      cfg_(cfg)
{
    start();
}

void
IndexService::start()
{
    chunk_ = std::clamp<std::size_t>(
        cfg_.pipeline.batch ? cfg_.pipeline.batch
                            : db::HashIndex::kProbeBatch,
        1, db::HashIndex::kMaxProbeBatch);
    width_ = std::clamp(cfg_.width, 1u, kMaxWidth);
    const unsigned walkers =
        std::clamp(cfg_.walkers, 1u, kMaxWalkers);
    // The admission controller steers on measured queue-wait, so
    // adaptive mode forces the timestamps on even when the caller
    // turned latency recording off.
    if (cfg_.admission.adaptive)
        adm_ = std::make_unique<AdmissionController>(
            cfg_.admission, u32(chunk_), walkers + 1);
    if (cfg_.recordLatency || adm_)
        board_ = std::make_unique<detail::LatencyBoard>(
            walkers + 1); // walkers finalize; submitters do empties
    if (cfg_.watchdogPeriodNs > 0)
        beats_.reset(new WalkerBeat[walkers]);
    wobs_.reset(new WalkerObs[walkers]);
    trace_ = cfg_.trace.get();

    threads_.reserve(walkers);
    for (unsigned w = 0; w < walkers; ++w)
        threads_.emplace_back([this, w] { walkerMain(w); });
    if (beats_)
        watchdog_ = std::thread([this] { watchdogMain(); });
}

IndexService::~IndexService()
{
    stop();
}

void
IndexService::stop()
{
    // Under the same lock walkers claim under: refuse new work and
    // strand every unclaimed window. Windows a walker already owns
    // are not here — they finish draining normally (step 3 of the
    // header's ordering contract).
    std::vector<Window> orphans;
    {
        MutexLock lk(m_);
        stop_ = true;
        for (Window &w : sealed_)
            orphans.push_back(std::move(w));
        sealed_.clear();
        if (open_.keys > 0) {
            orphans.push_back(std::move(open_));
            open_ = Window{};
        }
        queuedKeys_.store(0, std::memory_order_relaxed);
    }
    cv_.notifyAll();

    // Complete the stranded tickets outside the lock (completion
    // takes each request's own mutex and notifies its waiters).
    // Requests with segments in an in-flight window keep a nonzero
    // countdown here; the draining walker retires those and the
    // last retirement — wherever it happens — publishes the
    // (Cancelled, possibly partial) result.
    for (Window &w : orphans)
        for (const Segment &seg : w.segs) {
            if (seg.req->trySetStatus(Status::Cancelled))
                nCancelled_.fetch_add(1, std::memory_order_relaxed);
            retireSegment(seg);
        }

    // Join everything. Serialized so stop() is idempotent and safe
    // to race with the destructor (joinable() goes false exactly
    // once, under the join lock).
    MutexLock jlk(joinM_);
    for (auto &t : threads_)
        if (t.joinable())
            t.join();
    if (watchdog_.joinable()) {
        {
            MutexLock lk(wdM_);
            wdStop_ = true;
        }
        wdCv_.notifyAll();
        watchdog_.join();
    }
}

std::shared_ptr<detail::ServiceRequest>
IndexService::makeRequest(RequestKind kind,
                          std::span<const u64> keys,
                          const SubmitOptions &opt)
{
    auto req = std::make_shared<detail::ServiceRequest>();
    req->kind = kind;
    req->keys = keys;
    req->deadlineNs = opt.deadlineNs;
    req->board = board_.get();
    if (trace_ && opt.traceId) {
        req->traceId = opt.traceId;
        req->trace = trace_;
    }
    if (board_ || req->trace)
        req->tSubmit = monotonicNowNs();
    if (req->trace)
        req->trace->record(req->traceId, obs::SpanPoint::Submit,
                           req->tSubmit);
    liveGauge_->fetch_add(1, std::memory_order_relaxed);
    req->liveGauge = liveGauge_;

    nRequests_.fetch_add(1, std::memory_order_relaxed);
    nKeys_.fetch_add(keys.size(), std::memory_order_relaxed);
    return req;
}

void
IndexService::submitRequest(
    const std::shared_ptr<detail::ServiceRequest> &req,
    RequestKind kind, std::span<const u64> keys,
    const SubmitOptions &opt)
{
    if (keys.empty()) {
        // Nothing to do: complete before the submission returns. No
        // walker ever claims this request, so it accrues no
        // queue-wait (tFirstDrain == tSubmit).
        req->tFirstDrain.store(req->tSubmit,
                               std::memory_order_relaxed);
        finishRequest(*req);
        return;
    }

    // Dead on arrival: a deadline already in the past fails fast
    // without touching the queues.
    if (opt.deadlineNs) {
        const u64 now =
            board_ ? req->tSubmit : monotonicNowNs();
        if (now > opt.deadlineNs) {
            req->trySetStatus(Status::DeadlineExceeded);
            nExpired_.fetch_add(1, std::memory_order_relaxed);
            req->tFirstDrain.store(req->tSubmit,
                                   std::memory_order_relaxed);
            finishRequest(*req);
            return;
        }
    }

    // Writer path: mutations never enter the admission queues.
    // They apply inline on the submitting thread (the per-shard
    // writer mutex inside ShardedIndex is the serialization point,
    // and probes stay lock-free around them) and complete through
    // the same sink as every read.
    if (isMutationKind(kind)) {
        applyMutation(req, kind, keys, opt);
        return;
    }

    if (!admit(req, kind, keys)) {
        // The admission path set the status (Rejected over budget,
        // Cancelled after stop); complete here, on the submitting
        // thread — the fast-fail that keeps backpressure cheap.
        if (Status(req->status.load(std::memory_order_relaxed)) ==
            Status::Rejected)
            nRejected_.fetch_add(1, std::memory_order_relaxed);
        else
            nCancelled_.fetch_add(1, std::memory_order_relaxed);
        req->tFirstDrain.store(req->tSubmit,
                               std::memory_order_relaxed);
        req->finalize();
    }
}

void
IndexService::applyMutation(
    const std::shared_ptr<detail::ServiceRequest> &req,
    RequestKind kind, std::span<const u64> keys,
    const SubmitOptions &opt)
{
    // No walker ever claims a mutation, so its queue-wait is zero by
    // construction; end-to-end latency is the writer-path apply.
    req->tFirstDrain.store(req->tSubmit, std::memory_order_relaxed);

    // Rejected, not undefined: a view-mode service wraps an index it
    // does not own, and Insert/Upsert without one payload per key
    // has no meaning. Nothing was applied in either case.
    const bool needPayloads = kind != RequestKind::Delete;
    if (!index_.liveMutable() ||
        (needPayloads && opt.payloads.size() != keys.size())) {
        req->trySetStatus(Status::Rejected);
        nRejected_.fetch_add(1, std::memory_order_relaxed);
        finishRequest(*req);
        return;
    }

    const MutOp op =
        MutOp(unsigned(kind) - unsigned(RequestKind::Insert));
    const u64 applied =
        index_.applyMutations(op, keys, opt.payloads);
    req->count.store(applied, std::memory_order_relaxed);
    finishRequest(*req);
}

ResultTicket
IndexService::submit(RequestKind kind, std::span<const u64> keys,
                     const SubmitOptions &opt)
{
    auto req = makeRequest(kind, keys, opt);
    submitRequest(req, kind, keys, opt);
    return ResultTicket(std::move(req));
}

void
IndexService::submitAsync(RequestKind kind,
                          std::span<const u64> keys,
                          const SubmitOptions &opt,
                          std::shared_ptr<CompletionQueue> cq,
                          u64 tag)
{
    fatal_if(!cq, "submitAsync() with a null CompletionQueue");
    auto req = makeRequest(kind, keys, opt);
    req->sink = detail::ServiceRequest::Sink::Queue;
    req->cq = std::move(cq);
    req->tag = tag;
    submitRequest(req, kind, keys, opt);
}

void
IndexService::submitAsync(RequestKind kind,
                          std::span<const u64> keys,
                          const SubmitOptions &opt,
                          CompletionQueue &cq, u64 tag)
{
    // Non-owning aliasing handle: the caller guarantees the queue
    // outlives every outstanding completion (see header contract).
    submitAsync(kind, keys, opt,
                std::shared_ptr<CompletionQueue>(
                    std::shared_ptr<void>(), &cq),
                tag);
}

void
IndexService::submitAsync(RequestKind kind,
                          std::span<const u64> keys,
                          const SubmitOptions &opt, CompletionFn cb)
{
    fatal_if(!cb, "submitAsync() with an empty callback");
    auto req = makeRequest(kind, keys, opt);
    req->sink = detail::ServiceRequest::Sink::Callback;
    req->cb = std::move(cb);
    submitRequest(req, kind, keys, opt);
}

u32
IndexService::holdThreshold() const
{
    if (adm_)
        return std::min(adm_->holdKeys(), u32(chunk_));
    return cfg_.coalesceTails ? u32(chunk_) : 1;
}

u64
IndexService::queuedKeyBound() const
{
    u64 bound = cfg_.maxQueuedKeys ? cfg_.maxQueuedKeys : ~u64{0};
    if (adm_)
        bound = std::min(bound, adm_->budgetKeys());
    return bound;
}

void
IndexService::retireSegment(const Segment &seg)
{
    detail::ServiceRequest &req = *seg.req;
    if (req.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        finishRequest(req);
}

void
IndexService::finishRequest(detail::ServiceRequest &req)
{
    // Status transitions are done by the time the last segment
    // retires (markers run at claim/cancel, which precede retire),
    // so this read is the final verdict.
    if (Status(req.status.load(std::memory_order_relaxed)) ==
        Status::Ok)
        nCompletedOk_.fetch_add(1, std::memory_order_relaxed);
    req.finalize();
}

bool
IndexService::admit(std::shared_ptr<detail::ServiceRequest> req,
                    RequestKind kind, std::span<const u64> keys)
{
    const u64 num_chunks = (keys.size() + chunk_ - 1) / chunk_;
    req->remaining.store(num_chunks, std::memory_order_relaxed);
    if (kind != RequestKind::Count)
        req->perChunk.resize(num_chunks);

    // The seal threshold: how full the open window may get before
    // it seals. chunk = full coalescing, 1 = every tail seals its
    // own window (the static coalesceTails axis); the admission
    // controller moves it continuously in between.
    const u32 hold = holdThreshold();

    unsigned added = 0;
    {
        MutexLock lk(m_);
        if (stop_) {
            req->trySetStatus(Status::Cancelled);
            return false;
        }
        // Backpressure: admission happens only while the parked-key
        // total is under the bound (checked whole-request — a
        // request is never split across the admission decision — so
        // the queue overshoots by at most one request).
        if (queuedKeys_.load(std::memory_order_relaxed) >=
            queuedKeyBound()) {
            req->trySetStatus(Status::Rejected);
            return false;
        }
        // Full chunks seal immediately as single-segment windows.
        std::size_t c = 0;
        std::size_t base = 0;
        for (; base + chunk_ <= keys.size();
             base += chunk_, ++c) {
            Window w;
            w.segs.push_back(Segment{req, c, base, u32(chunk_)});
            w.keys = u32(chunk_);
            noteSeal(w); // full chunks seal at admission
            sealed_.push_back(std::move(w));
            ++added;
        }
        // The sub-chunk tail coalesces into the shared open window
        // with other requests' tails (admission batching). Tails
        // are never split: seal the open window first if this one
        // would overflow its capacity; seal behind it once it
        // reaches the hold threshold.
        if (base < keys.size()) {
            const u32 len = u32(keys.size() - base);
            if (open_.keys + len > chunk_) {
                noteSeal(open_);
                sealed_.push_back(std::move(open_));
                open_ = Window{};
                ++added;
            }
            open_.segs.push_back(Segment{req, c, base, len});
            open_.keys += len;
            if (open_.keys >= hold) {
                noteSeal(open_);
                sealed_.push_back(std::move(open_));
                open_ = Window{};
                ++added;
            }
        }
        queuedKeys_.fetch_add(keys.size(),
                              std::memory_order_relaxed);
    }
    // Tail-only submissions still wake one walker: an idle walker
    // grabs the open window rather than waiting for it to fill.
    if (added > 1)
        cv_.notifyAll();
    else
        cv_.notifyOne();
    return true;
}

void
IndexService::walkerMain(unsigned w)
{
    if (cfg_.pinWalkers)
        pinCurrentThread(w); // folded over the usable CPUs
    // Hardware-counter sampling: a per-thread perf event group,
    // started/stopped around every Nth window drain. Opened on this
    // thread so the group counts this walker; where perf access is
    // denied the group degrades (available() false) and the sample
    // branch never fires.
    std::unique_ptr<obs::PerfGroup> perf;
    if (cfg_.perfSamplePeriod > 0)
        perf = std::make_unique<obs::PerfGroup>();
    // Live indexes: claim one reader slot for this walker's lifetime
    // and pin it around every window drain, so a concurrent writer's
    // reclamation (limbo nodes, replaced shard arrays) waits out any
    // chain walk in progress. Read-only services skip all of it.
    EpochManager *epochs = nullptr;
    unsigned eslot = 0;
    if (index_.liveMutable()) {
        epochs = &index_.epochs();
        eslot = epochs->acquireSlot();
    }
    u64 drainedWindows = 0;
    for (;;) {
        // Fault injection (compiled out by default): delay a walker
        // between wake-up and claim so tests can race submissions
        // against a lagging claimer.
        WIDX_FAILPOINT("service.walker_claim_delay");
        Window win;
        {
            MutexLock lk(m_);
            // Park predicate, inlined so the guarded reads sit in
            // the scope the analysis can see the lock in: wake on
            // stop or on anything claimable.
            while (!stop_ && sealed_.empty() && open_.keys == 0)
                cv_.wait(m_);
            if (!claim(win)) {
                // stop_ and the queue drained
                if (epochs)
                    epochs->releaseSlot(eslot);
                return;
            }
        }
        nWindows_.fetch_add(1, std::memory_order_relaxed);
        if (win.segs.size() > 1)
            nCoalesced_.fetch_add(1, std::memory_order_relaxed);
        wobs_[w].windows.fetch_add(1, std::memory_order_relaxed);
        bool sampleHw = false;
        if (perf && perf->available())
            sampleHw = drainedWindows++ % cfg_.perfSamplePeriod == 0;
        // Heartbeat: claim time published before the drain starts,
        // so a stall anywhere inside it is attributable.
        if (beats_) {
            beats_[w].epoch.fetch_add(1,
                                      std::memory_order_relaxed);
            beats_[w].busySinceNs.store(
                monotonicNowNs(), std::memory_order_relaxed);
        }
        // Stall a walker that owns a claimed-but-undrained window:
        // the chaos tests' main lever (the other walkers must keep
        // claiming around it, and the watchdog must report it).
        WIDX_FAILPOINT("service.walker_stall");
        if (sampleHw)
            perf->start();
        if (epochs)
            epochs->pin(eslot);
        processWindow(win);
        if (epochs)
            epochs->unpin(eslot);
        if (sampleHw) {
            perf->stop();
            const obs::PerfGroup::Counts c = perf->read();
            if (c.valid) {
                WalkerObs &wo = wobs_[w];
                wo.sampledWindows.fetch_add(
                    1, std::memory_order_relaxed);
                wo.sampledProbes.fetch_add(
                    win.keys, std::memory_order_relaxed);
                wo.cycles.fetch_add(c.cycles,
                                    std::memory_order_relaxed);
                wo.instructions.fetch_add(
                    c.instructions, std::memory_order_relaxed);
                wo.llcMisses.fetch_add(c.llcMisses,
                                       std::memory_order_relaxed);
                wo.dtlbMisses.fetch_add(c.dtlbMisses,
                                        std::memory_order_relaxed);
            }
        }
        if (beats_) {
            beats_[w].busySinceNs.store(
                0, std::memory_order_relaxed);
            beats_[w].epoch.fetch_add(1,
                                      std::memory_order_relaxed);
        }
        if (adm_)
            adm_->observe(monotonicNowNs());
    }
}

void
IndexService::watchdogMain()
{
    const unsigned n = unsigned(threads_.size());
    // One *count* per stuck window (epoch dedup), but warnings are
    // rate-limited rather than one-shot: a persistent stall re-warns
    // once per additional threshold window, so a wedged walker stays
    // visible in the log without flooding it at the watchdog period.
    std::vector<u64> reported(n, ~u64{0});
    std::vector<u64> warnedBucket(n, 0);
    MutexLock lk(wdM_);
    for (;;) {
        // Park for up to one period; stop() wakes it immediately. A
        // spurious wake just runs the scan early, which is harmless
        // (the scan is cheap and stall ages are absolute).
        wdCv_.waitFor(
            wdM_, std::chrono::nanoseconds(cfg_.watchdogPeriodNs));
        if (wdStop_)
            return;
        const u64 now = monotonicNowNs();
        for (unsigned w = 0; w < n; ++w) {
            const u64 busy = beats_[w].busySinceNs.load(
                std::memory_order_relaxed);
            if (busy == 0 || now <= busy ||
                now - busy < cfg_.stallThresholdNs)
                continue;
            const u64 age = now - busy;
            const u64 ep =
                beats_[w].epoch.load(std::memory_order_relaxed);
            if (reported[w] != ep) {
                reported[w] = ep;
                warnedBucket[w] = age / cfg_.stallThresholdNs;
                nStalls_.fetch_add(1, std::memory_order_relaxed);
                wobs_[w].stalls.fetch_add(1,
                                          std::memory_order_relaxed);
                warn("index service watchdog: walker %u stuck in "
                     "one window drain for %.1f ms (threshold "
                     "%.1f ms)",
                     w, double(age) / 1e6,
                     double(cfg_.stallThresholdNs) / 1e6);
                continue;
            }
            const u64 bucket = age / cfg_.stallThresholdNs;
            if (bucket > warnedBucket[w]) {
                warnedBucket[w] = bucket;
                warn("index service watchdog: walker %u still "
                     "stuck in the same window drain, last "
                     "heartbeat %.1f ms ago",
                     w, double(age) / 1e6);
            }
        }
    }
}

bool
IndexService::claim(Window &win)
{
    if (!sealed_.empty()) {
        win = std::move(sealed_.front());
        sealed_.pop_front();
        queuedKeys_.fetch_sub(win.keys,
                              std::memory_order_relaxed);
        return true;
    }
    if (open_.keys > 0) {
        // Nothing sealed and this walker is idle: serve the
        // coalescing window now instead of stalling its requests
        // (latency floor for lone small probes).
        win = std::move(open_);
        open_ = Window{};
        queuedKeys_.fetch_sub(win.keys,
                              std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
IndexService::processWindow(Window &win)
{
    // Queue-wait ends here: one clock read per window, CASed into
    // each distinct request's first-drain slot (only the first
    // claim of a request's segments wins — for single-segment
    // requests that puts coalescing hold and sealed-queue depth
    // entirely in the queue-wait component; see KindLatency). The
    // winning claim also feeds the admission controller's windowed
    // queue-wait signal.
    u64 now = 0;
    if (board_ || trace_) {
        now = monotonicNowNs();
        for (const Segment &seg : win.segs) {
            u64 expect = 0;
            if (!seg.req->tFirstDrain.compare_exchange_strong(
                    expect, now, std::memory_order_relaxed))
                continue;
            if (adm_)
                adm_->recordQueueWait(now - seg.req->tSubmit);
            if (seg.req->trace)
                seg.req->trace->record(seg.req->traceId,
                                       obs::SpanPoint::FirstClaim,
                                       now);
        }
    }

    // Deadline cut: a segment whose request is already past its
    // deadline retires without draining (fast failure instead of
    // spending walker time on a result the client has written
    // off). Live segments compact forward so the drain below sees
    // a dense window.
    std::size_t live = 0;
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        Segment &seg = win.segs[s];
        bool expiredNow = false;
        if (const u64 dl = seg.req->deadlineNs) {
            if (now == 0)
                now = monotonicNowNs();
            expiredNow = now > dl;
        }
        if (expiredNow) {
            if (seg.req->trySetStatus(Status::DeadlineExceeded))
                nExpired_.fetch_add(1, std::memory_order_relaxed);
            retireSegment(seg);
        } else {
            if (live != s)
                win.segs[live] = std::move(win.segs[s]);
            ++live;
        }
    }
    win.segs.resize(live);
    if (win.segs.empty())
        return; // every segment expired; nothing to drain

    // Single-shard services (including views of an existing index)
    // drain against the flat HashIndex — no per-key shard resolve,
    // and the AVX2 tag filter applies.
    if (const db::HashIndex *flat = index_.flatIndex())
        drainWindow(*flat, win);
    else
        drainWindow(index_, win);
}

template <typename Index>
void
IndexService::drainWindow(const Index &idx, Window &win)
{
    // Window ordinal -> owning segment and request-relative key
    // position.
    struct Ref
    {
        u32 seg;
        std::size_t pos;
    };
    u64 wkeys[db::HashIndex::kMaxProbeBatch];
    u64 hashes[db::HashIndex::kMaxProbeBatch];
    Ref refs[db::HashIndex::kMaxProbeBatch];

    // Dispatcher stage, run by the draining walker on its own core:
    // gather the window's segments and vector-hash each one.
    std::size_t off = 0;
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        const Segment &seg = win.segs[s];
        const std::span<const u64> keys =
            seg.req->keys.subspan(seg.base, seg.len);
        std::copy(keys.begin(), keys.end(), wkeys + off);
        idx.hashBatch(keys, {hashes + off, keys.size()});
        for (u32 j = 0; j < seg.len; ++j)
            refs[off + j] = Ref{u32(s), seg.base + j};
        off += seg.len;
    }

    // Slow this drain down (compiled out by default): models a
    // walker losing its core or hitting pathological memory — the
    // window is claimed, so its requests are committed to this
    // walker and only completion can finish them.
    WIDX_FAILPOINT("service.slow_drain");

    // Tag sweep: batched fingerprint filter plus survivor-only
    // header prefetches (the drain's own tag check stays off — the
    // stream skips rejected ordinals). Adaptive mode keeps its
    // stats alive after flipping the filter off by running every
    // 32nd untagged window tagged anyway: the sweep is correct
    // either way (no false negatives), and the periodic sample is
    // what lets the recommendation swing back on when traffic turns
    // selective again.
    bool tagged = effectiveTagged(index_, cfg_.pipeline);
    if (cfg_.pipeline.adaptiveTags && !tagged &&
        nUntagged_.fetch_add(1, std::memory_order_relaxed) % 32 ==
            0)
        tagged = true;
    u64 bits[db::HashIndex::kMaxProbeBatch / 64];
    if (tagged)
        tagFilterAndPrefetch(idx, hashes, off, bits);
    else
        idx.prefetchStage(hashes, off, false);

    // Drain through the AMAC ring; records land in per-segment
    // scratch tagged with request-relative positions.
    std::vector<std::vector<MatchRec>> seg_recs(win.segs.size());
    std::vector<u64> seg_count(win.segs.size(), 0);
    auto sink = [&](std::size_t o, u64 key, u64 payload) {
        const Ref r = refs[o];
        if (win.segs[r.seg].req->kind == RequestKind::Count)
            ++seg_count[r.seg];
        else
            seg_recs[r.seg].push_back({r.pos, key, payload});
    };
    HashedChunkStream stream(wkeys, hashes, off,
                             tagged ? bits : nullptr);
    amacDrain(idx, stream, width_, false, sink);

    // Retire each segment: records sort back into probeBatch order
    // (stable on key position — the drain interleaves across keys
    // but emits each key's matches in chain order), land in the
    // request's (request, chunk) merge slot, and the last chunk to
    // retire assembles and publishes the result.
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        Segment &seg = win.segs[s];
        detail::ServiceRequest &req = *seg.req;
        if (req.kind == RequestKind::Count) {
            req.count.fetch_add(seg_count[s],
                                std::memory_order_relaxed);
        } else {
            std::stable_sort(seg_recs[s].begin(), seg_recs[s].end(),
                             [](const MatchRec &a,
                                const MatchRec &b) {
                                 return a.i < b.i;
                             });
            req.perChunk[seg.chunk] = std::move(seg_recs[s]);
        }
        retireSegment(seg);
    }
}

ServiceStats
IndexService::stats() const
{
    ServiceStats s;
    s.requests = nRequests_.load(std::memory_order_relaxed);
    s.keys = nKeys_.load(std::memory_order_relaxed);
    s.windows = nWindows_.load(std::memory_order_relaxed);
    s.coalescedWindows = nCoalesced_.load(std::memory_order_relaxed);
    s.completedOk = nCompletedOk_.load(std::memory_order_relaxed);
    s.rejected = nRejected_.load(std::memory_order_relaxed);
    s.expired = nExpired_.load(std::memory_order_relaxed);
    s.cancelled = nCancelled_.load(std::memory_order_relaxed);
    s.walkerStalls = nStalls_.load(std::memory_order_relaxed);
    s.liveRequests = liveGauge_->load(std::memory_order_relaxed);
    if (adm_)
        s.admission = adm_->snapshot();
    if (index_.liveMutable()) {
        for (unsigned sh = 0; sh < index_.shards(); ++sh) {
            for (unsigned op = 0; op < 3; ++op)
                s.mutations +=
                    index_.mutationsTotal(sh, MutOp(op));
            s.rebuilds += index_.rebuildsTotal(sh);
        }
    }
    if (board_) {
        using detail::LatencyBoard;
        for (unsigned k = 0; k < kNumRequestKinds; ++k) {
            KindLatency &kl = s.latency[k];
            kl.endToEnd =
                board_->rec[k][LatencyBoard::E2E].summarize();
            kl.queueWait =
                board_->rec[k][LatencyBoard::Queue].summarize();
            kl.drainTime =
                board_->rec[k][LatencyBoard::Drain].summarize();
        }
    }
    return s;
}

void
IndexService::resetLatencyStats()
{
    if (!board_)
        return;
    for (auto &row : board_->rec)
        for (auto &rec : row)
            rec.reset();
}

void
IndexService::noteSeal(const Window &win)
{
    if (!trace_)
        return;
    // Runs under m_ at the seal sites: one clock read per sealed
    // window holding at least one traced segment, nothing otherwise.
    u64 now = 0;
    for (const Segment &seg : win.segs) {
        if (!seg.req->trace)
            continue;
        if (now == 0)
            now = monotonicNowNs();
        trace_->record(seg.req->traceId, obs::SpanPoint::WindowSeal,
                       now, win.keys);
    }
}

void
IndexService::registerMetrics(obs::MetricsRegistry &reg)
{
    reg.addCollector(
        [this](obs::Snapshot &out) { collectMetrics(out); });
}

void
IndexService::collectMetrics(obs::Snapshot &out) const
{
    using obs::Family;
    using obs::Labels;
    using obs::MetricType;
    using obs::Sample;

    auto scalar = [&](const char *name, const char *help,
                      MetricType type, double v) {
        Family f;
        f.name = name;
        f.help = help;
        f.type = type;
        f.samples.push_back(Sample{{}, v, {}});
        out.push_back(std::move(f));
    };
    auto counter = [&](const char *name, const char *help, u64 v) {
        scalar(name, help, MetricType::Counter, double(v));
    };
    auto gauge = [&](const char *name, const char *help, double v) {
        scalar(name, help, MetricType::Gauge, v);
    };
    auto rel = [](const std::atomic<u64> &a) {
        return a.load(std::memory_order_relaxed);
    };

    counter("widx_service_requests_total",
            "Requests submitted (every Status included)",
            rel(nRequests_));
    counter("widx_service_keys_total", "Keys submitted", rel(nKeys_));
    counter("widx_service_windows_total", "Dispatch windows drained",
            rel(nWindows_));
    counter("widx_service_windows_coalesced_total",
            "Windows spanning more than one request tail",
            rel(nCoalesced_));
    counter("widx_service_walker_stalls_total",
            "Watchdog stuck-window reports, all walkers",
            rel(nStalls_));
    gauge("widx_service_live_requests",
          "Request states currently allocated",
          double(liveGauge_->load(std::memory_order_relaxed)));
    gauge("widx_service_queued_keys",
          "Keys parked in the admission queues",
          double(rel(queuedKeys_)));

    {
        Family f;
        f.name = "widx_service_requests_completed_total";
        f.help = "Completed requests by final Status";
        f.type = MetricType::Counter;
        f.samples.push_back(Sample{Labels{{"status", "ok"}},
                                   double(rel(nCompletedOk_)),
                                   {}});
        f.samples.push_back(Sample{Labels{{"status", "rejected"}},
                                   double(rel(nRejected_)),
                                   {}});
        f.samples.push_back(Sample{Labels{{"status", "expired"}},
                                   double(rel(nExpired_)),
                                   {}});
        f.samples.push_back(Sample{Labels{{"status", "cancelled"}},
                                   double(rel(nCancelled_)),
                                   {}});
        out.push_back(std::move(f));
    }

    if (adm_) {
        const AdmissionSnapshot a = adm_->snapshot();
        gauge("widx_admission_hold_keys",
              "Current open-window seal threshold",
              double(a.holdKeys));
        gauge("widx_admission_budget_keys",
              "Current queued-key budget", double(a.budgetKeys));
        counter("widx_admission_adjustments_total",
                "Judged controller intervals", a.adjustments);
        counter("widx_admission_decreases_total",
                "Intervals that halved hold or budget", a.decreases);
        gauge("widx_admission_last_window_p99_ns",
              "Last judged interval's queue-wait p99",
              double(a.lastWindowP99Ns));
        gauge("widx_admission_last_window_count",
              "Samples in the last judged interval",
              double(a.lastWindowCount));
    }

    // Per-walker: windows, stall reports, current drain age, and
    // the hardware-counter accumulation (zeros when perf is denied
    // or sampling is off).
    {
        const unsigned n = unsigned(threads_.size());
        const u64 now = monotonicNowNs();
        Family windows, stalls, busy;
        windows.name = "widx_walker_windows_total";
        windows.help = "Windows drained, by walker";
        windows.type = MetricType::Counter;
        stalls.name = "widx_walker_stalls_total";
        stalls.help = "Watchdog stuck-window reports, by walker";
        stalls.type = MetricType::Counter;
        busy.name = "widx_walker_busy_ns";
        busy.help = "Age of the current window drain (0 = parked)";
        busy.type = MetricType::Gauge;
        for (unsigned w = 0; w < n; ++w) {
            Labels l{{"walker", std::to_string(w)}};
            windows.samples.push_back(
                Sample{l, double(rel(wobs_[w].windows)), {}});
            stalls.samples.push_back(
                Sample{l, double(rel(wobs_[w].stalls)), {}});
            if (beats_) {
                const u64 b = rel(beats_[w].busySinceNs);
                busy.samples.push_back(Sample{
                    l, b && now > b ? double(now - b) : 0.0, {}});
            }
        }
        out.push_back(std::move(windows));
        out.push_back(std::move(stalls));
        if (beats_)
            out.push_back(std::move(busy));

        if (cfg_.perfSamplePeriod > 0) {
            Family cyc, ins, llc, tlb, swin, sprb, mpp, ipc;
            cyc.name = "widx_walker_cycles_total";
            cyc.help = "CPU cycles over sampled window drains";
            ins.name = "widx_walker_instructions_total";
            ins.help = "Instructions over sampled window drains";
            llc.name = "widx_walker_llc_misses_total";
            llc.help = "LLC read misses over sampled window drains";
            tlb.name = "widx_walker_dtlb_misses_total";
            tlb.help = "dTLB read misses over sampled window drains";
            swin.name = "widx_walker_sampled_windows_total";
            swin.help = "Window drains sampled with perf";
            sprb.name = "widx_walker_sampled_probes_total";
            sprb.help = "Keys probed inside sampled window drains";
            mpp.name = "widx_walker_llc_misses_per_probe";
            mpp.help = "LLC misses per probed key (sampled windows)";
            mpp.type = MetricType::Gauge;
            ipc.name = "widx_walker_ipc";
            ipc.help =
                "Instructions per cycle over sampled window drains "
                "(MLP proxy: low IPC on the walker loop means "
                "overlapped misses, the design target)";
            ipc.type = MetricType::Gauge;
            for (Family *f : {&cyc, &ins, &llc, &tlb, &swin, &sprb})
                f->type = MetricType::Counter;
            for (unsigned w = 0; w < n; ++w) {
                Labels l{{"walker", std::to_string(w)}};
                const WalkerObs &wo = wobs_[w];
                const u64 cycles = rel(wo.cycles);
                const u64 instrs = rel(wo.instructions);
                const u64 misses = rel(wo.llcMisses);
                const u64 probes = rel(wo.sampledProbes);
                cyc.samples.push_back(Sample{l, double(cycles), {}});
                ins.samples.push_back(Sample{l, double(instrs), {}});
                llc.samples.push_back(Sample{l, double(misses), {}});
                tlb.samples.push_back(
                    Sample{l, double(rel(wo.dtlbMisses)), {}});
                swin.samples.push_back(
                    Sample{l, double(rel(wo.sampledWindows)), {}});
                sprb.samples.push_back(
                    Sample{l, double(probes), {}});
                mpp.samples.push_back(Sample{
                    l,
                    probes ? double(misses) / double(probes) : 0.0,
                    {}});
                ipc.samples.push_back(Sample{
                    l,
                    cycles ? double(instrs) / double(cycles) : 0.0,
                    {}});
            }
            for (Family *f :
                 {&cyc, &ins, &llc, &tlb, &swin, &sprb, &mpp, &ipc})
                out.push_back(std::move(*f));
        }
    }

    // Writer path: per-shard mutation counters, rebuild counts, and
    // the reader-epoch lag (how far the oldest pinned reader trails
    // the current epoch; a large stable value means a stuck reader
    // is holding back reclamation).
    if (index_.liveMutable()) {
        static constexpr const char *kOp[3] = {"insert", "delete",
                                               "upsert"};
        Family mut, reb;
        mut.name = "widx_mutations_total";
        mut.help =
            "Keys applied by the writer path, by kind and shard";
        mut.type = MetricType::Counter;
        reb.name = "widx_rebuilds_total";
        reb.help = "Incremental shard rebuilds triggered by the "
                   "load-factor watermark";
        reb.type = MetricType::Counter;
        for (unsigned s = 0; s < index_.shards(); ++s) {
            for (unsigned op = 0; op < 3; ++op)
                mut.samples.push_back(Sample{
                    Labels{{"kind", kOp[op]},
                           {"shard", std::to_string(s)}},
                    double(index_.mutationsTotal(s, MutOp(op))),
                    {}});
            reb.samples.push_back(
                Sample{Labels{{"shard", std::to_string(s)}},
                       double(index_.rebuildsTotal(s)), {}});
        }
        out.push_back(std::move(mut));
        out.push_back(std::move(reb));
        gauge("widx_epoch_lag",
              "Epochs the oldest pinned reader trails the current "
              "epoch (0 = nothing holding back reclamation)",
              double(index_.epochs().lag()));
    }

    // Tag-filter effectiveness (cross-shard aggregate).
    {
        const db::TagFilterStats &t = index_.tagStats();
        counter("widx_tagfilter_keys_total",
                "Keys swept through the fingerprint filter",
                t.keys());
        counter("widx_tagfilter_rejects_total",
                "Keys rejected by the fingerprint filter",
                t.rejects());
        counter("widx_tagfilter_agings_total",
                "Sliding-window stat agings", t.agings());
        gauge("widx_tagfilter_reject_rate",
              "Recent-window filter reject rate", t.rejectRate());
    }

    // Per-kind latency: full histograms for the end-to-end split
    // plus the percentile ladder as gauges (percentiles read from
    // the native log buckets, tighter than re-bucketed exposition).
    if (board_) {
        using detail::LatencyBoard;
        static constexpr const char *kKind[kNumRequestKinds] = {
            "count", "probe", "join",
            "insert", "delete", "upsert"};
        static constexpr const char *kComp[3] = {"e2e", "queue",
                                                 "drain"};
        Family hist, p50, p99;
        hist.name = "widx_request_latency_ns";
        hist.help = "Per-kind request latency (Ok completions; "
                    "component e2e = queue + drain)";
        hist.type = MetricType::Histogram;
        p50.name = "widx_request_latency_p50_ns";
        p50.help = "Median request latency";
        p50.type = MetricType::Gauge;
        p99.name = "widx_request_latency_p99_ns";
        p99.help = "p99 request latency";
        p99.type = MetricType::Gauge;
        for (unsigned k = 0; k < kNumRequestKinds; ++k) {
            for (unsigned comp = 0; comp < 3; ++comp) {
                const LatencyHistogram h =
                    board_->rec[k][comp].snapshot();
                if (h.count() == 0)
                    continue; // idle kinds stay out of the scrape
                Labels l{{"kind", kKind[k]},
                         {"component", kComp[comp]}};
                Sample s;
                s.labels = l;
                s.hist = obs::toHistogramData(h);
                hist.samples.push_back(std::move(s));
                p50.samples.push_back(
                    Sample{l, double(h.percentileNs(50)), {}});
                p99.samples.push_back(
                    Sample{l, double(h.percentileNs(99)), {}});
            }
        }
        if (!hist.samples.empty()) {
            out.push_back(std::move(hist));
            out.push_back(std::move(p50));
            out.push_back(std::move(p99));
        }
    }
}

} // namespace widx::sw
