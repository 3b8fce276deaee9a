#include "service/index_service.hh"

#include <algorithm>
#include <iterator>

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
 * One submitted request. Segment s's records are written by exactly
 * one walker (the one that drained s's window) into perSlot[s];
 * the walker that retires the last segment assembles the result and
 * signals the client. `remaining` decrements with acq_rel so the
 * assembler observes every other walker's segment writes.
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
    std::vector<std::vector<MatchRec>> perSlot;

    /** Absolute deadline (0 = none); written before publication. */
    u64 deadlineNs = 0;
    /** Completion status; transitions once, Ok -> non-Ok, via CAS —
     *  the first marker (deadline check, cancel sweep, reject path)
     *  wins. Every marker runs before its segment retires, so the
     *  value finishRequest reads is final, and it counts the request
     *  there. */
    std::atomic<u8> status{u8(Status::Ok)};

    bool
    trySetStatus(Status s)
    {
        u8 expect = u8(Status::Ok);
        return status.compare_exchange_strong(
            expect, u8(s), std::memory_order_relaxed);
    }

    /** Latency accounting. tSubmit is stamped in submit();
     *  tFirstDrain by the first walker to claim a window holding one
     *  of this request's segments (CAS from 0, so exactly one claim
     *  wins; 0 = never claimed). The claim's release on the
     *  remaining-countdown orders the stamp before the finalizer's
     *  reads. */
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
        } else if (perSlot.size() == 1) {
            // One merge slot is already the whole result.
            r.recs = std::move(perSlot[0]);
            r.matches = r.recs.size();
        } else {
            // Segments are position-contiguous and each slot is in
            // probeBatch order, so concatenation is the result.
            std::size_t total = 0;
            for (const auto &c : perSlot)
                total += c.size();
            r.recs.reserve(total);
            for (auto &c : perSlot)
                r.recs.insert(r.recs.end(), c.begin(), c.end());
            r.matches = total;
            perSlot.clear();
        }
        // Publication timestamp and latency accounting. The same
        // `now` closes both components, so per request
        // queueWait + drainTime == endToEnd exactly (the service
        // test asserts the sums match to the nanosecond). Requests
        // no walker ever claims (empty spans, mutations) count from
        // tSubmit: all their latency is queue-wait-free.
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
        if (r.status == Status::Ok) {
            const u64 fd = tFirstDrain.load(std::memory_order_relaxed);
            const u64 first = fd ? fd : tSubmit;
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
             cfg.pinWalkers, nullptr, cfg.mutation),
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
    if (cfg_.admission.adaptive)
        adm_ = std::make_unique<AdmissionController>(
            cfg_.admission, u32(chunk_), walkers + 1);
    board_ = std::make_unique<detail::LatencyBoard>(
        walkers + 1); // walkers finalize; submitters do empties
    if (cfg_.watchdogPeriodNs > 0)
        beats_.reset(new WalkerBeat[walkers]);
    trace_ = cfg_.trace.get();

    // Every counter gets its handle before the first walker starts,
    // so the hot paths only ever increment.
    requests_ = counters_.counter(
        "widx_service_requests_total",
        "Requests submitted (every Status included)");
    keys_ = counters_.counter("widx_service_keys_total",
                              "Keys submitted");
    coalesced_ = counters_.counter(
        "widx_service_windows_coalesced_total",
        "Windows spanning more than one request tail");
    static constexpr const char *kOutcome[] = {
        "ok", "rejected", "expired", "cancelled"}; // by Status
    for (unsigned st = 0; st < std::size(kOutcome); ++st)
        completed_[st] = counters_.counter(
            "widx_service_requests_completed_total",
            "Completed requests by final Status",
            {{"status", kOutcome[st]}});
    struct WalkerFamily
    {
        obs::Counter WalkerObs::*handle;
        const char *name;
        const char *help;
    };
    // The first two always; the rest only with perf sampling on.
    static constexpr WalkerFamily kWalker[] = {
        {&WalkerObs::windows, "widx_walker_windows_total",
         "Windows drained, by walker"},
        {&WalkerObs::stalls, "widx_walker_stalls_total",
         "Watchdog stuck-window reports, by walker"},
        {&WalkerObs::cycles, "widx_walker_cycles_total",
         "CPU cycles over sampled window drains"},
        {&WalkerObs::instructions, "widx_walker_instructions_total",
         "Instructions over sampled window drains"},
        {&WalkerObs::llcMisses, "widx_walker_llc_misses_total",
         "LLC read misses over sampled window drains"},
        {&WalkerObs::dtlbMisses, "widx_walker_dtlb_misses_total",
         "dTLB read misses over sampled window drains"},
        {&WalkerObs::sampledWindows,
         "widx_walker_sampled_windows_total",
         "Window drains sampled with perf"},
        {&WalkerObs::sampledProbes, "widx_walker_sampled_probes_total",
         "Keys probed inside sampled window drains"},
    };
    const std::size_t families =
        cfg_.perfSamplePeriod > 0 ? std::size(kWalker) : 2;
    wobs_.resize(walkers);
    for (unsigned w = 0; w < walkers; ++w)
        for (std::size_t f = 0; f < families; ++f)
            wobs_[w].*kWalker[f].handle = counters_.counter(
                kWalker[f].name, kWalker[f].help,
                {{"walker", std::to_string(w)}});

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
            seg.req->trySetStatus(Status::Cancelled);
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
    req->tSubmit = monotonicNowNs();
    if (req->trace)
        req->trace->record(req->traceId, obs::SpanPoint::Submit,
                           req->tSubmit);
    liveGauge_->fetch_add(1, std::memory_order_relaxed);
    req->liveGauge = liveGauge_;

    requests_.inc();
    keys_.inc(keys.size());
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
        // queue-wait.
        finishRequest(*req);
        return;
    }

    // Dead on arrival: a deadline already in the past fails fast
    // without touching the queues.
    if (opt.deadlineNs && req->tSubmit > opt.deadlineNs) {
        req->trySetStatus(Status::DeadlineExceeded);
        finishRequest(*req);
        return;
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
        finishRequest(*req);
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
    //
    // Rejected, not undefined: a view-mode service wraps an index it
    // does not own, and Insert/Upsert without one payload per key
    // has no meaning. Nothing was applied in either case.
    const bool needPayloads = kind != RequestKind::Delete;
    if (!index_.liveMutable() ||
        (needPayloads && opt.payloads.size() != keys.size())) {
        req->trySetStatus(Status::Rejected);
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
    // so this read is the final verdict: every request lands in
    // exactly one outcome bucket, here.
    completed_[req.status.load(std::memory_order_relaxed)].inc();
    req.finalize();
}

bool
IndexService::admit(std::shared_ptr<detail::ServiceRequest> req,
                    RequestKind kind, std::span<const u64> keys)
{
    // Full chunks seal as windows of up to kMaxProbeBatch keys, so
    // one claim keeps the AMAC ring full across up to 1024 keys. The
    // window count rounds up to a multiple of the walker count, so a
    // request on an idle service spreads over every walker instead
    // of draining on one. With F full chunks, K walkers and
    // m = kMaxProbeBatch / chunk chunks per window, that is
    // min(F, K * ceil(F / (K * m))) windows, each dealt a contiguous
    // run of F / windows chunks (the first F % windows one more).
    const std::size_t full = keys.size() / chunk_;
    const std::size_t perWindow =
        db::HashIndex::kMaxProbeBatch / chunk_;
    const std::size_t lanes = walkers();
    const std::size_t sealed =
        std::min(full, lanes * ((full + lanes * perWindow - 1) /
                                (lanes * perWindow)));
    const bool tail = keys.size() % chunk_ != 0;
    const std::size_t slots = sealed + (tail ? 1 : 0);
    req->remaining.store(slots, std::memory_order_relaxed);
    if (kind != RequestKind::Count)
        req->perSlot.resize(slots);

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
        std::size_t base = 0;
        for (std::size_t w = 0; w < sealed; ++w) {
            const std::size_t chunks =
                full / sealed + (w < full % sealed ? 1 : 0);
            const u32 len = u32(chunks * chunk_);
            Window win;
            win.segs.push_back(Segment{req, w, base, len});
            win.keys = len;
            noteSeal(win); // full chunks seal at admission
            sealed_.push_back(std::move(win));
            base += len;
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
            open_.segs.push_back(Segment{req, sealed, base, len});
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
    // Drain scratch, reused across windows (see drainWindow).
    std::vector<MatchRec> found;
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
        if (win.segs.size() > 1)
            coalesced_.inc();
        wobs_[w].windows.inc();
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
        processWindow(win, found);
        if (epochs)
            epochs->unpin(eslot);
        if (sampleHw) {
            perf->stop();
            const obs::PerfGroup::Counts c = perf->read();
            if (c.valid) {
                WalkerObs &wo = wobs_[w];
                wo.sampledWindows.inc();
                wo.sampledProbes.inc(win.keys);
                wo.cycles.inc(c.cycles);
                wo.instructions.inc(c.instructions);
                wo.llcMisses.inc(c.llcMisses);
                wo.dtlbMisses.inc(c.dtlbMisses);
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
                wobs_[w].stalls.inc();
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
IndexService::processWindow(Window &win, std::vector<MatchRec> &found)
{
    // Queue-wait ends here: one clock read per window, CASed into
    // each distinct request's first-drain slot (only the first
    // claim of a request's segments wins — for single-segment
    // requests that puts coalescing hold and sealed-queue depth
    // entirely in the queue-wait component; see KindLatency). The
    // winning claim also feeds the admission controller's windowed
    // queue-wait signal.
    const u64 now = monotonicNowNs();
    for (const Segment &seg : win.segs) {
        u64 expect = 0;
        if (!seg.req->tFirstDrain.compare_exchange_strong(
                expect, now, std::memory_order_relaxed))
            continue;
        if (adm_)
            adm_->recordQueueWait(now - seg.req->tSubmit);
        if (seg.req->trace)
            seg.req->trace->record(seg.req->traceId,
                                   obs::SpanPoint::FirstClaim, now);
    }

    // Deadline cut: a segment whose request is already past its
    // deadline retires without draining (fast failure instead of
    // spending walker time on a result the client has written
    // off). Live segments compact forward so the drain below sees
    // a dense window.
    std::size_t live = 0;
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        Segment &seg = win.segs[s];
        const u64 dl = seg.req->deadlineNs;
        if (dl && now > dl) {
            seg.req->trySetStatus(Status::DeadlineExceeded);
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
        drainWindow(*flat, win, found);
    else
        drainWindow(index_, win, found);
}

template <typename Index>
void
IndexService::drainWindow(const Index &idx, Window &win,
                          std::vector<MatchRec> &found)
{
    constexpr std::size_t kMax = db::HashIndex::kMaxProbeBatch;
    u64 wkeys[kMax];
    u64 hashes[kMax];
    u32 segOf[kMax]; ///< window ordinal -> owning segment
    u64 hits[kMax];  ///< matches per ordinal, then write cursors

    // Dispatcher stage, run by the draining walker on its own core:
    // gather the window's segments and vector-hash each one.
    std::size_t off = 0;
    bool materialize = false;
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        const Segment &seg = win.segs[s];
        const std::span<const u64> keys =
            seg.req->keys.subspan(seg.base, seg.len);
        std::copy(keys.begin(), keys.end(), wkeys + off);
        idx.hashBatch(keys, {hashes + off, keys.size()});
        std::fill_n(segOf + off, seg.len, u32(s));
        materialize |= seg.req->kind != RequestKind::Count;
        off += seg.len;
    }
    std::fill_n(hits, off, 0);

    // Slow this drain down (compiled out by default): models a
    // walker losing its core or hitting pathological memory — the
    // window is claimed, so its requests are committed to this
    // walker and only completion can finish them.
    WIDX_FAILPOINT("service.slow_drain");

    // Tag sweep: batched fingerprint filter plus survivor-only
    // header prefetches (the drain's own tag check stays off — the
    // stream skips rejected ordinals). It costs a tag-byte load per
    // key and pays only by rejecting keys, so the index's observed
    // reject rate decides per window (pipeline.tagged holds until
    // the sample is in). Only swept windows feed that rate, so
    // every 32nd untagged window sweeps anyway: the sweep is correct
    // either way (no false negatives), and the periodic sample is
    // what lets the filter swing back on when traffic turns
    // selective again.
    bool tagged = index_.taggedWorthwhile(cfg_.pipeline.tagged);
    if (!tagged &&
        untaggedWindows_.fetch_add(1, std::memory_order_relaxed) % 32 == 0)
        tagged = true;
    u64 bits[kMax / 64];
    if (tagged)
        tagFilterAndPrefetch(idx, hashes, off, bits);
    else
        idx.prefetchStage(hashes, off, false);

    // Drain through the AMAC ring. Every match bumps its ordinal's
    // count; a window holding a Probe or Join segment also keeps
    // the record, by ordinal, in emission order.
    found.clear();
    auto sink = [&](std::size_t o, u64 key, u64 payload) {
        ++hits[o];
        if (materialize)
            found.push_back({o, key, payload});
    };
    HashedChunkStream stream(wkeys, hashes, off,
                             tagged ? bits : nullptr);
    amacDrain(idx, stream, width_, false, sink);

    // Counting placement. A segment's ordinals are contiguous and
    // its records fill its merge slot densely in key order, so a
    // prefix sum over the segment's counts turns each into its
    // key's first write cursor (and the total is a Count segment's
    // tally), and one pass over the scratch drops every record at
    // its place. The drain emits each key's matches in chain order,
    // so the slot is exactly probeBatch's sequence.
    struct Dest
    {
        MatchRec *recs;    ///< the segment's merge slot; null = Count
        std::size_t first; ///< the segment's first window ordinal
        std::size_t base;  ///< its first request-relative position
    };
    Dest dest[kMax];
    std::size_t first = 0;
    for (std::size_t s = 0; s < win.segs.size(); ++s) {
        const Segment &seg = win.segs[s];
        detail::ServiceRequest &req = *seg.req;
        u64 at = 0;
        for (std::size_t o = first; o < first + seg.len; ++o) {
            const u64 h = hits[o];
            hits[o] = at;
            at += h;
        }
        MatchRec *recs = nullptr;
        if (req.kind == RequestKind::Count) {
            req.count.fetch_add(at, std::memory_order_relaxed);
        } else {
            std::vector<MatchRec> &slot = req.perSlot[seg.slot];
            slot.resize(at);
            recs = slot.data();
        }
        dest[s] = {recs, first, seg.base};
        first += seg.len;
    }
    for (const MatchRec &r : found) {
        const Dest &d = dest[segOf[r.i]];
        if (d.recs)
            d.recs[hits[r.i]++] = {r.i - d.first + d.base, r.key,
                                   r.payload};
    }

    // The last segment of a request to retire assembles and
    // publishes its result.
    for (const Segment &seg : win.segs)
        retireSegment(seg);
}

ServiceStats
IndexService::stats() const
{
    ServiceStats s;
    s.requests = requests_.value();
    s.keys = keys_.value();
    s.windows = sumWalkers(&WalkerObs::windows);
    s.coalescedWindows = coalesced_.value();
    s.completedOk = completed_[unsigned(Status::Ok)].value();
    s.rejected = completed_[unsigned(Status::Rejected)].value();
    s.expired = completed_[unsigned(Status::DeadlineExceeded)].value();
    s.cancelled = completed_[unsigned(Status::Cancelled)].value();
    s.walkerStalls = sumWalkers(&WalkerObs::stalls);
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
    using detail::LatencyBoard;
    for (unsigned k = 0; k < kNumRequestKinds; ++k) {
        KindLatency &kl = s.latency[k];
        kl.endToEnd = board_->rec[k][LatencyBoard::E2E].summarize();
        kl.queueWait = board_->rec[k][LatencyBoard::Queue].summarize();
        kl.drainTime = board_->rec[k][LatencyBoard::Drain].summarize();
    }
    return s;
}

u64
IndexService::sumWalkers(obs::Counter WalkerObs::*counter) const
{
    u64 n = 0;
    for (const WalkerObs &wo : wobs_)
        n += (wo.*counter).value();
    return n;
}

void
IndexService::resetLatencyStats()
{
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
    reg.addCollector([this](obs::Snapshot &out) {
        obs::Snapshot handles = counters_.snapshot();
        std::move(handles.begin(), handles.end(),
                  std::back_inserter(out));
        collectMetrics(out);
    });
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

    counter("widx_service_windows_total", "Dispatch windows drained",
            sumWalkers(&WalkerObs::windows));
    counter("widx_service_walker_stalls_total",
            "Watchdog stuck-window reports, all walkers",
            sumWalkers(&WalkerObs::stalls));
    gauge("widx_service_live_requests",
          "Request states currently allocated",
          double(rel(*liveGauge_)));
    gauge("widx_service_queued_keys",
          "Keys parked in the admission queues",
          double(rel(queuedKeys_)));

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

    // Per-walker state that is not a handle: the current drain age
    // and the ratios over the sampled-window counters.
    {
        const bool perf = cfg_.perfSamplePeriod > 0;
        const u64 now = monotonicNowNs();
        Family busy, mpp, ipc;
        busy.name = "widx_walker_busy_ns";
        busy.help = "Age of the current window drain (0 = parked)";
        busy.type = MetricType::Gauge;
        mpp.name = "widx_walker_llc_misses_per_probe";
        mpp.help = "LLC misses per probed key (sampled windows)";
        mpp.type = MetricType::Gauge;
        ipc.name = "widx_walker_ipc";
        ipc.help = "Instructions per cycle over sampled window drains "
                   "(MLP proxy: low IPC on the walker loop means "
                   "overlapped misses, the design target)";
        ipc.type = MetricType::Gauge;
        for (unsigned w = 0; w < walkers(); ++w) {
            Labels l{{"walker", std::to_string(w)}};
            if (beats_) {
                const u64 b = rel(beats_[w].busySinceNs);
                busy.samples.push_back(Sample{
                    l, b && now > b ? double(now - b) : 0.0, {}});
            }
            if (perf) {
                const WalkerObs &wo = wobs_[w];
                const u64 cycles = wo.cycles.value();
                const u64 probes = wo.sampledProbes.value();
                mpp.samples.push_back(Sample{
                    l,
                    probes ? double(wo.llcMisses.value()) /
                                 double(probes)
                           : 0.0,
                    {}});
                ipc.samples.push_back(Sample{
                    l,
                    cycles ? double(wo.instructions.value()) /
                                 double(cycles)
                           : 0.0,
                    {}});
            }
        }
        if (beats_)
            out.push_back(std::move(busy));
        if (perf) {
            out.push_back(std::move(mpp));
            out.push_back(std::move(ipc));
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
        gauge("widx_tagfilter_enabled",
              "1 while drain windows run the fingerprint filter, 0 "
              "while only every 32nd samples it",
              index_.taggedWorthwhile(cfg_.pipeline.tagged) ? 1.0
                                                            : 0.0);
    }

    // Per-kind latency: full histograms for the end-to-end split
    // plus the percentile ladder as gauges (percentiles read from
    // the native log buckets, tighter than re-bucketed exposition).
    static constexpr const char *kKind[kNumRequestKinds] = {
        "count", "probe", "join", "insert", "delete", "upsert"};
    static constexpr const char *kComp[3] = {"e2e", "queue", "drain"};
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
            const LatencyHistogram h = board_->rec[k][comp].snapshot();
            if (h.count() == 0)
                continue; // idle kinds stay out of the scrape
            Labels l{{"kind", kKind[k]}, {"component", kComp[comp]}};
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

} // namespace widx::sw
