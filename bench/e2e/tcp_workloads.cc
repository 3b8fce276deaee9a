/**
 * @file
 * The two workloads that go through the TCP front-end:
 *
 *  - tcp_lookup: 8-key probes, half of the keys absent, over a
 *    1M-tuple index that fits in L3; a `low` and a `mid` fixed-rate
 *    phase.
 *  - tcp_mixed_rw: reads under upserts, inserts and deletes at a
 *    fixed rate, with the initial fill placed so that every shard
 *    crosses its rebuild watermark once inside the window.
 *
 * Both use one loopback connection: a generator thread submits on
 * the Poisson schedule and a reaper thread reaps the client's queue.
 */

#include <algorithm>
#include <deque>
#include <numeric>
#include <thread>

#include "harness.hh"
#include "net/client.hh"
#include "net/server.hh"

namespace e2e {

namespace db = widx::db;
namespace net = widx::net;
namespace sw = widx::sw;

namespace {

constexpr unsigned kShards = 4;
constexpr unsigned kWalkers = 1;
constexpr u64 kNoRow = ~u64(0);
/** A shared VM host has episodes of minutes in which other guests
 *  starve this one (5-18% steal): requests then queue behind
 *  descheduled CPUs and the p50 reads 3-10 times its usual value. A
 *  gated phase with fewer than half its slices valid (kMaxSliceSteal)
 *  runs again after kRetryWait, up to kAttempts times in all. */
constexpr int kAttempts = 2;
constexpr auto kRetryWait = std::chrono::seconds(2);

/** Resident tuples: a build column in shuffled order (payload r is
 *  row r) and the row-of-key oracle. */
struct Dataset
{
    widx::Arena arena;
    std::unique_ptr<db::Column> col;
    std::vector<u32> rowOf; ///< key -> build row, ~0 when absent

    explicit Dataset(const std::vector<u64> &order)
    {
        col = std::make_unique<db::Column>("build", db::ValueKind::U64,
                                           arena, order.size());
        rowOf.assign(*std::max_element(order.begin(), order.end()) + 1,
                     ~u32(0));
        for (std::size_t r = 0; r < order.size(); ++r) {
            col->push(order[r]);
            rowOf[order[r]] = u32(r);
        }
    }

    u64
    row(u64 key) const
    {
        return key < rowOf.size() && rowOf[key] != ~u32(0) ? rowOf[key]
                                                           : kNoRow;
    }

    void
    digest(Digest &d) const
    {
        for (u64 r = 0; r < col->size(); ++r)
            d.add(col->at(r));
    }
};

/** Loopback server and client around a service; mutation kinds
 *  need the client's v2 Hello answered before the first write. */
struct Loopback
{
    net::TcpIndexServer server;
    net::TcpIndexClient client;

    explicit Loopback(sw::IndexService &svc)
        : server(svc), client("127.0.0.1", server.port())
    {
        const u64 until = nowNs() + 5'000'000'000ull;
        while (client.serverVersion() == 0 && client.ok() &&
               nowNs() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    SubmitFn
    submitter()
    {
        return [this](u64 tag, Op op, std::span<const u64> keys,
                      std::span<const u64> pays) {
            client.submitAsync(kindOf(op), keys, 0, tag, 0, pays);
        };
    }
};

SubmitFn
inProcess(sw::IndexService &svc,
          const std::shared_ptr<sw::CompletionQueue> &cq)
{
    return [&svc, cq](u64 tag, Op op, std::span<const u64> keys,
                      std::span<const u64> pays) {
        sw::SubmitOptions o;
        o.payloads = pays;
        svc.submitAsync(kindOf(op), keys, o, cq, tag);
    };
}

/** Count a phase's requests into the run; any failure fails it. */
void
account(Record &rec, const PhaseRun &run)
{
    rec.attempted += run.submitted;
    const u64 bad = run.failed();
    rec.failed += bad;
    if (bad)
        rec.fail(run.stream->name + ": " + std::to_string(bad) + " of " +
                 std::to_string(run.submitted) +
                 " requests failed, timed out or disagreed with the "
                 "oracle");
}

/** Run `attempt` (which fills `run`) and pool its slices of the given
 *  request kind into `slices`, until half an attempt's worth of
 *  slices is valid or the attempts run out; the count goes into the
 *  run info. */
template <typename Attempt>
void
untilValid(Record &rec, const std::string &name, const PhaseRun &run,
           int writes, Slices &slices, Attempt &&attempt)
{
    int a = 1;
    for (;; ++a) {
        attempt(a);
        slices.add(run, writes);
        if (2 * slices.valid() * std::size_t(a) >= slices.all.size() ||
            a == kAttempts)
            break;
        std::this_thread::sleep_for(kRetryWait);
    }
    rec.infoNum(name + ".attempts", a);
}

/** Time between two stamps of every good request of a set of runs. */
std::vector<u64>
stampGaps(const std::vector<const PhaseRun *> &runs, u64 Outcome::*from,
          u64 Outcome::*to)
{
    std::vector<u64> v;
    for (const PhaseRun *run : runs)
        for (std::size_t i = 0; i < run->submitted; ++i) {
            const Outcome &o = run->out[i];
            if (o.good)
                v.push_back(o.*to > o.*from ? o.*to - o.*from : 0);
        }
    return v;
}

/** net.* metrics: bench-timed client submits and reap delays, plus
 *  the server's own counters. */
void
addNetLayers(Record &rec, const std::vector<const PhaseRun *> &tcp,
             const net::TcpServerStats &st)
{
    const Pcts submit = percentiles(
        stampGaps(tcp, &Outcome::submitBeg, &Outcome::submitEnd));
    rec.metric("net.submit_p50_us", submit.p50 / 1e3, "us");
    rec.metric("net.submit_p99_us", submit.p99 / 1e3, "us");
    rec.metric("net.reap_delay_p99_us",
               percentiles(
                   stampGaps(tcp, &Outcome::completed, &Outcome::reaped))
                       .p99 /
                   1e3,
               "us");
    rec.metric("net.requests", double(st.requests), "count");
    rec.metric("net.dropped", double(st.droppedResponses), "count");
    rec.metric("net.protocol_errors", double(st.protocolErrors),
               "count");
}

/** TCP latency minus the in-process replay of the same stream. */
void
addOverhead(Record &rec, const std::vector<u64> &tcp,
            const std::vector<u64> &local)
{
    const Pcts a = percentiles(tcp), b = percentiles(local);
    rec.metric("net.overhead_p50_us", (a.p50 - b.p50) / 1e3, "us");
    rec.metric("net.overhead_p99_us", (a.p99 - b.p99) / 1e3, "us");
}

// ------------------------------------------------------------------
// tcp_lookup
// ------------------------------------------------------------------

Stream
lookupStream(const char *name, double rate, u64 durationNs, u64 tuples,
             Rng rng)
{
    Stream s;
    s.name = name;
    s.durationNs = durationNs;
    u64 ks[kKeysPerReq];
    for (double t = 0;;) {
        t += rng.expGap() * 1e9 / rate;
        if (t >= double(durationNs))
            break;
        // Keys 1..tuples are resident, the other half absent.
        for (u64 &k : ks)
            k = 1 + rng.below(2 * tuples);
        s.push(u64(t), Op::Probe, ks);
    }
    return s;
}

CheckFn
lookupCheck(const Stream &s, const Dataset &ds)
{
    return [&s, &ds](std::size_t i, const sw::ServiceResult &r) {
        const auto ks = s.keysOf(i);
        std::size_t k = 0;
        for (std::size_t j = 0; j < kKeysPerReq; ++j) {
            const u64 row = ds.row(ks[j]);
            if (row == kNoRow)
                continue;
            if (k >= r.recs.size())
                return false;
            const sw::MatchRec &m = r.recs[k++];
            if (m.i != j || m.key != ks[j] || m.payload != row)
                return false;
        }
        return k == r.recs.size() && r.matches == k;
    };
}

} // namespace

void
runTcpLookup(const Settings &set, Record &rec)
{
    const u64 tuples = set.smoke ? u64(1) << 16 : u64(1) << 20;
    // A quarter of the run at the low rate, the rest at the mid rate,
    // whose latency is the workload's end-to-end latency.
    const u64 lowNs = u64(set.seconds * 0.25e9);
    const u64 midNs = u64(set.seconds * 0.75e9);

    Rng orderRng = streamRng(set.seed, 0);
    const Dataset ds(shuffledKeys(tuples, orderRng));
    const Stream low = lookupStream("low", 2000, lowNs, tuples,
                                    streamRng(set.seed, 1));
    const Stream mid = lookupStream("mid", 20000, midNs, tuples,
                                    streamRng(set.seed, 2));
    Digest d;
    ds.digest(d);
    low.digest(d);
    mid.digest(d);
    rec.infoStr("tcp_lookup.stream_digest", hex(d.h));

    db::IndexSpec spec;
    spec.buckets = tuples;
    const sw::ServiceConfig cfg =
        serviceConfig(kShards, kWalkers, /*mutation=*/false);
    auto svc = buildService(*ds.col, spec, cfg, set.trace ? 1 : 3, rec);

    RoundTrip ref;
    RunOptions opt;
    opt.timeSubmit = set.trace;
    PhaseRun lowRun, midRun;
    Slices slices;
    double peakMb = 0;
    Spans spans(1u << 20);
    {
        Loopback lb(*svc);
        const SubmitFn submit = lb.submitter();
        sw::CompletionQueue &cq = *lb.client.queue();
        runOpenLoop(lowRun, low, cq, submit, lookupCheck(low, ds), opt);
        account(rec, lowRun);
        opt.ref = &ref;
        untilValid(rec, mid.name, midRun, -1, slices, [&](int attempt) {
            runOpenLoop(midRun, mid, cq, submit, lookupCheck(mid, ds),
                        opt);
            account(rec, midRun);
            // A retry briefly holds two copies of the phase's
            // outcomes: the high-water mark is the first attempt's.
            if (attempt == 1)
                peakMb = peakRssMb();
        });
        rec.metric("peak_rss_mb", peakMb, "MB");
        if (set.trace) {
            addNetLayers(rec, {&lowRun, &midRun}, lb.server.stats());
            addRequestSpans(spans, lowRun, 1, true);
            addRequestSpans(spans, midRun, 2, true);
        }
    }

    slices.report(rec, set.trace ? "traced." : "");
    addLatency(rec, "low.", lowRun.latencies());
    addLatency(rec, "mid.", midRun.latencies());
    rec.metric("gen.late_p99_us", percentiles(midRun.late()).p99 / 1e3,
               "us");
    if (!set.trace)
        return;

    // In-process replay of the same two streams on a fresh service
    // over the same index, so its ServiceStats hold the replay alone.
    svc.reset();
    svc = std::make_unique<sw::IndexService>(*ds.col, spec, cfg);
    auto cq = std::make_shared<sw::CompletionQueue>();
    const SubmitFn local = inProcess(*svc, cq);
    RunOptions ropt;
    ropt.timeSubmit = true;
    PhaseRun lowRep, midRep;
    runOpenLoop(lowRep, low, *cq, local, lookupCheck(low, ds), ropt);
    runOpenLoop(midRep, mid, *cq, local, lookupCheck(mid, ds), ropt);
    account(rec, lowRep);
    account(rec, midRep);
    addServiceLayers(rec, *svc, sw::RequestKind::Probe,
                     {&lowRep, &midRep});
    addOverhead(rec, midRun.latencies(), midRep.latencies());
    addRequestSpans(spans, lowRep, 3, false);
    addRequestSpans(spans, midRep, 4, false);
    addDbLayers(rec, svc->index(), mid.keys, spans);
    writeSpans(set, rec, spans);
    rec.absent({"read.p50_us", "read.p99_us", "write.p50_us",
                "write.p99_us", "mut.write_submit_p99_us",
                "mut.rebuilds", "mut.rebuild_read_p99_us",
                "mut.mutation_keys"});
}

// ------------------------------------------------------------------
// tcp_mixed_rw
// ------------------------------------------------------------------

namespace {

/** Fresh insert keys live far above the resident ones. */
constexpr u64 kFreshBase = u64(1) << 40;
/** Payloads: upserts and inserts write values no row id can take. */
u64 upsertValue(u64 key) { return (u64(1) << 42) | key; }
u64 insertValue(u64 key) { return (u64(1) << 43) | key; }

constexpr double kMixedRate = 10000;
/** A key is deleted no sooner than this after its insert was due. */
constexpr u64 kDeleteLagNs = 500'000'000;
/** Where in the window each shard should cross its watermark: in the
 *  middle of the slice this far into it, so the rebuilds and the
 *  backlog behind them run under open-loop load, not into a
 *  reference pause at a slice boundary. */
constexpr double kCrossAt = 0.4;

/** Everything the generator, the oracles and the final-state model
 *  need, computed from the seed before the index is built. */
struct MixedPlan
{
    Stream window;
    std::vector<u64> resident; ///< build order
    u64 fresh = 0;             ///< fresh keys inserted
    std::vector<u8> deleted;   ///< per fresh key
    std::vector<u8> upserted;  ///< per resident key
    /** Per key slot of a Delete: the request that inserted it. */
    std::vector<u32> insertedBy;
};

MixedPlan
planMixed(const Settings &set, const db::IndexSpec &spec)
{
    MixedPlan p;
    Stream &w = p.window;
    w.name = "window";
    w.durationNs = u64(set.seconds * 1e9);

    // 1. Schedule, ops and the fresh-key writes. Probe and Upsert
    //    keys are placeholders until the resident set is known.
    Rng rng = streamRng(set.seed, 4);
    std::deque<std::pair<u64, u64>> pending; // (insert due, key)
    std::vector<u64> eligible;
    std::vector<u32> insertReq;
    u64 ks[kKeysPerReq], ps[kKeysPerReq];
    for (double t = 0;;) {
        t += rng.expGap() * 1e9 / kMixedRate;
        if (t >= double(w.durationNs))
            break;
        while (!pending.empty() &&
               double(pending.front().first + kDeleteLagNs) <= t) {
            eligible.push_back(pending.front().second);
            pending.pop_front();
        }
        const double u = rng.uniform();
        Op op = u < 0.80 ? Op::Probe
                : u < 0.90 ? Op::Upsert
                : u < 0.96 ? Op::Insert
                           : Op::Delete;
        if (op == Op::Delete && eligible.size() < kKeysPerReq)
            op = Op::Insert; // nothing old enough to delete yet
        const u32 req = u32(w.size());
        for (std::size_t j = 0; j < kKeysPerReq; ++j) {
            ks[j] = ps[j] = 0;
            if (op == Op::Insert) {
                ks[j] = kFreshBase + p.fresh++;
                ps[j] = insertValue(ks[j]);
                pending.emplace_back(u64(t), ks[j]);
                insertReq.push_back(req);
            } else if (op == Op::Delete) {
                const std::size_t e = rng.below(eligible.size());
                ks[j] = eligible[e];
                eligible[e] = eligible.back();
                eligible.pop_back();
            }
        }
        w.push(u64(t), op, ks, ps);
    }
    p.deleted.assign(p.fresh, 0);
    p.insertedBy.assign(w.keys.size(), 0);
    for (std::size_t i = 0; i < w.size(); ++i)
        if (w.op[i] == Op::Delete)
            for (std::size_t j = 0; j < kKeysPerReq; ++j) {
                const u64 f = w.keys[i * kKeysPerReq + j] - kFreshBase;
                p.deleted[f] = 1;
                p.insertedBy[i * kKeysPerReq + j] = insertReq[f];
            }

    // 2. Per-shard fill: the service's own shard selector (an empty
    //    index of the same geometry) routes the fresh keys, and each
    //    shard starts as far below its watermark as its net growth
    //    will have reached at kCrossAt of the window.
    widx::Arena scratch;
    const db::Column none("none", db::ValueKind::U64, scratch, 1);
    const sw::ShardedIndex geom(none, spec, kShards);
    auto shardsOf = [&](std::span<const u64> keys) {
        std::vector<u64> h(keys.size());
        geom.hashBatch(keys, h);
        std::vector<unsigned> s(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            s[i] = geom.shardOf(h[i]);
        return s;
    };
    std::vector<u64> freshKeys(p.fresh);
    for (u64 f = 0; f < p.fresh; ++f)
        freshKeys[f] = kFreshBase + f;
    const std::vector<unsigned> freshShard = shardsOf(freshKeys);
    std::vector<long> net(kShards, 0), netAtCross(kShards, 0);
    const double crossNs =
        (std::floor(kCrossAt * double(w.durationNs) / double(kSliceNs)) +
         0.5) *
        double(kSliceNs);
    bool crossed = false;
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (!crossed && double(w.at[i]) >= crossNs) {
            netAtCross = net;
            crossed = true;
        }
        if (w.op[i] == Op::Insert || w.op[i] == Op::Delete)
            for (std::size_t j = 0; j < kKeysPerReq; ++j)
                net[freshShard[w.keys[i * kKeysPerReq + j] -
                               kFreshBase]] +=
                    w.op[i] == Op::Insert ? 1 : -1;
    }
    const double lf = sw::MutationConfig{}.rebuildLoadFactor;
    std::vector<u64> fill(kShards);
    for (unsigned s = 0; s < kShards; ++s) {
        const u64 watermark =
            u64(std::floor(lf * double(geom.shard(s).numBuckets()))) + 1;
        // Net growth must reach the watermark inside the window.
        fatal_if(netAtCross[s] < 1,
                 "window too short for a watermark crossing in shard %u",
                 s);
        fill[s] = watermark - u64(netAtCross[s]);
    }

    // 3. Resident keys 1, 2, ... taken per shard until each shard
    //    holds its fill, then shuffled into build order.
    const u64 total = std::accumulate(fill.begin(), fill.end(), u64(0));
    std::vector<u64> have(kShards, 0);
    std::vector<u64> cand(4096);
    for (u64 next = 1; p.resident.size() < total;) {
        for (u64 &c : cand)
            c = next++;
        const std::vector<unsigned> cs = shardsOf(cand);
        for (std::size_t i = 0; i < cand.size(); ++i)
            if (have[cs[i]] < fill[cs[i]]) {
                ++have[cs[i]];
                p.resident.push_back(cand[i]);
            }
    }
    Rng orderRng = streamRng(set.seed, 5);
    for (std::size_t i = p.resident.size(); i > 1; --i)
        std::swap(p.resident[i - 1], p.resident[orderRng.below(i)]);

    // 4. Reads and upserts: Zipf(0.99) over the resident keys, the
    //    hottest ranks scattered by the build-order shuffle.
    const Zipf zipf(p.resident.size(), 0.99);
    Rng zipfRng = streamRng(set.seed, 6);
    p.upserted.assign(*std::max_element(p.resident.begin(),
                                        p.resident.end()) +
                          1,
                      0);
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (w.op[i] != Op::Probe && w.op[i] != Op::Upsert)
            continue;
        for (std::size_t j = 0; j < kKeysPerReq; ++j) {
            const u64 key = p.resident[zipf.draw(zipfRng) - 1];
            w.keys[i * kKeysPerReq + j] = key;
            if (w.op[i] == Op::Upsert) {
                w.pays[i * kKeysPerReq + j] = upsertValue(key);
                p.upserted[key] = 1;
            }
        }
    }
    return p;
}

CheckFn
mixedCheck(const MixedPlan &p, const Dataset &ds)
{
    return [&p, &ds](std::size_t i, const sw::ServiceResult &r) {
        // Every write touches 8 keys that exist (upserts, deletes)
        // or are fresh (inserts): all 8 apply.
        if (p.window.op[i] != Op::Probe)
            return r.matches == kKeysPerReq;
        const auto ks = p.window.keysOf(i);
        if (r.matches != kKeysPerReq || r.recs.size() != kKeysPerReq)
            return false;
        for (std::size_t j = 0; j < kKeysPerReq; ++j) {
            const sw::MatchRec &m = r.recs[j];
            if (m.i != j || m.key != ks[j] ||
                (m.payload != ds.row(ks[j]) &&
                 m.payload != upsertValue(ks[j])))
                return false;
        }
        return true;
    };
}

/** A Delete must never be in flight with the Insert of its key: the
 *  generator holds it until the insert has completed (bounded by the
 *  drain timeout; a healthy run never waits) and counts the waits. */
std::function<void(std::size_t)>
deleteGuard(const MixedPlan &p, const PhaseRun &run,
            std::atomic<u64> &waited)
{
    return [&p, &run, &waited](std::size_t i) {
        if (p.window.op[i] != Op::Delete)
            return;
        for (std::size_t j = 0; j < kKeysPerReq; ++j) {
            const std::atomic<u8> &st =
                run.out[p.insertedBy[i * kKeysPerReq + j]].status;
            if (st.load(std::memory_order_acquire) != 0xff)
                continue;
            waited.fetch_add(1, std::memory_order_relaxed);
            const u64 until = nowNs() + 5'000'000'000ull;
            while (st.load(std::memory_order_acquire) == 0xff &&
                   nowNs() < until)
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    };
}

/** Probe every key the run wrote or kept and compare with a serial
 *  model of the writes. */
void
checkFinalState(Record &rec, sw::IndexService &svc, const MixedPlan &p,
                const Dataset &ds, const char *what)
{
    std::vector<u64> keys = p.resident, want;
    want.reserve(p.resident.size() + p.fresh);
    for (u64 k : p.resident)
        want.push_back(p.upserted[k] ? upsertValue(k) : ds.row(k));
    for (u64 f = 0; f < p.fresh; ++f) {
        keys.push_back(kFreshBase + f);
        want.push_back(p.deleted[f] ? kNoRow : insertValue(kFreshBase + f));
    }
    constexpr std::size_t kBatch = 1 << 16;
    u64 wrong = 0;
    for (std::size_t b = 0; b < keys.size(); b += kBatch) {
        const std::size_t n = std::min(kBatch, keys.size() - b);
        const sw::ServiceResult r =
            svc.probe(std::span<const u64>(keys.data() + b, n));
        if (r.status != sw::Status::Ok) {
            wrong += n;
            continue;
        }
        // Records come in key-position order: take position j's run.
        std::size_t k = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t first = k;
            while (k < r.recs.size() && r.recs[k].i == j)
                ++k;
            const bool ok = want[b + j] == kNoRow
                                ? k == first
                                : k == first + 1 &&
                                      r.recs[first].payload == want[b + j];
            wrong += !ok;
        }
        wrong += r.recs.size() - k;
    }
    rec.infoNum(std::string(what) + ".final_state_keys",
                double(keys.size()));
    if (wrong)
        rec.fail(std::string(what) + ": " + std::to_string(wrong) +
                 " keys differ from the serial model of the writes");
}

/** Window checks shared by the TCP run and its replay. */
void
checkWindow(Record &rec, sw::IndexService &svc, const MixedPlan &p,
            const Dataset &ds, const std::atomic<u64> &waited,
            const char *what)
{
    rec.infoNum(std::string(what) + ".deletes_waited",
                double(waited.load()));
    const u64 rebuilds = svc.stats().rebuilds;
    if (rebuilds != svc.shards())
        rec.fail(std::string(what) + ": " + std::to_string(rebuilds) +
                 " rebuilds, expected one per shard (" +
                 std::to_string(svc.shards()) + ")");
    checkFinalState(rec, svc, p, ds, what);
}

} // namespace

void
runTcpMixed(const Settings &set, Record &rec)
{
    db::IndexSpec spec;
    spec.buckets = set.smoke ? u64(1) << 16 : u64(1) << 20;
    const MixedPlan plan = planMixed(set, spec);
    const Dataset ds(plan.resident);
    Digest d;
    ds.digest(d);
    plan.window.digest(d);
    rec.infoStr("tcp_mixed_rw.stream_digest", hex(d.h));
    rec.infoNum("mixed.resident_keys", double(plan.resident.size()));
    rec.infoNum("mixed.fresh_keys", double(plan.fresh));

    const sw::ServiceConfig cfg =
        serviceConfig(kShards, kWalkers, /*mutation=*/true);
    auto svc = buildService(*ds.col, spec, cfg, set.trace ? 1 : 3, rec);

    RoundTrip ref;
    RunOptions opt;
    opt.ref = &ref;
    opt.timeSubmit = set.trace;
    PhaseRun run;
    std::atomic<u64> waited{0};
    opt.beforeSubmit = deleteGuard(plan, run, waited);
    // The reaper notes when the rebuild count moves (every ~10 ms).
    std::vector<u64> rebuildSeen;
    u64 rebuildsNow = 0;
    opt.tick = [&](u64 now) {
        u64 total = 0;
        for (unsigned s = 0; s < svc->shards(); ++s)
            total += svc->index().rebuildsTotal(s);
        if (total != rebuildsNow) {
            rebuildsNow = total;
            rebuildSeen.push_back(now);
        }
    };
    net::TcpServerStats netStats;
    double peakMb = 0;
    Slices slices;
    untilValid(rec, plan.window.name, run, 0, slices, [&](int attempt) {
        if (attempt > 1) {
            // The window mutated the index: start again from a fresh
            // build of the same column.
            svc.reset();
            svc = std::make_unique<sw::IndexService>(*ds.col, spec, cfg);
            waited = 0;
            rebuildSeen.clear();
            rebuildsNow = 0;
        }
        {
            Loopback lb(*svc);
            runOpenLoop(run, plan.window, *lb.client.queue(),
                        lb.submitter(), mixedCheck(plan, ds), opt);
            netStats = lb.server.stats();
        }
        account(rec, run);
        // A retry's fresh build lands on memory the allocator kept
        // from the first: the high-water mark is the first window's.
        if (attempt == 1)
            peakMb = peakRssMb();
        checkWindow(rec, *svc, plan, ds, waited, "tcp");
    });
    rec.metric("peak_rss_mb", peakMb, "MB");
    Spans spans(1u << 20);
    if (set.trace) {
        addNetLayers(rec, {&run}, netStats);
        addRequestSpans(spans, run, 1, true);
    }

    const std::vector<u64> reads = run.latencies(0);
    slices.report(rec, set.trace ? "traced." : "");
    addLatency(rec, "read.", reads);
    addLatency(rec, "write.", run.latencies(1));
    rec.metric("gen.late_p99_us", percentiles(run.late()).p99 / 1e3,
               "us");

    std::vector<u64> nearRebuild;
    for (std::size_t i = 0; i < run.submitted; ++i) {
        if (!run.out[i].good || isWrite(plan.window.op[i]))
            continue;
        for (u64 seen : rebuildSeen)
            if (run.sched(i) >= seen && run.sched(i) < seen + 50'000'000) {
                nearRebuild.push_back(run.out[i].reaped - run.sched(i));
                break;
            }
    }
    rec.metric("mut.rebuild_read_p99_us",
               percentiles(nearRebuild).p99 / 1e3, "us");
    const sw::ServiceStats st = svc->stats();
    rec.metric("mut.rebuilds", double(st.rebuilds), "count");
    rec.metric("mut.mutation_keys", double(st.mutations), "keys");
    if (!set.trace)
        return;

    // In-process replay of the same window on a fresh service built
    // from the same column: the same writes, rebuilds and oracles.
    svc.reset();
    svc = std::make_unique<sw::IndexService>(*ds.col, spec, cfg);
    auto cq = std::make_shared<sw::CompletionQueue>();
    PhaseRun rep;
    std::atomic<u64> repWaited{0};
    RunOptions ropt;
    ropt.timeSubmit = true;
    ropt.beforeSubmit = deleteGuard(plan, rep, repWaited);
    runOpenLoop(rep, plan.window, *cq, inProcess(*svc, cq),
                mixedCheck(plan, ds), ropt);
    account(rec, rep);
    checkWindow(rec, *svc, plan, ds, repWaited, "replay");

    std::vector<u64> writeSubmit;
    for (std::size_t i = 0; i < rep.submitted; ++i)
        if (rep.out[i].good && isWrite(plan.window.op[i]))
            writeSubmit.push_back(rep.out[i].submitEnd -
                                  rep.out[i].submitBeg);
    rec.metric("mut.write_submit_p99_us",
               percentiles(writeSubmit).p99 / 1e3, "us");
    addServiceLayers(rec, *svc, sw::RequestKind::Probe, {&rep});
    addOverhead(rec, reads, rep.latencies(0));
    addRequestSpans(spans, rep, 2, false);

    std::vector<u64> readKeys;
    for (std::size_t i = 0; i < plan.window.size(); ++i)
        if (plan.window.op[i] == Op::Probe) {
            const auto ks = plan.window.keysOf(i);
            readKeys.insert(readKeys.end(), ks.begin(), ks.end());
        }
    addDbLayers(rec, svc->index(), readKeys, spans);
    writeSpans(set, rec, spans);
    rec.absent({"low.p50_us", "low.p99_us", "mid.p50_us", "mid.p99_us"});
}

} // namespace e2e
