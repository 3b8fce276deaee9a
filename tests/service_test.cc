/**
 * @file
 * Tests for the persistent index service (src/service/): sharded
 * index construction, request equivalence, admission batching, and
 * — the one that matters under TSan — concurrent clients racing the
 * submission queue and the parked walkers.
 *
 * The service's contract is strict: every request's result sequence
 * must be byte-identical to a single-threaded
 * HashIndex::probeBatch over the request's keys, for any shard
 * count, walker count, coalescing pattern, and thread timing. The
 * tests compare full (i, key, payload) sequences, not multisets.
 */

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "db/hash_join.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/index_service.hh"
#include "service/open_loop.hh"
#include "workload/distributions.hh"

using namespace widx;
using namespace widx::sw;

namespace {

/** Build column with duplicates + a flat reference index. */
struct Dataset
{
    Arena arena;
    std::unique_ptr<db::Column> build;
    db::IndexSpec spec;
    std::unique_ptr<db::HashIndex> flat;
    std::vector<u64> keys;

    Dataset(u64 tuples, u64 probes, bool indirect, double zipf_theta,
            u64 seed)
    {
        Rng rng(seed);
        build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::uniformKeys(tuples, tuples / 2 + 1, rng))
            build->push(k); // duplicates on purpose
        spec.buckets = tuples / 2;
        spec.indirectKeys = indirect;
        flat = std::make_unique<db::HashIndex>(spec, arena);
        flat->buildFromColumn(*build);
        keys = zipf_theta > 0.0
                   ? wl::zipfKeys(probes, tuples / 2 + 1, zipf_theta,
                                  rng)
                   : wl::uniformKeys(probes, tuples / 2 + 1, rng);
    }
};

/** The single-threaded reference sequence for a key span. */
std::vector<MatchRec>
refSequence(const db::HashIndex &idx, std::span<const u64> keys,
            bool tagged = true)
{
    std::vector<MatchRec> out;
    idx.probeBatch(
        keys,
        [&](std::size_t i, u64 key, u64 payload) {
            out.push_back({i, key, payload});
        },
        tagged);
    return out;
}

void
expectSameSequence(const std::vector<MatchRec> &got,
                   const std::vector<MatchRec> &want,
                   const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].i, want[r].i) << what << " rec " << r;
        ASSERT_EQ(got[r].key, want[r].key) << what << " rec " << r;
        ASSERT_EQ(got[r].payload, want[r].payload)
            << what << " rec " << r;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// ShardedIndex
// ---------------------------------------------------------------------------

TEST(ShardedIndex, PartitionsEveryKeyExactlyOnce)
{
    Dataset d(4000, 0, false, 0.0, 3);
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        ShardedIndex sharded(*d.build, d.spec, shards);
        EXPECT_EQ(sharded.shards(), shards);
        EXPECT_EQ(sharded.entries(), d.build->size());
        u64 buckets = 0;
        for (unsigned s = 0; s < sharded.shards(); ++s)
            buckets += sharded.shard(s).numBuckets();
        EXPECT_EQ(buckets, d.flat->numBuckets());
    }
}

TEST(ShardedIndex, ShardCountClampsToPowerOfTwo)
{
    Dataset d(256, 0, false, 0.0, 4);
    ShardedIndex three(*d.build, d.spec, 3);
    EXPECT_EQ(three.shards(), 4u);
    db::IndexSpec tiny = d.spec;
    tiny.buckets = 2;
    ShardedIndex clamped(*d.build, tiny, 64);
    EXPECT_EQ(clamped.shards(), 2u); // can't out-shard the buckets
}

TEST(ShardedIndex, ProbeSurfaceHasNoFalseNegatives)
{
    Dataset d(4000, 0, false, 0.0, 5);
    ShardedIndex sharded(*d.build, d.spec, 4);
    EXPECT_EQ(sharded.flatIndex(), nullptr);
    // Every inserted key must pass the shard-resolved tag check and
    // be reachable through the shard-resolved bucket head.
    for (RowId r = 0; r < d.build->size(); ++r) {
        const u64 key = d.build->at(r);
        const u64 h = d.flat->hashKey(key);
        ASSERT_TRUE(sharded.tagMayMatchHash(h)) << "key " << key;
        bool found = false;
        for (const ShardedIndex::Node *n = sharded.bucketHeadFor(h);
             n && !found; n = n->next)
            found = sharded.nodeKey(*n) == key;
        ASSERT_TRUE(found) << "key " << key;
    }
}

// ---------------------------------------------------------------------------
// IndexService: request equivalence
// ---------------------------------------------------------------------------

struct ServiceCase
{
    unsigned shards;
    unsigned walkers;
    bool indirect;
    double zipf;
    unsigned batch;
    bool tagged; ///< the service's cold-start tag default
    bool coalesce = true;
    unsigned width = ServiceConfig{}.width;
};

class ServiceEquivalence
    : public ::testing::TestWithParam<ServiceCase>
{
};

TEST_P(ServiceEquivalence, ByteIdenticalToProbeBatch)
{
    const ServiceCase &c = GetParam();
    Dataset d(2000, 5000, c.indirect, c.zipf, 31 + c.walkers);
    const auto want = refSequence(*d.flat, d.keys, c.tagged);

    ServiceConfig cfg;
    cfg.shards = c.shards;
    cfg.walkers = c.walkers;
    cfg.pipeline.batch = c.batch;
    cfg.pipeline.tagged = c.tagged;
    cfg.coalesceTails = c.coalesce;
    cfg.width = c.width;
    IndexService service(*d.build, d.spec, cfg);
    EXPECT_EQ(service.shards(), c.shards);

    ServiceResult probe = service.probe(d.keys);
    EXPECT_EQ(probe.matches, want.size());
    expectSameSequence(probe.recs, want, "probe");

    EXPECT_EQ(service.count(d.keys), want.size());

    ServiceResult join = service.join(d.keys);
    expectSameSequence(join.recs, want, "join");

    // Async path, same sweep: the keys sliced across many
    // submitAsync calls (deliberately uneven slices) must
    // reassemble byte-identically through a CompletionQueue — the
    // blocking and async routes share one completion path, so any
    // divergence here is a sink bug, not a drain bug.
    {
        auto cq = std::make_shared<CompletionQueue>();
        const std::size_t slice = 257;
        std::size_t nSlices = 0;
        std::vector<std::size_t> sliceBase;
        for (std::size_t base = 0; base < d.keys.size();
             base += slice, ++nSlices) {
            sliceBase.push_back(base);
            service.submitAsync(
                RequestKind::Probe,
                {d.keys.data() + base,
                 std::min(slice, d.keys.size() - base)},
                {}, cq, nSlices);
        }
        std::vector<Completion> done;
        for (int tries = 0;
             done.size() < nSlices && tries < 200; ++tries)
            cq->reap(done, nSlices,
                     std::chrono::milliseconds(100));
        ASSERT_EQ(done.size(), nSlices);
        std::vector<std::vector<MatchRec>> bySlice(nSlices);
        for (Completion &comp : done) {
            ASSERT_LT(comp.tag, nSlices);
            EXPECT_EQ(comp.result.status, Status::Ok);
            bySlice[comp.tag] = std::move(comp.result.recs);
        }
        std::vector<MatchRec> got;
        for (std::size_t s = 0; s < nSlices; ++s)
            for (const MatchRec &r : bySlice[s])
                got.push_back(
                    {r.i + sliceBase[s], r.key, r.payload});
        expectSameSequence(got, want, "async slices");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ServiceEquivalence,
    ::testing::Values(
        // Walker ladder, flat (single shard).
        ServiceCase{1, 1, false, 0.0, 64, true},
        ServiceCase{1, 2, false, 0.0, 64, true},
        ServiceCase{1, 4, false, 0.0, 64, true},
        // Shard ladder at fixed walkers, plus the 4-shard/1-walker
        // shape the TCP benchmark workloads serve and 2 shards under
        // 4 walkers.
        ServiceCase{2, 2, false, 0.0, 64, true},
        ServiceCase{4, 2, false, 0.0, 64, true},
        ServiceCase{4, 4, false, 0.0, 64, true},
        ServiceCase{8, 2, false, 0.0, 64, true},
        ServiceCase{4, 1, false, 0.0, 64, true},
        ServiceCase{2, 4, false, 0.0, 64, true},
        // Tag modes, chunk sizes (incl. inline batch=0 -> default
        // chunking), layouts, skew. tagged = false starts the
        // service untagged; its stats then grow only through the
        // 1-in-32 re-sample windows and stay short of the sample
        // that would let them decide, so every other window of
        // these cases drains untagged.
        ServiceCase{4, 4, false, 0.0, 64, false},
        ServiceCase{4, 4, false, 0.0, 16, true},
        ServiceCase{4, 4, false, 0.0, 16, false},
        ServiceCase{2, 4, false, 0.0, 0, true},
        ServiceCase{4, 4, true, 0.0, 64, true},
        ServiceCase{4, 4, false, 0.8, 64, true},
        ServiceCase{4, 4, false, 0.8, 0, true},
        ServiceCase{4, 2, true, 0.99, 32, false},
        // Coalescing off: tails seal their own windows — results
        // must not care.
        ServiceCase{1, 4, false, 0.0, 64, true, false},
        ServiceCase{4, 2, false, 0.0, 16, true, false},
        ServiceCase{4, 4, false, 0.6, 64, true, false},
        // AMAC width: one walk in flight and the cap, beside the
        // default every case above runs.
        ServiceCase{1, 2, false, 0.0, 64, true, true, 1},
        ServiceCase{4, 4, true, 0.8, 16, false, true, 1},
        ServiceCase{1, 4, false, 0.0, 0, true, true, kMaxWidth},
        ServiceCase{4, 2, false, 0.99, 32, false, true,
                    kMaxWidth}));

// ---------------------------------------------------------------------------
// IndexService: walker-balanced windows for large requests
// ---------------------------------------------------------------------------

namespace {

/** Windows one request seals on an idle service: with `full` keys
 *  in F full chunks and K walkers, min(F, K * ceil(full / (K *
 *  1024))) windows, plus one for a sub-chunk tail. */
std::size_t
expectedWindows(std::size_t keys, std::size_t batch,
                std::size_t walkers)
{
    const std::size_t chunks = keys / batch;
    const std::size_t full = chunks * batch;
    const std::size_t cap = walkers * db::HashIndex::kMaxProbeBatch;
    return std::min(chunks, walkers * ((full + cap - 1) / cap)) +
           (keys % batch != 0 ? 1 : 0);
}

} // namespace

TEST(IndexService, LargeRequestsSealWalkerBalancedWindows)
{
    Dataset d(4000, 10000, false, 0.0, 41);
    u64 traceId = 0;
    for (unsigned batch : {16u, 64u})
        for (unsigned shards : {1u, 4u})
            for (unsigned walkers : {1u, 3u}) {
                ServiceConfig cfg;
                cfg.shards = shards;
                cfg.walkers = walkers;
                cfg.pipeline.batch = batch;
                auto ring = std::make_shared<obs::TraceRing>(4096);
                cfg.trace = ring;
                IndexService service(*d.build, d.spec, cfg);
                for (std::size_t n :
                     {std::size_t(batch) - 1, std::size_t(batch),
                      std::size_t(1023), std::size_t(1024),
                      std::size_t(1025),
                      std::size_t(3 * 1024 + batch + 5),
                      std::size_t(10000)}) {
                    const std::span<const u64> keys(d.keys.data(), n);
                    const auto want = refSequence(*d.flat, keys);
                    const std::string what =
                        "batch " + std::to_string(batch) + " shards " +
                        std::to_string(shards) + " walkers " +
                        std::to_string(walkers) + " keys " +
                        std::to_string(n);
                    for (RequestKind kind :
                         {RequestKind::Probe, RequestKind::Count,
                          RequestKind::Join}) {
                        // One request at a time, so each delta is
                        // this request's windows alone.
                        const u64 before = service.stats().windows;
                        SubmitOptions opt;
                        opt.traceId = ++traceId;
                        ServiceResult r =
                            service.submit(kind, keys, opt).get();
                        EXPECT_EQ(service.stats().windows - before,
                                  expectedWindows(n, batch, walkers))
                            << what;
                        EXPECT_EQ(r.matches, want.size()) << what;
                        if (kind != RequestKind::Count)
                            expectSameSequence(r.recs, want,
                                               what.c_str());

                        // The sealed windows hold the full chunks,
                        // dealt evenly: whole chunks, at most 1024
                        // keys, sizes within one chunk of each
                        // other. (The tail never seals on an idle
                        // service; a walker takes the open window.)
                        std::vector<u32> sizes;
                        for (const auto &e : ring->snapshot())
                            if (e.traceId == traceId &&
                                e.point == obs::SpanPoint::WindowSeal)
                                sizes.push_back(e.arg);
                        EXPECT_EQ(sizes.size(),
                                  expectedWindows(n - n % batch, batch,
                                                  walkers))
                            << what;
                        u64 sum = 0;
                        for (u32 sz : sizes) {
                            EXPECT_EQ(sz % batch, 0u) << what;
                            EXPECT_LE(sz, db::HashIndex::kMaxProbeBatch)
                                << what;
                            sum += sz;
                        }
                        EXPECT_EQ(sum, n - n % batch) << what;
                        if (!sizes.empty()) {
                            const auto [lo, hi] = std::minmax_element(
                                sizes.begin(), sizes.end());
                            EXPECT_LE(*hi - *lo, batch) << what;
                        }
                    }
                }
            }
}

TEST(IndexService, WrapsAnExistingIndex)
{
    Dataset d(2000, 4000, false, 0.6, 7);
    const auto want = refSequence(*d.flat, d.keys);
    ServiceConfig cfg;
    cfg.walkers = 4;
    IndexService service(*d.flat, cfg);
    EXPECT_EQ(service.shards(), 1u);
    ServiceResult got = service.probe(d.keys);
    expectSameSequence(got.recs, want, "wrapped");
}

TEST(IndexService, EmptyAndTinyRequests)
{
    Dataset d(256, 5, false, 0.0, 8);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);
    EXPECT_EQ(service.count({}), 0u);
    ResultTicket empty =
        service.submit(RequestKind::Probe, std::span<const u64>{});
    EXPECT_TRUE(empty.valid());
    EXPECT_EQ(empty.get().matches, 0u);
    const auto want = refSequence(*d.flat, d.keys);
    expectSameSequence(service.probe(d.keys).recs, want, "tiny");
}

TEST(IndexService, ServiceWithNoRequestsTearsDownCleanly)
{
    Dataset d(128, 0, false, 0.0, 9);
    ServiceConfig cfg;
    cfg.walkers = 4;
    IndexService service(*d.flat, cfg);
    EXPECT_EQ(service.walkers(), 4u);
    // Destructor parks -> joins with zero traffic.
}

TEST(IndexService, ResultsIndependentOfWalkersAndShards)
{
    Dataset d(4000, 20000, false, 0.6, 11);
    std::vector<MatchRec> first;
    bool have_first = false;
    for (unsigned shards : {1u, 4u})
        for (unsigned walkers : {1u, 2u, 4u}) {
            ServiceConfig cfg;
            cfg.shards = shards;
            cfg.walkers = walkers;
            IndexService service(*d.build, d.spec, cfg);
            ServiceResult got = service.probe(d.keys);
            if (!have_first) {
                first = std::move(got.recs);
                have_first = true;
                continue;
            }
            expectSameSequence(got.recs, first, "cross-config");
        }
}

TEST(IndexService, CoalescesSmallRequestsIntoSharedWindows)
{
    Dataset d(2000, 6000, false, 0.0, 13);
    for (unsigned shards : {1u, 4u}) {
        ServiceConfig cfg;
        cfg.shards = shards;
        cfg.walkers = 1;
        cfg.pipeline.batch = 64;
        IndexService service(*d.build, d.spec, cfg);

        // Occupy the lone walker with a multi-chunk request, then
        // fire many sub-chunk requests before waiting on any
        // ticket: their tails coalesce into shared dispatch windows
        // while the walker works through the big request's sealed
        // chunks. The windows span shards; the drain resolves each
        // key's shard.
        ResultTicket big = service.submit(
            RequestKind::Count, std::span<const u64>(d.keys));
        std::vector<ResultTicket> tickets;
        std::vector<std::span<const u64>> spans;
        for (std::size_t base = 0; base + 7 <= d.keys.size() &&
                                   tickets.size() < 200;
             base += 7) {
            spans.push_back(
                std::span<const u64>(d.keys).subspan(base, 7));
            tickets.push_back(
                service.submit(RequestKind::Probe, spans.back()));
        }
        EXPECT_EQ(big.get().matches,
                  refSequence(*d.flat, d.keys).size());
        for (std::size_t t = 0; t < tickets.size(); ++t) {
            const auto want = refSequence(*d.flat, spans[t]);
            ServiceResult got = tickets[t].get();
            expectSameSequence(got.recs, want, "coalesced");
        }
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.requests, tickets.size() + 1);
        EXPECT_GT(stats.coalescedWindows, 0u) << shards << " shards";
    }
}

TEST(IndexService, CoalescingOffNeverSharesWindows)
{
    Dataset d(2000, 6000, false, 0.0, 13);
    for (unsigned shards : {1u, 4u}) {
        ServiceConfig cfg;
        cfg.shards = shards;
        cfg.walkers = 1;
        cfg.pipeline.batch = 64;
        cfg.coalesceTails = false;
        IndexService service(*d.build, d.spec, cfg);

        // The exact shape that forces coalescing when it is on
        // (busy walker + 200 concurrent sub-chunk requests): with
        // coalescing off every tail must seal its own window.
        ResultTicket big = service.submit(
            RequestKind::Count, std::span<const u64>(d.keys));
        std::vector<ResultTicket> tickets;
        std::vector<std::span<const u64>> spans;
        for (std::size_t base = 0; base + 7 <= d.keys.size() &&
                                   tickets.size() < 200;
             base += 7) {
            spans.push_back(
                std::span<const u64>(d.keys).subspan(base, 7));
            tickets.push_back(
                service.submit(RequestKind::Probe, spans.back()));
        }
        EXPECT_EQ(big.get().matches,
                  refSequence(*d.flat, d.keys).size());
        for (std::size_t t = 0; t < tickets.size(); ++t) {
            const auto want = refSequence(*d.flat, spans[t]);
            ServiceResult got = tickets[t].get();
            expectSameSequence(got.recs, want, "uncoalesced");
        }
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.coalescedWindows, 0u) << shards << " shards";
    }
}

// ---------------------------------------------------------------------------
// Counting placement: records land at their key's cursor in the merge
// slot, for every kind and segment offset
// ---------------------------------------------------------------------------

namespace {

/** A flat index where key k has k % 4 + 1 entries, so every matched
 *  key places a run of records; keys from kDistinct up match
 *  nothing. */
struct ChainDataset
{
    static constexpr u64 kDistinct = 1000;

    Arena arena;
    db::Column build{"b", db::ValueKind::U64, arena, 2500};
    db::IndexSpec spec;
    std::unique_ptr<db::HashIndex> flat;

    ChainDataset()
    {
        for (u64 k = 0; k < kDistinct; ++k)
            for (u64 c = 0; c <= k % 4; ++c)
                build.push(k);
        spec.buckets = 512;
        flat = std::make_unique<db::HashIndex>(spec, arena);
        flat->buildFromColumn(build);
    }
};

/** Check one result against the reference for its kind. */
void
expectResult(RequestKind kind, ServiceResult &&got,
             const std::vector<MatchRec> &want, const char *what)
{
    EXPECT_EQ(got.status, Status::Ok) << what;
    EXPECT_EQ(got.matches, want.size()) << what;
    if (kind == RequestKind::Count)
        EXPECT_TRUE(got.recs.empty()) << what;
    else
        expectSameSequence(got.recs, want, what);
}

} // namespace

TEST(IndexService, CoalescedWindowsPlaceEveryKindExactly)
{
    ChainDataset d;
    Rng rng(43);
    const std::vector<u64> present =
        wl::uniformKeys(7 * 200, ChainDataset::kDistinct, rng);
    std::vector<u64> absent(7);
    for (u64 i = 0; i < absent.size(); ++i)
        absent[i] = ChainDataset::kDistinct + i;
    ASSERT_TRUE(refSequence(*d.flat, absent).empty());

    const RequestKind kinds[3] = {RequestKind::Count,
                                  RequestKind::Probe,
                                  RequestKind::Join};
    for (unsigned shards : {1u, 4u}) {
        ServiceConfig cfg;
        cfg.shards = shards;
        cfg.walkers = 1;
        cfg.pipeline.batch = 64;
        auto ring = std::make_shared<obs::TraceRing>(4096);
        cfg.trace = ring;
        IndexService service(d.build, d.spec, cfg);

        // The setup of CoalescesSmallRequestsIntoSharedWindows, with
        // the busy walker made deterministic: park the lone walker in
        // a completion callback until every 7-key tail below is
        // queued, so the tails coalesce nine to a 64-key window.
        // Kinds cycle through Count, Probe and Join, and every fifth
        // tail matches nothing, so each window mixes all three kinds
        // and empty segments.
        std::promise<void> parked, release;
        std::shared_future<void> released = release.get_future().share();
        service.submitAsync(RequestKind::Count, {present.data(), 1}, {},
                            [&parked, released](ServiceResult &&) {
                                parked.set_value();
                                released.wait();
                            });
        parked.get_future().wait();
        std::vector<ResultTicket> tickets;
        std::vector<std::span<const u64>> spans;
        for (std::size_t t = 0; t < 200; ++t) {
            spans.push_back(t % 5 == 4
                                ? std::span<const u64>(absent)
                                : std::span<const u64>(present)
                                      .subspan(7 * t, 7));
            SubmitOptions opt;
            opt.traceId = t + 1;
            tickets.push_back(
                service.submit(kinds[t % 3], spans.back(), opt));
        }
        release.set_value();
        for (std::size_t t = 0; t < tickets.size(); ++t)
            expectResult(kinds[t % 3], tickets[t].get(),
                         refSequence(*d.flat, spans[t]),
                         "coalesced tail");

        // Every sealed window held all three kinds. One seal stamps
        // all of its traced segments with the same clock read.
        std::map<u64, unsigned> kindsAt;
        for (const auto &e : ring->snapshot())
            if (e.point == obs::SpanPoint::WindowSeal)
                kindsAt[e.tsNs] |= 1u << ((e.traceId - 1) % 3);
        EXPECT_FALSE(kindsAt.empty()) << shards << " shards";
        for (const auto &[ts, mask] : kindsAt)
            EXPECT_EQ(mask, 7u) << shards << " shards";
        EXPECT_GT(service.stats().coalescedWindows, 0u)
            << shards << " shards";
    }
}

TEST(IndexService, MultiWindowProbesPlaceDuplicateChainsExactly)
{
    ChainDataset d;
    Rng rng(47);
    std::vector<u64> keys =
        wl::uniformKeys(1025, ChainDataset::kDistinct + 100, rng);
    for (unsigned shards : {1u, 4u})
        for (unsigned walkers : {1u, 3u}) {
            ServiceConfig cfg;
            cfg.shards = shards;
            cfg.walkers = walkers;
            cfg.pipeline.batch = 64;
            IndexService service(d.build, d.spec, cfg);
            for (std::size_t n : {std::size_t(1023), std::size_t(1025)}) {
                const std::span<const u64> span(keys.data(), n);
                const auto want = refSequence(*d.flat, span);
                const std::string what =
                    "shards " + std::to_string(shards) + " walkers " +
                    std::to_string(walkers) + " keys " +
                    std::to_string(n);
                for (RequestKind kind :
                     {RequestKind::Probe, RequestKind::Join,
                      RequestKind::Count})
                    expectResult(kind, service.submit(kind, span).get(),
                                 want, what.c_str());
            }
        }
}

// ---------------------------------------------------------------------------
// Bounded waits
// ---------------------------------------------------------------------------

TEST(IndexService, WaitForBoundsTheWait)
{
    using namespace std::chrono_literals;
    Dataset d(1u << 16, 1u << 20, false, 0.0, 29);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    // A 1M-key request cannot complete in the nanoseconds between
    // submit and a zero-timeout poll: the poll must time out and
    // leave the ticket valid.
    ResultTicket t =
        service.submit(RequestKind::Count, d.keys);
    EXPECT_EQ(t.waitFor(0ns), WaitStatus::Timeout);
    EXPECT_TRUE(t.valid());

    // A generous bound must observe completion; Ready is sticky and
    // get() then returns the full result without blocking.
    EXPECT_EQ(t.waitFor(10min), WaitStatus::Ready);
    EXPECT_TRUE(t.valid());
    EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
    const u64 want = refSequence(*d.flat, d.keys).size();
    EXPECT_EQ(t.get().matches, want);
    EXPECT_FALSE(t.valid());
}

// ---------------------------------------------------------------------------
// Open-loop client
// ---------------------------------------------------------------------------

TEST(IndexService, OpenLoopAccountsEveryArrival)
{
    Dataset d(2000, 6000, false, 0.0, 43);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    OpenLoopOptions opt;
    opt.ratePerSec = 50000;
    opt.requests = 500;
    opt.keysPerRequest = 8;
    opt.arrivals = ArrivalProcess::Poisson;
    const OpenLoopReport rep = runOpenLoop(service, d.keys, opt);

    // Every scheduled arrival is either submitted or shed at the
    // client cap; every submission ends in exactly one status
    // bucket (or is abandoned as timed-out); Ok completions are
    // exactly the latency samples.
    EXPECT_EQ(rep.scheduled, opt.requests);
    EXPECT_EQ(rep.submitted + rep.shedClientCap, rep.scheduled);
    EXPECT_EQ(rep.completed + rep.rejected + rep.expired +
                  rep.timedOut,
              rep.submitted);
    EXPECT_EQ(rep.latency.count, rep.completed);
    EXPECT_EQ(rep.hist.count(), rep.completed);
    EXPECT_GT(rep.completed, 0u);
    EXPECT_LE(rep.latency.p50Ns, rep.latency.p99Ns);
    EXPECT_LE(rep.latency.p99Ns, rep.latency.maxNs);
    EXPECT_GT(rep.elapsedSec, 0.0);

    // A tiny in-flight cap on an overdriven single walker must
    // shed rather than queue without bound — and still account for
    // every arrival.
    OpenLoopOptions tight = opt;
    tight.ratePerSec = 500000;
    tight.maxInFlight = 1;
    tight.seed = 2;
    const OpenLoopReport capped =
        runOpenLoop(service, d.keys, tight);
    EXPECT_EQ(capped.submitted + capped.shedClientCap,
              capped.scheduled);
    EXPECT_EQ(capped.completed + capped.rejected +
                  capped.expired + capped.timedOut,
              capped.submitted);
    EXPECT_EQ(capped.latency.count, capped.completed);
}

// ---------------------------------------------------------------------------
// Latency accounting
// ---------------------------------------------------------------------------

TEST(IndexService, LatencyComponentsAddUpExactly)
{
    Dataset d(2000, 6000, false, 0.0, 37);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.pipeline.batch = 64;
    IndexService service(*d.flat, cfg);

    // Mixed traffic: every kind, sub-chunk through multi-chunk
    // sizes, plus an empty request (no queue-wait by definition).
    const std::size_t sizes[] = {0, 1, 7, 64, 200, 4096};
    u64 perKind = 0;
    for (std::size_t n : sizes) {
        service.count(std::span<const u64>(d.keys).first(n));
        service.probe(std::span<const u64>(d.keys).first(n));
        service.join(std::span<const u64>(d.keys).first(n));
        ++perKind;
    }

    const ServiceStats s = service.stats();
    for (RequestKind k : {RequestKind::Count, RequestKind::Probe,
                          RequestKind::Join}) {
        const KindLatency &kl = s.latencyFor(k);
        // Every request is counted once in each component.
        EXPECT_EQ(kl.endToEnd.count, perKind);
        EXPECT_EQ(kl.queueWait.count, perKind);
        EXPECT_EQ(kl.drainTime.count, perKind);
        // The components are measured with the *same* clock reads,
        // so their sums add up to end-to-end to the nanosecond —
        // coalescing hold is attributable, not smeared.
        EXPECT_EQ(kl.queueWait.sumNs + kl.drainTime.sumNs,
                  kl.endToEnd.sumNs);
        // Percentile ladder sanity.
        EXPECT_LE(kl.endToEnd.p50Ns, kl.endToEnd.p90Ns);
        EXPECT_LE(kl.endToEnd.p90Ns, kl.endToEnd.p99Ns);
        EXPECT_LE(kl.endToEnd.p99Ns, kl.endToEnd.p999Ns);
        EXPECT_LE(kl.endToEnd.p999Ns, kl.endToEnd.maxNs);
        EXPECT_GT(kl.endToEnd.maxNs, 0u);
        // Components never exceed the whole.
        EXPECT_LE(kl.queueWait.maxNs, kl.endToEnd.maxNs);
        EXPECT_LE(kl.drainTime.maxNs, kl.endToEnd.maxNs);
    }

    // Completion timestamps are stamped and monotone per client.
    ServiceResult a = service.probe(
        std::span<const u64>(d.keys).first(64));
    ServiceResult b = service.probe(
        std::span<const u64>(d.keys).first(64));
    EXPECT_GT(a.completedAtNs, 0u);
    EXPECT_GE(b.completedAtNs, a.completedAtNs);

    // resetLatencyStats zeroes the histograms but not the traffic
    // counters.
    service.resetLatencyStats();
    const ServiceStats after = service.stats();
    EXPECT_EQ(after.latencyFor(RequestKind::Probe).endToEnd.count,
              0u);
    EXPECT_GT(after.requests, 0u);
}

// ---------------------------------------------------------------------------
// Skewed shard traffic
// ---------------------------------------------------------------------------

TEST(IndexService, SkewedShardTrafficStaysByteIdentical)
{
    // All probe keys target a single shard (found by hashing): every
    // window the walkers claim resolves to that one shard, and every
    // request must still complete exactly.
    Dataset d(4000, 0, false, 0.0, 21);
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.walkers = 4;
    cfg.pipeline.batch = 64;
    IndexService service(*d.build, d.spec, cfg);

    const ShardedIndex &idx = service.index();
    std::vector<u64> skewed;
    for (u64 k = 1; skewed.size() < 4000 && k < 200000; ++k)
        if (idx.shardOf(idx.shard(0).hashKey(k)) == 0)
            skewed.push_back(k);
    ASSERT_GE(skewed.size(), 1000u);

    const auto want = refSequence(*d.flat, skewed);
    ServiceResult got = service.probe(skewed);
    expectSameSequence(got.recs, want, "skewed");
}

// ---------------------------------------------------------------------------
// Concurrent clients (the TSan target)
// ---------------------------------------------------------------------------

/** Multi-threaded submitter stress: concurrent clients fire mixed
 *  probe/count/join requests — uniform and zipf keys, sub-chunk
 *  through multi-chunk sizes — and each verifies its results
 *  against the single-threaded reference. Raced under the CI TSan
 *  job (ctest PROCESSORS is set in CMakeLists.txt). */
TEST(IndexService, ConcurrentClientsStress)
{
    Dataset d(8192, 0, false, 0.0, 17);
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.walkers = 4;
    cfg.pipeline.batch = 64;
    IndexService service(*d.build, d.spec, cfg);

    constexpr unsigned kClients = 6;
    constexpr unsigned kRequests = 24;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    for (unsigned cl = 0; cl < kClients; ++cl)
        clients.emplace_back([&, cl] {
            Rng rng(100 + cl);
            for (unsigned r = 0; r < kRequests; ++r) {
                // Sizes: mostly tails, some multi-chunk, a couple
                // of big spans per client.
                const u64 pick = rng.below(10);
                const u64 n = pick < 6   ? 1 + rng.below(17)
                              : pick < 9 ? 65 + rng.below(400)
                                         : 5000;
                std::vector<u64> keys =
                    r % 2 ? wl::zipfKeys(n, 4097, 0.8, rng)
                          : wl::uniformKeys(n, 4097, rng);
                const auto kind = RequestKind(r % 3);
                ServiceResult got =
                    service.submit(kind, keys).get();
                const auto want = refSequence(*d.flat, keys);
                if (got.matches != want.size()) {
                    failures[cl] = "match count mismatch";
                    return;
                }
                if (kind == RequestKind::Count)
                    continue;
                if (got.recs.size() != want.size()) {
                    failures[cl] = "rec count mismatch";
                    return;
                }
                for (std::size_t i = 0; i < want.size(); ++i)
                    if (got.recs[i].i != want[i].i ||
                        got.recs[i].key != want[i].key ||
                        got.recs[i].payload != want[i].payload) {
                        failures[cl] = "sequence mismatch";
                        return;
                    }
            }
        });
    for (auto &t : clients)
        t.join();
    for (unsigned cl = 0; cl < kClients; ++cl)
        EXPECT_EQ(failures[cl], "") << "client " << cl;
    EXPECT_EQ(service.stats().requests, u64(kClients) * kRequests);
}

// ---------------------------------------------------------------------------
// db-layer integration
// ---------------------------------------------------------------------------

TEST(IndexService, DbProbeAllRidesALongLivedService)
{
    Rng rng(23);
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 2048);
    db::Column probe("p", db::ValueKind::U32, arena, 9000);
    for (int i = 0; i < 2048; ++i)
        build.push(1 + rng.below(1024));
    for (int i = 0; i < 9000; ++i)
        probe.push(1 + rng.below(2048));

    db::IndexSpec spec;
    spec.buckets = 2048;
    db::HashIndex idx(spec, arena);
    idx.buildFromColumn(build);
    db::JoinResult ref = db::probeAll(idx, probe, true);

    ServiceConfig cfg;
    cfg.walkers = 3;
    IndexService service(idx, cfg);
    for (int round = 0; round < 3; ++round) {
        db::JoinResult got = db::probeAll(service, probe, true);
        ASSERT_EQ(got.status, Status::Ok);
        ASSERT_EQ(got.matches, ref.matches);
        ASSERT_EQ(got.pairs.size(), ref.pairs.size());
        for (std::size_t i = 0; i < ref.pairs.size(); ++i) {
            ASSERT_EQ(got.pairs[i].buildRow, ref.pairs[i].buildRow);
            ASSERT_EQ(got.pairs[i].probeRow, ref.pairs[i].probeRow);
        }
        ASSERT_EQ(db::probeAll(service, probe, false).matches,
                  ref.matches);
    }
}

TEST(IndexService, DbProbeAllHonorsBoundedAdmission)
{
    // Regression: the async slice fan-out must not silently lose
    // the slices a bounded admission queue sheds. With
    // maxQueuedKeys below one 4096-key slice, a slice is only
    // admitted on a drained queue (the overshoot-by-one-request
    // rule), so nearly every slice rides the Rejected -> resubmit
    // path — and the join must still come back whole, Ok, and
    // byte-identical to the flat reference.
    Rng rng(37);
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 2048);
    db::Column probe("p", db::ValueKind::U64, arena, 40000);
    for (int i = 0; i < 2048; ++i)
        build.push(1 + rng.below(1024));
    for (int i = 0; i < 40000; ++i)
        probe.push(1 + rng.below(2048));

    db::IndexSpec spec;
    spec.buckets = 2048;
    db::HashIndex idx(spec, arena);
    idx.buildFromColumn(build);
    db::JoinResult ref = db::probeAll(idx, probe, true);

    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.maxQueuedKeys = 2048; // below one slice: shed-heavy
    IndexService service(idx, cfg);

    // Park the only walker in a completion callback, so the first
    // slice stays queued and the next must bounce off the bound
    // however the submitting thread is scheduled. Release the
    // walker once a slice has been shed (bounded wait).
    const std::vector<u64> parkKeys(64, 1);
    std::promise<void> parked, release;
    std::shared_future<void> go = release.get_future().share();
    service.submitAsync(RequestKind::Count, parkKeys, {},
                        [&, go](ServiceResult &&) {
                            parked.set_value();
                            go.wait();
                        });
    parked.get_future().wait();
    db::JoinResult got;
    std::thread joiner(
        [&] { got = db::probeAll(service, probe, true); });
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.stats().rejected == 0 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    release.set_value();
    joiner.join();
    ASSERT_EQ(got.status, Status::Ok);
    ASSERT_EQ(got.matches, ref.matches);
    ASSERT_EQ(got.pairs.size(), ref.pairs.size());
    for (std::size_t i = 0; i < ref.pairs.size(); ++i) {
        ASSERT_EQ(got.pairs[i].buildRow, ref.pairs[i].buildRow);
        ASSERT_EQ(got.pairs[i].probeRow, ref.pairs[i].probeRow);
    }
    // The bound actually bit: at least one slice was shed and
    // resubmitted (10 slices against a 2048-key budget).
    EXPECT_GT(service.stats().rejected, 0u);

    db::JoinResult count = db::probeAll(service, probe, false);
    ASSERT_EQ(count.status, Status::Ok);
    ASSERT_EQ(count.matches, ref.matches);
}

TEST(IndexService, DbProbeAllSurfacesCancelledAfterStop)
{
    // A stopped service turns submissions into fast Cancelled
    // completions; probeAll must report that on JoinResult::status
    // (with no pairs) instead of returning a silently-empty Ok
    // join — and must not hang resubmitting into a dead service.
    Rng rng(41);
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 1024);
    db::Column probe("p", db::ValueKind::U64, arena, 9000);
    for (int i = 0; i < 1024; ++i)
        build.push(1 + rng.below(512));
    for (int i = 0; i < 9000; ++i)
        probe.push(1 + rng.below(1024));

    db::IndexSpec spec;
    spec.buckets = 1024;
    db::HashIndex idx(spec, arena);
    idx.buildFromColumn(build);

    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(idx, cfg);
    service.stop();

    db::JoinResult got = db::probeAll(service, probe, true);
    EXPECT_EQ(got.status, Status::Cancelled);
    EXPECT_TRUE(got.pairs.empty());
    EXPECT_EQ(db::probeAll(service, probe, false).status,
              Status::Cancelled);
}

// ---------------------------------------------------------------------------
// Adaptive tagging through the service
// ---------------------------------------------------------------------------

TEST(IndexService, AdaptiveTaggingTracksTrafficShape)
{
    Rng rng(29);
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 4096);
    for (u64 k : wl::shuffledDenseKeys(4096, rng))
        build.push(k);
    db::IndexSpec spec;
    spec.buckets = 4096;

    // A default service adapts: pipeline.tagged is only the
    // cold-start value. One walker and the default 64-key chunks
    // seal a request of n * 1024 keys as n windows of 1024 keys.
    IndexService service(build, spec, ServiceConfig{});
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    const db::TagFilterStats &stats = service.index().tagStats();
    constexpr std::size_t kWin = db::HashIndex::kMaxProbeBatch;
    auto scrape = [&](const char *family) {
        return obs::snapshotValue(reg.snapshot(), family, {}, -1.0);
    };
    auto windowsOf = [&](std::span<const u64> keys) {
        const u64 before = service.stats().windows;
        service.count(keys);
        return service.stats().windows - before;
    };

    // Phase 1 — hit-only traffic: the filter rejects nothing, and
    // the service turns it off once the sample is in.
    std::vector<u64> hits = wl::uniformKeys(8 * kWin, 4096, rng);
    EXPECT_EQ(scrape("widx_tagfilter_enabled"), 1.0); // cold start
    service.count(hits);
    EXPECT_GE(stats.keys(), db::TagFilterStats::kMinSampleKeys);
    EXPECT_EQ(stats.rejects(), 0u);
    EXPECT_FALSE(service.index().taggedWorthwhile(true));
    EXPECT_EQ(scrape("widx_tagfilter_enabled"), 0.0);
    EXPECT_EQ(scrape("widx_tagfilter_keys_total"),
              double(stats.keys()));
    EXPECT_EQ(scrape("widx_tagfilter_reject_rate"), 0.0);

    // After the flip, hit-only windows skip the sweep: of N
    // windows, only the 1-in-32 re-samples sweep, so the swept keys
    // grow by at most ceil(N / 32) windows' worth.
    constexpr std::size_t kHitWindows = 64;
    std::vector<u64> more =
        wl::uniformKeys(kHitWindows * kWin, 4096, rng);
    const u64 sweptBefore = stats.keys();
    ASSERT_EQ(windowsOf(more), kHitWindows);
    EXPECT_LE(stats.keys() - sweptBefore,
              (kHitWindows + 31) / 32 * kWin);
    EXPECT_EQ(scrape("widx_tagfilter_enabled"), 0.0);

    // Phase 2 — the same service's traffic turns miss-heavy. The
    // re-sampling windows keep feeding the stats, so the reject
    // rate climbs past the threshold and the filter swings back on.
    std::vector<u64> misses = wl::uniformKeys(80 * kWin, 4096, rng);
    for (u64 &k : misses)
        k += 4096;
    service.count(misses);
    EXPECT_GT(stats.rejectRate(), 0.05);
    EXPECT_TRUE(service.index().taggedWorthwhile(false));
    EXPECT_EQ(scrape("widx_tagfilter_enabled"), 1.0);
    EXPECT_GT(scrape("widx_tagfilter_reject_rate"), 0.05);
    EXPECT_EQ(scrape("widx_tagfilter_rejects_total"),
              double(stats.rejects()));

    // With the filter on, every miss-heavy window sweeps.
    constexpr std::size_t kMissWindows = 16;
    const u64 sweptOn = stats.keys();
    ASSERT_EQ(windowsOf({misses.data(), kMissWindows * kWin}),
              kMissWindows);
    EXPECT_EQ(stats.keys() - sweptOn, kMissWindows * kWin);
    // The exact counts above need unaged stats: an aging would have
    // halved keys().
    EXPECT_EQ(stats.agings(), 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and backpressure
// ---------------------------------------------------------------------------

TEST(IndexService, ExpiredDeadlineFailsFastWithoutDraining)
{
    using namespace std::chrono_literals;
    Dataset d(2000, 2000, false, 0.0, 47);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    // A deadline already in the past must complete at submit —
    // Ready on a zero-timeout poll, no partial results, and the
    // latency board untouched (fast-failed requests would poison
    // the percentiles the admission controller steers by).
    SubmitOptions past;
    past.deadlineNs = 1;
    ResultTicket t =
        service.submit(RequestKind::Probe, d.keys, past);
    EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
    const ServiceResult r = t.get();
    EXPECT_EQ(r.status, Status::DeadlineExceeded);
    EXPECT_TRUE(r.recs.empty());
    EXPECT_EQ(r.matches, 0u);

    // A generous deadline changes nothing about a healthy request.
    SubmitOptions future;
    future.deadlineNs = monotonicNowNs() + u64(60e9);
    const std::span<const u64> keys{d.keys.data(), 256};
    ResultTicket ok =
        service.submit(RequestKind::Probe, keys, future);
    const ServiceResult rok = ok.get();
    EXPECT_EQ(rok.status, Status::Ok);
    expectSameSequence(rok.recs, refSequence(*d.flat, keys),
                       "deadline-ok request");

    const ServiceStats s = service.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completedOk, 1u);
    EXPECT_EQ(s.latencyFor(RequestKind::Probe).endToEnd.count, 1u);
    EXPECT_EQ(statusName(Status::DeadlineExceeded),
              std::string("DeadlineExceeded"));
}

TEST(IndexService, BackpressureRejectsOverBudgetSubmissions)
{
    using namespace std::chrono_literals;
    Dataset d(1u << 15, 1u << 19, false, 0.0, 53);
    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.maxQueuedKeys = 256;
    IndexService service(*d.flat, cfg);

    // Park a huge request so the admission queue sits far over the
    // bound, then show the next submission bounces with
    // Status::Rejected — and that admission reopens once the
    // backlog drains. The race with the walker (it could drain the
    // whole backlog if this thread is descheduled between the two
    // submits) is closed with a bounded retry: the assertion is
    // that rejection *happens* under a standing backlog, not that
    // any particular interleaving occurs.
    bool sawReject = false;
    const u64 want = refSequence(*d.flat, d.keys).size();
    for (int attempt = 0; attempt < 5 && !sawReject; ++attempt) {
        ResultTicket big =
            service.submit(RequestKind::Count, d.keys);
        ResultTicket bounced = service.submit(
            RequestKind::Count, {d.keys.data(), 64});
        // A rejection is decided at submit: the ticket must be
        // Ready on a zero-timeout poll, not merely eventually.
        const bool ready = bounced.waitFor(0ns) == WaitStatus::Ready;
        const ServiceResult rb = bounced.get();
        if (rb.status == Status::Rejected) {
            EXPECT_TRUE(ready);
            EXPECT_TRUE(rb.recs.empty());
            sawReject = true;
        }
        // The parked request always drains to the full answer.
        EXPECT_EQ(big.get().matches, want);
    }
    EXPECT_TRUE(sawReject)
        << "submission never bounced off a standing backlog";

    // Once the backlog is gone, admission reopens.
    ResultTicket after = service.submit(
        RequestKind::Count, {d.keys.data(), 64});
    EXPECT_EQ(after.get().status, Status::Ok);
    EXPECT_GE(service.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------------

TEST(IndexService, StopCancelsQueuedTicketsAndNeverHangs)
{
    using namespace std::chrono_literals;
    Dataset d(1u << 15, 1u << 17, false, 0.0, 61);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    // A deep backlog (one big + several small requests), then
    // stop() mid-drain. The contract: stop() returns (join), and
    // by then every ticket is Ready — drained requests Ok, the
    // stranded remainder Cancelled. No waiter can hang.
    std::vector<ResultTicket> tickets;
    tickets.push_back(service.submit(RequestKind::Count, d.keys));
    for (int i = 0; i < 8; ++i)
        tickets.push_back(service.submit(
            RequestKind::Count, {d.keys.data() + 64 * i, 64}));
    service.stop();

    u64 cancelled = 0, ok = 0;
    for (ResultTicket &t : tickets) {
        EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
        const ServiceResult r = t.get();
        (r.status == Status::Cancelled ? cancelled : ok)++;
        if (r.status != Status::Cancelled) {
            EXPECT_EQ(r.status, Status::Ok);
        }
    }
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.cancelled, cancelled);
    EXPECT_EQ(s.completedOk, ok);

    // Submission after stop() completes immediately as Cancelled —
    // and stop() is idempotent (the destructor will run it again).
    ResultTicket late =
        service.submit(RequestKind::Count, {d.keys.data(), 8});
    EXPECT_EQ(late.waitFor(0ns), WaitStatus::Ready);
    EXPECT_EQ(late.get().status, Status::Cancelled);
    service.stop();
}

TEST(IndexService, StopWithShardedBacklogCancelsCleanly)
{
    using namespace std::chrono_literals;
    Dataset d(1u << 15, 1u << 17, false, 0.0, 67);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.shards = 4;
    IndexService service(*d.build, d.spec, cfg);

    std::vector<ResultTicket> tickets;
    for (int i = 0; i < 4; ++i)
        tickets.push_back(
            service.submit(RequestKind::Count, d.keys));
    service.stop();
    for (ResultTicket &t : tickets) {
        EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
        const ServiceResult r = t.get();
        EXPECT_TRUE(r.status == Status::Ok ||
                    r.status == Status::Cancelled);
    }
}

// ---------------------------------------------------------------------------
// ResultTicket::waitFor edge cases
// ---------------------------------------------------------------------------

TEST(IndexService, WaitForRacesCompletionWithoutLosingIt)
{
    using namespace std::chrono_literals;
    Dataset d(2000, 4000, false, 0.0, 71);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    // Zero- and micro-timeout polls racing the walkers: whatever
    // interleaving TSan provokes, the poll loop must observe
    // Ready exactly when the result is there, Ready must be
    // sticky across repeated waits, and get() must then return
    // the full result.
    for (int round = 0; round < 50; ++round) {
        const std::span<const u64> keys{
            d.keys.data() + (round % 32) * 64, 64};
        ResultTicket t = service.submit(RequestKind::Probe, keys);
        while (t.waitFor(round % 2 ? 0ns : 10us) !=
               WaitStatus::Ready) {
        }
        EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
        EXPECT_EQ(t.waitFor(1h), WaitStatus::Ready);
        EXPECT_TRUE(t.valid());
        const ServiceResult r = t.get();
        EXPECT_EQ(r.status, Status::Ok);
        expectSameSequence(r.recs, refSequence(*d.flat, keys),
                           "waitFor race");
        EXPECT_FALSE(t.valid());
    }
}

// ---------------------------------------------------------------------------
// Adaptive admission and the watchdog
// ---------------------------------------------------------------------------

TEST(IndexService, AdaptiveAdmissionAdjustsUnderOverload)
{
    Dataset d(2000, 6000, false, 0.0, 73);
    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.admission.adaptive = true;
    cfg.admission.intervalNs = 500'000; // adjust often in a test
    cfg.admission.targetQueueP99Ns = 50'000; // tight: force action
    IndexService service(*d.flat, cfg);

    // Overload in keys, not only in requests: 300K/s requests of
    // 1024 keys offer ~300M keys/s, about 12x what one walker
    // drains from this index (~25M keys/s on a 4-vCPU Xeon VM), so
    // queue-wait outgrows the target whether or not the walker has
    // a core to itself. At 16 keys per request the same rate was
    // within one walker's reach, and the target was sometimes never
    // missed.
    OpenLoopOptions opt;
    opt.ratePerSec = 300000;
    opt.requests = 6000;
    opt.keysPerRequest = db::HashIndex::kMaxProbeBatch;
    opt.arrivals = ArrivalProcess::Poisson;
    const OpenLoopReport rep = runOpenLoop(service, d.keys, opt);

    // Accounting first: every submission lands in exactly one
    // bucket, client-side and server-side views agree.
    EXPECT_EQ(rep.submitted + rep.shedClientCap, rep.scheduled);
    EXPECT_EQ(rep.completed + rep.rejected + rep.expired +
                  rep.timedOut,
              rep.submitted);
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.completedOk, rep.completed + rep.timedOut);
    EXPECT_EQ(s.rejected, rep.rejected);

    // The controller actually ran and reacted: it adjusted at
    // least once, and sustained overload against a 50 us queue
    // target must have forced decreases (hold trim or budget cut).
    EXPECT_GT(s.admission.adjustments, 0u);
    EXPECT_GT(s.admission.decreases, 0u);
    EXPECT_GE(s.admission.holdKeys, 1u);
    EXPECT_GE(s.admission.budgetKeys,
              AdmissionController::kMinBudgetKeys);
}

TEST(IndexService, WatchdogStaysQuietOnHealthyTraffic)
{
    using namespace std::chrono_literals;
    Dataset d(2000, 4000, false, 0.0, 79);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.watchdogPeriodNs = 2'000'000;    // poll fast,
    cfg.stallThresholdNs = 5'000'000'000; // judge leniently
    IndexService service(*d.flat, cfg);

    for (int i = 0; i < 200; ++i)
        service.count({d.keys.data() + (i % 32) * 64, 64});
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(service.stats().walkerStalls, 0u);
    // Destructor must join the watchdog promptly (no test hang).
}

// ---------------------------------------------------------------------------
// Async submission: CompletionQueue and callback sinks
// ---------------------------------------------------------------------------

TEST(IndexService, AsyncThousandsInFlightFromOneThread)
{
    // The acceptance shape for the async redesign: one client
    // thread parks >= 1024 requests in the service before reaping a
    // single completion — impossible with blocking tickets — and
    // every result is byte-identical to the single-threaded
    // reference for its span.
    Dataset d(4000, 1u << 15, false, 0.0, 101);
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.walkers = 2;
    IndexService service(*d.build, d.spec, cfg);

    constexpr std::size_t kReqs = 1500;
    static_assert(kReqs >= 1024);
    constexpr std::size_t kKeys = 16;
    auto cq = std::make_shared<CompletionQueue>();
    for (std::size_t i = 0; i < kReqs; ++i)
        service.submitAsync(
            RequestKind::Probe,
            {d.keys.data() + (i * kKeys) % (d.keys.size() - kKeys),
             kKeys},
            {}, cq, i);
    // All kReqs submitted, zero reaped: the client-side in-flight
    // count is kReqs >= 1024 right now.

    // Bounded by wall-clock time, not by reap() calls: with real
    // parallelism the walkers publish completions while this thread
    // reaps, so each call may return only a handful.
    std::vector<Completion> done;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (done.size() < kReqs &&
           std::chrono::steady_clock::now() < deadline)
        cq->reap(done, kReqs, std::chrono::milliseconds(100));
    ASSERT_EQ(done.size(), kReqs);

    std::vector<bool> seen(kReqs, false);
    for (const Completion &c : done) {
        ASSERT_LT(c.tag, kReqs);
        EXPECT_FALSE(seen[c.tag]) << "tag delivered twice";
        seen[c.tag] = true;
        ASSERT_EQ(c.result.status, Status::Ok);
        const std::size_t base =
            (c.tag * kKeys) % (d.keys.size() - kKeys);
        const auto want =
            refSequence(*d.flat, {d.keys.data() + base, kKeys});
        expectSameSequence(c.result.recs, want, "async request");
    }
    // Requests, completions, and the live gauge all balance. A
    // delivered completion can be reaped a beat before its request
    // object unwinds out of the walker's window, so the gauge is
    // eventually-zero, not instantly-zero.
    EXPECT_EQ(service.stats().requests, kReqs);
    u64 live = kReqs;
    for (int tries = 0; tries < 500; ++tries) {
        live = service.stats().liveRequests;
        if (live == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(live, 0u);
}

TEST(IndexService, ReapBatchesUnderConcurrentSubmitters)
{
    Dataset d(2000, 4096, false, 0.0, 103);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    constexpr unsigned kThreads = 4;
    constexpr u64 kPerThread = 200;
    auto cq = std::make_shared<CompletionQueue>();
    std::vector<std::thread> subs;
    for (unsigned t = 0; t < kThreads; ++t)
        subs.emplace_back([&, t] {
            for (u64 i = 0; i < kPerThread; ++i)
                service.submitAsync(
                    RequestKind::Count,
                    {d.keys.data() + ((t * 57 + i) % 32) * 64, 64},
                    {}, cq, t * kPerThread + i);
        });

    // Reap concurrently with the submitters, in bounded batches:
    // every tag must arrive exactly once, and some reap must return
    // a completion (maxBatch >= 1). A batch larger than one is not
    // asserted: with real parallelism the walkers publish
    // completions while this thread reaps, so each call may return
    // only one. Bounded by wall-clock time, not by reap() calls:
    // when each call returns a handful, a slow instrumented (TSan)
    // build needs more calls than any fixed count allows.
    std::vector<bool> seen(kThreads * kPerThread, false);
    u64 reaped = 0;
    std::size_t maxBatch = 0;
    std::vector<Completion> batch;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (reaped < kThreads * kPerThread &&
           std::chrono::steady_clock::now() < deadline) {
        batch.clear();
        cq->reap(batch, 64, std::chrono::milliseconds(50));
        maxBatch = std::max(maxBatch, batch.size());
        for (const Completion &c : batch) {
            ASSERT_LT(c.tag, seen.size());
            EXPECT_FALSE(seen[c.tag]);
            seen[c.tag] = true;
            EXPECT_EQ(c.result.status, Status::Ok);
        }
        reaped += batch.size();
    }
    for (auto &t : subs)
        t.join();
    EXPECT_EQ(reaped, kThreads * kPerThread);
    EXPECT_GE(maxBatch, 1u);
}

TEST(IndexService, AsyncCompletionsOutrunSubmissionOrder)
{
    // Completion order is drain order, not submission order: an
    // empty-span request submitted *after* a large one completes
    // synchronously at submit and must be reapable while the large
    // request is still draining. The queue reports whatever
    // finishes first; tags are how clients correlate.
    Dataset d(1u << 14, 1u << 16, false, 0.0, 107);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    auto cq = std::make_shared<CompletionQueue>();
    service.submitAsync(RequestKind::Count, d.keys, {}, cq, 1);
    service.submitAsync(RequestKind::Count, std::span<const u64>{},
                        {}, cq, 2);

    std::vector<Completion> done;
    for (int tries = 0; done.size() < 2 && tries < 200; ++tries)
        cq->reap(done, 2, std::chrono::milliseconds(100));
    ASSERT_EQ(done.size(), 2u);
    EXPECT_TRUE((done[0].tag == 1 && done[1].tag == 2) ||
                (done[0].tag == 2 && done[1].tag == 1));
    for (const Completion &c : done)
        EXPECT_EQ(c.result.status, Status::Ok);
}

TEST(IndexService, CallbackSinkDeliversAndSurvivesThrow)
{
    Dataset d(2000, 2048, false, 0.0, 109);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    // A callback that records its result and then throws: the
    // throw must be swallowed (a walker that unwinds strands every
    // queued request), and the service must keep serving.
    std::mutex m;
    std::condition_variable cv;
    u64 got = 0;
    bool ready = false;
    service.submitAsync(
        RequestKind::Count, {d.keys.data(), 256}, {},
        [&](ServiceResult &&r) {
            {
                std::lock_guard<std::mutex> lk(m);
                got = r.matches;
                ready = true;
            }
            cv.notify_all();
            throw std::runtime_error("client bug");
        });
    {
        std::unique_lock<std::mutex> lk(m);
        ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                                [&] { return ready; }));
    }
    const auto want = refSequence(*d.flat, {d.keys.data(), 256});
    EXPECT_EQ(got, want.size());
    // Still alive after the throwing callback.
    EXPECT_EQ(service.count({d.keys.data(), 256}), want.size());
}

TEST(IndexService, SubmitAfterStopDeliversCancelledThroughQueue)
{
    Dataset d(2000, 1024, false, 0.0, 113);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    service.stop();

    auto cq = std::make_shared<CompletionQueue>();
    service.submitAsync(RequestKind::Count, {d.keys.data(), 64}, {},
                        cq, 7);
    // Fast-fail completes on the submitting thread, so the
    // completion is already queued.
    EXPECT_EQ(cq->size(), 1u);
    std::vector<Completion> done;
    cq->reap(done, 8, std::chrono::milliseconds(100));
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 7u);
    EXPECT_EQ(done[0].result.status, Status::Cancelled);

    // Callback sink, same contract.
    Status cbStatus = Status::Ok;
    service.submitAsync(RequestKind::Count, {d.keys.data(), 64}, {},
                        [&](ServiceResult &&r) {
                            cbStatus = r.status;
                        });
    EXPECT_EQ(cbStatus, Status::Cancelled);
}

TEST(IndexService, AbandonedTicketReleasesRequestMemoryPromptly)
{
    // Regression: a ticket abandoned after a waitFor timeout (the
    // old open-loop reaper's drainTimeout path) must not pin its
    // request's memory until service stop. Once the service
    // completes the request and the ticket is gone, the request
    // frees and the live gauge returns to zero — while the service
    // is still running.
    using namespace std::chrono_literals;
    Dataset d(1u << 14, 1u << 16, false, 0.0, 127);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    {
        std::vector<ResultTicket> abandoned;
        abandoned.push_back(
            service.submit(RequestKind::Count, d.keys));
        for (int i = 0; i < 16; ++i)
            abandoned.push_back(service.submit(
                RequestKind::Count, {d.keys.data() + 64 * i, 64}));
        // Simulate impatient clients: a bounded wait, then drop the
        // tickets without get().
        for (ResultTicket &t : abandoned)
            (void)t.waitFor(0ns);
    } // tickets destroyed here, requests possibly still in flight

    // The service drains the abandoned requests on its own; the
    // gauge must hit zero promptly without stop().
    bool drained = false;
    for (int tries = 0; tries < 500; ++tries) {
        if (service.stats().liveRequests == 0) {
            drained = true;
            break;
        }
        std::this_thread::sleep_for(10ms);
    }
    EXPECT_TRUE(drained)
        << "live requests: " << service.stats().liveRequests;
    // Still serving after the cleanup.
    EXPECT_EQ(service.count({d.keys.data(), 64}),
              refSequence(*d.flat, {d.keys.data(), 64}).size());
}
