/**
 * @file
 * Writer-path tests: live mutation (Insert/Delete/Upsert) through
 * the service, coexisting with always-on lock-free probes.
 *
 * The contract under test (src/service/sharded_index.hh, "Live
 * mutation"):
 *
 *  - a serial mutation history is equivalent to a multiset oracle —
 *    the writer path computes exactly what a map would;
 *  - upserts to one key are linearizable: concurrent upserters
 *    produce exactly one fresh insert, and a racing reader only
 *    ever observes the initial value or a submitted one;
 *  - incremental rebuilds publish old-or-new, never a partial view:
 *    a key set that predates the churn is found in full by every
 *    concurrent probe, no matter how many rebuilds race it;
 *  - epoch reclamation frees retired nodes/arrays only after every
 *    pinned reader advances — the churn stress exists for the
 *    TSan/ASan jobs, where a premature free is a hard failure;
 *  - mutation requests on a read-only service (or with malformed
 *    payloads) complete Rejected, never crash, never mutate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "service/index_service.hh"
#include "swwalkers/probers.hh"

using namespace widx;
using namespace widx::sw;

namespace {

/** Multiset oracle: key -> payload multiset, mirroring the index's
 *  duplicate semantics. */
struct Oracle
{
    std::map<u64, std::vector<u64>> m;

    void
    insert(u64 k, u64 p)
    {
        m[k].push_back(p);
    }

    u64
    erase(u64 k)
    {
        auto it = m.find(k);
        if (it == m.end())
            return 0;
        const u64 n = it->second.size();
        m.erase(it);
        return n;
    }

    /** True when an existing entry was updated (first-match
     *  overwrite, like upsertLive). */
    bool
    upsert(u64 k, u64 p)
    {
        auto it = m.find(k);
        if (it == m.end()) {
            m[k].push_back(p);
            return false;
        }
        it->second.front() = p;
        return true;
    }

    u64
    count(u64 k) const
    {
        auto it = m.find(k);
        return it == m.end() ? 0 : it->second.size();
    }
};

/** Service with the writer path enabled over `tuples` build rows
 *  (key k -> payload k, no duplicates, so the oracle starts
 *  trivially). */
struct LiveService
{
    Arena arena;
    std::unique_ptr<db::Column> build;
    db::IndexSpec spec;
    ServiceConfig cfg;
    std::unique_ptr<IndexService> service;

    LiveService(u64 tuples, unsigned shards, unsigned walkers,
                double rebuildLf = 0.75)
    {
        build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k = 1; k <= tuples; ++k)
            build->push(k);
        spec.buckets = std::max<u64>(tuples / 2, 16);
        cfg.shards = shards;
        cfg.walkers = walkers;
        cfg.mutation.enabled = true;
        cfg.mutation.rebuildLoadFactor = rebuildLf;
        service = std::make_unique<IndexService>(*build, spec, cfg);
    }

    ServiceResult
    mutate(RequestKind kind, std::span<const u64> keys,
           std::span<const u64> payloads = {})
    {
        SubmitOptions opt;
        opt.payloads = payloads;
        return service->submit(kind, keys, opt).get();
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Serial oracle equivalence
// ---------------------------------------------------------------------------

TEST(Mutation, SerialHistoryMatchesMultisetOracle)
{
    LiveService ls(500, 4, 2);
    Oracle oracle;
    for (u64 k = 1; k <= 500; ++k)
        oracle.insert(k, k - 1); // buildFromColumn: payload = row id

    Rng rng(42);
    const u64 keySpace = 900; // beyond the build range: misses too
    for (int round = 0; round < 60; ++round) {
        const unsigned op = unsigned(rng.next() % 3);
        std::vector<u64> keys, pays;
        for (int i = 0; i < 16; ++i) {
            keys.push_back(1 + rng.next() % keySpace);
            pays.push_back(rng.next());
        }
        u64 want = 0;
        ServiceResult r;
        switch (op) {
          case 0:
            for (std::size_t i = 0; i < keys.size(); ++i)
                oracle.insert(keys[i], pays[i]);
            want = keys.size();
            r = ls.mutate(RequestKind::Insert, keys, pays);
            break;
          case 1:
            for (u64 k : keys)
                want += oracle.erase(k);
            r = ls.mutate(RequestKind::Delete, keys);
            break;
          default:
            for (std::size_t i = 0; i < keys.size(); ++i)
                if (oracle.upsert(keys[i], pays[i]))
                    ++want;
            r = ls.mutate(RequestKind::Upsert, keys, pays);
            break;
        }
        ASSERT_EQ(r.status, Status::Ok) << "round " << round;
        // Duplicate keys inside one Delete/Upsert batch make the
        // oracle and index disagree transiently per-op but not in
        // the total (both apply left to right); compare exactly.
        EXPECT_EQ(r.matches, want)
            << "round " << round << " op " << op;

        // Full read-back sweep every few rounds: counts must match
        // the oracle for hits and misses alike.
        if (round % 10 == 9) {
            std::vector<u64> all;
            for (u64 k = 1; k <= keySpace; ++k)
                all.push_back(k);
            ServiceResult probe = ls.service->probe(all);
            ASSERT_EQ(probe.status, Status::Ok);
            std::map<u64, u64> got;
            for (const MatchRec &rec : probe.recs) {
                EXPECT_EQ(rec.key, all[rec.i]);
                ++got[rec.key];
            }
            for (u64 k = 1; k <= keySpace; ++k)
                ASSERT_EQ(got[k], oracle.count(k))
                    << "key " << k << " round " << round;
        }
    }
}

TEST(Mutation, UpsertReplacesFirstMatchPayload)
{
    LiveService ls(64, 1, 1);
    const std::vector<u64> key{7};
    const std::vector<u64> pay{12345};
    ServiceResult r = ls.mutate(RequestKind::Upsert, key, pay);
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.matches, 1u); // updated in place, not inserted
    ServiceResult probe = ls.service->probe(key);
    ASSERT_EQ(probe.recs.size(), 1u);
    EXPECT_EQ(probe.recs[0].payload, 12345u);
}

// ---------------------------------------------------------------------------
// Concurrency: linearizable upserts, old-or-new rebuilds, churn
// ---------------------------------------------------------------------------

TEST(Mutation, ConcurrentUpsertsToOneKeyAreLinearizable)
{
    LiveService ls(256, 2, 2);
    const u64 key = 100000; // not in the build: first upsert inserts
    constexpr unsigned kWriters = 4;
    constexpr unsigned kRoundsPerWriter = 200;

    std::atomic<u64> freshInserts{0};
    std::atomic<bool> stopReaders{false};
    std::atomic<u64> badReads{0};

    // A legal payload is writer*kRounds + round + 1, i.e. any value
    // in [1, kWriters * kRoundsPerWriter].
    std::thread reader([&] {
        const std::vector<u64> probeKey{key};
        while (!stopReaders.load(std::memory_order_acquire)) {
            ServiceResult r = ls.service->probe(probeKey);
            if (r.status != Status::Ok)
                continue;
            if (r.recs.size() > 1)
                badReads.fetch_add(1, std::memory_order_relaxed);
            for (const MatchRec &rec : r.recs)
                if (rec.payload == 0 ||
                    rec.payload > u64(kWriters) * kRoundsPerWriter)
                    badReads.fetch_add(1,
                                       std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned i = 0; i < kRoundsPerWriter; ++i) {
                const std::vector<u64> k{key};
                const std::vector<u64> p{
                    u64(w) * kRoundsPerWriter + i + 1};
                ServiceResult r =
                    ls.mutate(RequestKind::Upsert, k, p);
                ASSERT_EQ(r.status, Status::Ok);
                // matches counts in-place updates; a fresh insert
                // contributes 0.
                freshInserts.fetch_add(1 - r.matches,
                                       std::memory_order_relaxed);
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stopReaders.store(true, std::memory_order_release);
    reader.join();

    // Exactly one writer performed the initial insert; every other
    // upsert hit it in place. A reader never saw a duplicate or a
    // value nobody wrote (torn/mixed payloads are impossible).
    EXPECT_EQ(freshInserts.load(), 1u);
    EXPECT_EQ(badReads.load(), 0u);
    ServiceResult fin = ls.service->probe(std::vector<u64>{key});
    ASSERT_EQ(fin.recs.size(), 1u);
    EXPECT_GE(fin.recs[0].payload, 1u);
    EXPECT_LE(fin.recs[0].payload,
              u64(kWriters) * kRoundsPerWriter);
}

TEST(Mutation, RebuildPublishesOldOrNewViewNeverPartial)
{
    // Small shards + aggressive watermark so the insert stream
    // forces many incremental rebuilds while readers sweep a key
    // set that predates the churn. Every sweep must find the full
    // set: both the old and the grown array contain it, and the
    // publish is a single pointer swap.
    LiveService ls(128, 2, 2, /*rebuildLf=*/0.5);
    std::vector<u64> stable;
    for (u64 k = 1; k <= 128; ++k)
        stable.push_back(k);

    std::atomic<bool> stop{false};
    std::atomic<u64> partials{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const u64 n = ls.service->count(stable);
                if (n != stable.size())
                    partials.fetch_add(1,
                                       std::memory_order_relaxed);
            }
        });
    }

    // Insert disjoint fresh keys until every shard has rebuilt at
    // least once (bounded by a generous key budget).
    u64 next = 1000000;
    const ShardedIndex &idx = ls.service->index();
    auto allRebuilt = [&] {
        for (unsigned s = 0; s < idx.shards(); ++s)
            if (idx.rebuildsTotal(s) == 0)
                return false;
        return true;
    };
    for (int burst = 0; burst < 400 && !allRebuilt(); ++burst) {
        std::vector<u64> keys, pays;
        for (int i = 0; i < 64; ++i) {
            keys.push_back(next);
            pays.push_back(next);
            ++next;
        }
        ASSERT_EQ(
            ls.mutate(RequestKind::Insert, keys, pays).status,
            Status::Ok);
    }
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    EXPECT_TRUE(allRebuilt())
        << "insert budget never crossed the watermark";
    EXPECT_EQ(partials.load(), 0u);
}

TEST(Mutation, ChurnStressReclaimsUnderReaders)
{
    // Insert/delete churn over a bounded key space with concurrent
    // probes: retired nodes and replaced shard arrays must only be
    // reclaimed after every pinned reader advances. The assertions
    // here are coarse (every request completes Ok, final state
    // matches a per-range oracle); the TSan/ASan CI jobs are the
    // real judge of the reclamation protocol.
    LiveService ls(256, 4, 4, /*rebuildLf=*/0.6);
    constexpr unsigned kMutators = 2;
    std::atomic<bool> stop{false};

    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(77 + t);
            std::vector<u64> keys(64);
            while (!stop.load(std::memory_order_acquire)) {
                for (u64 &k : keys)
                    k = 1 + rng.next() % 4096;
                ASSERT_EQ(
                    ls.service->probe(keys).status, Status::Ok);
            }
        });
    }

    // Each mutator owns a disjoint key range, so the final state is
    // per-range deterministic without cross-thread coordination.
    std::vector<std::thread> mutators;
    for (unsigned m = 0; m < kMutators; ++m) {
        mutators.emplace_back([&, m] {
            Rng rng(13 + m);
            const u64 lo = 10000 + m * 10000;
            for (int round = 0; round < 150; ++round) {
                std::vector<u64> keys, pays;
                for (int i = 0; i < 32; ++i) {
                    keys.push_back(lo + rng.next() % 512);
                    pays.push_back(rng.next());
                }
                const bool del = round % 3 == 2;
                ServiceResult r =
                    del ? ls.mutate(RequestKind::Delete, keys)
                        : ls.mutate(RequestKind::Insert, keys,
                                    pays);
                ASSERT_EQ(r.status, Status::Ok);
            }
        });
    }
    for (auto &t : mutators)
        t.join();
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    // Epoch hygiene: with no reader pinned, the lag gauge drains to
    // zero as the next writer advances past the last retire. A
    // walker delivers a window's results before it unpins, so a
    // probe can return while its walker is still pinned: wait
    // (bounded) for the last walker to leave its pin first.
    const EpochManager &epochs = ls.service->index().epochs();
    for (int i = 0; i < 10000 && epochs.pinnedReaders() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(epochs.pinnedReaders(), 0u);
    EXPECT_EQ(epochs.lag(), 0u);
}

// ---------------------------------------------------------------------------
// Refusals and plumbing
// ---------------------------------------------------------------------------

TEST(Mutation, RejectedOnReadOnlyService)
{
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 64);
    for (u64 k = 1; k <= 64; ++k)
        build.push(k);
    db::IndexSpec spec;
    spec.buckets = 32;
    ServiceConfig cfg; // mutation.enabled defaults to false
    IndexService service(build, spec, cfg);

    const std::vector<u64> keys{1, 2};
    const std::vector<u64> pays{10, 20};
    SubmitOptions opt;
    opt.payloads = pays;
    ServiceResult r =
        service.submit(RequestKind::Insert, keys, opt).get();
    EXPECT_EQ(r.status, Status::Rejected);
    EXPECT_EQ(r.matches, 0u);
    // The refusal must not have touched the index.
    EXPECT_EQ(service.count(keys), 2u);
}

TEST(Mutation, RejectedOnPayloadArityMismatch)
{
    LiveService ls(64, 1, 1);
    const std::vector<u64> keys{1, 2, 3};
    const std::vector<u64> pays{10}; // wrong arity
    EXPECT_EQ(ls.mutate(RequestKind::Insert, keys, pays).status,
              Status::Rejected);
    EXPECT_EQ(ls.mutate(RequestKind::Upsert, keys, pays).status,
              Status::Rejected);
    // Delete ignores payloads entirely.
    EXPECT_EQ(ls.mutate(RequestKind::Delete, keys).status,
              Status::Ok);
}

TEST(Mutation, StatsAndMetricsCountTheWriterPath)
{
    LiveService ls(128, 2, 2);
    std::vector<u64> keys, pays;
    for (u64 k = 0; k < 10; ++k) {
        keys.push_back(500 + k);
        pays.push_back(k);
    }
    ASSERT_EQ(ls.mutate(RequestKind::Insert, keys, pays).status,
              Status::Ok);
    ASSERT_EQ(ls.mutate(RequestKind::Delete, keys).status,
              Status::Ok);

    const ServiceStats stats = ls.service->stats();
    EXPECT_EQ(stats.mutations, 20u); // keys applied, both batches

    obs::MetricsRegistry reg;
    ls.service->registerMetrics(reg);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("widx_mutations_total"), std::string::npos);
    EXPECT_NE(text.find("widx_rebuilds_total"), std::string::npos);
    EXPECT_NE(text.find("widx_epoch_lag"), std::string::npos);
}

// The probe-surface contract is compile-time (widx::sw::ProbeSurface
// static_asserts in probers.hh / sharded_index.cc); assert it here
// too so a contract break fails this suite even if those TUs move.
static_assert(ProbeSurface<db::HashIndex>);
static_assert(ProbeSurface<ShardedIndex>);
