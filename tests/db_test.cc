/**
 * @file
 * Unit and property tests for the mini-DBMS substrate: columns,
 * hash-function IR, hash index invariants, and operators.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "db/aggregate.hh"
#include "db/hash_join.hh"
#include "db/plan.hh"
#include "db/scan.hh"
#include "db/sort.hh"
#include "service/index_service.hh"

using namespace widx;
using namespace widx::db;

TEST(Column, PushAtAndAddresses)
{
    Arena arena;
    Column c("c", ValueKind::U64, arena, 10);
    for (u64 i = 0; i < 10; ++i)
        c.push(i * 3);
    EXPECT_EQ(c.size(), 10u);
    EXPECT_EQ(c.at(7), 21u);
    EXPECT_EQ(c.addrOf(3) - c.addrOf(0), 24u);
    EXPECT_EQ(c.bytes(), 80u);
}

TEST(Column, U32ColumnsPackTighter)
{
    Arena arena;
    Column c("c", ValueKind::U32, arena, 4);
    c.push(0xAABBCCDDEE); // truncates to 32 bits
    EXPECT_EQ(c.at(0), 0xBBCCDDEEu);
    EXPECT_EQ(c.addrOf(1) - c.addrOf(0), 4u);
}

TEST(Column, F64BitPatternRoundTrip)
{
    Arena arena;
    Column c("c", ValueKind::F64, arena, 2);
    c.push(f64Bits(3.25));
    EXPECT_DOUBLE_EQ(bitsF64(c.at(0)), 3.25);
}

TEST(Table, ColumnRegistryAndRows)
{
    Arena arena;
    Table t("t");
    Column &a = t.addColumn("a", ValueKind::U64, arena, 5);
    t.addColumn("b", ValueKind::U64, arena, 5);
    a.push(1);
    a.push(2);
    EXPECT_TRUE(t.hasColumn("a"));
    EXPECT_FALSE(t.hasColumn("z"));
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.column("a").size(), 2u);
}

TEST(HashFn, PresetsAreDeterministicAndDiffer)
{
    HashFn k = HashFn::kernelMaskXor();
    HashFn m = HashFn::monetdbRobust();
    HashFn f = HashFn::fibonacciShiftAdd();
    HashFn d = HashFn::doubleKey();
    EXPECT_EQ(k(12345), k(12345));
    std::set<u64> outs{k(12345), m(12345), f(12345), d(12345)};
    EXPECT_EQ(outs.size(), 4u);
    EXPECT_EQ(k.compOps(), 2u);
    EXPECT_EQ(m.compOps(), 6u);
    EXPECT_EQ(f.compOps(), 8u);
    EXPECT_EQ(d.compOps(), 12u);
}

TEST(HashFn, KernelHashMatchesListing1)
{
    // HASH(X) = ((X & MASK) ^ HPRIME) with MASK/HPRIME from the IR.
    HashFn k = HashFn::kernelMaskXor();
    const u64 mask = k.steps()[0].constant;
    const u64 prime = k.steps()[1].constant;
    for (u64 x : {0ull, 1ull, 0xFFFFull, 0x123456789ull})
        EXPECT_EQ(k(x), (x & mask) ^ prime);
}

/** Property: every preset spreads dense keys well across buckets. */
class HashQuality : public ::testing::TestWithParam<int>
{
};

TEST_P(HashQuality, DenseKeysSpreadUniformly)
{
    HashFn fn = GetParam() == 0   ? HashFn::kernelMaskXor()
                : GetParam() == 1 ? HashFn::monetdbRobust()
                : GetParam() == 2 ? HashFn::fibonacciShiftAdd()
                                  : HashFn::doubleKey();
    const u64 buckets = 1024;
    const u64 n = 64 * buckets;
    std::vector<u32> load(buckets, 0);
    for (u64 k = 1; k <= n; ++k) {
        u64 key = GetParam() == 3 ? f64Bits(double(k) * 1.25) : k;
        ++load[fn(key) & (buckets - 1)];
    }
    // Chi-squared-ish check: no bucket more than 3x the mean.
    for (u64 b = 0; b < buckets; ++b)
        ASSERT_LE(load[b], 3 * 64u) << fn.name() << " bucket " << b;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, HashQuality,
                         ::testing::Range(0, 4));

class BatchHash : public ::testing::TestWithParam<int>
{
};

/** hashBatch (the vectorized dispatcher kernel) must agree with the
 *  scalar operator() for every preset. */
TEST_P(BatchHash, AgreesWithScalarHash)
{
    const HashFn fn = GetParam() == 0   ? HashFn::kernelMaskXor()
                      : GetParam() == 1 ? HashFn::monetdbRobust()
                      : GetParam() == 2 ? HashFn::fibonacciShiftAdd()
                                        : HashFn::doubleKey();
    Rng rng(7 + GetParam());
    std::vector<u64> keys(257); // deliberately not a batch multiple
    for (u64 &k : keys)
        k = rng.next();
    std::vector<u64> hashes(keys.size());
    fn.hashBatch(keys, hashes);
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(hashes[i], fn(keys[i])) << "key index " << i;
}

/** hashBatch supports in-place hashing (out aliases keys). */
TEST_P(BatchHash, InPlaceAliasing)
{
    const HashFn fn = GetParam() % 2 ? HashFn::monetdbRobust()
                                     : HashFn::doubleKey();
    Rng rng(11 + GetParam());
    std::vector<u64> keys(64);
    for (u64 &k : keys)
        k = rng.next();
    std::vector<u64> expected(keys.size());
    fn.hashBatch(keys, expected);
    fn.hashBatch(keys, keys); // in place
    EXPECT_EQ(keys, expected);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, BatchHash,
                         ::testing::Range(0, 4));

TEST(HashIndex, InsertAndLookup)
{
    Arena arena;
    IndexSpec spec;
    spec.buckets = 64;
    HashIndex idx(spec, arena);
    idx.insert(10, 100);
    idx.insert(20, 200);
    EXPECT_EQ(idx.lookup(10), 100u);
    EXPECT_EQ(idx.lookup(20), 200u);
    EXPECT_EQ(idx.lookup(30), kNotFound);
    EXPECT_EQ(idx.entries(), 2u);
}

TEST(HashIndex, DuplicateKeysAllMatch)
{
    Arena arena;
    IndexSpec spec;
    spec.buckets = 16;
    HashIndex idx(spec, arena);
    for (u64 p = 0; p < 5; ++p)
        idx.insert(7, p);
    std::multiset<u64> payloads;
    u64 n = idx.probe(7, [&](u64 p) { payloads.insert(p); });
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(payloads.size(), 5u);
    EXPECT_EQ(*payloads.begin(), 0u);
}

TEST(HashIndex, IndirectKeysResolveThroughColumn)
{
    Arena arena;
    Column keys("k", ValueKind::U64, arena, 100);
    for (u64 i = 0; i < 100; ++i)
        keys.push(i * 7 + 1);
    IndexSpec spec;
    spec.buckets = 128;
    spec.indirectKeys = true;
    HashIndex idx(spec, arena);
    idx.buildFromColumn(keys);
    for (u64 i = 0; i < 100; ++i)
        EXPECT_EQ(idx.lookup(i * 7 + 1), i);
    EXPECT_EQ(idx.lookup(5), kNotFound);
}

TEST(HashIndex, BucketArrayIsCacheLineAligned)
{
    Arena arena;
    IndexSpec spec;
    spec.buckets = 8;
    HashIndex idx(spec, arena);
    EXPECT_EQ(idx.bucketArrayAddr() % kCacheBlockBytes, 0u);
    EXPECT_EQ(idx.tagArrayAddr() % kCacheBlockBytes, 0u);
}

/** The tag filter must never produce a false negative: every
 *  inserted key's bucket passes tagMayMatch for that key's hash. */
TEST(HashIndex, TagFilterHasNoFalseNegatives)
{
    Rng rng(5);
    Arena arena;
    IndexSpec spec;
    spec.buckets = 128;
    HashIndex idx(spec, arena);
    std::vector<u64> keys;
    for (int i = 0; i < 1000; ++i) {
        const u64 key = 1 + rng.below(5000);
        idx.insert(key, u64(i));
        keys.push_back(key);
    }
    for (u64 key : keys) {
        const u64 h = idx.hashKey(key);
        EXPECT_TRUE(idx.tagMayMatch(h & idx.bucketMask(), h));
    }
}

/** The fingerprint must not collapse to a single bit. Mixing
 *  hashes get all 8 bits; even Listing 1's near-identity MASK/XOR
 *  hash (32 significant bits, no avalanche) must spread dense keys
 *  over several fingerprints, not degenerate to an emptiness
 *  check on small tables. */
TEST(HashIndex, TagFingerprintSpreadsForNarrowHashes)
{
    for (const HashFn &fn :
         {HashFn::monetdbRobust(), HashFn::fibonacciShiftAdd(),
          HashFn::doubleKey()}) {
        std::set<u8> bits;
        for (u64 k = 1; k <= 512; ++k)
            bits.insert(HashIndex::tagOf(fn(k)));
        EXPECT_EQ(bits.size(), 8u) << fn.name();
    }
    // Dense keys at the kernel workload's scale (>= 4K tuples).
    const HashFn kernel = HashFn::kernelMaskXor();
    std::set<u8> bits;
    for (u64 k = 1; k <= 8192; ++k)
        bits.insert(HashIndex::tagOf(kernel(k)));
    EXPECT_EQ(bits.size(), 8u) << kernel.name();
}

/** The batched fingerprint filter — AVX2-dispatched and scalar —
 *  must agree bit-for-bit with the per-key tag check, including at
 *  non-multiple-of-4 lengths (the SIMD kernel's tail) and at the
 *  very end of the tag array (the gather's padded overread). */
TEST(HashIndex, TagFilterBatchAgreesWithPerKeyCheck)
{
    Rng rng(12);
    Arena arena;
    IndexSpec spec;
    spec.buckets = 512;
    HashIndex idx(spec, arena);
    for (int i = 0; i < 400; ++i)
        idx.insert(1 + rng.below(600), u64(i));

    for (std::size_t n : {std::size_t(1), std::size_t(3),
                          std::size_t(64), std::size_t(257),
                          std::size_t(1024)}) {
        std::vector<u64> hashes(n);
        for (std::size_t i = 0; i < n; ++i)
            hashes[i] = idx.hashKey(1 + rng.below(1200));
        // Force some hashes onto the last bucket so the AVX2 gather
        // exercises the padded tail of the tag array.
        if (n >= 4)
            hashes[n - 1] |= idx.bucketMask();

        std::vector<u64> bits((n + 63) / 64, ~u64(0));
        std::vector<u64> bits_scalar((n + 63) / 64, ~u64(0));
        const u64 got = idx.tagFilterBatch(hashes.data(), n,
                                           bits.data());
        const u64 got_scalar = idx.tagFilterBatchScalar(
            hashes.data(), n, bits_scalar.data());
        ASSERT_EQ(got, got_scalar) << "n " << n;

        u64 want = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const bool may =
                idx.tagMayMatch(hashes[i] & idx.bucketMask(),
                                hashes[i]);
            want += may;
            ASSERT_EQ(bool(bits[i >> 6] >> (i & 63) & 1), may)
                << "n " << n << " i " << i;
            ASSERT_EQ(bits[i >> 6], bits_scalar[i >> 6]);
        }
        ASSERT_EQ(got, want) << "n " << n;
    }
}

/** tagFilterBatch feeds the adaptive-tagging stats; the
 *  recommendation follows the observed reject rate once the sample
 *  is large enough (and honors the fallback before that). */
TEST(HashIndex, TagFilterStatsDriveAdaptiveRecommendation)
{
    Rng rng(13);
    Arena arena;
    IndexSpec spec;
    spec.buckets = 1024;
    HashIndex idx(spec, arena);
    for (u64 k = 1; k <= 1024; ++k)
        idx.insert(k, k);

    // Cold: no sample yet, recommendation echoes the fallback.
    EXPECT_TRUE(idx.taggedWorthwhile(true));
    EXPECT_FALSE(idx.taggedWorthwhile(false));

    u64 bits[HashIndex::kMaxProbeBatch / 64];
    u64 hashes[HashIndex::kMaxProbeBatch];

    // Hit-dominated sweeps: every key present, nothing rejected.
    for (int round = 0;
         round * HashIndex::kMaxProbeBatch <
         TagFilterStats::kMinSampleKeys;
         ++round) {
        for (std::size_t i = 0; i < HashIndex::kMaxProbeBatch; ++i)
            hashes[i] = idx.hashKey(1 + rng.below(1024));
        idx.tagFilterBatch(hashes, HashIndex::kMaxProbeBatch, bits);
    }
    EXPECT_GE(idx.tagStats().keys(),
              TagFilterStats::kMinSampleKeys);
    EXPECT_LT(idx.tagStats().rejectRate(), 0.05);
    EXPECT_FALSE(idx.taggedWorthwhile(true)); // filter off

    // Miss-heavy sweeps swing the recommendation back on.
    idx.tagStats().reset();
    for (int round = 0;
         round * HashIndex::kMaxProbeBatch <
         TagFilterStats::kMinSampleKeys;
         ++round) {
        for (std::size_t i = 0; i < HashIndex::kMaxProbeBatch; ++i)
            hashes[i] = idx.hashKey(100000 + rng.below(100000));
        idx.tagFilterBatch(hashes, HashIndex::kMaxProbeBatch, bits);
    }
    EXPECT_GT(idx.tagStats().rejectRate(), 0.3);
    EXPECT_TRUE(idx.taggedWorthwhile(false)); // filter on
}

/** Exponential aging is idempotent per window: exactly one halving
 *  per kWindowKeys of lifetime traffic, however the sweeps land. */
TEST(HashIndex, TagFilterStatsAgingIsIdempotent)
{
    TagFilterStats stats;

    // Single-threaded reference: one crossing, one halving.
    stats.note(TagFilterStats::kWindowKeys, 0);
    EXPECT_EQ(stats.agings(), 1u);
    EXPECT_EQ(stats.keys(), TagFilterStats::kWindowKeys / 2);

    // A second window crossing ages exactly once more.
    stats.note(TagFilterStats::kWindowKeys, 0);
    EXPECT_EQ(stats.agings(), 2u);
    EXPECT_EQ(stats.keys(),
              (TagFilterStats::kWindowKeys / 2 +
               TagFilterStats::kWindowKeys) /
                  2);
}

/** The TSan-raced version of the aging test: threads that cross the
 *  window boundary concurrently must age the counters exactly once
 *  per window (the old racy halving could halve twice, quartering
 *  the counters), and the observed reject rate must survive aging.
 *  Raced under the CI TSan job. */
TEST(HashIndex, TagFilterStatsAgingRacesHalveOncePerWindow)
{
    TagFilterStats stats;
    constexpr unsigned kThreads = 4;
    constexpr unsigned kNotesPerThread = 64;
    // Each note lands half a window with a 50% reject rate, so
    // every second note (somewhere) crosses a window boundary and
    // several threads routinely cross the same one together.
    constexpr u64 kNoteKeys = TagFilterStats::kWindowKeys / 2;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kNotesPerThread; ++i)
                stats.note(kNoteKeys, kNoteKeys / 2);
        });
    for (auto &t : threads)
        t.join();

    const u64 lifetime = u64(kThreads) * kNotesPerThread * kNoteKeys;
    // Idempotency: agings is exactly lifetime / window, not "at
    // least" — a double halving would need a second epoch bump.
    EXPECT_EQ(stats.agings(),
              lifetime / TagFilterStats::kWindowKeys);
    // Aging halves keys and rejects together, so the steered-by
    // signal — the reject rate — stays at the true 50% (store/add
    // races may lose boundary increments; allow a small wobble).
    EXPECT_NEAR(stats.rejectRate(), 0.5, 0.05);
    // And the counters stay within one window of traffic instead of
    // collapsing toward zero under repeated double-halving.
    EXPECT_LE(stats.keys(), 2 * TagFilterStats::kWindowKeys);
    EXPECT_GE(stats.keys(), TagFilterStats::kWindowKeys / 4);
}

/** Empty buckets carry tag 0 and reject every probe with the one
 *  byte load; tagged and untagged probes agree everywhere. */
TEST(HashIndex, TaggedAndUntaggedProbesAgree)
{
    Rng rng(6);
    Arena arena;
    IndexSpec spec;
    spec.buckets = 512;
    HashIndex idx(spec, arena);
    for (int i = 0; i < 300; ++i)
        idx.insert(1 + rng.below(400), u64(i));
    for (u64 key = 1; key <= 1200; ++key) {
        const u64 h = idx.hashKey(key);
        u64 tagged = idx.probeHashed(key, h, [](u64) {}, true);
        u64 untagged = idx.probeHashed(key, h, [](u64) {}, false);
        ASSERT_EQ(tagged, untagged) << "key " << key;
    }
}

/** probeBatch must emit the same (position, payload) stream as the
 *  per-key probe loop, across batch sizes and layouts. */
TEST(HashIndex, ProbeBatchMatchesScalarProbe)
{
    Rng rng(9);
    Arena arena;
    Column build("b", ValueKind::U64, arena, 600);
    for (int i = 0; i < 600; ++i)
        build.push(1 + rng.below(300));
    for (bool indirect : {false, true}) {
        IndexSpec spec;
        spec.buckets = 256;
        spec.indirectKeys = indirect;
        HashIndex idx(spec, arena);
        idx.buildFromColumn(build);

        std::vector<u64> probes;
        for (int i = 0; i < 997; ++i)
            probes.push_back(1 + rng.below(400));

        std::vector<std::pair<std::size_t, u64>> want;
        u64 want_n = 0;
        for (std::size_t i = 0; i < probes.size(); ++i)
            want_n += idx.probe(probes[i], [&](u64 p) {
                want.push_back({i, p});
            });

        for (std::size_t batch : {1u, 7u, 64u, 1024u}) {
            for (bool tagged : {false, true}) {
                std::vector<std::pair<std::size_t, u64>> got;
                u64 got_n = idx.probeBatch(
                    probes,
                    [&](std::size_t i, u64 key, u64 p) {
                        EXPECT_EQ(key, probes[i]);
                        got.push_back({i, p});
                    },
                    tagged, batch);
                ASSERT_EQ(got_n, want_n);
                ASSERT_EQ(got, want)
                    << "batch " << batch << " tagged " << tagged;
            }
        }
    }
}

/** Property: for random builds, probe() agrees with a std::multimap
 *  oracle, and depth statistics are consistent. */
class IndexOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(IndexOracle, MatchesMultimap)
{
    Rng rng(GetParam());
    Arena arena;
    IndexSpec spec;
    spec.buckets = 256;
    spec.hashFn = GetParam() % 2 ? HashFn::monetdbRobust()
                                 : HashFn::fibonacciShiftAdd();
    HashIndex idx(spec, arena);
    std::multimap<u64, u64> oracle;
    for (int i = 0; i < 2000; ++i) {
        u64 key = 1 + rng.below(500);
        idx.insert(key, u64(i));
        oracle.insert({key, u64(i)});
    }
    for (u64 key = 1; key <= 500; ++key) {
        std::multiset<u64> got;
        idx.probe(key, [&](u64 p) { got.insert(p); });
        auto [lo, hi] = oracle.equal_range(key);
        std::multiset<u64> want;
        for (auto it = lo; it != hi; ++it)
            want.insert(it->second);
        ASSERT_EQ(got, want) << "key " << key;
    }
    EXPECT_EQ(idx.entries(), 2000u);
    EXPECT_GE(idx.maxBucketDepth(), u64(idx.avgBucketDepth()));
    EXPECT_GT(idx.footprintBytes(),
              idx.numBuckets() * sizeof(HashIndex::Bucket));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexOracle, ::testing::Range(1, 6));

TEST(Scan, SelectCountGather)
{
    Arena arena;
    Column c("c", ValueKind::U64, arena, 10);
    for (u64 i = 0; i < 10; ++i)
        c.push(i);
    RangePredicate pred{3, 6};
    std::vector<RowId> rows = scanSelect(c, pred);
    EXPECT_EQ(rows.size(), 4u);
    EXPECT_EQ(scanCount(c, pred), 4u);
    std::vector<u64> vals = scanGather(c, rows);
    EXPECT_EQ(vals, (std::vector<u64>{3, 4, 5, 6}));
}

TEST(HashJoin, MatchesNestedLoopOracle)
{
    Rng rng(3);
    Arena arena;
    Column build("b", ValueKind::U64, arena, 200);
    Column probe("p", ValueKind::U64, arena, 500);
    for (int i = 0; i < 200; ++i)
        build.push(1 + rng.below(100));
    for (int i = 0; i < 500; ++i)
        probe.push(1 + rng.below(150));

    IndexSpec spec;
    spec.buckets = 256;
    JoinResult jr = hashJoin(build, probe, spec, arena, true);

    u64 oracle = 0;
    for (RowId b = 0; b < build.size(); ++b)
        for (RowId p = 0; p < probe.size(); ++p)
            if (build.at(b) == probe.at(p))
                ++oracle;
    EXPECT_EQ(jr.matches, oracle);
    EXPECT_EQ(jr.pairs.size(), oracle);
    EXPECT_EQ(jr.probes, 500u);
}

TEST(HashJoin, ServiceProbeAgreesWithSingleThread)
{
    Rng rng(17);
    Arena arena;
    Column build("b", ValueKind::U64, arena, 4096);
    Column probe("p", ValueKind::U64, arena, 20000);
    for (int i = 0; i < 4096; ++i)
        build.push(1 + rng.below(2048));
    for (int i = 0; i < 20000; ++i)
        probe.push(1 + rng.below(4096)); // ~half the probes miss

    IndexSpec spec;
    spec.buckets = 4096;
    JoinResult ref = hashJoin(build, probe, spec, arena, true);

    auto pairMultiset = [](const JoinResult &jr) {
        std::multiset<std::pair<u64, u64>> m;
        for (const JoinPair &p : jr.pairs)
            m.insert({p.buildRow, p.probeRow});
        return m;
    };
    const auto refPairs = pairMultiset(ref);

    HashIndex idx(spec, arena);
    idx.buildFromColumn(build);
    for (unsigned walkers : {2u, 4u})
        for (bool tagged : {false, true}) {
            sw::ServiceConfig cfg;
            cfg.walkers = walkers;
            cfg.pipeline.tagged = tagged;
            sw::IndexService service(idx, cfg);
            JoinResult jr = probeAll(service, probe, true);
            EXPECT_EQ(jr.matches, ref.matches);
            EXPECT_EQ(pairMultiset(jr), refPairs);
        }
}

TEST(HashJoin, ServiceProbeWidensNarrowProbeColumns)
{
    Rng rng(23);
    Arena arena;
    Column build("b", ValueKind::U64, arena, 512);
    Column probe("p", ValueKind::U32, arena, 5000);
    for (int i = 0; i < 512; ++i)
        build.push(1 + rng.below(256));
    for (int i = 0; i < 5000; ++i)
        probe.push(1 + rng.below(512));

    IndexSpec spec;
    spec.buckets = 512;
    HashIndex idx(spec, arena);
    idx.buildFromColumn(build);

    JoinResult ref = probeAll(idx, probe, true);
    sw::ServiceConfig cfg;
    cfg.walkers = 3;
    sw::IndexService service(idx, cfg);
    JoinResult got = probeAll(service, probe, true);
    EXPECT_EQ(got.matches, ref.matches);
    EXPECT_EQ(got.probes, ref.probes);

    std::multiset<std::pair<u64, u64>> refm, gotm;
    for (const JoinPair &p : ref.pairs)
        refm.insert({p.buildRow, p.probeRow});
    for (const JoinPair &p : got.pairs)
        gotm.insert({p.buildRow, p.probeRow});
    EXPECT_EQ(gotm, refm);
}

TEST(Sort, SortRowsAndValues)
{
    Arena arena;
    Column c("c", ValueKind::U64, arena, 5);
    for (u64 v : {5ull, 1ull, 4ull, 2ull, 3ull})
        c.push(v);
    std::vector<u64> vals = sortValues(c);
    EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
    std::vector<RowId> rows = sortRows(c);
    EXPECT_EQ(c.at(rows[0]), 1u);
    EXPECT_EQ(c.at(rows[4]), 5u);
}

TEST(Sort, SortMergeJoinAgreesWithHashJoin)
{
    Rng rng(5);
    Arena arena;
    Column l("l", ValueKind::U64, arena, 300);
    Column r("r", ValueKind::U64, arena, 400);
    for (int i = 0; i < 300; ++i)
        l.push(1 + rng.below(80));
    for (int i = 0; i < 400; ++i)
        r.push(1 + rng.below(80));
    IndexSpec spec;
    spec.buckets = 128;
    JoinResult hj = hashJoin(l, r, spec, arena, false);
    JoinResult smj = sortMergeJoin(l, r, false);
    EXPECT_EQ(hj.matches, smj.matches);
}

TEST(Aggregate, SumMaxGroupDistinct)
{
    Arena arena;
    Column grp("g", ValueKind::U64, arena, 6);
    Column val("v", ValueKind::U64, arena, 6);
    for (u64 i = 0; i < 6; ++i) {
        grp.push(i % 2);
        val.push(i);
    }
    std::vector<RowId> all{0, 1, 2, 3, 4, 5};
    EXPECT_EQ(aggregateSum(val, all), 15u);
    EXPECT_EQ(aggregateMax(val, all), 5u);
    auto groups = groupBySum(grp, val, all);
    EXPECT_EQ(groups[0], 0u + 2 + 4);
    EXPECT_EQ(groups[1], 1u + 3 + 5);
    EXPECT_EQ(countDistinct(grp, all), 2u);
}

TEST(Plan, BreakdownFractionsSumToOne)
{
    db::PlanBreakdown bd;
    bd.add(OpClass::Index, 2.0);
    bd.add(OpClass::Scan, 1.0);
    bd.add(OpClass::SortJoin, 0.5);
    bd.add(OpClass::Other, 0.5);
    EXPECT_DOUBLE_EQ(bd.total(), 4.0);
    double sum = 0.0;
    for (auto c : {OpClass::Index, OpClass::Scan, OpClass::SortJoin,
                   OpClass::Other})
        sum += bd.fraction(c);
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(bd.fraction(OpClass::Index), 0.5);
}
