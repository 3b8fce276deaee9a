/**
 * @file
 * Tests for the software walkers: every prober and every pipeline
 * variant (inline vs batched dispatch, tagged vs untagged buckets)
 * must produce the exact match multiset of the scalar reference,
 * across widths, layouts (direct and indirect keys), and key
 * distributions (uniform and Zipf-skewed), via a parameterized
 * property suite.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/arena.hh"
#include "common/rng.hh"
#include "swwalkers/probers.hh"
#include "workload/distributions.hh"

using namespace widx;
using namespace widx::sw;

namespace {

struct Dataset
{
    Arena arena;
    std::unique_ptr<db::HashIndex> index;
    std::vector<u64> keys;

    Dataset(u64 tuples, u64 probes, bool indirect, double zipf_theta,
            u64 seed)
    {
        Rng rng(seed);
        auto build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::uniformKeys(tuples, tuples / 2 + 1, rng))
            build->push(k); // duplicates on purpose
        db::IndexSpec spec;
        spec.buckets = tuples / 2;
        spec.indirectKeys = indirect;
        index = std::make_unique<db::HashIndex>(spec, arena);
        index->buildFromColumn(*build);
        buildKeep = std::move(build);
        keys = zipf_theta > 0.0
                   ? wl::zipfKeys(probes, tuples / 2 + 1, zipf_theta,
                                  rng)
                   : wl::uniformKeys(probes, tuples / 2 + 1, rng);
    }

    std::unique_ptr<db::Column> buildKeep;
};

/** (key, payload) multiset plus a check that the reported span
 *  position i actually indexes the emitted key. */
using Matches = std::multiset<std::pair<u64, u64>>;

struct Collector
{
    Matches matches;
    std::span<const u64> keys;
    bool positionsOk = true;

    void
    operator()(std::size_t i, u64 key, u64 payload)
    {
        matches.insert({key, payload});
        if (i >= keys.size() || keys[i] != key)
            positionsOk = false;
    }
};

} // namespace

struct ProberCase
{
    bool indirect;
    double zipf;
    unsigned width;
    unsigned batch; ///< dispatcher batch; 0 = inline hashing
    bool tagged;
};

class ProberEquivalence
    : public ::testing::TestWithParam<ProberCase>
{
};

TEST_P(ProberEquivalence, AllSchedulesAgreeWithScalar)
{
    const ProberCase &c = GetParam();
    Dataset d(2000, 5000, c.indirect, c.zipf, 42 + c.width);

    // Reference: inline, untagged Listing 1 loop.
    Collector ref;
    ref.keys = d.keys;
    ScalarProber scalar(*d.index, {.batch = 0, .tagged = false});
    const u64 n_ref = scalar.probeAll(d.keys, std::ref(ref));
    EXPECT_EQ(n_ref, ref.matches.size());
    EXPECT_TRUE(ref.positionsOk);

    const PipelineConfig cfg{.batch = c.batch, .tagged = c.tagged};

    auto check = [&](auto &&prober, const char *name) {
        Collector got;
        got.keys = d.keys;
        EXPECT_EQ(prober.probeAll(d.keys, std::ref(got)), n_ref)
            << name;
        EXPECT_EQ(got.matches, ref.matches) << name;
        EXPECT_TRUE(got.positionsOk) << name;
    };

    check(ScalarProber(*d.index, cfg), "scalar");
    check(AmacProber(*d.index, c.width, cfg), "amac");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProberEquivalence,
    ::testing::Values(
        // Inline (unbatched) schedules, tagged and untagged.
        ProberCase{false, 0.0, 1, 0, false},
        ProberCase{false, 0.0, 4, 0, true},
        ProberCase{true, 0.0, 4, 0, true},
        // Batched dispatch at several batch sizes and widths.
        ProberCase{false, 0.0, 4, 8, true},
        ProberCase{false, 0.0, 16, 64, true},
        ProberCase{false, 0.0, 16, 64, false},
        ProberCase{true, 0.0, 4, 64, true},
        ProberCase{true, 0.0, 8, 256, true},
        // Zipf-skewed probes (hot buckets, repeated keys), both
        // layouts, batched and inline.
        ProberCase{false, 0.8, 4, 0, true},
        ProberCase{false, 0.8, 4, 64, true},
        ProberCase{true, 0.8, 7, 64, true},
        ProberCase{true, 0.99, 8, 32, false}));

TEST(Probers, EmptyKeySetYieldsNoMatches)
{
    Dataset d(100, 0, false, 0.0, 1);
    EXPECT_EQ(ScalarProber(*d.index).probeAll(d.keys), 0u);
    EXPECT_EQ(AmacProber(*d.index, 4).probeAll(d.keys), 0u);
}

TEST(Probers, WidthLargerThanKeyCount)
{
    Dataset d(64, 3, false, 0.0, 2);
    const u64 ref = ScalarProber(*d.index).probeAll(d.keys);
    EXPECT_EQ(AmacProber(*d.index, 32).probeAll(d.keys), ref);
}

TEST(Probers, MissingKeysProduceNoMatches)
{
    Arena arena;
    db::Column build("b", db::ValueKind::U64, arena, 100);
    for (u64 i = 1; i <= 100; ++i)
        build.push(i);
    db::IndexSpec spec;
    spec.buckets = 128;
    db::HashIndex idx(spec, arena);
    idx.buildFromColumn(build);
    std::vector<u64> misses;
    for (u64 i = 1000; i < 1100; ++i)
        misses.push_back(i);
    for (bool tagged : {false, true}) {
        PipelineConfig cfg{.batch = 64, .tagged = tagged};
        EXPECT_EQ(ScalarProber(idx, cfg).probeAll(misses), 0u);
        EXPECT_EQ(AmacProber(idx, 4, cfg).probeAll(misses), 0u);
    }
}
