/**
 * @file
 * Unit tests for the common substrate: stats, RNG, arena, fixed
 * queue, bit operations, table printer.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <set>

#include "common/arena.hh"
#include "common/bitops.hh"
#include "common/fixed_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"

using namespace widx;

TEST(Stats, MeanGeomeanHarmean)
{
    std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_NEAR(harmean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, StddevOfConstantIsZero)
{
    EXPECT_DOUBLE_EQ(stddev({5.0, 5.0, 5.0}), 0.0);
    EXPECT_NEAR(stddev({1.0, 3.0}), 1.0, 1e-12);
}

TEST(Stats, SummaryTracksMinMaxAvg)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    s.sample(4.0);
    s.sample(2.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.avg(), 4.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, HistogramBucketsAndCdf)
{
    Histogram h(4, 10.0);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(1000.0); // clamps into the last bucket
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 0.75);
    EXPECT_DOUBLE_EQ(h.cdfAt(3), 1.0);
}

TEST(Stats, StatSetCountersAndRatios)
{
    StatSet s;
    s.inc("hits", 3);
    s.inc("hits");
    s.set("misses", 2);
    EXPECT_EQ(s.get("hits"), 4u);
    EXPECT_EQ(s.get("absent"), 0u);
    EXPECT_DOUBLE_EQ(s.ratio("misses", "hits"), 0.5);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "absent"), 0.0);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng r(9);
    double min = 1.0;
    double max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        min = std::min(min, u);
        max = std::max(max, u);
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Arena, AllocationsAreZeroedAndAligned)
{
    Arena arena(4096);
    for (std::size_t align : {8u, 16u, 64u, 256u}) {
        auto *p = static_cast<unsigned char *>(
            arena.allocateBytes(100, align));
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(p[i], 0);
    }
}

TEST(Arena, ObjectsSurviveChunkGrowth)
{
    Arena arena(1024);
    std::vector<u64 *> ptrs;
    for (u64 i = 0; i < 1000; ++i)
        ptrs.push_back(arena.make<u64>(i));
    for (u64 i = 0; i < 1000; ++i)
        EXPECT_EQ(*ptrs[i], i);
    EXPECT_GT(arena.reservedBytes(), arena.allocatedBytes() / 2);
}

TEST(Arena, LargeAllocationExceedingChunk)
{
    Arena arena(1024);
    auto *big = arena.makeArray<u64>(10000);
    big[9999] = 42;
    EXPECT_EQ(big[9999], 42u);
}

namespace {

/** True while the page holding p is mapped (mincore fails with
 *  ENOMEM on an unmapped range). */
bool
pageMapped(const void *p)
{
    const std::uintptr_t page = std::uintptr_t(sysconf(_SC_PAGESIZE));
    unsigned char resident;
    return mincore(reinterpret_cast<void *>(
                       reinterpret_cast<std::uintptr_t>(p) &
                       ~(page - 1)),
                   page, &resident) == 0;
}

bool
allZero(const unsigned char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (p[i] != 0)
            return false;
    return true;
}

} // namespace

TEST(Arena, ZeroedAcrossChunksAndInOneHugeAllocation)
{
    constexpr std::size_t kChunk = 64u << 10;
    Arena arena(kChunk);
    // Each block fills a chunk, so four blocks take four chunks.
    std::set<const unsigned char *> seen;
    for (int i = 0; i < 4; ++i) {
        auto *p = static_cast<unsigned char *>(
            arena.allocateBytes(kChunk - 64, 64));
        EXPECT_TRUE(allZero(p, kChunk - 64)) << "block " << i;
        std::memset(p, 0xff, kChunk - 64);
        seen.insert(p);
    }
    EXPECT_EQ(seen.size(), 4u);
    // Larger than both the chunk and a 2 MiB huge page: the chunk
    // gets an advised interior and must still read back zero.
    const std::size_t big = (3u << 20) + 123;
    auto *q = static_cast<unsigned char *>(arena.allocateBytes(big));
    EXPECT_TRUE(allZero(q, big));
    std::memset(q, 0xab, big);
    EXPECT_EQ(q[big - 1], 0xab);
    // Accounting counts requested bytes, not page-rounded mappings.
    EXPECT_EQ(arena.allocatedBytes(), 4 * (kChunk - 64) + big);
    EXPECT_EQ(arena.reservedBytes(), 4 * kChunk + big + 8);
}

TEST(Arena, AlignmentUpToAPageSurvivesChunkGrowth)
{
    Arena arena(8192);
    for (int round = 0; round < 8; ++round)
        for (std::size_t align : {8u, 64u, 512u, 4096u}) {
            auto *p = static_cast<unsigned char *>(
                arena.allocateBytes(3000, align));
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
                << "round " << round << " align " << align;
            EXPECT_TRUE(allZero(p, 3000));
            std::memset(p, 1, 3000);
        }
    EXPECT_EQ(arena.allocatedBytes(), 8u * 4u * 3000u);
    EXPECT_GT(arena.reservedBytes(), 3u * 8192u);
}

TEST(Arena, MoveAndReleaseAllUnmapChunks)
{
    Arena a(64u << 10);
    auto *p = a.makeArray<u64>(1000);
    p[999] = 7;
    Arena b(std::move(a));
    EXPECT_EQ(p[999], 7u); // a move keeps the mappings
    EXPECT_EQ(b.allocatedBytes(), 8000u);
    EXPECT_EQ(b.reservedBytes(), 64u << 10);

    Arena c(4096);
    auto *old = c.makeArray<u64>(4);
    EXPECT_TRUE(pageMapped(old));
    c = std::move(b); // c's own chunk goes with its old state
    EXPECT_FALSE(pageMapped(old));
    EXPECT_EQ(p[999], 7u);

    c.releaseAll();
    EXPECT_FALSE(pageMapped(p));
    EXPECT_EQ(c.allocatedBytes(), 0u);
    EXPECT_EQ(c.reservedBytes(), 0u);

    const void *scoped = nullptr;
    {
        Arena d(4096);
        scoped = d.allocateBytes(10);
        EXPECT_TRUE(pageMapped(scoped));
    }
    EXPECT_FALSE(pageMapped(scoped));
}

TEST(ArenaDeathTest, WritePastAChunkFaults)
{
    constexpr std::size_t kChunk = 64u << 10; // whole pages
    Arena arena(kChunk);
    // The first allocation starts at the chunk's mapping, so byte
    // kChunk is the first byte of the guard page.
    auto *p = static_cast<volatile unsigned char *>(
        arena.allocateBytes(kChunk - 8, 8));
    p[kChunk - 1] = 1; // last byte of the mapping: fine
    EXPECT_DEATH(p[kChunk] = 1, "");
}

TEST(FixedQueue, FifoOrderAndCapacity)
{
    FixedQueue<int> q(3);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(4));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.push(5));
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 5);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.peakSize(), 3u);
    EXPECT_EQ(q.totalPushes(), 4u);
}

TEST(FixedQueue, WrapAroundManyTimes)
{
    FixedQueue<u64> q(2);
    for (u64 i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.push(i));
        ASSERT_EQ(q.pop(), i);
    }
}

TEST(BitOps, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(log2Exact(64), 6u);
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(3), 4u);
    EXPECT_EQ(nextPowerOfTwo(4096), 4096u);
}

TEST(BitOps, BitsAndInsertBitsRoundTrip)
{
    u64 v = 0xDEADBEEFCAFEBABEull;
    EXPECT_EQ(bits(v, 7, 0), 0xBEull);
    EXPECT_EQ(bits(v, 63, 56), 0xDEull);
    u64 w = insertBits(0, 15, 8, 0xAB);
    EXPECT_EQ(bits(w, 15, 8), 0xABull);
    EXPECT_EQ(bits(w, 7, 0), 0u);
}

TEST(BitOps, AddressAlignment)
{
    EXPECT_EQ(blockAlign(0x1234567F), 0x12345640u);
    EXPECT_EQ(pageAlign(0x12345678), 0x12345000u);
}

TEST(TablePrinter, CsvAndFormatters)
{
    TablePrinter t("test");
    t.header({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
    EXPECT_EQ(TablePrinter::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::fmtInt(1234567), "1,234,567");
    EXPECT_EQ(TablePrinter::fmtPct(0.125), "12.5%");
}
