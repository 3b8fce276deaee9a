/**
 * @file
 * Robustness suite: randomized inputs must never crash the toolchain
 * or violate model invariants — malformed assembly produces
 * diagnostics, corrupt control blocks are rejected, random
 * instruction words either fail validation or survive an
 * encode/decode round trip, and the memory system preserves its
 * resource invariants under arbitrary access streams.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "accel/control_block.hh"
#include "common/arena.hh"
#include "common/failpoint.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "service/index_service.hh"
#include "sim/mem_system.hh"
#include "workload/distributions.hh"

using namespace widx;

namespace {

/** Trial-count multiplier: WIDX_FUZZ_SCALE=N stretches every fuzz
 *  loop N-fold. PRs run at 1; the weekly CI schedule runs at 20 so
 *  rare inputs surface without taxing per-PR latency. */
int
fuzzScale()
{
    static const int scale = [] {
        const char *env = std::getenv("WIDX_FUZZ_SCALE");
        const int v = env ? std::atoi(env) : 1;
        return v < 1 ? 1 : v;
    }();
    return scale;
}

/** Random printable garbage with assembler-relevant characters. */
std::string
garbageLine(Rng &rng)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 ,#[]+-:rx";
    std::string s;
    const u64 len = rng.below(40);
    for (u64 i = 0; i < len; ++i)
        s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    return s;
}

} // namespace

TEST(Fuzz, AssemblerNeverCrashesOnGarbage)
{
    Rng rng(0xF00D);
    for (int trial = 0; trial < 500 * fuzzScale(); ++trial) {
        std::string src;
        const u64 lines = 1 + rng.below(8);
        for (u64 l = 0; l < lines; ++l) {
            src += garbageLine(rng);
            src += '\n';
        }
        isa::Program prog;
        std::string error;
        bool ok = isa::assemble("fuzz", isa::UnitKind::Dispatcher,
                                src, error, prog);
        if (!ok)
            EXPECT_FALSE(error.empty());
        else {
            // If it assembled, it must disassemble and re-validate
            // structurally (legality may still fail).
            EXPECT_NO_FATAL_FAILURE((void)prog.disassemble());
        }
    }
}

TEST(Fuzz, AssemblerAcceptsValidAfterGarbageRejections)
{
    // The assembler keeps no global state: a failure must not
    // poison a following valid translation.
    isa::Program p;
    std::string err;
    EXPECT_FALSE(isa::assemble("bad", isa::UnitKind::Walker,
                               "ld r1, [r2 +\n", err, p));
    EXPECT_TRUE(isa::assemble("good", isa::UnitKind::Walker,
                              "ld r1, [r2 + 0]\n", err, p))
        << err;
    EXPECT_EQ(p.size(), 1u);
}

TEST(Fuzz, RandomInstructionWordsDecodeOrFailValidation)
{
    Rng rng(0xBEEF);
    for (int trial = 0; trial < 2000 * fuzzScale(); ++trial) {
        // Constrain the opcode field to valid range so decode()
        // succeeds; all other fields are random garbage.
        u64 word = rng.next();
        const u64 op = rng.below(u64(isa::Opcode::NumOpcodes));
        word = (word & ~(0x3Full << 58)) | (op << 58);
        isa::Instruction inst = isa::Instruction::decode(word);
        // Round trip must be stable on the modeled fields.
        isa::Instruction again =
            isa::Instruction::decode(inst.encode());
        EXPECT_EQ(inst, again);
        // Validation must terminate with a verdict (never crash).
        isa::Program prog("fuzz", isa::UnitKind::Producer);
        prog.append(inst);
        std::string error;
        (void)prog.validate(error);
    }
}

TEST(Fuzz, ControlBlockDecoderRejectsRandomWords)
{
    Rng rng(0xCAFE);
    for (int trial = 0; trial < 500 * fuzzScale(); ++trial) {
        std::vector<u64> words(rng.below(64));
        for (u64 &w : words)
            w = rng.next();
        if (!words.empty() && rng.chance(0.5))
            words[0] = accel::kControlBlockMagic;
        std::vector<isa::Program> out;
        std::string error;
        if (!accel::decodeControlBlock(words, error, out)) {
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(Fuzz, ControlBlockBitflipsNeverCrash)
{
    // Corrupt a valid block one word at a time.
    isa::Program d = isa::assembleOrDie(
        "d", isa::UnitKind::Dispatcher,
        "loop: ld r21, [r1 + 0]\nadd r1, r1, r5\nba loop\n");
    std::vector<u64> words = accel::encodeControlBlock({d});
    Rng rng(0xD00D);
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::vector<u64> corrupt = words;
        corrupt[i] ^= u64(1) << rng.below(64);
        std::vector<isa::Program> out;
        std::string error;
        (void)accel::decodeControlBlock(corrupt, error, out);
        // Either rejected with a message or decoded to programs
        // that still validate structurally (flips can be benign).
        if (!out.empty()) {
            for (auto &p : out)
                (void)p.validate(error);
        }
    }
}

TEST(Fuzz, MemSystemInvariantsUnderRandomStream)
{
    Rng rng(0x5EED);
    sim::Params params;
    sim::MemSystem mem(params);
    Cycle now = 0;
    for (int i = 0; i < 20000 * fuzzScale(); ++i) {
        // Stay below both sustained-capacity walls — 2-MC bandwidth
        // (~0.2 blocks/cycle) and MSHR-limited concurrency
        // (10 MSHRs / ~112-cycle fills ~ 0.09 blocks/cycle) — so
        // queueing stays bounded. Sustained oversubscription rightly
        // grows latency without bound (the Section 3.2 walls, Fig.
        // 4b/4c), which would void any constant bound.
        now += 14 + rng.below(8);
        const Addr addr =
            0x7f0000000000ull + rng.below(1u << 26);
        const auto kind =
            rng.chance(0.1)
                ? sim::AccessKind::Prefetch
                : (rng.chance(0.1) ? sim::AccessKind::Store
                                   : sim::AccessKind::Load);
        sim::AccessResult r = mem.access(now, addr, kind);
        if (kind == sim::AccessKind::Load) {
            // Loads can never complete before load-to-use latency.
            ASSERT_GE(r.ready, now + params.l1Latency);
            // And never take longer than a worst-case bound:
            // TLB queue + walk + MSHR drain + memory round trip.
            const Cycle bound =
                now + 2 * params.tlbWalkLatency +
                Cycle(params.l1Mshrs) *
                    (params.dramLatency +
                     params.memCtrlCyclesPerBlock()) +
                4096; // slack for MSHR-drain + queue cascades
            ASSERT_LE(r.ready, bound);
        }
        if (r.level == sim::HitLevel::Dropped) {
            ASSERT_EQ(kind, sim::AccessKind::Prefetch);
        }
    }
    // MSHR occupancy never exceeded its capacity.
    ASSERT_LE(mem.mshrs().peakInflight(), params.l1Mshrs);
}

TEST(Fuzz, CacheStressKeepsLruConsistent)
{
    Rng rng(0xACE);
    sim::Cache cache("fuzz", 4096, 4);
    // Model of the cache's content for a small address universe.
    for (int i = 0; i < 50000 * fuzzScale(); ++i) {
        Addr a = rng.below(256) * kCacheBlockBytes;
        if (rng.chance(0.5)) {
            cache.insert(a);
            ASSERT_TRUE(cache.contains(a));
        } else if (rng.chance(0.2)) {
            cache.invalidate(a);
            ASSERT_FALSE(cache.contains(a));
        } else {
            bool hit = cache.lookup(a);
            ASSERT_EQ(hit, cache.contains(a));
        }
    }
    EXPECT_EQ(cache.hits() + cache.misses(),
              cache.hits() + cache.misses());
}

// ---------------------------------------------------------------------------
// Service under a random failpoint schedule
// ---------------------------------------------------------------------------

/**
 * Random chaos schedule against the index service: every trial draws
 * a service shape (shards, walkers, coalescing), arms a random
 * subset of the service's failpoints with random budgets and
 * delays, fires a burst of concurrent mixed-size requests, and
 * asserts the only thing fault injection is allowed to change is
 * *timing*: every ticket completes, and every Ok result is
 * byte-identical to a flat single-threaded HashIndex::probeBatch
 * over the same keys. Skips itself when the build compiled the
 * failpoints out (the schedule would exercise nothing).
 *
 * WIDX_FUZZ_SCALE stretches the trial count like every other fuzz
 * loop here.
 */
TEST(Fuzz, ServiceSurvivesRandomFailpointSchedules)
{
    if (!fp::enabled())
        GTEST_SKIP() << "built without -DWIDX_FAILPOINTS=ON";

    Rng rng(0xFA11);
    Arena arena;
    const u64 tuples = 4000;
    db::Column build("b", db::ValueKind::U64, arena, tuples);
    for (u64 k : wl::uniformKeys(tuples, tuples / 2 + 1, rng))
        build.push(k); // duplicates on purpose
    db::IndexSpec spec;
    spec.buckets = tuples / 2;
    db::HashIndex flat(spec, arena);
    flat.buildFromColumn(build);
    std::vector<u64> pool =
        wl::uniformKeys(1u << 14, tuples / 2 + 1, rng);

    static const char *const sites[] = {
        "service.walker_stall",
        "service.slow_drain",
        "service.walker_claim_delay",
    };

    for (int trial = 0; trial < 6 * fuzzScale(); ++trial) {
        sw::ServiceConfig cfg;
        cfg.shards = 1u << rng.below(3);
        cfg.walkers = 1 + unsigned(rng.below(4));
        cfg.coalesceTails = rng.chance(0.5);
        sw::IndexService service(build, spec, cfg);

        fp::disarmAll();
        for (const char *site : sites)
            if (rng.chance(0.7))
                fp::arm(site, 1 + rng.below(6),
                        rng.below(3'000'000)); // up to 3 ms a hit

        struct Shot
        {
            sw::ResultTicket ticket;
            std::span<const u64> keys;
        };
        std::vector<Shot> shots;
        for (int r = 0; r < 40; ++r) {
            const std::size_t len = 1 + rng.below(200);
            const std::size_t base =
                rng.below(pool.size() - len);
            std::span<const u64> keys{pool.data() + base, len};
            shots.push_back(Shot{
                service.submit(sw::RequestKind::Probe, keys),
                keys});
        }
        for (Shot &s : shots) {
            const sw::ServiceResult r = s.ticket.get();
            ASSERT_EQ(r.status, sw::Status::Ok);
            std::vector<sw::MatchRec> want;
            flat.probeBatch(
                s.keys, [&](std::size_t i, u64 key, u64 payload) {
                    want.push_back({i, key, payload});
                });
            ASSERT_EQ(r.recs.size(), want.size())
                << "trial " << trial;
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(r.recs[i].i, want[i].i);
                ASSERT_EQ(r.recs[i].key, want[i].key);
                ASSERT_EQ(r.recs[i].payload, want[i].payload);
            }
        }
        fp::disarmAll();
    }
}
