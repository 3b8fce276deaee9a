/**
 * @file
 * Chaos tests: the index service under injected faults
 * (common/failpoint.hh). Every test here arms a failpoint that
 * makes walker timing arbitrarily bad — a walker frozen mid-window,
 * a claim delayed, a drain slowed — and asserts the robustness
 * contract holds anyway:
 *
 *  - every submitted request *completes* (drained Ok, deadline-
 *    failed, or cancelled at shutdown) — a waiter is never hung;
 *  - completed results stay byte-identical to the single-threaded
 *    HashIndex::probeBatch reference — bad timing never changes
 *    answers;
 *  - the watchdog reports the stall (counter + log), and the rest
 *    of the pool keeps serving traffic around the stuck walker;
 *  - the TCP front-end accounts every submission it made, even when
 *    it is stopped halfway through parsing a pipelined burst.
 *
 * The whole suite skips itself unless the build compiled the
 * failpoints in (-DWIDX_FAILPOINTS=ON — the CI chaos job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/failpoint.hh"
#include "common/rng.hh"
#include "db/hash_join.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "service/index_service.hh"
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

    Dataset(u64 tuples, u64 probes, u64 seed)
    {
        Rng rng(seed);
        build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::uniformKeys(tuples, tuples / 2 + 1, rng))
            build->push(k); // duplicates on purpose
        spec.buckets = tuples / 2;
        flat = std::make_unique<db::HashIndex>(spec, arena);
        flat->buildFromColumn(*build);
        keys = wl::uniformKeys(probes, tuples / 2 + 1, rng);
    }
};

std::vector<MatchRec>
refSequence(const db::HashIndex &idx, std::span<const u64> keys)
{
    std::vector<MatchRec> out;
    idx.probeBatch(keys,
                   [&](std::size_t i, u64 key, u64 payload) {
                       out.push_back({i, key, payload});
                   });
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

/** Skip + disarm guard: every chaos test starts and ends clean so
 *  a failed EXPECT cannot leak an armed site into the next test. */
class ChaosTest : public ::testing::Test
{
protected:
    void SetUp() override
    {
        if (!fp::enabled())
            GTEST_SKIP()
                << "built without -DWIDX_FAILPOINTS=ON";
        fp::disarmAll();
    }
    void TearDown() override { fp::disarmAll(); }
};

} // namespace

// ---------------------------------------------------------------------------
// Failpoint mechanism
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, FailpointBudgetFiresExactlyAndSelfDisarms)
{
    const u64 before = fp::hits("chaos.unit");
    fp::arm("chaos.unit", 3, 0);
    for (int i = 0; i < 10; ++i)
        WIDX_FAILPOINT("chaos.unit");
    EXPECT_EQ(fp::hits("chaos.unit") - before, 3u);

    // Disarm drops an unfired budget.
    fp::arm("chaos.unit", 100, 0);
    fp::disarm("chaos.unit");
    WIDX_FAILPOINT("chaos.unit");
    EXPECT_EQ(fp::hits("chaos.unit") - before, 3u);

    // The service's sites are interned (registered) by name even
    // before traffic touches them, because arming registers.
    fp::arm("service.walker_stall", 0, 0);
    fp::disarmAll();
    bool seen = false;
    for (const std::string &n : fp::names())
        seen = seen || n == "service.walker_stall";
    EXPECT_TRUE(seen);
}

// ---------------------------------------------------------------------------
// Stalled walker: the pool drains around it, byte-identically
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, StalledWalkerDoesNotBlockOrCorruptTraffic)
{
    Dataset d(4000, 8000, 11);
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.walkers = 4; // the other three keep claiming from the queue
    cfg.watchdogPeriodNs = 5'000'000;   // 5 ms poll
    cfg.stallThresholdNs = 40'000'000;  // call it stuck at 40 ms
    IndexService service(*d.build, d.spec, cfg);

    // Freeze exactly one claimed window for 250 ms — well past the
    // stall threshold — while the other three walkers keep going.
    const u64 hitsBefore = fp::hits("service.walker_stall");
    fp::arm("service.walker_stall", 1, 250'000'000);

    const std::size_t reqKeys = 96;
    std::vector<ResultTicket> tickets;
    std::vector<std::span<const u64>> spans;
    for (std::size_t base = 0; base + reqKeys <= d.keys.size();
         base += reqKeys) {
        spans.emplace_back(d.keys.data() + base, reqKeys);
        tickets.push_back(
            service.submit(RequestKind::Probe, spans.back()));
    }

    // Every request completes Ok and byte-identical to the flat
    // reference — including the one the frozen walker sat on (late
    // but correct) and everything admitted during the freeze.
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const ServiceResult r = tickets[i].get();
        EXPECT_EQ(r.status, Status::Ok);
        expectSameSequence(r.recs, refSequence(*d.flat, spans[i]),
                           "stalled-walker request");
    }

    EXPECT_EQ(fp::hits("service.walker_stall") - hitsBefore, 1u);
    // The watchdog saw the freeze (once per stuck window, even
    // across several poll periods inside it).
    EXPECT_EQ(service.stats().walkerStalls, 1u);

    // Counted once: the scrape's service total is the sum of its
    // per-walker samples, one per walker.
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    const obs::Snapshot snap = reg.snapshot();
    std::vector<double> perWalker;
    for (const obs::Family &f : snap)
        if (f.name == "widx_walker_stalls_total")
            for (const obs::Sample &s : f.samples)
                perWalker.push_back(s.value);
    ASSERT_EQ(perWalker.size(), cfg.walkers);
    EXPECT_EQ(std::accumulate(perWalker.begin(), perWalker.end(), 0.0),
              obs::snapshotValue(snap, "widx_service_walker_stalls_total"));
    EXPECT_EQ(obs::snapshotValue(snap, "widx_service_walker_stalls_total"),
              1.0);
}

// ---------------------------------------------------------------------------
// Deadlines: a request stuck behind a frozen walker fails fast at
// claim instead of draining past its deadline
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DeadlineExpiresAtClaimBehindStalledWalker)
{
    using namespace std::chrono_literals;
    Dataset d(4000, 1000, 13);
    ServiceConfig cfg;
    cfg.walkers = 1; // one walker: the freeze blocks the only lane
    IndexService service(*d.flat, cfg);

    // First request claims a window and freezes 150 ms.
    fp::arm("service.walker_stall", 1, 150'000'000);
    const std::span<const u64> spanA{d.keys.data(), 512};
    ResultTicket a = service.submit(RequestKind::Probe, spanA);

    // Give the walker a beat to actually claim + enter the freeze,
    // then submit a deadline request that cannot be claimed before
    // its 20 ms budget burns.
    std::this_thread::sleep_for(30ms);
    SubmitOptions opt;
    opt.deadlineNs = monotonicNowNs() + 20'000'000;
    const std::span<const u64> spanB{d.keys.data() + 512, 64};
    ResultTicket b = service.submit(RequestKind::Probe, spanB, opt);

    const ServiceResult ra = a.get();
    const ServiceResult rb = b.get();
    EXPECT_EQ(ra.status, Status::Ok);
    expectSameSequence(ra.recs, refSequence(*d.flat, spanA),
                       "pre-stall request");
    EXPECT_EQ(rb.status, Status::DeadlineExceeded);
    EXPECT_TRUE(rb.recs.empty()); // no partial results leak out

    const ServiceStats s = service.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_GE(s.completedOk, 1u);
}

// ---------------------------------------------------------------------------
// Shutdown under a stall: queued tickets cancel, nothing hangs
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, StopUnderStallCancelsQueuedNeverHangs)
{
    Dataset d(4000, 2000, 17);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);

    // Freeze the walker on its first claim, then pile requests up
    // behind it and stop() mid-freeze. The claimed window must
    // finish draining (its request completes Ok, byte-identical);
    // every still-queued window must complete Cancelled. stop()
    // returning at all is the no-hang assertion.
    fp::arm("service.walker_stall", 1, 120'000'000);
    const std::span<const u64> first{d.keys.data(), 64};
    ResultTicket a = service.submit(RequestKind::Probe, first);

    using namespace std::chrono_literals;
    std::this_thread::sleep_for(20ms);
    std::vector<ResultTicket> queued;
    for (std::size_t base = 64; base + 64 <= 1024; base += 64)
        queued.push_back(service.submit(
            RequestKind::Count, {d.keys.data() + base, 64}));

    service.stop();

    const ServiceResult ra = a.get();
    if (ra.status == Status::Ok)
        expectSameSequence(ra.recs, refSequence(*d.flat, first),
                           "in-flight request at stop()");
    else
        EXPECT_EQ(ra.status, Status::Cancelled);

    u64 cancelled = 0;
    for (ResultTicket &t : queued) {
        using namespace std::chrono_literals;
        // Already complete — stop() guarantees it; 0ns proves it.
        EXPECT_EQ(t.waitFor(0ns), WaitStatus::Ready);
        const ServiceResult r = t.get();
        EXPECT_TRUE(r.status == Status::Cancelled ||
                    r.status == Status::Ok);
        cancelled += r.status == Status::Cancelled;
    }
    EXPECT_EQ(service.stats().cancelled, cancelled);
    EXPECT_GT(cancelled, 0u);
}

// ---------------------------------------------------------------------------
// Slow drains + delayed claims: pure delay, identical answers
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, SlowDrainAndDelayedClaimNeverChangeResults)
{
    Dataset d(2000, 4000, 19);
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    fp::arm("service.slow_drain", 8, 2'000'000);
    fp::arm("service.walker_claim_delay", 8, 1'000'000);

    const std::size_t reqKeys = 128;
    std::vector<ResultTicket> tickets;
    std::vector<std::span<const u64>> spans;
    for (std::size_t base = 0; base + reqKeys <= d.keys.size();
         base += reqKeys) {
        spans.emplace_back(d.keys.data() + base, reqKeys);
        tickets.push_back(
            service.submit(RequestKind::Probe, spans.back()));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const ServiceResult r = tickets[i].get();
        EXPECT_EQ(r.status, Status::Ok);
        expectSameSequence(r.recs, refSequence(*d.flat, spans[i]),
                           "slow-drain request");
    }
    EXPECT_GT(fp::hits("service.slow_drain"), 0u);
}

// ---------------------------------------------------------------------------
// probeAll under out-of-order completion: later slices finish first,
// pairs still come out in slice order
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ProbeAllStreamsSlicesInOrderWhenLaterOnesFinishFirst)
{
    Dataset d(4000, 40000, 29);
    db::Column probe("p", db::ValueKind::U64, d.arena, d.keys.size());
    for (u64 k : d.keys)
        probe.push(k);
    const db::JoinResult want = db::probeAll(*d.flat, probe, true);

    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    // Slow the first claimed window, one of slice 0's: the other
    // walker drains the remaining nine 4096-key slices meanwhile, so
    // they complete before slice 0 does.
    const u64 hitsBefore = fp::hits("service.slow_drain");
    fp::arm("service.slow_drain", 1, 100'000'000);
    const db::JoinResult got = db::probeAll(service, probe, true);
    EXPECT_EQ(fp::hits("service.slow_drain") - hitsBefore, 1u);

    ASSERT_EQ(got.status, Status::Ok);
    EXPECT_EQ(got.matches, want.matches);
    ASSERT_EQ(got.pairs.size(), want.pairs.size());
    for (std::size_t i = 0; i < want.pairs.size(); ++i) {
        ASSERT_EQ(got.pairs[i].buildRow, want.pairs[i].buildRow)
            << "pair " << i;
        ASSERT_EQ(got.pairs[i].probeRow, want.pairs[i].probeRow)
            << "pair " << i;
    }
}

// ---------------------------------------------------------------------------
// Rebuild publish frozen mid-swap: probes keep running against the
// old shard, byte-correct, until the single release store lands
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, FrozenRebuildPublishNeverDisturbsProbes)
{
    Dataset d(2000, 2000, 23);
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.walkers = 2;
    cfg.mutation.enabled = true;
    cfg.mutation.rebuildLoadFactor = 0.5; // regrow on first burst
    IndexService service(*d.build, d.spec, cfg);

    // Stable witness set from the build side; inserted keys live
    // far outside its keyspace, so the witness tally is invariant
    // across the whole churn — old shard, new shard, or mid-freeze.
    const std::span<const u64> witness{d.keys.data(), 256};
    const u64 wantMatches = refSequence(*d.flat, witness).size();

    // Freeze the writer for 120 ms at the publish point of the
    // first rebuild: the un-swapped shard must keep serving.
    const u64 before = fp::hits("sharded.rebuild_publish");
    fp::arm("sharded.rebuild_publish", 1, 120'000'000);

    std::atomic<bool> writerDone{false};
    std::thread writer([&] {
        std::vector<u64> keys(64), pays(64);
        u64 next = 10'000'000;
        // Insert until the failpoint has fired (the triggering
        // batch blocks inside the freeze), then a few more bursts
        // so probes also race the post-swap view.
        for (int burst = 0; burst < 400; ++burst) {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                keys[i] = next++;
                pays[i] = keys[i] + 1;
            }
            SubmitOptions opt;
            opt.payloads = pays;
            const ServiceResult r =
                service.submit(RequestKind::Insert, keys, opt)
                    .get();
            EXPECT_EQ(r.status, Status::Ok); // EXPECT: off-thread
            if (fp::hits("sharded.rebuild_publish") > before &&
                burst >= 8)
                break;
        }
        writerDone.store(true, std::memory_order_release);
    });

    // Probe throughout: while the writer inserts, while it sits
    // frozen at the swap, and after publication. The witness tally
    // never wavers.
    while (!writerDone.load(std::memory_order_acquire)) {
        const ServiceResult r =
            service.submit(RequestKind::Count, witness).get();
        ASSERT_EQ(r.status, Status::Ok);
        ASSERT_EQ(r.matches, wantMatches)
            << "probe disturbed by a frozen rebuild publish";
    }
    writer.join();

    EXPECT_GT(fp::hits("sharded.rebuild_publish"), before);
    u64 rebuilds = 0;
    for (unsigned s = 0; s < cfg.shards; ++s)
        rebuilds += service.index().rebuildsTotal(s);
    EXPECT_GE(rebuilds, 1u);

    // Post-thaw: the published view still answers identically.
    const ServiceResult after =
        service.submit(RequestKind::Count, witness).get();
    ASSERT_EQ(after.status, Status::Ok);
    EXPECT_EQ(after.matches, wantMatches);
}

// ---------------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ServerStopMidBurstReapsEverySubmission)
{
    // stop() raises the stop flag before it joins the event loop,
    // and the loop finishes the pipelined burst it is parsing: here
    // 1 ms a frame. A reaper that exits on the flag with nothing
    // outstanding leaves the rest of the burst unreaped — leaked
    // requests that count as neither a response nor a drop. It
    // must reap until the loop has joined.
    Dataset d(1u << 14, 1u << 15, 71);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    net::TcpIndexServer server(service);
    net::TcpIndexClient client("127.0.0.1", server.port());

    constexpr std::size_t kReqs = 256;
    fp::arm("net.frame_delay", kReqs, 1'000'000);
    for (std::size_t i = 0; i < kReqs; ++i)
        client.submitAsync(RequestKind::Count,
                           {d.keys.data() + 64 * (i % 128), 64}, 0,
                           i);
    for (int tries = 0; server.stats().requests == 0 && tries < 20000;
         ++tries)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    server.stop();

    const net::TcpServerStats st = server.stats();
    EXPECT_GE(st.requests, 1u);
    // The Hello adds a response only if it was read before the stop.
    EXPECT_GE(st.responses + st.droppedResponses, st.requests)
        << st.requests << " submitted, " << st.responses
        << " answered, " << st.droppedResponses << " dropped";
    client.close();
}
