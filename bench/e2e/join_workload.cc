/**
 * @file
 * bulk_join_dram: the paper's regime. A foreign-key column is joined
 * against a primary-key index several times larger than the
 * last-level cache, through db::probeAll on one long-lived service
 * whose walkers take every CPU but the caller's. No network: the
 * time goes to hashing, the tag filter and chain walks that miss to
 * DRAM.
 */

#include "db/hash_join.hh"
#include "harness.hh"

namespace e2e {

namespace db = widx::db;
namespace sw = widx::sw;

namespace {

/** Order-independent checksum term of one (build row, probe row). */
u64
pairMix(u64 buildRow, u64 probeRow)
{
    u64 z = (buildRow << 32) ^ probeRow ^ 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

void
runBulkJoin(const Settings &set, Record &rec)
{
    const u64 tuples = set.smoke ? u64(1) << 20 : u64(16) << 20;
    const u64 callKeys = set.smoke ? u64(1) << 16 : u64(1) << 18;

    // Primary keys 1..tuples in shuffled build order: payload r is
    // build row r.
    widx::Arena arena;
    db::Column build("pk", db::ValueKind::U64, arena, tuples);
    std::vector<u32> rowOf(tuples + 1);
    Digest d;
    {
        Rng rng = streamRng(set.seed, 20);
        const std::vector<u64> keys = shuffledKeys(tuples, rng);
        d.add(keys);
        for (u64 r = 0; r < tuples; ++r) {
            build.push(keys[r]);
            rowOf[keys[r]] = u32(r);
        }
    }
    // Foreign keys: every primary key once, in another random order,
    // cut into join calls. The oracle is each call's checksum.
    std::vector<std::unique_ptr<db::Column>> calls;
    std::vector<u64> oracle;
    {
        Rng rng = streamRng(set.seed, 21);
        const std::vector<u64> fk = shuffledKeys(tuples, rng);
        d.add(fk);
        for (u64 b = 0; b < tuples; b += callKeys) {
            auto col = std::make_unique<db::Column>(
                "fk", db::ValueKind::U64, arena, callKeys);
            u64 sum = 0;
            for (u64 j = 0; j < callKeys; ++j) {
                col->push(fk[b + j]);
                sum += pairMix(rowOf[fk[b + j]], j);
            }
            calls.push_back(std::move(col));
            oracle.push_back(sum);
        }
    }
    rec.infoStr("bulk_join_dram.stream_digest", hex(d.h));

    db::IndexSpec spec;
    spec.buckets = tuples;
    auto svc = buildService(
        build, spec, serviceConfig(1, set.joinWalkers, /*mutation=*/false),
        set.trace ? 1 : 3, rec);
    rec.infoNum("join.index_mb",
                double(svc->index().footprintBytes()) / 1048576.0);

    u64 bad = 0;
    // One join call: its latency, and whether it matched every probe
    // exactly once with the oracle's rows.
    auto join = [&](std::size_t c) {
        const u64 t0 = nowNs();
        const db::JoinResult jr = db::probeAll(*svc, *calls[c], true);
        const u64 lat = nowNs() - t0;
        u64 sum = 0;
        for (const db::JoinPair &p : jr.pairs)
            sum += pairMix(p.buildRow, p.probeRow);
        ++rec.attempted;
        bad += !(jr.status == sw::Status::Ok && jr.matches == callKeys &&
                 jr.pairs.size() == callKeys && sum == oracle[c]);
        return lat;
    };

    // One warm pass over the whole column, then the timed window: a
    // host-reference burst after each slice of join time. The window
    // runs on, up to half again its length, while fewer than half of
    // its slices are valid (kMaxSliceSteal).
    for (std::size_t c = 0; c < calls.size(); ++c)
        join(c);
    RoundTrip ref;
    Spans spans(1u << 20);
    Slices slices;
    std::vector<u64> lat;
    u64 joinNs = 0;
    const u64 budget = u64(set.seconds * 1e9);
    const std::size_t planned = (budget + kSliceNs - 1) / kSliceNs;
    CpuTicks sliceStart = cpuTicks();
    for (std::size_t i = 0, n = 1;
         joinNs < budget ||
         (2 * slices.valid() < planned && 2 * joinNs < 3 * budget);
         ++n) {
        std::vector<u64> slice;
        for (; joinNs < n * kSliceNs; ++i) {
            const u64 beg = nowNs();
            slice.push_back(join(i % calls.size()));
            joinNs += slice.back();
            if (set.trace)
                spans.add("req", "", (u64(1) << 32) | i, beg,
                          beg + slice.back());
        }
        lat.insert(lat.end(), slice.begin(), slice.end());
        const double rtt = ref.medianUs(kRefNs);
        const CpuTicks now = cpuTicks();
        slices.add(std::move(slice), rtt, stealFrac(sliceStart, now));
        sliceStart = now;
    }
    rec.metric("peak_rss_mb", peakRssMb(), "MB");
    rec.failed += bad;
    if (bad)
        rec.fail(std::to_string(bad) + " join calls disagreed with the "
                                       "oracle");

    rec.infoNum("join_keys_per_s",
                double(lat.size() * callKeys) * 1e9 / double(joinNs));
    rec.infoNum("join.call_keys", double(callKeys));
    const std::string prefix = set.trace ? "traced." : "";
    slices.report(rec, prefix);
    addLatency(rec, prefix + "pooled.", lat, false);
    if (!set.trace)
        return;

    addServiceLayers(rec, *svc, sw::RequestKind::Join, {});
    // Replay keys: the first calls' foreign keys, in order.
    const u64 perPass = set.smoke ? u64(1) << 16 : u64(1) << 20;
    std::vector<u64> replay;
    for (std::size_t c = 0; replay.size() < 5 * perPass; ++c)
        for (u64 j = 0; j < callKeys; ++j)
            replay.push_back(calls[c]->at(j));
    addDbLayers(rec, svc->index(), replay, spans);
    writeSpans(set, rec, spans);
    rec.absent({"low.p50_us", "low.p99_us", "mid.p50_us", "mid.p99_us",
                "read.p50_us", "read.p99_us", "write.p50_us",
                "write.p99_us", "gen.late_p99_us", "net.submit_p50_us",
                "net.submit_p99_us", "net.reap_delay_p99_us",
                "net.overhead_p50_us", "net.overhead_p99_us",
                "net.requests", "net.dropped", "net.protocol_errors",
                "mut.write_submit_p99_us", "mut.rebuilds",
                "mut.rebuild_read_p99_us", "mut.mutation_keys"});
}

} // namespace e2e
