/**
 * @file
 * Per-layer metrics, timed from the benchmark's side of each layer's
 * public functions.
 */

#include "harness.hh"
#include "swwalkers/probers.hh"

namespace e2e {

namespace db = widx::db;
namespace sw = widx::sw;

namespace {

/** Keys per timed call of the db replays. */
constexpr std::size_t kChunk = 4096;

/** Disjoint key slices of the db replay, one per pass. */
enum Pass : unsigned
{
    kHashTag,
    kProbeTagged,
    kProbeUntagged,
    kAmac,
    kChainDepth,
    kPasses
};

double
perKey(u64 total, u64 keys)
{
    return keys ? double(total) / double(keys) : 0;
}

} // namespace

void
addDbLayers(Record &rec, const sw::ShardedIndex &idx,
            std::span<const u64> keys, Spans &spans)
{
    const unsigned shards = idx.shards();
    const std::size_t slice = keys.size() / kPasses;

    // Route every slice with the index's own selector.
    std::vector<std::vector<std::vector<u64>>> routed(
        kPasses, std::vector<std::vector<u64>>(shards));
    std::vector<u64> hashes(slice);
    for (unsigned p = 0; p < kPasses; ++p) {
        const auto ks = keys.subspan(p * slice, slice);
        idx.hashBatch(ks, hashes);
        for (std::size_t i = 0; i < slice; ++i)
            routed[p][idx.shardOf(hashes[i])].push_back(ks[i]);
    }

    u64 hashNs = 0, tagNs = 0, survivors = 0;
    u64 taggedNs = 0, untaggedNs = 0, amacNs = 0, nodes = 0;
    u64 sink = 0; // consumed below so no timed call is dead code
    u64 tag = u64(0xdb) << 32; // apart from request tags
    std::vector<u64> h(kChunk);
    u64 bits[kChunk / 64];
    for (unsigned s = 0; s < shards; ++s) {
        const db::HashIndex &shard = idx.shard(s);

        const std::vector<u64> &k0 = routed[kHashTag][s];
        for (std::size_t b = 0; b < k0.size(); b += kChunk) {
            const std::size_t n = std::min(kChunk, k0.size() - b);
            const u64 t0 = nowNs();
            shard.hashBatch({k0.data() + b, n}, {h.data(), n});
            const u64 t1 = nowNs();
            survivors += shard.tagFilterBatch(h.data(), n, bits);
            const u64 t2 = nowNs();
            hashNs += t1 - t0;
            tagNs += t2 - t1;
            spans.add("db.hash", "", tag, t0, t1);
            spans.add("db.tag", "", tag++, t1, t2);
            sink += h[0] ^ bits[0];
        }

        for (bool tagged : {true, false}) {
            const std::vector<u64> &kp =
                routed[tagged ? kProbeTagged : kProbeUntagged][s];
            for (std::size_t b = 0; b < kp.size(); b += kChunk) {
                const std::size_t n = std::min(kChunk, kp.size() - b);
                const u64 t0 = nowNs();
                sink += shard.probeBatch(
                    std::span<const u64>{kp.data() + b, n},
                    [&](std::size_t, u64, u64 payload) {
                        sink += payload;
                    },
                    tagged);
                const u64 t1 = nowNs();
                (tagged ? taggedNs : untaggedNs) += t1 - t0;
                if (tagged)
                    spans.add("db.probe", "", tag++, t0, t1);
            }
        }

        const sw::AmacProber amac(shard, sw::ServiceConfig{}.width);
        const std::vector<u64> &ka = routed[kAmac][s];
        const u64 t0 = nowNs();
        sink += amac.probeAll(ka);
        amacNs += nowNs() - t0;

        // Nodes a tagged lookup reads: none when the tag rejects,
        // else the whole chain (duplicates are legal, so a probe
        // never stops at the first match).
        for (u64 key : routed[kChainDepth][s]) {
            const u64 hk = shard.hashKey(key);
            if (!shard.tagMayMatchHash(hk))
                continue;
            // Single-threaded replay on a quiescent index: no writer
            // can retire these nodes, so no epoch pin is needed.
            for (const db::HashIndex::Node *n = shard.bucketHeadFor(hk);
                 n; n = shard.nodeNext(*n))
                ++nodes;
        }
    }

    const double hashPk = perKey(hashNs, slice);
    const double tagPk = perKey(tagNs, slice);
    const double taggedPk = perKey(taggedNs, slice);
    rec.metric("db.hash_ns_per_key", hashPk, "ns/key");
    rec.metric("db.tag_ns_per_key", tagPk, "ns/key");
    rec.metric("db.tag_pass_frac", perKey(survivors, slice), "frac");
    rec.metric("db.probe_tagged_ns_per_key", taggedPk, "ns/key");
    rec.metric("db.probe_untagged_ns_per_key", perKey(untaggedNs, slice),
               "ns/key");
    rec.metric("db.walk_ns_per_key", taggedPk - hashPk - tagPk,
               "ns/key");
    rec.metric("db.chain_depth_avg", perKey(nodes, slice), "nodes");
    rec.metric("walkers.amac_ns_per_key", perKey(amacNs, slice),
               "ns/key");
    rec.metric("index.bytes_per_tuple",
               perKey(idx.footprintBytes(), idx.entries()), "B");
    rec.infoNum("db.replay_keys_per_pass", double(slice));
    rec.infoNum("db.sink", double(sink & 0xffff));
}

void
addServiceLayers(Record &rec, const sw::IndexService &svc,
                 sw::RequestKind readKind,
                 const std::vector<const PhaseRun *> &replay)
{
    const sw::ServiceStats st = svc.stats();
    const sw::KindLatency &lat = st.latencyFor(readKind);
    auto us = [](u64 ns) { return double(ns) / 1e3; };
    rec.metric("service.e2e_p50_us", us(lat.endToEnd.p50Ns), "us");
    rec.metric("service.e2e_p99_us", us(lat.endToEnd.p99Ns), "us");
    rec.metric("service.queue_wait_p50_us", us(lat.queueWait.p50Ns),
               "us");
    rec.metric("service.queue_wait_p99_us", us(lat.queueWait.p99Ns),
               "us");
    rec.metric("service.drain_p50_us", us(lat.drainTime.p50Ns), "us");
    rec.metric("service.drain_p99_us", us(lat.drainTime.p99Ns), "us");

    std::vector<u64> submit, toReap;
    for (const PhaseRun *run : replay) {
        for (std::size_t i = 0; i < run->submitted; ++i) {
            const Outcome &o = run->out[i];
            if (!o.good || isWrite(run->stream->op[i]))
                continue;
            submit.push_back(o.submitEnd - o.submitBeg);
            toReap.push_back(o.reaped - o.completed);
        }
    }
    rec.metric("service.submit_p99_us",
               percentiles(std::move(submit)).p99 / 1e3, "us");
    rec.metric("service.complete_to_reap_p99_us",
               percentiles(std::move(toReap)).p99 / 1e3, "us");

    const double windows = double(st.windows);
    rec.metric("service.keys_per_window",
               windows ? double(st.keys - st.mutations) / windows : 0,
               "keys");
    rec.metric("service.coalesced_frac",
               windows ? double(st.coalescedWindows) / windows : 0,
               "frac");
    rec.metric("service.stolen_frac",
               windows ? double(st.stolenWindows) / windows : 0, "frac");
    rec.metric("service.rejected", double(st.rejected), "count");
}

void
addSelfTimes(Record &rec, const Spans &spans)
{
    static const char *const kNames[] = {
        "req",        "net.submit",     "wire+server",
        "reap",       "replay",         "service.submit",
        "queue+drain", "service.reap",  "db.hash",
        "db.tag",     "db.probe",
    };
    const auto self = spans.selfTimesUs();
    for (const char *name : kNames) {
        std::string metric = "self.";
        for (const char *c = name; *c; ++c)
            metric += (*c == '.' || *c == '+') ? '_' : *c;
        double v = 0;
        for (const auto &[n, us] : self)
            if (n == name)
                v = us;
        rec.metric(metric + "_us", v, "us");
    }
}

} // namespace e2e
