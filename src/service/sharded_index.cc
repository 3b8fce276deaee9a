#include "service/sharded_index.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/bitops.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "swwalkers/probers.hh"

namespace widx::sw {

static_assert(ProbeSurface<ShardedIndex>,
              "ShardedIndex must satisfy the drain contract");

ShardedIndex::ShardedIndex(const db::HashIndex &index)
    : shards_{&index}, flat_(&index), shardShift_(0), shardMask_(0),
      hashFn_(index.hashFn()), indirect_(index.indirectKeys())
{
}

ShardedIndex::ShardedIndex(const db::Column &keys,
                           const db::IndexSpec &spec, unsigned shards,
                           NumaPolicy numa, bool pinBuilders,
                           const Topology *topo,
                           const MutationConfig &mut)
{
    const u64 total = nextPowerOfTwo(std::max<u64>(spec.buckets, 1));
    u64 s = nextPowerOfTwo(std::max<u64>(shards, 1));
    s = std::min<u64>(s, std::min<u64>(kMaxShards, total));

    live_ = mut.enabled || spec.live;
    mut_ = mut;
    fatal_if(live_ && spec.indirectKeys,
             "live mutation requires the direct key layout");

    db::IndexSpec shard_spec = spec;
    shard_spec.buckets = total / s;
    shard_spec.live = live_;
    shardShift_ = log2Exact(total / s);
    shardMask_ = s - 1;
    log2Shards_ = log2Exact(s);
    hashFn_ = spec.hashFn;
    indirect_ = spec.indirectKeys;

    arenas_.resize(std::size_t(s));
    owned_.resize(std::size_t(s));
    shards_.resize(std::size_t(s));

    // Target nodes: shards block-distribute over the nodes, so a
    // node owns a contiguous hash range. Computed for every policy
    // (NodeBound places arenas by it; shardNode() reports it).
    const Topology &t = topo ? *topo : Topology::host();
    shardNode_.resize(std::size_t(s));
    for (unsigned sh = 0; sh < s; ++sh)
        shardNode_[sh] = t.nodeForSlot(sh, unsigned(s));

    // Shard sh owns the keys whose global bucket index falls in its
    // hash range; duplicates of a key share a hash, so they share a
    // shard and keep the flat index's per-key chain order.
    auto buildShard = [&](unsigned sh) {
        arenas_[sh] = std::make_unique<Arena>();
        auto idx =
            std::make_unique<db::HashIndex>(shard_spec, *arenas_[sh]);
        for (RowId r = 0; r < keys.size(); ++r) {
            const u64 key = keys.at(r);
            if (shardOf(shard_spec.hashFn(key)) == sh)
                idx->insert(key, r, keys.addrOf(r));
        }
        owned_[sh] = std::move(idx);
        shards_[sh] = owned_[sh].get();
    };

    if (numa != NumaPolicy::None && s > 1) {
        // One build thread per shard: the arena pages are
        // first-touched where the builder runs. FirstTouch lets the
        // OS spread them (optionally pinning builders round-robin
        // over the usable CPUs); NodeBound pins each builder to a
        // CPU on the shard's target node, cycling within the node
        // when shards outnumber its CPUs.
        std::vector<unsigned> nextOnNode(t.nodes(), 0);
        std::vector<std::thread> builders;
        builders.reserve(std::size_t(s));
        for (unsigned sh = 0; sh < s; ++sh) {
            int cpu = -1;
            if (numa == NumaPolicy::NodeBound)
                cpu = int(t.cpuOnNode(shardNode_[sh],
                                      nextOnNode[shardNode_[sh]]++));
            builders.emplace_back([&, sh, cpu] {
                if (cpu >= 0)
                    pinThreadToCpu(t, unsigned(cpu));
                else if (pinBuilders)
                    pinCurrentThread(sh);
                buildShard(sh);
            });
        }
        for (auto &t_ : builders)
            t_.join();
    } else {
        for (unsigned sh = 0; sh < s; ++sh)
            buildShard(sh);
    }

    // Live instances never take the flat fast path, even with one
    // shard: every probe-surface call must resolve the shard
    // pointer through its atomic load so a rebuild's republication
    // is safe to observe mid-stream.
    flat_ = (s == 1 && !live_) ? shards_[0] : nullptr;

    if (live_) {
        writers_.resize(std::size_t(s));
        for (unsigned sh = 0; sh < s; ++sh)
            writers_[sh] = std::make_unique<WriterState>();
    }
}

u64
ShardedIndex::applyMutations(MutOp op, std::span<const u64> keys,
                             std::span<const u64> payloads)
{
    fatal_if(!live_, "applyMutations on a read-only index");
    panic_if(op != MutOp::Delete && payloads.size() != keys.size(),
             "insert/upsert needs one payload per key");
    if (keys.empty())
        return 0;

    // Group by shard outside any lock (one hash per key; shard
    // grouping is stable across rebuilds — rebuilds change a
    // shard's internal geometry, never the selector bits).
    std::vector<u64> hashes(keys.size());
    hashBatch(keys, {hashes.data(), hashes.size()});
    const unsigned S = shards();
    std::vector<std::vector<std::size_t>> byShard(S);
    for (std::size_t i = 0; i < keys.size(); ++i)
        byShard[shardOf(hashes[i])].push_back(i);

    u64 result = 0;
    std::vector<db::HashIndex::Node *> retired;
    for (unsigned s = 0; s < S; ++s) {
        const auto &group = byShard[s];
        if (group.empty())
            continue;
        WriterState &w = *writers_[s];
        MutexLock lk(w.m);
        db::HashIndex *cur = owned_[s].get();
        retired.clear();
        switch (op) {
          case MutOp::Insert:
            for (std::size_t i : group)
                cur->insertLive(keys[i], payloads[i]);
            result += group.size();
            break;
          case MutOp::Delete:
            for (std::size_t i : group)
                result += cur->eraseLive(keys[i], retired);
            break;
          case MutOp::Upsert:
            for (std::size_t i : group)
                if (cur->upsertLive(keys[i], payloads[i]))
                    ++result;
            break;
        }
        w.nMut[unsigned(op)].fetch_add(group.size(),
                                       std::memory_order_relaxed);

        // Retire this batch's unlinked nodes at the pre-advance
        // epoch, then advance: a reader pinned at or before this
        // epoch may hold them; one pinning after the advance has
        // already synchronized with the unlink stores.
        const u64 e = epochs_.current();
        for (db::HashIndex::Node *n : retired)
            w.limbo.push_back({n, e});
        epochs_.advance();

        // Load-factor watermark: regrow 2x and publish by epoch
        // swap. Checked after the batch so one rebuild absorbs the
        // whole burst.
        if (op != MutOp::Delete && mut_.rebuildLoadFactor > 0 &&
            double(cur->entries()) >
                mut_.rebuildLoadFactor * double(cur->numBuckets()))
            rebuildShard(s, cur);

        drainLimbo(s, owned_[s].get());
    }
    return result;
}

void
ShardedIndex::rebuildShard(unsigned s, db::HashIndex *cur)
{
    WriterState &w = *writers_[s];
    auto arena = std::make_unique<Arena>();
    db::IndexSpec spec;
    spec.buckets = cur->numBuckets() * 2;
    spec.hashFn = cur->hashFn();
    spec.live = true;
    // The grown bucket array is addressed by hash bits entirely
    // *above* the shard selector: the original low-bits mask would
    // swallow the selector bits — constant within this shard — and
    // leave half the new buckets unreachable.
    spec.hashShift = u32(shardShift_ + log2Shards_);
    auto idx = std::make_unique<db::HashIndex>(spec, *arena);
    cur->forEachLiveEntry(
        [&](u64 k, u64 p) { idx->insert(k, p); });

    // Readers racing this window see the old array until the single
    // release store below, the new one after — never a mix. The
    // failpoint lets chaos_test freeze a writer right at the swap
    // while probes keep running.
    WIDX_FAILPOINT("sharded.rebuild_publish");
    std::atomic_ref<const db::HashIndex *>(shards_[s])
        .store(idx.get(), std::memory_order_release);

    // The old index (and every limbo node of its arena) dies when
    // the last pre-swap reader unpins.
    const u64 e = epochs_.current();
    w.limbo.clear();
    w.limboShards.push_back(
        {std::move(arenas_[s]), std::move(owned_[s]), e});
    arenas_[s] = std::move(arena);
    owned_[s] = std::move(idx);
    w.nRebuilds.fetch_add(1, std::memory_order_relaxed);
    epochs_.advance();
}

void
ShardedIndex::drainLimbo(unsigned s, db::HashIndex *cur)
{
    WriterState &w = *writers_[s];
    const u64 safe = epochs_.safeBefore();

    std::size_t keep = 0;
    for (RetiredNode &r : w.limbo) {
        if (r.epoch < safe)
            cur->recycleNode(r.node);
        else
            w.limbo[keep++] = r;
    }
    w.limbo.resize(keep);

    std::erase_if(w.limboShards, [safe](const RetiredShard &rs) {
        return rs.epoch < safe;
    });
}

void
ShardedIndex::prefetchStage(const u64 *hashes, std::size_t n,
                            bool tagged) const
{
    if (flat_) {
        flat_->prefetchStage(hashes, n, tagged);
        return;
    }
    if (tagged)
        for (std::size_t i = 0; i < n; ++i)
            prefetchRead(tagAddrFor(hashes[i]));
    else
        // widx-lint: epoch-guard -- address computation only, but
        // the shard pointer it chases is epoch-protected: the
        // dispatcher holds its pin across the prefetch sweep.
        for (std::size_t i = 0; i < n; ++i)
            prefetchRead(bucketHeadFor(hashes[i]));
}

u64
ShardedIndex::tagFilterBatch(const u64 *hashes, std::size_t n,
                             u64 *bits) const
{
    if (flat_)
        return flat_->tagFilterBatch(hashes, n, bits);
    std::memset(bits, 0, ((n + 63) / 64) * sizeof(u64));
    u64 survivors = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u64 h = hashes[i];
        if (shardPtr(shardOf(h))->tagMayMatchHash(h)) {
            bits[i >> 6] |= u64(1) << (i & 63);
            ++survivors;
        }
    }
    stats_.note(n, n - survivors);
    return survivors;
}

u64
ShardedIndex::entries() const
{
    u64 total = 0;
    for (unsigned s = 0; s < shards(); ++s)
        total += shardPtr(s)->entries();
    return total;
}

u64
ShardedIndex::footprintBytes() const
{
    u64 total = 0;
    for (unsigned s = 0; s < shards(); ++s)
        total += shardPtr(s)->footprintBytes();
    return total;
}

} // namespace widx::sw
