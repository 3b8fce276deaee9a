/**
 * @file
 * Hash-range-sharded index: the global bucket space of a chained
 * hash index split into S contiguous ranges, each backed by its own
 * bucket+tag arena.
 *
 * A flat HashIndex computes bucket = hash & (B - 1). The sharded
 * index keeps exactly that bucket space but sizes it as S * B'
 * buckets and folds a shard selector into the indexing:
 *
 *     global bucket = hash & (S * B' - 1)
 *     shard         = global bucket >> log2(B')   (top bits)
 *     local bucket  = hash & (B' - 1)             (low bits)
 *
 * Each shard is an ordinary db::HashIndex over its own Arena, so
 * shard arenas can be placed independently (NumaPolicy::FirstTouch
 * builds each shard on its own thread and lets the OS first-touch
 * policy spread the pages across memory controllers). Every key —
 * and every duplicate of a key — lands in exactly one shard, so
 * per-key match sets and chain order match the flat index.
 *
 * The class exposes the same hash-addressed probe surface the
 * interleaved drain is templated on (tagMayMatchHash /
 * bucketHeadFor / nodeKey, plus the batched dispatch kernels), so
 * amacDrain runs unchanged against it. A
 * single-shard instance — including the view-of-an-existing-index
 * mode the service uses for one-shot calls — short-circuits to the
 * flat index, keeping the AVX2 tag filter and skipping the shard
 * resolve.
 */

#ifndef WIDX_SERVICE_SHARDED_INDEX_HH
#define WIDX_SERVICE_SHARDED_INDEX_HH

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/arena.hh"
#include "common/epoch.hh"
#include "common/thread_safety.hh"
#include "common/topology.hh"
#include "db/column.hh"
#include "db/hash_index.hh"
#include "service/service_config.hh"

namespace widx::sw {

/** Hard cap on shards (thread fan-out at build, sanity). */
inline constexpr unsigned kMaxShards = 64;

/** Writer-path operations (the index-level spelling of the service's
 *  Insert/Delete/Upsert request kinds; kept separate so the db layer
 *  stays independent of the request plumbing). */
enum class MutOp : u8
{
    Insert = 0,
    Delete = 1,
    Upsert = 2,
};

class ShardedIndex
{
  public:
    using Node = db::HashIndex::Node;

    /** View an existing index as a single shard (no copy; the index
     *  must outlive the view). */
    explicit ShardedIndex(const db::HashIndex &index);

    /**
     * Build S shards from a key column (payload r = row id r, as in
     * HashIndex::buildFromColumn).
     *
     * @param spec global geometry: spec.buckets is the total bucket
     *        count across shards (rounded up to a power of two).
     * @param shards shard count; clamped to a power of two in
     *        [1, min(kMaxShards, total buckets)].
     * @param numa arena placement (see NumaPolicy). NodeBound pins
     *        each shard's build thread to a CPU on the shard's
     *        target node (Topology::nodeForSlot), so first-touch
     *        lands the arena pages on that node.
     * @param pinBuilders with FirstTouch, pin shard build threads
     *        round-robin over the usable CPUs (NodeBound always
     *        pins).
     * @param topo topology override for tests; null = host.
     */
    ShardedIndex(const db::Column &keys, const db::IndexSpec &spec,
                 unsigned shards, NumaPolicy numa = NumaPolicy::None,
                 bool pinBuilders = false,
                 const Topology *topo = nullptr,
                 const MutationConfig &mut = {});

    ShardedIndex(const ShardedIndex &) = delete;
    ShardedIndex &operator=(const ShardedIndex &) = delete;

    unsigned shards() const { return unsigned(shards_.size()); }

    const db::HashIndex &
    shard(unsigned s) const
    {
        return *shardPtr(s);
    }

    /** The flat index when there is exactly one shard (owned or
     *  viewed), else null — the service's fast-path dispatch. */
    const db::HashIndex *flatIndex() const { return flat_; }

    /** Shard selector: the top bits of the global bucket index. */
    unsigned
    shardOf(u64 hash) const
    {
        return unsigned((hash >> shardShift_) & shardMask_);
    }

    /** The shard's target NUMA node (block distribution over the
     *  build topology; 0 for views and single-node hosts). The
     *  mapping is computed for every placement policy; NodeBound is
     *  the one that places arena pages by it. */
    unsigned shardNode(unsigned s) const { return shardNode_[s]; }

    // --- Probe surface (hash-addressed; see db/hash_index.hh) ----------

    bool
    tagMayMatchHash(u64 hash) const
    {
        return shardPtr(shardOf(hash))->tagMayMatchHash(hash);
    }

    const u8 *
    tagAddrFor(u64 hash) const
    {
        return shardPtr(shardOf(hash))->tagAddrFor(hash);
    }

    const Node *
    bucketHeadFor(u64 hash) const
    {
        // widx-lint: epoch-guard -- under live mutation the shard
        // this head belongs to can be retired by a rebuild; callers
        // hold an epoch pin for the whole walk.
        return shardPtr(shardOf(hash))->bucketHeadFor(hash);
    }

    /** Resolve a node's key (layout is uniform across shards).
     *  Same acquire atomic_ref read as HashIndex::nodeKey. */
    u64
    nodeKey(const Node &n) const
    {
        const u64 raw =
            std::atomic_ref<u64>(const_cast<Node &>(n).key)
                .load(std::memory_order_acquire);
        if (indirect_)
            return *reinterpret_cast<const u64 *>(
                std::uintptr_t(raw));
        return raw;
    }

    /** Node payload / next, forwarded to the uniform node layout
     *  (see HashIndex::nodePayload / nodeNext). */
    u64
    nodePayload(const Node &n) const
    {
        return std::atomic_ref<u64>(const_cast<Node &>(n).payload)
            .load(std::memory_order_relaxed);
    }

    const Node *
    nodeNext(const Node &n) const
    {
        // widx-lint: epoch-guard -- chain walks run under the
        // caller's epoch pin when the index is live.
        return std::atomic_ref<Node *>(const_cast<Node &>(n).next)
            .load(std::memory_order_acquire);
    }

    void
    hashBatch(std::span<const u64> keys, std::span<u64> hashes) const
    {
        // Deliberately does not touch a shard: unpinned threads
        // (submitters hashing at admission, writers grouping a
        // mutation batch) call this while a rebuild may be retiring
        // the shard a pointer load would land on. The function is a
        // copy — identical across every rebuild.
        hashFn_.hashBatch(keys, hashes);
    }

    /** Dispatcher prefetch sweep, shard-resolved per key. */
    void prefetchStage(const u64 *hashes, std::size_t n,
                       bool tagged) const;

    /** Batched fingerprint filter (see HashIndex::tagFilterBatch).
     *  Single-shard instances take the flat (AVX2-dispatched) path;
     *  true sharding resolves per key — the tag arenas are disjoint
     *  allocations, so there is no single gather base. */
    u64 tagFilterBatch(const u64 *hashes, std::size_t n,
                       u64 *bits) const;

    /** Adaptive tagging (aggregated across shards when owned). */
    bool
    taggedWorthwhile(bool fallback) const
    {
        return flat_ ? flat_->taggedWorthwhile(fallback)
                     : stats_.worthwhile(fallback);
    }

    const db::TagFilterStats &
    tagStats() const
    {
        return flat_ ? flat_->tagStats() : stats_;
    }

    // --- Live mutation (per-shard single writer) -----------------------
    //
    // Writers serialize on a per-shard mutex; probes take no locks
    // and keep running through the mutation (the HashIndex live
    // contract). Unlinked nodes and replaced shard indexes go into
    // per-shard limbo lists stamped with the retire epoch and are
    // reclaimed by that same shard's next writer once every reader
    // pinned before the retire has unpinned.

    /** Was this instance built with MutationConfig::enabled? */
    bool liveMutable() const { return live_; }

    /** Reader epoch registry: walkers claim a slot at spawn and pin
     *  around every window drain. */
    EpochManager &epochs() const { return epochs_; }

    /**
     * Apply one mutation batch. Keys are grouped by shard, each
     * group applied under its shard's writer mutex; the epoch
     * advances once per touched shard and that shard's limbo is
     * drained afterwards. `payloads` parallels `keys` for
     * Insert/Upsert (ignored for Delete).
     *
     * @return Insert: keys inserted. Delete: nodes erased. Upsert:
     *         payloads updated in place (so `keys.size() - result`
     *         were fresh inserts).
     */
    u64 applyMutations(MutOp op, std::span<const u64> keys,
                       std::span<const u64> payloads);

    /** Lifetime mutation count for one shard and op (metrics). */
    u64
    mutationsTotal(unsigned s, MutOp op) const
    {
        return writers_[s]->nMut[unsigned(op)].load(
            std::memory_order_relaxed);
    }

    /** Lifetime incremental rebuilds for one shard (metrics). */
    u64
    rebuildsTotal(unsigned s) const
    {
        return writers_[s]->nRebuilds.load(
            std::memory_order_relaxed);
    }

    // --- Statistics ----------------------------------------------------

    u64 entries() const;
    u64 footprintBytes() const;

  private:
    /** A node unlinked by eraseLive, waiting out its grace period. */
    struct RetiredNode
    {
        db::HashIndex::Node *node;
        u64 epoch; ///< epochs_.current() at unlink
    };

    /** A whole shard index replaced by an incremental rebuild. */
    struct RetiredShard
    {
        std::unique_ptr<Arena> arena;
        std::unique_ptr<db::HashIndex> idx;
        u64 epoch;
    };

    // widx-lint: padded -- one writer per shard; adjacent shards'
    // writers run on different threads and must not share the line.
    struct alignas(kCacheBlockBytes) WriterState
    {
        Mutex m;
        /** Retired overflow nodes of the *current* shard index,
         *  recycled into its freelist after grace. */
        std::vector<RetiredNode> limbo WIDX_GUARDED_BY(m);
        /** Replaced shard indexes (arena dies after grace; any
         *  pending limbo nodes of that index die with it). */
        std::vector<RetiredShard> limboShards WIDX_GUARDED_BY(m);
        std::atomic<u64> nMut[3]{};
        std::atomic<u64> nRebuilds{};
    };

    /** Shard pointer load: acquire atomic_ref, because a live
     *  rebuild republishes the element concurrently (plain mov for
     *  the read-only case). */
    const db::HashIndex *
    shardPtr(unsigned s) const
    {
        return std::atomic_ref<const db::HashIndex *>(
                   const_cast<const db::HashIndex *&>(shards_[s]))
            .load(std::memory_order_acquire);
    }

    /** Writer-side (holds writers_[s]->m): grow the shard 2x into a
     *  fresh arena and publish by pointer swap. */
    void rebuildShard(unsigned s, db::HashIndex *cur)
        WIDX_REQUIRES(writers_[s]->m);

    /** Writer-side: reclaim limbo entries whose grace elapsed. */
    void drainLimbo(unsigned s, db::HashIndex *cur)
        WIDX_REQUIRES(writers_[s]->m);

    /** Per-shard arenas and indexes (empty in view mode). */
    std::vector<std::unique_ptr<Arena>> arenas_;
    std::vector<std::unique_ptr<db::HashIndex>> owned_;
    /** Uniform shard access for both modes. Elements are republished
     *  by live rebuilds; all reads go through shardPtr(). */
    std::vector<const db::HashIndex *> shards_;
    const db::HashIndex *flat_ = nullptr;
    unsigned shardShift_ = 0; ///< log2(per-shard buckets)
    u64 shardMask_ = 0;       ///< shards - 1
    unsigned log2Shards_ = 0; ///< log2(shard count)
    std::vector<unsigned> shardNode_{0}; ///< target node per shard
    db::HashFn hashFn_{}; ///< shard-free copy for hashBatch
    bool indirect_ = false;
    bool live_ = false;
    MutationConfig mut_{};
    db::TagFilterStats stats_; ///< cross-shard filter stats
    /** Per-shard writer state (only populated when live_). */
    std::vector<std::unique_ptr<WriterState>> writers_;
    mutable EpochManager epochs_;
};

} // namespace widx::sw

#endif // WIDX_SERVICE_SHARDED_INDEX_HH
