/**
 * @file
 * Chained hash index with bucket-header nodes (Section 2.2) and a
 * decoupled batch-probe pipeline.
 *
 * Layout follows the paper's description of real DBMS indexes:
 *
 *  - the bucket array entries are *header nodes* combining minimal
 *    status (the entry count) with the first node of the bucket,
 *    eliminating one pointer dereference for the first node;
 *  - overflow nodes are chained through `next`;
 *  - optionally, nodes store *pointers to the original table entries*
 *    instead of the key itself (MonetDB-style "indirect keys"),
 *    trading space for an extra memory access and extra address
 *    computation on every comparison.
 *
 * All storage comes from an Arena, so host pointers serve as simulated
 * addresses and the index footprint is contiguous and realistic.
 *
 * Empty header slots hold the reserved kEmptyKey pattern (direct
 * layout) or a pointer to a shared sentinel cell (indirect layout), so
 * probe loops need no emptiness check — a failed compare plus a null
 * next pointer terminates them, exactly like Listing 1.
 *
 * Two probe-side accelerations mirror the paper's dispatcher/walker
 * decoupling in software (see src/swwalkers/README.md):
 *
 *  - **Batch hashing** (`hashBatch`, `probeBatch`): a whole group of
 *    keys is hashed with the vectorizable HashFn::hashBatch kernel
 *    and its tag/bucket lines prefetched before any walk begins, so
 *    independent probe misses overlap.
 *  - **Tag array**: one byte per bucket, an 8-bit membership filter
 *    over the bucket's keys (the fingerprint bit tagOf(h), folded
 *    from upper hash bits, is set for every resident key). A walker
 *    rejects a non-matching bucket — including every empty bucket —
 *    with a single byte load instead of a 32-byte bucket-line
 *    dereference. The filter has no false negatives, so tagged and
 *    untagged probes produce identical match multisets. The tag
 *    array is deliberately out-of-band: bucket and node geometry
 *    (the kBucket and kNode offset constants) is unchanged, so
 *    accel/codegen and
 *    cpu/trace_gen see the exact layout they always did.
 *
 * Match emission is templated (`Emit`/`Sink` parameters) instead of
 * funneled through std::function, so per-match callbacks inline and
 * the hot loop allocates nothing.
 */

#ifndef WIDX_DB_HASH_INDEX_HH
#define WIDX_DB_HASH_INDEX_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "db/column.hh"
#include "db/hash_fn.hh"
#include "db/value.hh"

namespace widx::db {

/**
 * Running tag-filter effectiveness stats (adaptive tagging): the
 * batched probe paths report how many keys the one-byte fingerprint
 * filter rejected, and consumers flip the filter off when it stops
 * paying for itself — the filter costs a byte load per probe and
 * only earns it back by skipping bucket lines. Counters are relaxed
 * atomics shared by concurrent walkers: the stats guide a heuristic,
 * not correctness, so lossy updates are fine.
 */
class TagFilterStats
{
  public:
    /** Counters halve once this many keys accumulate, so a
     *  long-lived service tracks traffic shifts instead of being
     *  pinned to its first workload. */
    static constexpr u64 kWindowKeys = u64(1) << 22;
    /** Keys observed before the recommendation overrides the
     *  caller's configured default. */
    static constexpr u64 kMinSampleKeys = 4096;
    /** Reject percentage below which the filter's byte load costs
     *  more than the bucket lines it saves (hit-dominated probes pay
     *  a few percent for nothing; selective ones win ~25%). */
    static constexpr u64 kMinRejectPct = 5;

    /**
     * Record one batched sweep: n keys checked, r rejected.
     *
     * Aging is idempotent per window: the lifetime key count (never
     * halved) defines window epochs, and a single CAS on the epoch
     * counter elects exactly one aging thread per crossing. The old
     * "racy halving is benign" scheme let two sweeps that crossed
     * the window boundary concurrently halve twice (quartering the
     * counters and skewing the reject rate a long-lived service's
     * adaptive tagging steers by). The hot path stays relaxed
     * increments; the CAS only runs on a crossing, once per ~4M
     * keys.
     */
    void
    note(u64 n, u64 r) const
    {
        const u64 life =
            lifetime_.fetch_add(n, std::memory_order_relaxed) + n;
        keys_.fetch_add(n, std::memory_order_relaxed);
        rejects_.fetch_add(r, std::memory_order_relaxed);
        const u64 target = life / kWindowKeys;
        u64 e = epoch_.load(std::memory_order_relaxed);
        while (e < target) {
            if (epoch_.compare_exchange_weak(
                    e, target, std::memory_order_relaxed)) {
                // Sole ager for this crossing (a sweep spanning
                // several windows still halves once — aging is a
                // heuristic decay, not bookkeeping). Concurrent
                // increments may be lost to the store; that
                // lossiness is bounded by one window's traffic and
                // does not compound the way double-halving did.
                keys_.store(
                    keys_.load(std::memory_order_relaxed) / 2,
                    std::memory_order_relaxed);
                rejects_.store(
                    rejects_.load(std::memory_order_relaxed) / 2,
                    std::memory_order_relaxed);
                break;
            }
        }
    }

    u64 keys() const { return keys_.load(std::memory_order_relaxed); }

    /** Aging windows crossed so far (exactly lifetime / kWindowKeys
     *  — the idempotency the raced test asserts). */
    u64
    agings() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    u64
    rejects() const
    {
        return rejects_.load(std::memory_order_relaxed);
    }

    double
    rejectRate() const
    {
        const u64 k = keys();
        return k == 0 ? 0.0 : double(rejects()) / double(k);
    }

    /** Should the tag filter stay on? Falls back to the caller's
     *  configured value until the sample is large enough. */
    bool
    worthwhile(bool fallback) const
    {
        const u64 k = keys();
        if (k < kMinSampleKeys)
            return fallback;
        return rejects() * 100 >= k * kMinRejectPct;
    }

    void
    reset() const
    {
        keys_.store(0, std::memory_order_relaxed);
        rejects_.store(0, std::memory_order_relaxed);
        lifetime_.store(0, std::memory_order_relaxed);
        epoch_.store(0, std::memory_order_relaxed);
    }

  private:
    mutable std::atomic<u64> keys_{0};
    mutable std::atomic<u64> rejects_{0};
    /** Monotone key count (never halved): defines aging epochs. */
    mutable std::atomic<u64> lifetime_{0};
    /** Aging windows already applied (CAS-elected, one per window). */
    mutable std::atomic<u64> epoch_{0};
};

/** Construction-time description of a hash index. */
struct IndexSpec
{
    /** Number of buckets; rounded up to a power of two. */
    u64 buckets = 1024;
    /** Hash function (also consumed by Widx codegen and trace gen). */
    HashFn hashFn = HashFn::monetdbRobust();
    /** MonetDB-style nodes holding key pointers instead of keys. */
    bool indirectKeys = false;
    /** Bucket addressing uses hash bits [hashShift, hashShift +
     *  log2(buckets)). Zero (the default, and the only value the
     *  read-only paths ever see) keeps the historical low-bits
     *  masking. A grown replacement shard inside a ShardedIndex sets
     *  it past the shard-selector bits: a plain low-bits mask on a
     *  2x bucket array would swallow the selector bits — constant
     *  within a shard — and leave half the buckets unreachable. */
    u32 hashShift = 0;
    /** Live (mutable) index: probe-path field reads stay the same
     *  plain-mov instructions, but the tag sweep takes the scalar
     *  atomic kernel instead of the AVX2 gather so concurrent tag
     *  maintenance is race-free under TSan. */
    bool live = false;
};

class HashIndex
{
  public:
    /** Chained node. With indirect keys, `key` holds the address of
     *  the key's storage in the build column. */
    struct Node
    {
        u64 key = kEmptyKey; ///< key value or key address
        u64 payload = 0;     ///< row id / tuple id
        Node *next = nullptr;
    };

    /** Bucket-header node: count plus the inlined first node. */
    struct Bucket
    {
        u64 count = 0;
        Node head;
    };

    static_assert(sizeof(Node) == 24, "node layout is part of the ABI");
    static_assert(sizeof(Bucket) == 32,
                  "bucket stride must stay a power of two");

    HashIndex(const IndexSpec &spec, Arena &arena);

    /** Insert one (key, payload) pair. For indirect layouts,
     *  key_addr must be the address of the key's column storage. */
    void insert(u64 key, u64 payload, Addr key_addr = 0);

    /** Bulk-build from a key column; payload r is the row id r. */
    void buildFromColumn(const Column &keys);

    // --- Probing -------------------------------------------------------

    /**
     * Scalar reference probe (the role of Listing 1's
     * probe_hashtable): walks the bucket and invokes emit(payload)
     * for every node whose key matches. The emitter is a template
     * parameter so it inlines; no allocation, no indirect call.
     *
     * @return number of matches.
     */
    template <typename Emit>
    u64
    probe(u64 key, Emit &&emit) const
    {
        return probeHashed(key, hashKey(key),
                           std::forward<Emit>(emit));
    }

    /** Count-only probe. */
    u64
    probe(u64 key) const
    {
        return probe(key, [](u64) {});
    }

    /**
     * Probe with a precomputed hash (the walker half of the
     * decoupled pipeline; the dispatcher half is hashBatch).
     *
     * @param tagged consult the one-byte tag filter before touching
     *        the bucket line.
     */
    template <typename Emit>
    u64
    probeHashed(u64 key, u64 hash, Emit &&emit,
                bool tagged = true) const
    {
        // widx-lint: epoch-guard -- callers probing a live index
        // hold an epoch pin; read-only indexes never retire.
        const u64 bidx = bucketIndexOf(hash);
        if (tagged && !(tagByte(bidx) & tagOf(hash)))
            return 0;
        u64 matches = 0;
        for (const Node *n = &buckets_[bidx].head; n;
             n = nodeNext(*n)) {
            if (nodeKey(*n) == key) {
                ++matches;
                emit(nodePayload(*n));
            }
        }
        return matches;
    }

    /** Default number of keys per dispatcher batch. */
    static constexpr std::size_t kProbeBatch = 64;
    /** Upper bound on the batch size (stack buffers). */
    static constexpr std::size_t kMaxProbeBatch = 1024;

    /** Batch-hash keys (dispatcher stage). Delegates to the
     *  vectorizable HashFn::hashBatch kernel. */
    void
    hashBatch(std::span<const u64> keys, std::span<u64> hashes) const
    {
        spec_.hashFn.hashBatch(keys, hashes);
    }

    /** Dispatcher prefetch sweep: for each hash, prefetch the key's
     *  first dependent line — its tag byte when the filter is on,
     *  its bucket header otherwise. Shared by probeBatch and the
     *  walkers' HashedWindow. */
    void
    prefetchStage(const u64 *hashes, std::size_t n,
                  bool tagged) const
    {
        if (tagged)
            for (std::size_t i = 0; i < n; ++i)
                prefetchRead(&tags_[bucketIndexOf(hashes[i])]);
        else
            for (std::size_t i = 0; i < n; ++i)
                prefetchRead(&buckets_[bucketIndexOf(hashes[i])]);
    }

    /**
     * Batched fingerprint filter (the dispatcher's tag sweep as one
     * kernel): sets bit i of `bits` when hash i's bucket may match
     * (no false negatives). `bits` must hold at least
     * (n + 63) / 64 words; they are fully overwritten. Dispatches to
     * an AVX2 kernel — four tag-byte gathers and a vector
     * fingerprint compare per iteration — when the host supports it
     * (runtime cpuid, scalar fallback otherwise), and feeds the
     * adaptive-tagging stats either way.
     *
     * @return number of surviving keys.
     */
    u64 tagFilterBatch(const u64 *hashes, std::size_t n,
                       u64 *bits) const;

    /** Scalar reference implementation of tagFilterBatch (also the
     *  non-AVX2 fallback). Public so benches and tests can compare
     *  the two paths; does not touch the stats. */
    u64 tagFilterBatchScalar(const u64 *hashes, std::size_t n,
                             u64 *bits) const;

    /** Does this host take the AVX2 tag-filter path? */
    static bool tagFilterHasSimd();

    /**
     * Decoupled batch probe: the shared software pipeline under
     * db::probeAll/hashJoin and sw::ScalarProber.
     *
     * The dispatcher stage runs one batch *ahead* of the walker
     * stage (double-buffered): while batch k's buckets are walked,
     * batch k+1 has already been vector-hashed and its tag and
     * bucket-header lines prefetched. By the time the walker
     * reaches batch k+1 its lines have had a full batch of work to
     * stream in. This is the paper's dispatcher/walker split in
     * software: independent probe misses overlap instead of
     * serializing.
     *
     * In tagged mode the dispatcher prefetches only the tag bytes
     * (prefetching headers too would double the in-flight lines per
     * key and overrun the core's fill buffers); a tag sweep at the
     * start of the walker stage then arms header prefetches for
     * surviving buckets only — so selective workloads never pull
     * rejected bucket lines at all.
     *
     * @param sink invoked as sink(i, key, payload) where i is the
     *        key's position in `keys` (match order within one key
     *        follows the chain, and keys are walked in order, so
     *        emission order equals the scalar reference's).
     * @return total number of matches.
     */
    template <typename Sink>
    u64
    probeBatch(std::span<const u64> keys, Sink &&sink,
               bool tagged = true,
               std::size_t batch = kProbeBatch) const
    {
        batch = std::clamp<std::size_t>(batch, 1, kMaxProbeBatch);
        u64 hashbuf[2][kMaxProbeBatch];

        // Dispatcher stage: hash one batch and prefetch each key's
        // first dependent line.
        auto dispatch = [&](std::size_t base, u64 *h) {
            const std::size_t n =
                std::min(batch, keys.size() - base);
            spec_.hashFn.hashBatch(keys.subspan(base, n), {h, n});
            prefetchStage(h, n, tagged);
            return n;
        };

        u64 matches = 0;
        u64 *cur = hashbuf[0];
        u64 *ahead = hashbuf[1];
        std::size_t base = 0;
        std::size_t n = keys.empty() ? 0 : dispatch(0, cur);
        while (n > 0) {
            const std::size_t next_base = base + n;
            const std::size_t n_ahead =
                next_base < keys.size() ? dispatch(next_base, ahead)
                                        : 0;

            // Walker stage: the tag sweep reads bytes prefetched a
            // full batch ago — one vectorized tagFilterBatch kernel
            // instead of per-key byte loads — and arms header
            // prefetches for surviving buckets only, then the walks
            // emit through the inlined sink (rejected keys never
            // touch a bucket line, and survivors skip the repeat
            // tag check).
            if (tagged) {
                u64 bits[kMaxProbeBatch / 64];
                tagFilterBatch(cur, n, bits);
                for (std::size_t i = 0; i < n; ++i)
                    if (bits[i >> 6] >> (i & 63) & 1)
                        prefetchRead(&buckets_[bucketIndexOf(cur[i])]);
                for (std::size_t i = 0; i < n; ++i) {
                    if (!(bits[i >> 6] >> (i & 63) & 1))
                        continue;
                    const u64 key = keys[base + i];
                    matches += probeHashed(
                        key, cur[i],
                        [&](u64 payload) {
                            sink(base + i, key, payload);
                        },
                        false);
                }
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    const u64 key = keys[base + i];
                    matches += probeHashed(
                        key, cur[i],
                        [&](u64 payload) {
                            sink(base + i, key, payload);
                        },
                        false);
                }
            }

            std::swap(cur, ahead);
            base = next_base;
            n = n_ahead;
        }
        return matches;
    }

    /** Point lookup: payload of the first match or kNotFound. */
    u64 lookup(u64 key) const;

    // --- Live mutation (single writer, concurrent lock-free probes) ----
    //
    // Only on an index built with spec.live = true and a direct key
    // layout. The caller (ShardedIndex's per-shard writer) serializes
    // writers per index; probes run concurrently with NO locks. Every
    // store that a probe can observe is an atomic publish:
    //
    //   insert:  node filled privately, then linked with a release
    //            store on the header's next (or, for an empty/
    //            tombstoned header, payload first, key last with
    //            release — a probe that sees the key sees the
    //            payload).
    //   erase:   overflow nodes are unlinked with a release store on
    //            the predecessor's next; the retired node keeps its
    //            own next so paused probes terminate. Header matches
    //            tombstone the key back to kEmptyKey. Retired nodes
    //            land in `retired` for the caller to epoch-reclaim —
    //            they must not be reused until every reader pinned
    //            before the erase has unpinned (see common/epoch.hh).
    //   tags:    insert ORs the fingerprint bit in *before* linking
    //            (no false negatives ever); erase recomputes the
    //            byte from the surviving chain, so the filter keeps
    //            earning its keep as keys churn.

    /** Live insert; duplicates allowed (multiset semantics, same as
     *  build-time insert). */
    void insertLive(u64 key, u64 payload);

    /** Live erase of every node matching `key`. Unlinked overflow
     *  nodes are appended to `retired` (epoch-reclaim them); header
     *  matches are tombstoned in place. Returns nodes erased. */
    u64 eraseLive(u64 key, std::vector<Node *> &retired);

    /** Live upsert: overwrite the first match's payload, else
     *  insert. Returns true when an existing node was updated. */
    bool upsertLive(u64 key, u64 payload);

    /** Return an epoch-reclaimed node to the writer's freelist so
     *  the arena does not grow without bound under churn. Caller
     *  guarantees the grace period has elapsed. */
    void recycleNode(Node *n);

    /** Writer-side sweep of every live entry (rebuild source).
     *  fn(key, payload); tombstoned headers are skipped. */
    template <typename Fn>
    void
    forEachLiveEntry(Fn &&fn) const
    {
        // widx-lint: epoch-guard -- rebuild source sweep runs on
        // the shard's single writer; no other thread retires.
        for (u64 b = 0; b < numBuckets_; ++b) {
            for (const Node *n = &buckets_[b].head; n;
                 n = nodeNext(*n)) {
                const u64 k = std::atomic_ref<u64>(
                                  const_cast<Node *>(n)->key)
                                  .load(std::memory_order_acquire);
                if (k != kEmptyKey)
                    fn(k, nodePayload(*n));
            }
        }
    }

    // --- Geometry / layout accessors (used by codegen & trace gen) ---

    u64 numBuckets() const { return numBuckets_; }
    unsigned bucketShift() const { return bucketShift_; }
    u64 bucketMask() const { return numBuckets_ - 1; }
    unsigned hashShift() const { return hashShift_; }
    const HashFn &hashFn() const { return spec_.hashFn; }
    bool indirectKeys() const { return spec_.indirectKeys; }
    bool live() const { return spec_.live; }

    /** Bucket index for a full hash: the spec's hashShift selects
     *  which hash bit-field addresses the bucket array (0 = the
     *  historical low-bits mask). */
    u64
    bucketIndexOf(u64 hash) const
    {
        return (hash >> hashShift_) & bucketMask();
    }

    Addr
    bucketArrayAddr() const
    {
        return Addr(reinterpret_cast<std::uintptr_t>(buckets_));
    }

    /** Hash a key with the index's hash function. */
    u64 hashKey(u64 key) const { return spec_.hashFn(key); }

    /** Bucket index for a key (hash masked to the table size). */
    u64
    bucketIndex(u64 key) const
    {
        return bucketIndexOf(hashKey(key));
    }

    const Bucket &
    bucketAt(u64 idx) const
    {
        return buckets_[idx & bucketMask()];
    }

    /** Resolve a node's key: dereferences for indirect layouts.
     *  The raw field read is an acquire atomic_ref load — a plain
     *  mov on every target we build for, so read-only probes cost
     *  nothing — pairing with the live writer's release publish so
     *  a probe that observes a just-inserted key also observes its
     *  payload. */
    u64
    nodeKey(const Node &n) const
    {
        // atomic_ref over const is C++26; the const_cast only feeds
        // a load.
        const u64 raw =
            std::atomic_ref<u64>(const_cast<Node &>(n).key)
                .load(std::memory_order_acquire);
        if (spec_.indirectKeys)
            return *reinterpret_cast<const u64 *>(
                std::uintptr_t(raw));
        return raw;
    }

    /** Node payload, race-free against a live upsert (single-word
     *  atomic: a concurrent probe sees the old or new payload,
     *  never a mix). */
    u64
    nodePayload(const Node &n) const
    {
        return std::atomic_ref<u64>(const_cast<Node &>(n).payload)
            .load(std::memory_order_relaxed);
    }

    /** Next pointer, acquire-paired with the writer's release
     *  unlink/publish stores. A node retired by eraseLive keeps its
     *  next pointer, so a paused probe holding it still terminates. */
    const Node *
    nodeNext(const Node &n) const
    {
        // widx-lint: epoch-guard -- chain walks over a live index
        // run under the caller's epoch pin.
        return std::atomic_ref<Node *>(const_cast<Node &>(n).next)
            .load(std::memory_order_acquire);
    }

    // --- Tag (fingerprint) array ---------------------------------------

    /** Fingerprint bit of a hash: one of 8 bits chosen by folding
     *  four bit-fields spread across the hash. For mixing hashes
     *  (monetdbRobust, fibonacciShiftAdd, doubleKey) any field
     *  avalanches, so fingerprints use all 8 bits. The >>8 field
     *  keeps the fingerprint discriminating even for Listing 1's
     *  near-identity MASK/XOR hash on small tables; on tables whose
     *  bucket index swallows those bits, a no-avalanche hash
     *  degrades the filter to an emptiness check (still no false
     *  negatives — fingerprints are deterministic in the hash). */
    static constexpr u8
    tagOf(u64 hash)
    {
        return u8(1u << (((hash >> 8) ^ (hash >> 24) ^
                          (hash >> 44) ^ (hash >> 57)) &
                         7));
    }

    /** One bucket's tag byte (relaxed atomic: live writers maintain
     *  tags concurrently; a plain mov on x86). */
    u8
    tagByte(u64 bidx) const
    {
        return std::atomic_ref<u8>(
                   const_cast<u8 &>(tags_[bidx & bucketMask()]))
            .load(std::memory_order_relaxed);
    }

    /** May the bucket contain a key with this hash? No false
     *  negatives; an empty bucket (tag 0) rejects everything. */
    bool
    tagMayMatch(u64 bidx, u64 hash) const
    {
        return tagByte(bidx) & tagOf(hash);
    }

    // --- Probe surface (hash-addressed) --------------------------------
    //
    // The interleaved drain (sw::amacDrain) is templated on an
    // Index type exposing these calls, so the same state machine
    // serves a flat HashIndex and the service's hash-range-sharded
    // sw::ShardedIndex. Everything is addressed by the full hash:
    // how the hash folds into an array index (one bucket mask here,
    // shard-selector bits plus a per-shard mask there) stays the
    // index's business.

    /** tagMayMatch from the full hash. */
    bool
    tagMayMatchHash(u64 hash) const
    {
        return tagByte(bucketIndexOf(hash)) & tagOf(hash);
    }

    /** Address of the hash's tag byte (tag-line prefetch). */
    const u8 *
    tagAddrFor(u64 hash) const
    {
        return &tags_[bucketIndexOf(hash)];
    }

    /** Header node of the hash's bucket. */
    const Node *
    bucketHeadFor(u64 hash) const
    {
        // widx-lint: epoch-guard -- the returned header belongs to
        // this index object; under a ShardedIndex the shard pointer
        // itself is epoch-protected by the caller's pin.
        return &buckets_[bucketIndexOf(hash)].head;
    }

    const u8 *tagArray() const { return tags_; }

    Addr
    tagArrayAddr() const
    {
        return Addr(reinterpret_cast<std::uintptr_t>(tags_));
    }

    // --- Statistics ----------------------------------------------------

    /** Observed tag-filter effectiveness (fed by the batched sweep
     *  paths: probeBatch, service windows). */
    const TagFilterStats &tagStats() const { return tagStats_; }

    /** Adaptive tagging: keep the filter on? (see TagFilterStats;
     *  `fallback` is the caller's configured default, returned until
     *  enough keys have been sampled). */
    bool
    taggedWorthwhile(bool fallback) const
    {
        return tagStats_.worthwhile(fallback);
    }

    u64 entries() const { return entries_; }

    /** Mean nodes per non-empty bucket. */
    double avgBucketDepth() const;

    /** Longest chain (including the header node). */
    u64 maxBucketDepth() const;

    /** Total bytes of buckets, overflow nodes, and tags (the index
     *  footprint that competes for cache capacity). */
    u64 footprintBytes() const;

    // Node/field offsets for schema-aware program generation.
    static constexpr u32 kNodeKeyOffset = 0;
    static constexpr u32 kNodePayloadOffset = 8;
    static constexpr u32 kNodeNextOffset = 16;
    static constexpr u32 kBucketHeadOffset = 8;
    static constexpr u32 kBucketStride = 32;

  private:
    /** Recompute one bucket's tag byte from its surviving chain
     *  (erase path; writer-side). */
    void refreshTag(u64 bidx);

    IndexSpec spec_;
    Arena &arena_;
    Bucket *buckets_;
    /** One tag byte per bucket (see tagOf). */
    u8 *tags_;
    u64 numBuckets_;
    unsigned bucketShift_; ///< log2(kBucketStride)
    unsigned hashShift_;   ///< spec_.hashShift (bucket addressing)
    u64 entries_ = 0;
    u64 overflowNodes_ = 0;
    TagFilterStats tagStats_;
    /** Sentinel key cell that empty indirect headers point to. */
    u64 *sentinelCell_;
    /** Writer-side freelist of epoch-reclaimed overflow nodes
     *  (recycleNode / insertLive; the Arena never frees). */
    std::vector<Node *> freeNodes_;
};

} // namespace widx::db

#endif // WIDX_DB_HASH_INDEX_HH
