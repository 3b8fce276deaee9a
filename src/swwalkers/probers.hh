/**
 * @file
 * Software walkers: the paper's key insight — exploiting inter-key
 * parallelism by walking multiple hash buckets concurrently with
 * decoupled key hashing — realized in software on a real host CPU.
 *
 * Where Widx dedicates hardware walker units, software can only
 * overlap cache misses by interleaving independent probes around
 * prefetches. The classic schedules, all implemented here over the
 * same db::HashIndex:
 *
 *  - ScalarProber: the Listing 1 baseline, either inline (hash one
 *    key, walk one bucket) or batched through the shared
 *    HashIndex::probeBatch pipeline.
 *  - GroupPrefetchProber: process keys in groups; batch-hash and
 *    prefetch all G buckets, then advance all G walks one node at a
 *    time, prefetching each next node (Chen et al., group
 *    prefetching).
 *  - AmacProber: asynchronous memory access chaining — a ring of W
 *    probe state machines; each visit advances one machine one stage
 *    and issues the next prefetch (Kocberber et al., AMAC — the
 *    follow-up to this paper).
 *
 * All probers share the decoupled pipeline (see README.md in this
 * directory): a dispatcher stage batch-hashes keys with the
 * vectorized HashFn::hashBatch kernel and prefetches the one-byte
 * tag filter, and the walker stage rejects non-matching buckets on
 * the tag before touching a bucket line. Match emission is a
 * templated sink invoked as sink(i, key, payload) — it inlines, so
 * the hot loop performs no indirect calls and no allocation.
 *
 * All probers produce identical match multisets; benches compare
 * their throughput.
 */

#ifndef WIDX_SWWALKERS_PROBERS_HH
#define WIDX_SWWALKERS_PROBERS_HH

#include <array>
#include <concepts>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "db/hash_index.hh"
#include "swwalkers/pipeline_config.hh"

namespace widx::sw {

/**
 * The hash-addressed probe surface the interleaved drains are
 * templated on — the compile-time contract between the walker state
 * machine (amacDrain) and anything indexable: a flat
 * db::HashIndex, one shard of a service index, or the shard-blind
 * ShardedIndex front (both are static_assert-checked against it).
 *
 * The accessor split is deliberate and is what makes live mutation
 * possible: a drain never dereferences Node fields directly — keys,
 * payloads, and next pointers are read through nodeKey / nodePayload
 * / nodeNext, which the live index implements as atomic loads with
 * the ordering the writer protocol needs (and which compile to the
 * same plain movs on x86 when the index is read-only). A prober that
 * touched `n->next` raw would tear against a concurrent unlink.
 *
 * On an epoch-protected live index every bucketHeadFor -> nodeNext
 * chain walk must additionally run under an epoch pin (see
 * common/epoch.hh); the service's walkers pin around each window
 * drain. The concept cannot express that — widx_lint.py's
 * epoch-guard check covers the tagging discipline instead.
 */
template <typename I>
concept ProbeSurface = requires(
    const I &idx, u64 hash, const db::HashIndex::Node &node,
    std::span<const u64> keys, std::span<u64> hashes,
    const u64 *harr, std::size_t n, u64 *bits) {
    // widx-lint: epoch-guard -- concept exemplar expressions, never
    // evaluated; real call sites carry their own markers.
    // Walker stage: tag reject, then the chain walk.
    { idx.tagMayMatchHash(hash) } -> std::convertible_to<bool>;
    {
        idx.bucketHeadFor(hash)
    } -> std::convertible_to<const db::HashIndex::Node *>;
    { idx.nodeKey(node) } -> std::convertible_to<u64>;
    { idx.nodePayload(node) } -> std::convertible_to<u64>;
    {
        idx.nodeNext(node)
    } -> std::convertible_to<const db::HashIndex::Node *>;
    // Dispatcher stage: vector hash, prefetch sweep, batched
    // fingerprint filter.
    { idx.hashBatch(keys, hashes) };
    { idx.prefetchStage(harr, n, bool{}) };
    { idx.tagFilterBatch(harr, n, bits) } -> std::convertible_to<u64>;
};

static_assert(ProbeSurface<db::HashIndex>,
              "HashIndex must satisfy the drain contract");

/** Software prefetch wrapper (read, high temporal locality). */
inline void
prefetch(const void *p)
{
    prefetchRead(p);
}

/** Sink that discards matches (count-only probes). */
struct NullSink
{
    void operator()(std::size_t, u64, u64) const {}
};

/** One buffered match, replayed into a caller's sink after a
 *  deterministic merge (IndexService results). */
struct MatchRec
{
    std::size_t i; ///< key position in the probed span / request
    u64 key;
    u64 payload;
};

/** Hard cap on in-flight walks so prober state fits on the stack. */
inline constexpr unsigned kMaxWidth = 64;

/**
 * Stream over one hashed chunk of keys for the interleaved drains:
 * yields (pos, key, hash) with pos the chunk-local ordinal and —
 * when a survivor bitmap from the batched tag sweep is supplied —
 * skips rejected positions, so the drain runs with its own tag check
 * off and never loads a tag byte per key. Used by IndexService
 * dispatch windows, which the draining walker gathers and hashes
 * before the tag sweep.
 */
class HashedChunkStream
{
  public:
    /** keys/hashes point at the chunk's first entry; bits may be
     *  null (no filtering). */
    HashedChunkStream(const u64 *keys, const u64 *hashes,
                      std::size_t len, const u64 *bits)
        : keys_(keys), hashes_(hashes), len_(len), bits_(bits)
    {
    }

    bool
    next(std::size_t &i, u64 &key, u64 &hash)
    {
        while (pos_ < len_) {
            if (bits_ && !(bits_[pos_ >> 6] >> (pos_ & 63) & 1)) {
                ++pos_;
                continue;
            }
            i = pos_;
            key = keys_[pos_];
            hash = hashes_[pos_++];
            return true;
        }
        return false;
    }

  private:
    const u64 *keys_;
    const u64 *hashes_;
    std::size_t len_;
    const u64 *bits_;
    std::size_t pos_ = 0;
};

/**
 * Walker-side tag sweep over a hashed chunk: run the index's
 * batched fingerprint filter (AVX2 when the host has it), then arm
 * a bucket-header prefetch for every survivor, so by the time the
 * interleaved drain touches a bucket its line is streaming in and
 * rejected keys were never armed at all. The drain is then run with
 * its own tag check off — a HashedChunkStream skips cleared bits
 * instead. `bits` must hold (n + 63) / 64 words. Returns the
 * survivor count.
 */
template <typename Index>
u64
tagFilterAndPrefetch(const Index &index, const u64 *hashes,
                     std::size_t n, u64 *bits)
{
    const u64 survivors = index.tagFilterBatch(hashes, n, bits);
    // widx-lint: epoch-guard -- prefetch address resolve chases an
    // epoch-protected shard pointer; the dispatcher is pinned.
    for (std::size_t i = 0; i < n; ++i)
        if (bits[i >> 6] >> (i & 63) & 1)
            prefetchRead(index.bucketHeadFor(hashes[i]));
    return survivors;
}

/**
 * Dispatcher-side hashed-key window shared by the interleaved
 * probers: keys are hashed a batch at a time (vectorized) and their
 * tag bytes prefetched, so by the time a walker consumes an entry
 * its tag line is (usually) resident.
 */
class HashedWindow
{
  public:
    HashedWindow(const db::HashIndex &index,
                 std::span<const u64> keys,
                 const PipelineConfig &cfg);

    /** Pop the next hashed key; false when the input is drained.
     *  i receives the key's position in the original span. */
    bool
    next(std::size_t &i, u64 &key, u64 &hash)
    {
        if (pos_ == len_ && !refill())
            return false;
        i = base_ + pos_;
        key = keys_[i];
        hash = hashes_[pos_++];
        return true;
    }

  private:
    bool refill();

    const db::HashIndex &index_;
    std::span<const u64> keys_;
    std::size_t batch_;
    bool tagged_;
    std::size_t base_ = 0; ///< span offset of the current window
    std::size_t pos_ = 0;  ///< consumed entries in the window
    std::size_t len_ = 0;  ///< valid entries in the window
    std::array<u64, db::HashIndex::kMaxProbeBatch> hashes_;
};

/** Listing 1 probe loop, optionally batched through the shared
 *  pipeline. */
class ScalarProber
{
  public:
    explicit ScalarProber(const db::HashIndex &index,
                          PipelineConfig cfg = {})
        : index_(index), cfg_(cfg)
    {
    }

    template <typename Sink>
    u64
    probeAll(std::span<const u64> keys, Sink &&sink) const
    {
        const bool tagged = effectiveTagged(index_, cfg_);
        if (cfg_.batch == 0) {
            // Inline schedule: hash, walk, emit, one key at a time.
            u64 matches = 0;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const u64 key = keys[i];
                matches += index_.probeHashed(
                    key, index_.hashKey(key),
                    [&](u64 payload) { sink(i, key, payload); },
                    tagged);
            }
            return matches;
        }
        return index_.probeBatch(keys, sink, tagged, cfg_.batch);
    }

    u64
    probeAll(std::span<const u64> keys) const
    {
        return probeAll(keys, NullSink{});
    }

  private:
    const db::HashIndex &index_;
    PipelineConfig cfg_;
};

/** Group prefetching with a runtime group size. The group is also
 *  the dispatcher batch — keys are hashed and prefetched a group at
 *  a time — so PipelineConfig::batch is ignored here; only the
 *  tagged knob applies. */
class GroupPrefetchProber
{
  public:
    GroupPrefetchProber(const db::HashIndex &index, unsigned group,
                        PipelineConfig cfg = {})
        : index_(index), group_(group), cfg_(cfg)
    {
        fatal_if(group_ == 0, "group size must be nonzero");
        fatal_if(group_ > db::HashIndex::kMaxProbeBatch,
                 "group size exceeds the pipeline batch cap");
    }

    template <typename Sink>
    u64
    probeAll(std::span<const u64> keys, Sink &&sink) const
    {
        using Node = db::HashIndex::Node;
        u64 matches = 0;
        std::array<u64, db::HashIndex::kMaxProbeBatch> hashes;
        std::array<const Node *, db::HashIndex::kMaxProbeBatch>
            cursor;

        for (std::size_t base = 0; base < keys.size();
             base += group_) {
            const std::size_t g =
                std::min<std::size_t>(group_, keys.size() - base);
            const std::span<const u64> chunk =
                keys.subspan(base, g);

            // Stage 1 (dispatcher): batch-hash the group and
            // prefetch each key's first dependent line.
            index_.hashBatch(chunk, {hashes.data(), g});
            index_.prefetchStage(hashes.data(), g, cfg_.tagged);

            // Stage 2: tag-check each walk; survivors prefetch
            // their bucket header and arm a cursor. (Untagged
            // headers were already prefetched by stage 1.)
            for (std::size_t i = 0; i < g; ++i) {
                const u64 bidx = index_.bucketIndexOf(hashes[i]);
                if (cfg_.tagged &&
                    !index_.tagMayMatch(bidx, hashes[i])) {
                    cursor[i] = nullptr;
                    continue;
                }
                const db::HashIndex::Bucket &b =
                    index_.bucketAt(bidx);
                cursor[i] = &b.head;
                if (cfg_.tagged)
                    prefetch(&b.head);
            }

            // Stage 3+: advance every live walk one node per sweep,
            // prefetching the next node before moving on (the
            // parallel walkers' MLP, time-multiplexed on one core).
            std::size_t live = g;
            while (live > 0) {
                live = 0;
                for (std::size_t i = 0; i < g; ++i) {
                    const Node *n = cursor[i];
                    if (!n)
                        continue;
                    const u64 key = chunk[i];
                    if (index_.nodeKey(*n) == key) {
                        ++matches;
                        sink(base + i, key,
                             index_.nodePayload(*n));
                    }
                    // widx-lint: epoch-guard -- accessor-routed so
                    // the step is a clean acquire even when this
                    // prober is pointed at a live index.
                    const Node *nx = index_.nodeNext(*n);
                    cursor[i] = nx;
                    if (nx) {
                        prefetch(nx);
                        ++live;
                    }
                }
            }
        }
        return matches;
    }

    u64
    probeAll(std::span<const u64> keys) const
    {
        return probeAll(keys, NullSink{});
    }

  private:
    const db::HashIndex &index_;
    unsigned group_;
    PipelineConfig cfg_;
};

/**
 * Drain a hashed-key stream through a ring of W AMAC probe state
 * machines. The Stream supplies pre-hashed keys via
 * `bool next(std::size_t &i, u64 &key, u64 &hash)` — HashedWindow
 * for the single-threaded prober, a coalesced dispatch window for
 * IndexService walkers — and the Index supplies the hash-addressed
 * probe surface (tagMayMatchHash / bucketHeadFor / nodeKey), so the
 * same state machine serves a flat db::HashIndex and the
 * shard-resolving ShardedIndex surface alike.
 */
template <ProbeSurface Index, typename Stream, typename Sink>
u64
amacDrain(const Index &index, Stream &stream, unsigned width,
          bool tagged, Sink &&sink)
{
    using Node = db::HashIndex::Node;

    /** One in-flight AMAC probe. */
    // widx-lint: allow(padded) -- function-local, single-threaded
    // ring; the W slots are hot in one thread's L1 and *want* to be
    // dense, unlike the cross-thread slots the check targets.
    struct Slot
    {
        std::size_t i = 0;
        u64 key = 0;
        const Node *node = nullptr; ///< null = slot free
    };

    u64 matches = 0;
    std::array<Slot, kMaxWidth> slot{};
    unsigned live = 0;

    // Pull hashed keys from the stream until one passes the tag
    // filter and becomes an armed walk. The dispatcher prefetched
    // each tag byte back when its batch was hashed — a full batch
    // of work earlier — so the check here almost never stalls, and
    // rejected keys are skipped without ever touching a bucket
    // line.
    auto refill = [&](Slot &s) -> bool {
        std::size_t i;
        u64 key, hash;
        while (stream.next(i, key, hash)) {
            if (tagged && !index.tagMayMatchHash(hash))
                continue;
            // widx-lint: epoch-guard -- live-index bucket resolve;
            // the service walker's pin spans the whole drain.
            const Node *head = index.bucketHeadFor(hash);
            s.i = i;
            s.key = key;
            s.node = head;
            prefetch(head);
            return true;
        }
        return false;
    };

    for (unsigned w = 0; w < width; ++w)
        if (refill(slot[w]))
            ++live;

    // Round-robin: each visit consumes the (hopefully prefetched)
    // node, emits a match if any, and issues the next prefetch.
    while (live > 0) {
        for (unsigned w = 0; w < width; ++w) {
            Slot &s = slot[w];
            if (!s.node)
                continue;
            const Node *n = s.node;
            if (index.nodeKey(*n) == s.key) {
                ++matches;
                sink(s.i, s.key, index.nodePayload(*n));
            }
            // widx-lint: epoch-guard -- live-index chain step; the
            // service walker holds its epoch pin across the drain.
            if (const Node *nx = index.nodeNext(*n)) {
                s.node = nx;
                prefetch(nx);
            } else if (!refill(s)) {
                s.node = nullptr;
                --live;
            }
        }
    }
    return matches;
}

/** Asynchronous memory access chaining with W in-flight probes. */
class AmacProber
{
  public:
    AmacProber(const db::HashIndex &index, unsigned width,
               PipelineConfig cfg = {})
        : index_(index), width_(width), cfg_(cfg)
    {
        fatal_if(width_ == 0, "AMAC width must be nonzero");
        fatal_if(width_ > kMaxWidth,
                 "AMAC width exceeds the in-flight cap");
    }

    template <typename Sink>
    u64
    probeAll(std::span<const u64> keys, Sink &&sink) const
    {
        PipelineConfig cfg = cfg_;
        cfg.tagged = effectiveTagged(index_, cfg_);
        HashedWindow window(index_, keys, cfg);
        return amacDrain(index_, window, width_, cfg.tagged,
                         std::forward<Sink>(sink));
    }

    u64
    probeAll(std::span<const u64> keys) const
    {
        return probeAll(keys, NullSink{});
    }

  private:
    const db::HashIndex &index_;
    unsigned width_;
    PipelineConfig cfg_;
};

} // namespace widx::sw

#endif // WIDX_SWWALKERS_PROBERS_HH
