/**
 * @file
 * Construction-time knobs for the persistent index service — a leaf
 * header (the ServiceConfig analogue of pipeline_config.hh) so the
 * db layer can accept a service without pulling in the service
 * implementation or the prober templates.
 */

#ifndef WIDX_SERVICE_SERVICE_CONFIG_HH
#define WIDX_SERVICE_SERVICE_CONFIG_HH

#include <memory>

#include "service/admission.hh"
#include "swwalkers/pipeline_config.hh"

namespace widx::obs {
class TraceRing; // obs/trace.hh; kept opaque so this stays a leaf
}

namespace widx::sw {

/** Shard arena placement policy. */
enum class NumaPolicy
{
    /** Build every shard on the constructing thread (all arenas
     *  first-touched on its node). */
    None,
    /** Build each shard on its own thread so the OS first-touch
     *  policy spreads the shard arenas across nodes (and the build
     *  parallelizes); when walker pinning is on, shard build
     *  threads are pinned round-robin over the host's *usable* CPUs
     *  (Topology::host() — the affinity mask is honored). Explicit
     *  node binding (libnuma) is deliberately not a dependency —
     *  see src/service/README.md. */
    FirstTouch,
    /** Topology-aware first touch: each shard is assigned a target
     *  node (Topology::nodeForSlot block distribution) and its
     *  build thread is pinned to a CPU *on that node*, so the
     *  arena's pages are first-touched on that node. Build threads
     *  are always pinned under this policy (pinning is the
     *  point). */
    NodeBound,
};

/**
 * Live-mutation knobs: the writer path that coexists with the
 * always-on walkers (see src/service/README.md and
 * db/hash_index.hh's live-mutation contract). Only meaningful for a
 * service that *builds* its index; a view-mode service wraps an
 * index it does not own and rejects mutation kinds.
 */
struct MutationConfig
{
    /** Accept Insert/Delete/Upsert request kinds. Each shard gets a
     *  single-writer mutex (probes stay lock-free; mutations to
     *  different shards run concurrently) plus epoch-based
     *  reclamation for erased nodes and replaced bucket arrays. */
    bool enabled = false;
    /** Per-shard load factor (entries / buckets) that triggers an
     *  incremental rebuild: the shard's bucket array is regrown 2x
     *  into a fresh arena off the writer's thread of control and
     *  published with one epoch-protected pointer swap — readers
     *  see the old or the new array, never a partial rehash. */
    double rebuildLoadFactor = 0.75;
};

/** Construction-time description of an IndexService. */
struct ServiceConfig
{
    /** Hash-range shards (power of two, clamped to [1, 64]): the
     *  global bucket space splits into `shards` contiguous ranges,
     *  each with its own bucket+tag arena. Ignored when the service
     *  wraps an existing (already-built) HashIndex. */
    unsigned shards = 1;
    /** Persistent walker threads parked between requests (clamped
     *  to [1, kMaxWalkers]). */
    unsigned walkers = 1;
    /** In-flight probes per walker drain (AMAC W; clamped to
     *  [1, kMaxWidth]). 16 is the measured knee for DRAM-resident
     *  joins: on a 4-vCPU Xeon VM, 3 walkers joining 256K keys
     *  against a 16M-tuple (750 MB) index took a median 12.1 ms
     *  per call at width 8, 10.1 at 12 and 9.4 at 16; 20 to 32
     *  read 8.9-9.0 ms, inside 16's own spread (8.5-10.0). */
    unsigned width = 16;
    /** Shared pipeline knobs: `batch` is the chunk size requests
     *  are sliced into. Sub-chunk tails coalesce into shared
     *  windows of up to `batch` keys; a request's full chunks seal
     *  as windows of up to HashIndex::kMaxProbeBatch keys, spread
     *  over the walkers (see IndexService, "Admission batching").
     *  `tagged` is the fingerprint filter's cold-start default;
     *  once enough keys have been swept, the observed reject rate
     *  turns the filter on or off per window. `walkers` here is
     *  ignored — the service's own walker count rules. */
    PipelineConfig pipeline{};
    /** Pin walker threads round-robin over the usable CPUs
     *  (pinCurrentThread: walker w takes the w-th usable CPU,
     *  folded). With FirstTouch placement it also pins the shard
     *  build threads the same way. */
    bool pinWalkers = false;
    /** Shard arena placement (see NumaPolicy). */
    NumaPolicy numa = NumaPolicy::None;
    /**
     * Coalesce sub-chunk request tails into shared open dispatch
     * windows (admission batching — the walkers design's central
     * latency trade: a tail waits for co-runners so drains see
     * full-width windows). Off, every tail seals its own window at
     * admission: no cross-request coalescing, narrower windows,
     * but a request is never held behind another's traffic. The
     * open-loop latency bench (bench/latency_bench.cc) sweeps this
     * axis against arrival rate. */
    bool coalesceTails = true;
    /**
     * SLO-driven admission (see admission.hh). With
     * `admission.adaptive` set, an AIMD controller replaces the
     * static coalesceTails bool: it holds tail windows open up to a
     * measured-queue-wait-driven threshold and bounds the admission
     * queues, shedding over-budget submissions with
     * Status::Rejected so queue-wait p99 tracks
     * `admission.targetQueueP99Ns` instead of growing without bound
     * under overload. */
    AdmissionConfig admission{};
    /**
     * Static bound on keys parked in the admission queues
     * (0 = unbounded). A submission that finds the queues at or
     * over the bound completes immediately with Status::Rejected
     * instead of queueing (the queue can overshoot by at most one
     * request: the bound is checked before admission, never by
     * splitting a request). Composes with the adaptive budget — the
     * effective bound is the smaller of the two. */
    u64 maxQueuedKeys = 0;
    /**
     * Walker watchdog period (0 = off). On, a monitor thread wakes
     * every period, and any walker that has been inside a single
     * window drain for longer than `stallThresholdNs` is reported:
     * a warning log line plus ServiceStats::walkerStalls (once per
     * stuck window, not per period). Purely observational — the
     * other walkers keep claiming from the shared window queue,
     * which is what keeps traffic flowing around a stuck walker. */
    u64 watchdogPeriodNs = 0;
    /** How long one window drain may run before the watchdog calls
     *  the walker stalled. */
    u64 stallThresholdNs = 100'000'000;
    /**
     * Hardware-counter sampling cadence: every Nth window drain per
     * walker runs inside an obs::PerfGroup (cycles / instructions /
     * LLC misses / dTLB misses), accumulated into per-walker
     * counters the registry exports as misses-per-probe and an IPC
     * proxy. 0 = off (no perf fds opened). Where perf access is
     * denied (containers, CI) the group degrades to zeros — the
     * sampling branch stays, the counters just never move. */
    u32 perfSamplePeriod = 0;
    /**
     * Optional span-trace ring (obs/trace.hh). When set, requests
     * submitted with a nonzero SubmitOptions::traceId get instant
     * span events stamped at submit / window seal / first claim /
     * drain done. Shared so transports (the TCP server's reaper
     * stamps the reap span) and dump paths can read the same ring.
     * Null = tracing off; untraced requests pay one pointer test. */
    std::shared_ptr<obs::TraceRing> trace;
    /** Live mutation (Insert/Delete/Upsert kinds, per-shard single
     *  writer, epoch reclamation, incremental rebuilds). */
    MutationConfig mutation{};
};

} // namespace widx::sw

#endif // WIDX_SERVICE_SERVICE_CONFIG_HH
