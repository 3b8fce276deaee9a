#include "workload/join_kernel.hh"

#include <span>

#include "common/logging.hh"
#include "common/rng.hh"
#include "db/hash_join.hh"
#include "service/index_service.hh"
#include "swwalkers/probers.hh"
#include "workload/distributions.hh"

namespace widx::wl {

KernelDataset::KernelDataset(const KernelSize &sz, u64 seed)
    : size(sz)
{
    Rng rng(seed);

    buildKeys = std::make_unique<db::Column>(
        "build.key", db::ValueKind::U64, arena, sz.tuples);
    for (u64 k : shuffledDenseKeys(sz.tuples, rng))
        buildKeys->push(k);

    probeKeys = std::make_unique<db::Column>(
        "probe.key", db::ValueKind::U64, arena, sz.probes);
    for (u64 k : uniformKeys(sz.probes, sz.tuples, rng))
        probeKeys->push(k);

    // Power-of-two bucket count at load factor <= 1 keeps bucket
    // depth at 1-2 nodes (the kernel's "up to two nodes per bucket").
    db::IndexSpec spec;
    spec.buckets = sz.tuples;
    spec.hashFn = db::HashFn::kernelMaskXor();
    spec.indirectKeys = false;
    index = std::make_unique<db::HashIndex>(spec, arena);
    index->buildFromColumn(*buildKeys);

    outRegion = arena.makeArray<u64>(2 * (sz.probes + 8));
}

const char *
probeScheduleName(ProbeSchedule sched)
{
    switch (sched) {
      case ProbeSchedule::Scalar:
        return "scalar";
      case ProbeSchedule::BatchedScalar:
        return "batched-scalar";
      case ProbeSchedule::GroupPrefetch:
        return "group-prefetch";
      case ProbeSchedule::Amac:
        return "amac";
    }
    panic("bad probe schedule");
}

u64
runKernelProbes(const KernelDataset &data, ProbeSchedule sched,
                unsigned width, bool tagged, unsigned walkers)
{
    const std::span<const u64> keys{
        reinterpret_cast<const u64 *>(
            std::uintptr_t(data.probeKeys->baseAddr())),
        data.probeKeys->size()};

    // Producer-style emission: append {key, payload} words to the
    // dataset's results region through the inlined sink.
    u64 *out = data.outRegion;
    u64 cursor = 0;
    auto sink = [&](std::size_t, u64 key, u64 payload) {
        out[cursor++] = key;
        out[cursor++] = payload;
    };

    sw::PipelineConfig cfg;
    cfg.tagged = tagged;
    if (sched == ProbeSchedule::Scalar)
        cfg.batch = 0;

    if (walkers > 1) {
        // Multi-threaded: a scoped IndexService runs the AMAC state
        // machines on K persistent walker threads and db::probeAll
        // fans the probe column out through it. The joined pairs
        // come back in probeBatch order and replay into the results
        // region on this thread, so `out` needs no synchronization.
        // Only AMAC has a walker engine — reject the other schedules
        // loudly rather than silently measuring AMAC under their
        // name.
        fatal_if(sched != ProbeSchedule::Amac,
                 "walkers > 1 requires the Amac schedule (got %s)",
                 probeScheduleName(sched));
        sw::ServiceConfig scfg;
        scfg.walkers = walkers;
        scfg.width = width;
        scfg.pipeline = cfg;
        sw::IndexService service(*data.index, scfg);
        const db::JoinResult jr =
            db::probeAll(service, *data.probeKeys);
        // The scoped service runs with unbounded admission and no
        // deadline, so the join must complete Ok. If a future config
        // plumbs maxQueuedKeys / adaptive admission in here, fail
        // loudly rather than write a partial result.
        fatal_if(jr.status != sw::Status::Ok,
                 "kernel probe join completed %s",
                 sw::statusName(jr.status));
        for (const db::JoinPair &p : jr.pairs) {
            out[cursor++] = keys[p.probeRow];
            out[cursor++] = p.buildRow;
        }
        return jr.matches;
    }

    switch (sched) {
      case ProbeSchedule::Scalar:
      case ProbeSchedule::BatchedScalar:
        return sw::ScalarProber(*data.index, cfg)
            .probeAll(keys, sink);
      case ProbeSchedule::GroupPrefetch:
        return sw::GroupPrefetchProber(*data.index, width, cfg)
            .probeAll(keys, sink);
      case ProbeSchedule::Amac:
        return sw::AmacProber(*data.index, width, cfg)
            .probeAll(keys, sink);
    }
    panic("bad probe schedule");
}

} // namespace widx::wl
