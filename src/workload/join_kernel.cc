#include "workload/join_kernel.hh"

#include "common/rng.hh"
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

} // namespace widx::wl
