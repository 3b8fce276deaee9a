/**
 * @file
 * Software-walkers example: the paper's insight on real hardware.
 *
 * Builds a DRAM-resident index and probes it with the software
 * schedules (scalar, batched scalar, AMAC), reporting wall-clock
 * throughput. On most machines the interleaved schedule wins by
 * 2-5x — the same inter-key parallelism Widx harvests with hardware
 * walker units. Exits nonzero if any prober's match count differs
 * from the scalar baseline.
 */

#include <chrono>
#include <cstdio>

#include "common/arena.hh"
#include "common/rng.hh"
#include "swwalkers/probers.hh"
#include "workload/distributions.hh"

using namespace widx;

namespace {

double
mtuplesPerSec(std::size_t keys, double seconds)
{
    return double(keys) / seconds / 1e6;
}

/** Time one prober; false when its match count is wrong. */
template <typename Prober>
bool
run(const char *name, const Prober &prober,
    const std::vector<u64> &keys, u64 expected, double base_mts)
{
    auto start = std::chrono::steady_clock::now();
    u64 matches = prober.probeAll(keys);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    double mts = mtuplesPerSec(keys.size(), secs);
    std::printf("%-24s %8.1f Mtuples/s  %5.2fx  %s\n", name, mts,
                base_mts > 0 ? mts / base_mts : 1.0,
                matches == expected ? "" : "MISMATCH");
    return matches == expected;
}

} // namespace

int
main()
{
    const u64 tuples = 8u << 20; // ~384 MB footprint
    const u64 probes = 2u << 20;
    std::printf("building %llu-tuple index (DRAM-resident)...\n",
                (unsigned long long)tuples);

    Arena arena;
    Rng rng(42);
    db::Column build("b", db::ValueKind::U64, arena, tuples);
    for (u64 k : wl::shuffledDenseKeys(tuples, rng))
        build.push(k);
    db::IndexSpec spec;
    spec.buckets = tuples;
    spec.hashFn = db::HashFn::monetdbRobust();
    db::HashIndex index(spec, arena);
    index.buildFromColumn(build);

    std::vector<u64> keys = wl::uniformKeys(probes, tuples, rng);

    // Inline, untagged Listing 1 baseline.
    sw::ScalarProber scalar(index, {.batch = 0, .tagged = false});
    u64 expected = scalar.probeAll(keys);

    // Measure the scalar baseline.
    auto start = std::chrono::steady_clock::now();
    scalar.probeAll(keys);
    double scalar_secs = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    double base = mtuplesPerSec(keys.size(), scalar_secs);

    std::printf("%-24s %8s %18s\n", "prober", "rate", "vs scalar");
    std::printf("%-24s %8.1f Mtuples/s  1.00x\n",
                "scalar (Listing 1)", base);
    bool ok = run("scalar batched+tagged",
                  sw::ScalarProber(index, {}), keys, expected, base);
    ok &= run("AMAC (W=8)", sw::AmacProber(index, 8), keys, expected,
              base);
    return ok ? 0 : 1;
}
