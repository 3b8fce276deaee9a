/**
 * @file
 * google-benchmark microbenchmarks for the software walkers
 * (Section 7's "insights applicable elsewhere", and the AMAC line
 * of work this paper seeded).
 *
 * On a DRAM-resident index the interleaved AMAC prober overlaps
 * cache misses across probes — the same inter-key parallelism Widx
 * exploits with hardware walkers — and beats the scalar Listing 1
 * loop by integer factors on real hardware. The multi-walker
 * (K-thread) curve is bench/ablation_walker_scaling.cc.
 *
 * Every prober is measured in pipeline variants: inline vs batched
 * dispatch (arg "batch": 0 = hash each key right before its walk,
 * >0 = vector-hash a whole batch first) and untagged vs tagged
 * buckets (arg "tag"). A miss-heavy key set isolates the tag
 * filter's one-byte reject.
 *
 * No gate reads these rows: CI's traced bench/e2e smoke gates the
 * same probeBatch and AMAC kernels (.github/workflows/ci.yml).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "swwalkers/probers.hh"
#include "workload/distributions.hh"

using namespace widx;

namespace {

/** Shared dataset (built once per size). */
struct Dataset
{
    Arena arena;
    std::unique_ptr<db::HashIndex> index;
    std::vector<u64> keys;     ///< uniform hits
    std::vector<u64> missKeys; ///< keys absent from the index

    explicit Dataset(u64 tuples)
    {
        Rng rng(42);
        db::Column build("b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::shuffledDenseKeys(tuples, rng))
            build.push(k);
        db::IndexSpec spec;
        spec.buckets = tuples;
        spec.hashFn = db::HashFn::monetdbRobust();
        index = std::make_unique<db::HashIndex>(spec, arena);
        index->buildFromColumn(build);
        keys = wl::uniformKeys(1u << 20, tuples, rng);
        missKeys = wl::uniformKeys(1u << 20, tuples, rng);
        for (u64 &k : missKeys)
            k += tuples; // dense build keys live in [0, tuples)
    }
};

Dataset &
large()
{
    static Dataset d(8u << 20); // ~384 MB footprint: DRAM-resident
    return d;
}

Dataset &
small()
{
    static Dataset d(4096); // L1/L2-resident
    return d;
}

/** Items/s = probed keys/s of the dataset actually used. */
void
reportTuples(benchmark::State &state, const std::vector<u64> &keys,
             u64 matches)
{
    state.SetItemsProcessed(i64(state.iterations()) *
                            i64(keys.size()));
    benchmark::DoNotOptimize(matches);
}

sw::PipelineConfig
cfgFromArgs(const benchmark::State &state, int batch_arg,
            int tag_arg)
{
    return {.batch = unsigned(state.range(batch_arg)),
            .tagged = state.range(tag_arg) != 0};
}

} // namespace

// Args: dataset (0 small / 1 large), batch (0 = inline), tag.
static void
BM_Scalar(benchmark::State &state)
{
    Dataset &d = state.range(0) ? large() : small();
    sw::ScalarProber prober(*d.index, cfgFromArgs(state, 1, 2));
    u64 matches = 0;
    for (auto _ : state)
        matches = prober.probeAll(d.keys);
    reportTuples(state, d.keys, matches);
}
BENCHMARK(BM_Scalar)
    ->ArgNames({"large", "batch", "tag"})
    ->Args({0, 0, 0})
    ->Args({0, 64, 1})
    ->Args({1, 0, 0})  // the Listing 1 baseline
    ->Args({1, 0, 1})  // tagged layout, inline schedule
    ->Args({1, 64, 0}) // batched dispatch, no tags
    ->Args({1, 64, 1}); // full pipeline

// Args: width, batch, tag.
static void
BM_Amac(benchmark::State &state)
{
    Dataset &d = large();
    sw::AmacProber prober(*d.index, unsigned(state.range(0)),
                          cfgFromArgs(state, 1, 2));
    u64 matches = 0;
    for (auto _ : state)
        matches = prober.probeAll(d.keys);
    reportTuples(state, d.keys, matches);
}
BENCHMARK(BM_Amac)
    ->ArgNames({"W", "batch", "tag"})
    ->Args({2, 64, 1})
    ->Args({4, 64, 1})
    ->Args({8, 0, 1})  // interleaved walks, inline hashing
    ->Args({8, 64, 0}) // batched dispatch, no tags
    ->Args({8, 64, 1}) // the headline configuration
    ->Args({16, 64, 1});

// Tag-filter isolation: every probe misses; the tagged pipeline
// rejects on the byte array without ever touching a bucket line.
// Args: tag.
static void
BM_ScalarMisses(benchmark::State &state)
{
    Dataset &d = large();
    sw::PipelineConfig cfg{.batch = 64,
                           .tagged = state.range(0) != 0};
    sw::ScalarProber prober(*d.index, cfg);
    u64 matches = 0;
    for (auto _ : state)
        matches = prober.probeAll(d.missKeys);
    reportTuples(state, d.missKeys, matches);
}
BENCHMARK(BM_ScalarMisses)->ArgNames({"tag"})->Arg(0)->Arg(1);

static void
BM_AmacMisses(benchmark::State &state)
{
    Dataset &d = large();
    sw::PipelineConfig cfg{.batch = 64,
                           .tagged = state.range(0) != 0};
    sw::AmacProber prober(*d.index, 8, cfg);
    u64 matches = 0;
    for (auto _ : state)
        matches = prober.probeAll(d.missKeys);
    reportTuples(state, d.missKeys, matches);
}
BENCHMARK(BM_AmacMisses)->ArgNames({"tag"})->Arg(0)->Arg(1);

// SIMD tag-filter isolation: the batched fingerprint sweep over a
// miss-heavy hash batch — the scalar kernel vs the cpuid-dispatched
// one (AVX2 tag-byte gathers; on a host without AVX2 both rows run
// the scalar path and read ~1x). The end-to-end effect on probes
// shows up in BM_ScalarMisses/tag:1, which rides this sweep inside
// probeBatch. Args: simd.
static void
BM_TagFilter(benchmark::State &state)
{
    Dataset &d = large();
    std::vector<u64> hashes(d.missKeys.size());
    d.index->hashBatch(d.missKeys, hashes);
    const std::size_t batch = db::HashIndex::kMaxProbeBatch;
    u64 bits[db::HashIndex::kMaxProbeBatch / 64];
    const bool simd = state.range(0) != 0;
    u64 survivors = 0;
    std::size_t base = 0;
    for (auto _ : state) {
        survivors +=
            simd ? d.index->tagFilterBatch(hashes.data() + base,
                                           batch, bits)
                 : d.index->tagFilterBatchScalar(
                       hashes.data() + base, batch, bits);
        base = (base + batch) % (hashes.size() - batch);
    }
    state.SetItemsProcessed(i64(state.iterations()) * i64(batch));
    benchmark::DoNotOptimize(survivors);
    benchmark::DoNotOptimize(bits);
}
BENCHMARK(BM_TagFilter)->ArgNames({"simd"})->Arg(0)->Arg(1);

BENCHMARK_MAIN();
