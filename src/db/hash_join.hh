/**
 * @file
 * No-partitioning hash join (the paper's Section 2.2 example and the
 * Balkesen et al. kernel it evaluates): build a hash index on the
 * smaller relation, then probe it with every key of the larger one.
 *
 * The probe loop is exactly the indexing operation Widx accelerates;
 * JoinResult reports build and probe phases separately so the Fig. 2
 * breakdown can attribute them to "Index" time.
 */

#ifndef WIDX_DB_HASH_JOIN_HH
#define WIDX_DB_HASH_JOIN_HH

#include <vector>

#include "common/arena.hh"
#include "db/column.hh"
#include "db/hash_index.hh"
#include "swwalkers/pipeline_config.hh"

namespace widx::sw {
class IndexService;
enum class Status : u8;
}

namespace widx::db {

/** One matched pair of row ids (build row, probe row). */
struct JoinPair
{
    RowId buildRow;
    RowId probeRow;
};

struct JoinResult
{
    std::vector<JoinPair> pairs;
    double buildSeconds = 0.0;
    double probeSeconds = 0.0;
    u64 probes = 0;
    u64 matches = 0;
    /** How the probe phase completed: sw::Status, always Ok (0) on
     *  the direct HashIndex paths. The IndexService overload sets it
     *  non-Ok when the service gave up mid-run (stopped, or a slice
     *  expired) — the join is then partial and pairs/matches must
     *  not be trusted, mirroring ServiceResult's non-Ok contract. */
    sw::Status status = sw::Status{};
};

/**
 * Equi-join build.probe on build_keys = probe_keys.
 *
 * @param build_keys column the index is built on (smaller relation).
 * @param probe_keys column driving the probes (outer relation).
 * @param spec index geometry; spec.buckets is usually sized to the
 *        build cardinality.
 * @param arena storage for the index.
 * @param materialize when false, matches are counted but not stored
 *        (large joins in benchmarks).
 * @param cfg probe-pipeline knobs: batch and tagged select the
 *        dispatcher schedule, used as given on the calling thread.
 *        Multi-walker probes go through a sw::IndexService and the
 *        IndexService overload of probeAll.
 */
JoinResult hashJoin(const Column &build_keys, const Column &probe_keys,
                    const IndexSpec &spec, Arena &arena,
                    bool materialize = true,
                    const sw::PipelineConfig &cfg = {});

/**
 * Probe an existing index with every key of a column; the core of
 * Listing 1's do_index. Used by tests and by the host-side Fig. 2
 * measurement; runs on the calling thread (see hashJoin).
 */
JoinResult probeAll(const HashIndex &index, const Column &probe_keys,
                    bool materialize = true,
                    const sw::PipelineConfig &cfg = {});

/**
 * Probe through a long-lived sw::IndexService: the column's keys
 * fan out as sliced async requests served by the service's parked
 * walkers (and shards), so repeated calls pay no per-call thread
 * spawn. Pairs stream into JoinResult::pairs in slice order: each
 * slice appends as soon as every slice before it has, while the
 * walkers still drain later slices, and its records are freed as
 * it appends. The pair sequence is byte-identical to the
 * single-threaded probeBatch path. Bounded admission is honored,
 * not bypassed: the fan-out keeps a limited number of slices in
 * flight and resubmits slices the service sheds (Status::Rejected),
 * so a bounded or adaptive admission budget backpressures this
 * caller instead of silently dropping part of the join. Check
 * JoinResult::status: non-Ok (service stopped mid-run, deadline)
 * means the join did not complete, and pairs is left empty.
 */
JoinResult probeAll(sw::IndexService &service,
                    const Column &probe_keys,
                    bool materialize = true);

} // namespace widx::db

#endif // WIDX_DB_HASH_JOIN_HH
