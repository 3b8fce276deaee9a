/**
 * @file
 * Shared probe-pipeline knobs, split into a leaf header so the db
 * layer can accept a PipelineConfig (db::probeAll/hashJoin
 * overloads) without pulling in the prober templates — the
 * swwalkers -> db dependency stays one-directional at the template
 * level.
 */

#ifndef WIDX_SWWALKERS_PIPELINE_CONFIG_HH
#define WIDX_SWWALKERS_PIPELINE_CONFIG_HH

#include "db/hash_index.hh"

namespace widx::sw {

/** Hard cap on IndexService walker threads (sanity). */
inline constexpr unsigned kMaxWalkers = 64;

/** Shared pipeline knobs. */
struct PipelineConfig
{
    /** Keys hashed per dispatcher batch; 0 = inline (no batching,
     *  hash each key right before its walk — the Listing 1
     *  schedule). Clamped to HashIndex::kMaxProbeBatch. For the
     *  IndexService this is also the dispatch-window size small
     *  requests coalesce into. */
    unsigned batch = unsigned(db::HashIndex::kProbeBatch);
    /** Reject non-matching buckets on the one-byte tag filter.
     *  One-shot probers (ScalarProber, AmacProber, the
     *  single-thread db::probeAll) use it as given. For an
     *  IndexService it is only the cold-start default: once the
     *  index's tag sweeps have checked
     *  db::TagFilterStats::kMinSampleKeys keys, the observed reject
     *  rate decides per window (see IndexService::drainWindow). */
    bool tagged = true;
};

} // namespace widx::sw

#endif // WIDX_SWWALKERS_PIPELINE_CONFIG_HH
