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
    /** Reject non-matching buckets on the one-byte tag filter. */
    bool tagged = true;
    /** Adaptive tagging: when set, `tagged` is only the cold-start
     *  default — effectiveTagged() lets the index's observed reject
     *  rate (db::TagFilterStats, fed by the batched tag sweeps)
     *  flip the filter off once it rejects too few buckets to pay
     *  for its byte loads. Because only tagged sweeps feed the
     *  stats, a flipped-off filter needs a re-sampling consumer to
     *  swing back on: the IndexService runs every 32nd untagged
     *  window tagged for exactly that, so a long-lived service
     *  recovers the filter when traffic turns selective again. */
    bool adaptiveTags = false;
    /** Walker threads; <= 1 keeps every prober on the calling
     *  thread. Only the db entry points (db::probeAll / hashJoin)
     *  consult this knob: > 1 runs the call on a scoped
     *  IndexService with that many walkers. */
    unsigned walkers = 1;
};

/** Resolve the tag knob against the index's observed reject rate
 *  (identity unless cfg.adaptiveTags). Templated for the same
 *  reason as the drains: db::HashIndex and sw::ShardedIndex both
 *  expose taggedWorthwhile(). */
template <typename Index>
inline bool
effectiveTagged(const Index &index, const PipelineConfig &cfg)
{
    return cfg.adaptiveTags ? index.taggedWorthwhile(cfg.tagged)
                            : cfg.tagged;
}

} // namespace widx::sw

#endif // WIDX_SWWALKERS_PIPELINE_CONFIG_HH
