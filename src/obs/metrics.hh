/**
 * @file
 * Lock-light metrics registry with Prometheus text exposition.
 *
 * Two ways in, one way out:
 *
 *  - **Handles** (`Counter`, `Gauge`): registered once up front, then
 *    incremented on hot paths with a single relaxed atomic RMW on a
 *    cache-line-aligned cell. No locks, no lookups after creation —
 *    the handle is a pointer to its cell, and registration hands back
 *    the same cell for the same (name, labels) pair, so concurrent
 *    incrementers share one counter instead of shadowing each other.
 *    Every monotone counter of `IndexService`, the TCP server and the
 *    open-loop driver is a handle in a private registry, so its
 *    stats() or report view reads the cell the scrape exports.
 *
 *  - **Collectors**: callbacks that append whole metric families to a
 *    snapshot at scrape time, paid for by the scraper. They hold only
 *    computed state (sums and ratios over handles, gauges,
 *    histograms, counters of layers without a registry), plus the
 *    snapshot of their subsystem's private registry of handles.
 *
 * `snapshot()` merges both sources into a deterministic (name-sorted,
 * label-sorted) family list; `renderPrometheus()` serializes it in
 * the Prometheus text exposition format (# HELP / # TYPE, escaped
 * label values, cumulative `le` histogram buckets). Determinism here
 * is what makes the exposition golden-testable. Same-name families
 * merge, so a fact exported by both a handle and a collector shows
 * up as a series twice, which `tools/widx_stats` rejects.
 *
 * Lifetime: a collector may capture raw pointers into the subsystem
 * that registered it. The registry must therefore not be scraped
 * after that subsystem is destroyed — in practice the registry is
 * created first and destroyed last, alongside main().
 */

#ifndef WIDX_OBS_METRICS_HH
#define WIDX_OBS_METRICS_HH

#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/latency.hh"
#include "common/thread_safety.hh"
#include "common/types.hh"

namespace widx::obs {

/** Sorted-at-registration list of (label name, label value) pairs. */
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : u8 { Counter, Gauge, Histogram };

/** Snapshot of one histogram sample: cumulative bucket counts over
 *  fixed upper bounds, plus the classic _sum/_count pair. */
struct HistogramData
{
    std::vector<double> bounds; ///< `le` upper bounds, +Inf implied
    std::vector<u64> cumulative; ///< same size as bounds, monotone
    u64 count = 0; ///< total observations (the +Inf bucket)
    double sum = 0;
};

/** One (labels, value) sample within a family. */
struct Sample
{
    Labels labels;
    double value = 0; ///< counter/gauge value
    HistogramData hist; ///< histogram families only
};

/** One named metric family: all samples sharing a name and type. */
struct Family
{
    std::string name;
    std::string help;
    MetricType type = MetricType::Counter;
    std::vector<Sample> samples;
};

/** A scrape: name-sorted families, label-sorted samples within. */
using Snapshot = std::vector<Family>;

namespace detail {

/** One metric's storage; padded so two hot counters never share a
 *  cache line (the same false-sharing discipline as LatencyRecorder
 *  and the walker heartbeats). */
// widx-lint: padded
struct alignas(kCacheBlockBytes) Cell
{
    std::atomic<u64> bits{0}; ///< counter: count; gauge: double bits
};

} // namespace detail

/** Hot-path counter handle. Copyable; all copies share the cell. */
class Counter
{
  public:
    Counter() = default;

    void
    inc(u64 d = 1)
    {
        if (cell_)
            cell_->bits.fetch_add(d, std::memory_order_relaxed);
    }

    u64
    value() const
    {
        return cell_ ? cell_->bits.load(std::memory_order_relaxed)
                     : 0;
    }

  private:
    friend class MetricsRegistry;
    explicit Counter(detail::Cell *c) : cell_(c) {}
    detail::Cell *cell_ = nullptr;
};

/** Hot-path gauge handle (stores a double as its bit pattern). */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v)
    {
        if (cell_)
            cell_->bits.store(std::bit_cast<u64>(v),
                              std::memory_order_relaxed);
    }

    double
    value() const
    {
        return cell_ ? std::bit_cast<double>(cell_->bits.load(
                           std::memory_order_relaxed))
                     : 0.0;
    }

  private:
    friend class MetricsRegistry;
    explicit Gauge(detail::Cell *c) : cell_(c) {}
    detail::Cell *cell_ = nullptr;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Register (or look up) a counter. panic()s on an invalid
     *  metric/label name or on re-registering the name as a
     *  different type. */
    Counter counter(std::string_view name, std::string_view help,
                    Labels labels = {});

    /** Register (or look up) a gauge. */
    Gauge gauge(std::string_view name, std::string_view help,
                Labels labels = {});

    /** Register a scrape-time callback that appends families to the
     *  snapshot being built. Called under the registry mutex — keep
     *  it free of calls back into the registry. */
    void addCollector(std::function<void(Snapshot &)> fn);

    /** Deterministic merged snapshot of handles + collectors. */
    Snapshot snapshot() const;

    /** Serialize a snapshot as Prometheus text exposition. */
    static std::string renderPrometheus(const Snapshot &snap);

    std::string
    renderPrometheus() const
    {
        return renderPrometheus(snapshot());
    }

  private:
    struct Registered
    {
        Labels labels;
        std::unique_ptr<detail::Cell> cell;
    };
    struct FamilyReg
    {
        std::string help;
        MetricType type = MetricType::Counter;
        std::vector<Registered> metrics;
    };

    detail::Cell *cellFor(std::string_view name,
                          std::string_view help, Labels &&labels,
                          MetricType type);

    mutable Mutex m_; ///< registration + scrape only; never hot
    std::vector<std::pair<std::string, FamilyReg>> families_
        WIDX_GUARDED_BY(m_);
    std::vector<std::function<void(Snapshot &)>> collectors_
        WIDX_GUARDED_BY(m_);
};

/** Convert a LatencyHistogram into exposition bucket data over a
 *  fixed power-of-4 nanosecond ladder (1 us .. ~1.1 s), so every
 *  scrape of every histogram family shares one bound set. Bucket
 *  boundaries are quantized to the source histogram's log-bucket
 *  edges, so cumulative counts are exact for the source's ~3%
 *  resolution, not interpolated. */
HistogramData toHistogramData(const LatencyHistogram &h);

/** Test/report helper: find a sample's value in a snapshot. Returns
 *  `fallback` when the family or label set is absent. */
double snapshotValue(const Snapshot &snap, std::string_view name,
                     const Labels &labels = {}, double fallback = 0);

} // namespace widx::obs

#endif // WIDX_OBS_METRICS_HH
