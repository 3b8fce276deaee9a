#include "service/admission.hh"

#include <algorithm>

namespace widx::sw {

AdmissionController::AdmissionController(const AdmissionConfig &cfg,
                                         u32 chunkKeys,
                                         unsigned recorderShards)
    : cfg_(cfg),
      chunk_(std::max(1u, chunkKeys)),
      hold_(std::max(1u, chunkKeys)),
      budget_(kMaxBudgetKeys),
      rec_(recorderShards)
{
}

void
AdmissionController::observe(u64 nowNs)
{
    u64 next = nextAdjustNs_.load(std::memory_order_relaxed);
    if (nowNs < next)
        return;
    // Elect one adjuster per interval; losers return immediately.
    if (!nextAdjustNs_.compare_exchange_strong(
            next, nowNs + cfg_.intervalNs,
            std::memory_order_relaxed))
        return;

    // A previous adjuster can still be inside the critical section
    // when a long interval elapses mid-adjustment; skipping is
    // cheaper and no less correct than queueing behind it.
    if (!m_.tryLock())
        return;
    adjustLocked();
    m_.unlock();
}

void
AdmissionController::adjustLocked()
{
    // Sample the interval. Below the sample floor the cursor stays
    // put, so a sparse interval folds into the next one instead of
    // steering on a handful of claims.
    const LatencyHistogram cum = rec_.snapshot();
    const LatencyHistogram win = cum.deltaSince(cursor_);
    if (win.count() < kMinIntervalSamples)
        return;
    cursor_ = cum;

    const u64 p99 = win.percentileNs(99.0);
    lastP99_.store(p99, std::memory_order_relaxed);
    lastCount_.store(win.count(), std::memory_order_relaxed);
    adjustments_.fetch_add(1, std::memory_order_relaxed);

    if (p99 > cfg_.targetQueueP99Ns) {
        // Multiplicative decrease: stop holding windows open first
        // (the moderate-load lever), then shed by halving the queue
        // budget — under sustained overload only bounding the queue
        // bounds the percentile. A severe overshoot (4x target)
        // isn't a batching problem at all: cut the budget in the
        // same step so a cold-start at kMaxBudgetKeys converges in a
        // handful of intervals instead of walking the hold ladder
        // down first while the queue keeps inflating the tail.
        decreases_.fetch_add(1, std::memory_order_relaxed);
        const u32 h = hold_.load(std::memory_order_relaxed);
        if (h > 1)
            hold_.store(std::max(1u, h / 2),
                        std::memory_order_relaxed);
        if (h <= 1 || p99 > 4 * cfg_.targetQueueP99Ns) {
            const u64 b = budget_.load(std::memory_order_relaxed);
            budget_.store(std::max(kMinBudgetKeys, b / 2),
                          std::memory_order_relaxed);
        }
    } else if (p99 <= cfg_.targetQueueP99Ns -
                          cfg_.targetQueueP99Ns / 4) {
        // Additive increase, only when comfortably (>= 25%) under
        // target — inside the band the knobs hold still so the
        // controller doesn't oscillate against its own SLO edge.
        // Budget recovers before hold: admitting shed traffic beats
        // re-batching the admitted.
        const u64 b = budget_.load(std::memory_order_relaxed);
        if (b < kMaxBudgetKeys) {
            budget_.store(std::min(kMaxBudgetKeys, b + kBudgetStepKeys),
                          std::memory_order_relaxed);
        } else {
            const u32 h = hold_.load(std::memory_order_relaxed);
            if (h < chunk_)
                hold_.store(std::min(chunk_, h + kHoldStepKeys),
                            std::memory_order_relaxed);
        }
    }
}

AdmissionSnapshot
AdmissionController::snapshot() const
{
    AdmissionSnapshot s;
    s.holdKeys = hold_.load(std::memory_order_relaxed);
    s.budgetKeys = budget_.load(std::memory_order_relaxed);
    s.adjustments = adjustments_.load(std::memory_order_relaxed);
    s.decreases = decreases_.load(std::memory_order_relaxed);
    s.lastWindowP99Ns = lastP99_.load(std::memory_order_relaxed);
    s.lastWindowCount = lastCount_.load(std::memory_order_relaxed);
    return s;
}

} // namespace widx::sw
