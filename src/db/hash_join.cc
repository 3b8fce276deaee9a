#include "db/hash_join.hh"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "service/index_service.hh"

namespace widx::db {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    auto delta = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(delta).count();
}

/** One contiguous u64 view of a key column: the storage in place
 *  for 8-byte columns, widened through `storage` otherwise. */
std::span<const u64>
contiguousKeys(const Column &col, std::vector<u64> &storage)
{
    const u64 n = col.size();
    if (col.elemWidth() == 8)
        return {reinterpret_cast<const u64 *>(
                    std::uintptr_t(col.baseAddr())),
                n};
    storage.resize(n);
    for (u64 i = 0; i < n; ++i)
        storage[i] = col.at(i);
    return storage;
}

} // namespace

JoinResult
probeAll(const HashIndex &index, const Column &probe_keys,
         bool materialize, const sw::PipelineConfig &cfg)
{
    JoinResult result;
    const u64 n = probe_keys.size();
    result.probes = n;

    // The probe loop rides the decoupled batch pipeline: keys are
    // vector-hashed and their tag/bucket lines prefetched a batch at
    // a time before any bucket walk starts. The batched-scalar
    // schedule walks keys in row order and chains in node order, so
    // the emitted pair sequence is identical to the classic loop's.
    if (materialize)
        result.pairs.reserve(n);

    const std::size_t batch =
        cfg.batch ? cfg.batch : HashIndex::kProbeBatch;

    auto start = std::chrono::steady_clock::now();
    if (probe_keys.elemWidth() != 8) {
        // Narrow columns widen through the 64-bit carrier, staged
        // through a stack buffer of several dispatcher batches so
        // probeBatch's dispatch-ahead pipeline still overlaps
        // batches within each chunk (O(1) staging memory).
        u64 widened[HashIndex::kMaxProbeBatch];
        for (u64 base = 0; base < n;
             base += HashIndex::kMaxProbeBatch) {
            const u64 g =
                std::min<u64>(HashIndex::kMaxProbeBatch, n - base);
            for (u64 i = 0; i < g; ++i)
                widened[i] = probe_keys.at(base + i);
            result.matches += index.probeBatch(
                std::span<const u64>{widened, g},
                [&](std::size_t i, u64, u64 payload) {
                    if (materialize)
                        result.pairs.push_back(
                            {payload, RowId(base + i)});
                },
                cfg.tagged, batch);
        }
        result.probeSeconds = secondsSince(start);
        return result;
    }

    const std::span<const u64> keys{
        reinterpret_cast<const u64 *>(
            std::uintptr_t(probe_keys.baseAddr())),
        n};
    result.matches = index.probeBatch(
        keys,
        [&](std::size_t r, u64, u64 payload) {
            if (materialize)
                result.pairs.push_back({payload, RowId(r)});
        },
        cfg.tagged, batch);
    result.probeSeconds = secondsSince(start);
    return result;
}

JoinResult
probeAll(sw::IndexService &service, const Column &probe_keys,
         bool materialize)
{
    JoinResult result;
    result.probes = probe_keys.size();

    std::vector<u64> widened;
    const std::span<const u64> keys =
        contiguousKeys(probe_keys, widened);

    // Async slicing: the probe side goes out as many independent
    // requests through one CompletionQueue instead of a single
    // blocking call, so every walker has work from the first slice
    // on while later slices are still being admitted. Slices are
    // position-contiguous, so appending them in slice order with a
    // base offset reproduces the single-request record sequence
    // byte-for-byte. Each slice appends as soon as every slice
    // before it has, so the replay overlaps the walkers' work on
    // later slices instead of following the last one.
    //
    // The fan-out must honor bounded admission, not defeat it. The
    // old blocking path submitted one whole request, which the
    // admission queues either take or reject atomically; a naive
    // submit-everything fan-out instead fills the queues with its
    // own early slices and gets its own later slices shed
    // (Status::Rejected, empty results) — a silently partial join.
    // So: at most kMaxInFlight slices are outstanding at once, and
    // a shed slice is resubmitted once the queues drain. Progress
    // is guaranteed — admission is a whole-request check that
    // always admits on a drained queue (overshoot-by-one-request
    // rule), walkers keep draining, and a stopped service turns
    // further submissions into Cancelled completions, which are
    // terminal below.
    constexpr std::size_t kSlice = 4096;
    constexpr std::size_t kMaxInFlight = 64;
    const std::size_t nSlices =
        keys.empty() ? 0 : (keys.size() + kSlice - 1) / kSlice;

    auto start = std::chrono::steady_clock::now();
    const sw::RequestKind kind = materialize
                                     ? sw::RequestKind::Join
                                     : sw::RequestKind::Count;
    auto cq = std::make_shared<sw::CompletionQueue>();
    auto slice = [&](std::size_t s) {
        return keys.subspan(
            s * kSlice, std::min(kSlice, keys.size() - s * kSlice));
    };

    if (materialize)
        result.pairs.reserve(result.probes);
    std::vector<std::vector<sw::MatchRec>> bySlice(
        materialize ? nSlices : 0);
    std::vector<char> landed(bySlice.size(), 0);
    std::size_t appended = 0; ///< slices [0, appended) are in pairs
    std::size_t submitted = 0;
    std::size_t inFlight = 0;
    std::size_t completed = 0;
    std::vector<sw::Completion> batch;
    std::vector<std::size_t> shed;
    while (completed < nSlices) {
        while (submitted < nSlices && inFlight < kMaxInFlight &&
               result.status == sw::Status::Ok) {
            service.submitAsync(kind, slice(submitted), {}, cq,
                                submitted);
            ++submitted;
            ++inFlight;
        }
        if (inFlight == 0)
            break; // terminal status; remaining slices never sent
        batch.clear();
        bool progressed = false;
        cq->reap(batch, inFlight, std::chrono::milliseconds(100));
        for (sw::Completion &c : batch) {
            if (c.result.status == sw::Status::Rejected &&
                result.status == sw::Status::Ok) {
                shed.push_back(std::size_t(c.tag));
                continue;
            }
            --inFlight;
            ++completed;
            if (c.result.status != sw::Status::Ok) {
                // Cancelled (service stopped) or DeadlineExceeded —
                // the join cannot complete whole. Keep the first
                // terminal status, stop submitting, drain what is
                // already in flight, and surface it to the caller.
                if (result.status == sw::Status::Ok)
                    result.status = c.result.status;
                continue;
            }
            progressed = true;
            result.matches += c.result.matches;
            if (materialize) {
                bySlice[c.tag] = std::move(c.result.recs);
                landed[c.tag] = 1;
            }
        }
        for (; result.status == sw::Status::Ok &&
               appended < landed.size() && landed[appended];
             ++appended) {
            for (const sw::MatchRec &rec : bySlice[appended])
                result.pairs.push_back(
                    {rec.payload, RowId(appended * kSlice + rec.i)});
            bySlice[appended] = {};
        }
        if (!shed.empty()) {
            if (result.status != sw::Status::Ok) {
                // A terminal status landed in the same batch: the
                // shed slices will never be served — retire them
                // instead of resubmitting into a stopping service.
                inFlight -= shed.size();
                completed += shed.size();
            } else {
                // Rejections complete synchronously, so a round
                // that only saw sheds would otherwise hot-spin
                // against a still-full queue; yield briefly before
                // retrying.
                if (!progressed)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                for (std::size_t s : shed)
                    service.submitAsync(kind, slice(s), {}, cq, s);
            }
            shed.clear();
        }
    }

    if (result.status != sw::Status::Ok)
        result.pairs = {};
    result.probeSeconds = secondsSince(start);
    return result;
}

JoinResult
hashJoin(const Column &build_keys, const Column &probe_keys,
         const IndexSpec &spec, Arena &arena, bool materialize,
         const sw::PipelineConfig &cfg)
{
    auto start = std::chrono::steady_clock::now();
    HashIndex index(spec, arena);
    index.buildFromColumn(build_keys);
    double build_seconds = secondsSince(start);

    JoinResult result = probeAll(index, probe_keys, materialize, cfg);
    result.buildSeconds = build_seconds;
    return result;
}

} // namespace widx::db
