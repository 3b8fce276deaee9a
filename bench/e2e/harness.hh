/**
 * @file
 * The end-to-end benchmark's own harness: clock, seeded random
 * streams, open-loop load generator, host reference, percentiles,
 * spans and the result record.
 *
 * Everything that decides *how* the benchmark measures lives here,
 * in the benchmark's directory, so a change under src/ can change
 * what is measured but never the measuring. The only src/ types used
 * are the ones the workloads drive (IndexService, CompletionQueue,
 * the TCP client and server, HashIndex).
 */

#ifndef WIDX_BENCH_E2E_HARNESS_HH
#define WIDX_BENCH_E2E_HARNESS_HH

#include <atomic>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/index_service.hh"

namespace e2e {

using widx::u64;
using widx::u32;
using widx::u8;

/** Keys per read or write request, in every workload. */
inline constexpr std::size_t kKeysPerReq = 8;

/** CLOCK_MONOTONIC in ns: the clock steady_clock reads, so it
 *  compares directly with ServiceResult::completedAtNs. */
u64 nowNs();

/** Per-thread timer slack of 1 ns, so absolute sleeps wake on time. */
void tightTimerSlack();

/** splitmix64: the benchmark's own generator, so streams depend only
 *  on the seed and this file. */
class Rng
{
  public:
    explicit Rng(u64 seed) : s_(seed) {}

    u64
    next()
    {
        u64 z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    u64 below(u64 n) { return next() % n; }

    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Exponential draw with mean 1 (Poisson inter-arrival gap). */
    double expGap() { return -std::log(1.0 - uniform()); }

  private:
    u64 s_;
};

/** Deterministic stream with its own seed: stream `id` of run
 *  `seed`, independent of how many draws other streams made. */
Rng streamRng(u64 seed, u64 id);

/** The permutation 1..n in random order. */
std::vector<u64> shuffledKeys(u64 n, Rng &rng);

/** Zipf(theta) sampler over ranks [1, n] (inverted CDF table). */
class Zipf
{
  public:
    Zipf(u64 n, double theta);
    u64 draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/** FNV-1a-style hash over 64-bit words: the stream digest. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ull;

    void
    add(u64 v)
    {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    }

    void
    add(std::span<const u64> vs)
    {
        for (u64 v : vs)
            add(v);
    }
};

/** Exact order statistics of a sample (nearest rank). */
struct Pcts
{
    u64 n = 0;
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0; ///< input unit
};
Pcts percentiles(std::vector<u64> v);

/** What one request asks of the index. */
enum class Op : u8
{
    Probe,
    Upsert,
    Insert,
    Delete,
};

widx::sw::RequestKind kindOf(Op op);
inline bool isWrite(Op op) { return op != Op::Probe; }

/** One phase's arrivals, planned in full before the phase runs. */
struct Stream
{
    std::string name;
    u64 durationNs = 0;
    std::vector<u64> at;   ///< scheduled offset from phase start, ns
    std::vector<Op> op;
    std::vector<u64> keys; ///< kKeysPerReq per request
    std::vector<u64> pays; ///< parallel to keys (writes only)

    std::size_t size() const { return at.size(); }

    std::span<const u64>
    keysOf(std::size_t i) const
    {
        return {keys.data() + i * kKeysPerReq, kKeysPerReq};
    }

    std::span<const u64>
    paysOf(std::size_t i) const
    {
        return {pays.data() + i * kKeysPerReq, kKeysPerReq};
    }

    /** Append a request at offset `atNs`. */
    void push(u64 atNs, Op o, std::span<const u64> ks,
              std::span<const u64> ps = {});

    void digest(Digest &d) const;
};

/** Latency is summarised per slice of this much schedule (or join
 *  time); the host reference runs once after each slice. */
inline constexpr u64 kSliceNs = 1'000'000'000;
/** Length of one host-reference burst. */
inline constexpr u64 kRefNs = 100'000'000;

/**
 * The host reference: round trips of 8 bytes between two benchmark
 * threads over a Unix socketpair, each after a 50 us sleep, so every
 * round trip pays two cross-CPU wake-ups from idle plus four
 * syscalls, as a request does. A shared VM host's speed drifts by
 * tens of percent over minutes. Latency over loopback TCP moves in
 * proportion to this round trip (correlation 0.93-0.98 across runs)
 * and the DRAM join at about half its rate, so latency is gated in
 * its units.
 */
class RoundTrip
{
  public:
    RoundTrip();
    ~RoundTrip();
    RoundTrip(const RoundTrip &) = delete;
    RoundTrip &operator=(const RoundTrip &) = delete;

    /** Median round trip (us) over a burst of `durationNs`. */
    double medianUs(u64 durationNs);

  private:
    int fd_[2];
    std::thread echo_;
};

/** Timestamps of one request, all on the nowNs() clock. */
struct Outcome
{
    u64 due = 0; ///< scheduled arrival
    u64 submitBeg = 0;
    u64 submitEnd = 0; ///< traced runs only
    u64 completed = 0; ///< ServiceResult::completedAtNs
    u64 reaped = 0;    ///< bench clock read after the reap returned
    bool good = false; ///< Ok and the oracle agreed
    /** sw::Status, 0xff = not completed yet. Release-stored last by
     *  the reaper, so the generator may poll it mid-phase. */
    std::atomic<u8> status{0xff};
};

/** How to submit one request of a stream under the given tag. */
using SubmitFn = std::function<void(u64 tag, Op op,
                                    std::span<const u64> keys,
                                    std::span<const u64> pays)>;
/** Oracle for the i-th request of a stream (runs on the reaper). */
using CheckFn =
    std::function<bool(std::size_t i, const widx::sw::ServiceResult &)>;

struct RunOptions
{
    /** When set, the generator pauses after each kSliceNs of
     *  schedule and at the end: it waits until every submitted
     *  request is reaped, runs one reference burst into
     *  PhaseRun::rttUs (and the slice's steal into PhaseRun::steal),
     *  and shifts the rest of the schedule by the pause. */
    RoundTrip *ref = nullptr;
    /** Read the clock after each submit (traced runs). */
    bool timeSubmit = false;
    /** Generator-side hook, called with a request's index just
     *  before it is submitted. */
    std::function<void(std::size_t i)> beforeSubmit;
    /** Reaper-side hook, called about every 10 ms. */
    std::function<void(u64 now)> tick;
};

/** A finished open-loop phase. */
struct PhaseRun
{
    const Stream *stream = nullptr;
    std::size_t submitted = 0;
    std::vector<Outcome> out;
    /** Per slice (RunOptions::ref): the host round trip (us) after
     *  it, and the guest's steal share over it and that burst. */
    std::vector<double> rttUs, steal;

    u64 sched(std::size_t i) const { return out[i].due; }
    /** Requests that failed: non-Ok, never completed, or wrong. */
    u64 failed() const;
    /** Reap latency (ns) of good requests: all (-1), reads (0) or
     *  writes (1). */
    std::vector<u64> latencies(int writes = -1) const;
    /** Generator lateness (submit start minus schedule), ns. */
    std::vector<u64> late() const;
};

/** Drive one stream open-loop into `run`: the calling thread
 *  generates on the Poisson schedule with absolute sleeps, a second
 *  thread reaps `cq` and runs the oracle. Latency of a request runs
 *  from its scheduled arrival to the reaper's clock read.
 *  `opt.beforeSubmit` may read run.out[j].status of earlier
 *  requests. */
void runOpenLoop(PhaseRun &run, const Stream &s,
                 widx::sw::CompletionQueue &cq, const SubmitFn &submit,
                 const CheckFn &check, const RunOptions &opt = {});

/** Spans recorded from bench code around each layer call, kept for a
 *  sample in preallocated memory and written as chrome://tracing. */
class Spans
{
  public:
    explicit Spans(std::size_t capacity) { spans_.reserve(capacity); }

    /** Record a span; `parent` is a name or empty for a root. */
    void add(const char *name, const char *parent, u64 tag, u64 beg,
             u64 end);

    /** Mean self time (us) per span name: duration minus the part
     *  its children of the same tag cover. */
    std::vector<std::pair<std::string, double>> selfTimesUs() const;

    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        const char *parent;
        u64 tag, beg, end;
    };
    std::vector<Span> spans_;
};

/** Record the spans of a sampled request of a phase. `lane` keeps
 *  the tags of different phases apart. Transport spans are
 *  net.submit / wire+server over TCP, service.submit / queue+drain
 *  in process. */
void addRequestSpans(Spans &spans, const PhaseRun &run, u64 lane,
                     bool tcp);

/** Wake-up error of absolute sleeps over `durationNs`,
 *  p99.9 in us: a noisy host shows here, not as a regression. */
double sleepJitterP999Us(u64 durationNs);

/** VmHWM of this process, MB. */
double peakRssMb();

/** Steal and total CPU ticks of the whole guest (/proc/stat). */
struct CpuTicks
{
    u64 steal = 0, total = 0;
};
CpuTicks cpuTicks();

/** Share of CPU time the hypervisor gave to other guests between two
 *  readings: the host's own noise, beside the sleep-jitter probe. */
double stealFrac(const CpuTicks &from, const CpuTicks &to);

/** One run's results, printed as a single JSON line. */
class Record
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Per-layer metrics of a layer the workload never enters: 0. */
    void absent(std::initializer_list<const char *> names);
    void info(const std::string &key, const std::string &jsonValue);
    void infoStr(const std::string &key, const std::string &value);
    void infoNum(const std::string &key, double value);

    u64 attempted = 0;
    u64 failed = 0;
    bool correct = true;
    /** Fail the run with a reason (kept in the record). */
    void fail(const std::string &why);

    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<std::string> errors_;
};

/** Add p50/p90/p99 (us) of a latency sample as `<prefix>p50_us`
 *  ..., plus p99.9, max and the sample count as run info. */
void addLatency(Record &rec, const std::string &prefix,
                const std::vector<u64> &ns, bool asMetrics = true);

/** A slice in which the hypervisor gave more than this share of the
 *  guest's CPU time to other guests (over the slice and its
 *  reference burst) is not counted: the host, not the program, set
 *  its latency. */
inline constexpr double kMaxSliceSteal = 0.02;

/** Per-slice summaries of a run's primary latency, pooled over the
 *  attempts of a phase. */
struct Slices
{
    struct Slice
    {
        double p50Us, p90Us, p99Us, rttUs, steal;
    };
    std::vector<Slice> all;

    /** Append one slice from its latencies (ns). */
    void add(std::vector<u64> ns, double rttUs, double steal);
    /** Append the slices of the schedule of an open-loop phase run
     *  with a reference: good requests of the given kind (-1 all,
     *  0 reads, 1 writes). */
    void add(const PhaseRun &run, int writes = -1);
    /** Slices within kMaxSliceSteal. */
    std::size_t valid() const;
    /** Medians over the valid slices (all of them when none is) of
     *  each slice's p50 and p90 divided by its round trip
     *  (`<prefix>p50_rtt`, `p90_rtt`), of its p50, p90 and p99
     *  (`<prefix>p50_us` ...), and of the round trip (`host.rtt_us`).
     *  One disturbed second moves none of them. The per-slice values
     *  go into the run info. */
    void report(Record &rec, const std::string &prefix) const;
};

/** Host and run context: nproc, CPU model, kernel. */
void addContext(Record &rec);

/** Command-line settings shared by every workload. */
struct Settings
{
    std::string workload;
    u64 seed = 1;
    double seconds = 20;
    bool trace = false;
    bool smoke = false;
    std::string outDir = ".";
    /** Walker threads for the bulk join: every CPU but the caller's. */
    unsigned joinWalkers = 3;
};

/** Index-service configuration: the bench sets shards, walkers and
 *  mutation.enabled, here and nowhere else; every other knob keeps
 *  its default so a changed default is measured, not bypassed. */
widx::sw::ServiceConfig serviceConfig(unsigned shards, unsigned walkers,
                                      bool mutation);

/** Construct the service `builds` times from one column, timing each
 *  construction (index build until the walkers are up) and freeing
 *  the previous instance first. Reports the median as setup_s and
 *  returns the last instance. */
std::unique_ptr<widx::sw::IndexService>
buildService(const widx::db::Column &col, const widx::db::IndexSpec &spec,
             const widx::sw::ServiceConfig &cfg, int builds, Record &rec);

/** db.*, walkers.* and index.* metrics: single-thread replays of
 *  `keys` on each shard's HashIndex, routed with shardOf (the
 *  paper's Fig. 2b split, timed from outside the service). The keys
 *  are cut into disjoint slices, one per timed pass, so no pass
 *  finds its buckets cached by the pass before. The index must be
 *  quiescent (no writer running). */
void addDbLayers(Record &rec, const widx::sw::ShardedIndex &idx,
                 std::span<const u64> keys, Spans &spans);

/** service.* metrics: ServiceStats of `svc` for the read kind, plus
 *  the bench-timed submit and completion-to-reap of the reads of an
 *  in-process replay (empty: not measurable on this workload). */
void addServiceLayers(Record &rec, const widx::sw::IndexService &svc,
                      widx::sw::RequestKind readKind,
                      const std::vector<const PhaseRun *> &replay);

/** Mean self time of each span name, as self.<name>_us metrics. */
void addSelfTimes(Record &rec, const Spans &spans);

/** Self times plus the chrome://tracing file of a traced run. */
void writeSpans(const Settings &set, Record &rec, const Spans &spans);

/** 16 hex digits (stream digests). */
std::string hex(u64 v);

void runTcpLookup(const Settings &set, Record &rec);
void runTcpMixed(const Settings &set, Record &rec);
void runBulkJoin(const Settings &set, Record &rec);

} // namespace e2e

#endif // WIDX_BENCH_E2E_HARNESS_HH
