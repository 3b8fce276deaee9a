#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <thread>

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

#include "common/logging.hh"

namespace e2e {

namespace sw = widx::sw;

u64
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return u64(ts.tv_sec) * 1'000'000'000ull + u64(ts.tv_nsec);
}

namespace {

/** Sleep until an absolute CLOCK_MONOTONIC time (no spinning). */
void
sleepUntil(u64 tNs)
{
    timespec ts;
    ts.tv_sec = time_t(tNs / 1'000'000'000ull);
    ts.tv_nsec = long(tNs % 1'000'000'000ull);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                           nullptr) == EINTR) {
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (unsigned(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

void
tightTimerSlack()
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

Rng
streamRng(u64 seed, u64 id)
{
    Rng mix(seed ^ (id * 0xD1B54A32D192ED03ull));
    mix.next();
    return Rng(mix.next());
}

std::vector<u64>
shuffledKeys(u64 n, Rng &rng)
{
    std::vector<u64> keys(n);
    for (u64 i = 0; i < n; ++i)
        keys[i] = i + 1;
    for (u64 i = n; i > 1; --i)
        std::swap(keys[i - 1], keys[rng.below(i)]);
    return keys;
}

Zipf::Zipf(u64 n, double theta) : cdf_(n)
{
    double acc = 0;
    for (u64 k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(double(k + 1), theta);
        cdf_[k] = acc;
    }
    for (double &c : cdf_)
        c /= acc;
}

u64
Zipf::draw(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<u64>(u64(it - cdf_.begin()), cdf_.size() - 1) + 1;
}

Pcts
percentiles(std::vector<u64> v)
{
    Pcts p;
    p.n = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    auto rank = [&](double q) {
        const double r = std::ceil(q * double(v.size()));
        const std::size_t i =
            std::clamp<std::size_t>(std::size_t(r), 1, v.size()) - 1;
        return double(v[i]);
    };
    p.p50 = rank(0.50);
    p.p90 = rank(0.90);
    p.p99 = rank(0.99);
    p.p999 = rank(0.999);
    p.max = double(v.back());
    return p;
}

sw::RequestKind
kindOf(Op op)
{
    switch (op) {
      case Op::Probe:
        return sw::RequestKind::Probe;
      case Op::Upsert:
        return sw::RequestKind::Upsert;
      case Op::Insert:
        return sw::RequestKind::Insert;
      case Op::Delete:
        return sw::RequestKind::Delete;
    }
    return sw::RequestKind::Probe;
}

void
Stream::push(u64 atNs, Op o, std::span<const u64> ks,
             std::span<const u64> ps)
{
    at.push_back(atNs);
    op.push_back(o);
    keys.insert(keys.end(), ks.begin(), ks.end());
    if (ps.empty())
        pays.resize(keys.size(), 0);
    else
        pays.insert(pays.end(), ps.begin(), ps.end());
}

void
Stream::digest(Digest &d) const
{
    d.add(at);
    for (Op o : op)
        d.add(u64(o));
    d.add(keys);
    d.add(pays);
}

RoundTrip::RoundTrip()
{
    fatal_if(socketpair(AF_UNIX, SOCK_STREAM, 0, fd_) != 0,
             "socketpair: %s", widx::errnoText(errno).c_str());
    echo_ = std::thread([fd = fd_[1]] {
        char b[8];
        while (read(fd, b, sizeof(b)) == ssize_t(sizeof(b)) &&
               write(fd, b, sizeof(b)) == ssize_t(sizeof(b))) {
        }
    });
}

RoundTrip::~RoundTrip()
{
    shutdown(fd_[0], SHUT_RDWR); // the echo thread reads end-of-file
    echo_.join();
    close(fd_[0]);
    close(fd_[1]);
}

double
RoundTrip::medianUs(u64 durationNs)
{
    constexpr timespec kGap{0, 50'000};
    std::vector<u64> rtt;
    const u64 end = nowNs() + durationNs;
    for (u64 t0 = nowNs(); t0 < end; t0 = nowNs()) {
        char b[8] = {};
        fatal_if(write(fd_[0], b, sizeof(b)) != ssize_t(sizeof(b)) ||
                     read(fd_[0], b, sizeof(b)) != ssize_t(sizeof(b)),
                 "host reference round trip failed");
        rtt.push_back(nowNs() - t0);
        nanosleep(&kGap, nullptr);
    }
    return percentiles(std::move(rtt)).p50 / 1e3;
}

u64
PhaseRun::failed() const
{
    u64 n = 0;
    for (std::size_t i = 0; i < submitted; ++i)
        n += !out[i].good;
    return n;
}

std::vector<u64>
PhaseRun::latencies(int writes) const
{
    std::vector<u64> v;
    v.reserve(submitted);
    for (std::size_t i = 0; i < submitted; ++i) {
        if (!out[i].good)
            continue;
        if (writes >= 0 && isWrite(stream->op[i]) != bool(writes))
            continue;
        v.push_back(out[i].reaped - sched(i));
    }
    return v;
}

std::vector<u64>
PhaseRun::late() const
{
    std::vector<u64> v(submitted);
    for (std::size_t i = 0; i < submitted; ++i)
        v[i] = out[i].submitBeg > sched(i) ? out[i].submitBeg - sched(i)
                                           : 0;
    return v;
}

namespace {

/** Tags carry a per-phase lane in their high bits, so a straggler
 *  of an earlier phase can never be taken for one of this phase. */
std::atomic<u64> nextLane{1};
constexpr unsigned kLaneShift = 40;
constexpr u64 kTickNs = 10'000'000;
/** Stragglers are written off this long after the last submit. */
constexpr u64 kDrainNs = 5'000'000'000ull;
/** One request in kSpanSample gets spans in a traced run. */
constexpr std::size_t kSpanSample = 16;

} // namespace

void
runOpenLoop(PhaseRun &run, const Stream &s, sw::CompletionQueue &cq,
            const SubmitFn &submit, const CheckFn &check,
            const RunOptions &opt)
{
    run.stream = &s;
    run.out = std::vector<Outcome>(s.size());
    run.submitted = 0;
    run.rttUs.clear();
    run.steal.clear();
    const u64 lane = nextLane.fetch_add(1) << kLaneShift;

    std::atomic<std::size_t> submitted{0};
    std::atomic<std::size_t> reapedCount{0};
    std::atomic<u64> genEnd{0}; // 0 while the generator runs
    // Start a little in the future so the reaper is up first.
    const u64 t0 = nowNs() + 2'000'000;

    std::thread reaper([&] {
        std::vector<sw::Completion> batch;
        batch.reserve(4096);
        std::size_t reaped = 0;
        u64 nextTick = t0 + kTickNs;
        for (;;) {
            batch.clear();
            cq.reap(batch, 4096, std::chrono::milliseconds(5));
            const u64 now = nowNs();
            for (const sw::Completion &c : batch) {
                if ((c.tag & ~((u64(1) << kLaneShift) - 1)) != lane)
                    continue; // an earlier phase's straggler
                const std::size_t i =
                    std::size_t(c.tag & ((u64(1) << kLaneShift) - 1));
                Outcome &o = run.out[i];
                o.completed = c.result.completedAtNs;
                o.reaped = now;
                o.good = c.result.status == sw::Status::Ok &&
                         check(i, c.result);
                o.status.store(u8(c.result.status),
                               std::memory_order_release);
                ++reaped;
            }
            reapedCount.store(reaped, std::memory_order_relaxed);
            if (opt.tick && now >= nextTick) {
                opt.tick(now);
                nextTick = now + kTickNs;
            }
            const u64 end = genEnd.load(std::memory_order_acquire);
            if (end == 0)
                continue;
            if (reaped >= submitted.load(std::memory_order_relaxed))
                break;
            if (now > end + kDrainNs ||
                (cq.closed() && cq.size() == 0))
                break;
        }
    });

    // The reference runs on a quiet process: nothing in flight. The
    // schedule then resumes where it stopped, at the slice boundary.
    u64 shift = 0, nextPause = kSliceNs;
    CpuTicks sliceStart = cpuTicks();
    auto pause = [&] {
        const u64 until = nowNs() + kDrainNs;
        while (reapedCount.load(std::memory_order_relaxed) <
                   submitted.load(std::memory_order_relaxed) &&
               nowNs() < until)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        run.rttUs.push_back(opt.ref->medianUs(kRefNs));
        const CpuTicks now = cpuTicks();
        run.steal.push_back(stealFrac(sliceStart, now));
        sliceStart = now;
        const u64 resumeAt = nowNs() - t0;
        if (resumeAt > nextPause + shift)
            shift = resumeAt - nextPause;
        nextPause += kSliceNs;
    };
    for (std::size_t i = 0; i < s.size(); ++i) {
        while (opt.ref && s.at[i] >= nextPause)
            pause();
        const u64 target = t0 + shift + s.at[i];
        u64 now = nowNs();
        if (now < target) {
            sleepUntil(target);
            now = nowNs();
        }
        if (opt.beforeSubmit)
            opt.beforeSubmit(i);
        Outcome &o = run.out[i];
        o.due = target;
        o.submitBeg = now;
        submitted.store(i + 1, std::memory_order_relaxed);
        const Op op = s.op[i];
        submit(lane | i, op, s.keysOf(i),
               isWrite(op) ? s.paysOf(i) : std::span<const u64>{});
        if (opt.timeSubmit)
            o.submitEnd = nowNs();
    }
    if (opt.ref)
        pause(); // after the last slice
    genEnd.store(nowNs(), std::memory_order_release);
    reaper.join();
    run.submitted = submitted.load();
}

void
Spans::add(const char *name, const char *parent, u64 tag, u64 beg,
           u64 end)
{
    if (spans_.size() < spans_.capacity())
        spans_.push_back({name, parent, tag, beg, std::max(beg, end)});
}

std::vector<std::pair<std::string, double>>
Spans::selfTimesUs() const
{
    // Child cover per (tag, parent name); a span's self time is its
    // duration minus what its own children cover.
    std::map<std::pair<u64, std::string>, u64> cover;
    for (const Span &s : spans_)
        if (s.parent[0])
            cover[{s.tag, s.parent}] += s.end - s.beg;
    std::map<std::string, std::pair<double, u64>> acc;
    for (const Span &s : spans_) {
        const u64 dur = s.end - s.beg;
        const auto it = cover.find({s.tag, s.name});
        const u64 kids = it == cover.end() ? 0 : it->second;
        auto &a = acc[s.name];
        a.first += double(dur > kids ? dur - kids : 0);
        ++a.second;
    }
    std::vector<std::pair<std::string, double>> out;
    for (const auto &[name, a] : acc)
        out.emplace_back(name, a.first / double(a.second) / 1e3);
    return out;
}

bool
Spans::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    u64 t0 = ~u64(0);
    for (const Span &s : spans_)
        t0 = std::min(t0, s.beg);
    std::map<u64, unsigned> rows; // one chrome track per request tag
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const Span &s : spans_) {
        const unsigned tid =
            rows.emplace(s.tag, unsigned(rows.size())).first->second;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"tag\":\"0x%" PRIx64
                     "\",\"parent\":\"%s\"}}\n",
                     first ? "" : ",", s.name,
                     double(s.beg - t0) / 1e3,
                     double(s.end - s.beg) / 1e3, tid, s.tag,
                     s.parent);
        first = false;
    }
    std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
}

void
addRequestSpans(Spans &spans, const PhaseRun &run, u64 lane, bool tcp)
{
    const char *root = tcp ? "req" : "replay";
    const char *submit = tcp ? "net.submit" : "service.submit";
    const char *middle = tcp ? "wire+server" : "queue+drain";
    const char *reap = tcp ? "reap" : "service.reap";
    for (std::size_t i = 0; i < run.submitted; i += kSpanSample) {
        const Outcome &o = run.out[i];
        if (!o.good || o.submitEnd == 0)
            continue;
        const u64 tag = (lane << 32) | i;
        // An inline (write) completion is stamped inside the submit
        // call; the middle span is then empty, not negative.
        const u64 done = std::max(o.completed, o.submitEnd);
        spans.add(root, "", tag, run.sched(i), o.reaped);
        spans.add(submit, root, tag, o.submitBeg, o.submitEnd);
        spans.add(middle, root, tag, o.submitEnd, done);
        spans.add(reap, root, tag, done, o.reaped);
    }
}

double
sleepJitterP999Us(u64 durationNs)
{
    constexpr u64 kPeriodNs = 200'000;
    std::vector<u64> err;
    err.reserve(durationNs / kPeriodNs + 1);
    const u64 start = nowNs();
    for (u64 t = start + kPeriodNs; t < start + durationNs;
         t += kPeriodNs) {
        sleepUntil(t);
        err.push_back(nowNs() - t);
    }
    return percentiles(std::move(err)).p999 / 1e3;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

CpuTicks
cpuTicks()
{
    // cpu user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTicks t;
    in >> cpu;
    for (int field = 0; field < 8; ++field) {
        u64 v = 0;
        in >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealFrac(const CpuTicks &from, const CpuTicks &to)
{
    const u64 total = to.total - from.total;
    return total ? double(to.steal - from.steal) / double(total) : 0;
}

namespace {

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Record::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.emplace_back(name, "{\"value\": " + jsonNum(value) +
                                    ", \"unit\": " + jsonStr(unit) +
                                    "}");
}

void
Record::absent(std::initializer_list<const char *> names)
{
    for (const char *n : names)
        metric(n, 0, "n/a");
}

void
Record::info(const std::string &key, const std::string &jsonValue)
{
    info_.emplace_back(key, jsonValue);
}

void
Record::infoStr(const std::string &key, const std::string &value)
{
    info(key, jsonStr(value));
}

void
Record::infoNum(const std::string &key, double value)
{
    info(key, jsonNum(value));
}

void
Record::fail(const std::string &why)
{
    correct = false;
    errors_.push_back(why);
    std::fprintf(stderr, "widx_e2e: FAIL: %s\n", why.c_str());
}

std::string
Record::json() const
{
    auto object = [](const auto &kvs) {
        std::string s = "{";
        for (std::size_t i = 0; i < kvs.size(); ++i)
            s += (i ? ", " : "") + jsonStr(kvs[i].first) + ": " +
                 kvs[i].second;
        return s + "}";
    };
    std::string errs = "[";
    for (std::size_t i = 0; i < errors_.size(); ++i)
        errs += (i ? ", " : "") + jsonStr(errors_[i]);
    errs += "]";
    return "{\"correct\": " + std::string(correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + object(metrics_) +
           ", \"info\": " + object(info_) + ", \"errors\": " + errs +
           "}";
}

void
addLatency(Record &rec, const std::string &prefix,
           const std::vector<u64> &ns, bool asMetrics)
{
    const Pcts p = percentiles(ns);
    if (asMetrics) {
        rec.metric(prefix + "p50_us", p.p50 / 1e3, "us");
        rec.metric(prefix + "p90_us", p.p90 / 1e3, "us");
        rec.metric(prefix + "p99_us", p.p99 / 1e3, "us");
    } else {
        rec.infoNum(prefix + "p50_us", p.p50 / 1e3);
        rec.infoNum(prefix + "p90_us", p.p90 / 1e3);
        rec.infoNum(prefix + "p99_us", p.p99 / 1e3);
    }
    rec.infoNum(prefix + "p999_us", p.p999 / 1e3);
    rec.infoNum(prefix + "max_us", p.max / 1e3);
    rec.infoNum(prefix + "samples", double(p.n));
}

void
Slices::add(std::vector<u64> ns, double rttUs, double steal)
{
    if (ns.empty())
        return;
    const Pcts p = percentiles(std::move(ns));
    all.push_back({p.p50 / 1e3, p.p90 / 1e3, p.p99 / 1e3, rttUs, steal});
}

void
Slices::add(const PhaseRun &run, int writes)
{
    const std::size_t n =
        std::max<std::size_t>(1, run.stream->durationNs / kSliceNs);
    std::vector<std::vector<u64>> bySlice(n);
    for (std::size_t i = 0; i < run.submitted; ++i) {
        const Outcome &o = run.out[i];
        if (!o.good ||
            (writes >= 0 && isWrite(run.stream->op[i]) != bool(writes)))
            continue;
        const std::size_t s =
            std::min<std::size_t>(n - 1, run.stream->at[i] / kSliceNs);
        bySlice[s].push_back(o.reaped - run.sched(i));
    }
    // A final pause follows the last slice, so every slice has one.
    for (std::size_t s = 0; s < n && s < run.rttUs.size(); ++s)
        add(std::move(bySlice[s]), run.rttUs[s], run.steal[s]);
}

std::size_t
Slices::valid() const
{
    return std::size_t(
        std::count_if(all.begin(), all.end(), [](const Slice &s) {
            return s.steal <= kMaxSliceSteal;
        }));
}

void
Slices::report(Record &rec, const std::string &prefix) const
{
    const bool any = valid() > 0;
    std::vector<double> r50, r90, p50, p90, p99, rtt;
    std::string slices = "[";
    for (const Slice &s : all) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"p50_us\": %.2f, \"p99_us\": %.2f, "
                      "\"rtt_us\": %.3f, \"steal\": %.4f}",
                      slices.size() > 1 ? ", " : "", s.p50Us, s.p99Us,
                      s.rttUs, s.steal);
        slices += buf;
        if (any && s.steal > kMaxSliceSteal)
            continue;
        r50.push_back(s.p50Us / s.rttUs);
        r90.push_back(s.p90Us / s.rttUs);
        p50.push_back(s.p50Us);
        p90.push_back(s.p90Us);
        p99.push_back(s.p99Us);
        rtt.push_back(s.rttUs);
    }
    rec.metric(prefix + "p50_rtt", median(r50), "rtt");
    rec.metric(prefix + "p90_rtt", median(r90), "rtt");
    rec.metric(prefix + "p50_us", median(p50), "us");
    rec.metric(prefix + "p90_us", median(p90), "us");
    rec.metric(prefix + "p99_us", median(p99), "us");
    rec.metric("host.rtt_us", median(rtt), "us");
    rec.info(prefix + "slices", slices + "]");
    rec.infoNum(prefix + "valid_slices", double(valid()));
}

std::string
hex(u64 v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

void
writeSpans(const Settings &set, Record &rec, const Spans &spans)
{
    addSelfTimes(rec, spans);
    const std::string path = set.outDir + "/" + set.workload + "-seed" +
                             std::to_string(set.seed) + ".trace.json";
    if (spans.writeChrome(path))
        rec.infoStr("trace.span_file", path);
    else
        rec.fail("cannot write span file " + path);
}

void
addContext(Record &rec)
{
    rec.infoNum("host.nproc", double(sysconf(_SC_NPROCESSORS_ONLN)));
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line, model = "unknown";
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(colon + 2);
            break;
        }
    }
    rec.infoStr("host.cpu_model", model);
    utsname u{};
    if (uname(&u) == 0)
        rec.infoStr("host.kernel",
                    std::string(u.sysname) + " " + u.release);
    std::ifstream l3("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string l3size;
    if (l3 >> l3size)
        rec.infoStr("host.l3", l3size);
}

sw::ServiceConfig
serviceConfig(unsigned shards, unsigned walkers, bool mutation)
{
    sw::ServiceConfig cfg;
    cfg.shards = shards;
    cfg.walkers = walkers;
    cfg.mutation.enabled = mutation;
    return cfg;
}

std::unique_ptr<sw::IndexService>
buildService(const widx::db::Column &col, const widx::db::IndexSpec &spec,
             const sw::ServiceConfig &cfg, int builds, Record &rec)
{
    std::unique_ptr<sw::IndexService> svc;
    std::vector<double> secs;
    std::string samples = "[";
    for (int b = 0; b < builds; ++b) {
        svc.reset();
        const u64 t0 = nowNs();
        svc = std::make_unique<sw::IndexService>(col, spec, cfg);
        secs.push_back(double(nowNs() - t0) / 1e9);
        samples += (b ? ", " : "") + std::to_string(secs.back());
    }
    rec.metric("setup_s", median(secs), "s");
    rec.info("setup_s.samples", samples + "]");
    rec.infoNum("service.shards", double(svc->shards()));
    rec.infoNum("service.walkers", double(svc->walkers()));
    return svc;
}

} // namespace e2e
