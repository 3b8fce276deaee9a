/**
 * @file
 * widx_e2e: one workload of the end-to-end benchmark per process, so
 * peak RSS and cache state belong to that workload alone.
 *
 *   widx_e2e --workload NAME --seed N --seconds S [--trace 0|1]
 *            [--smoke] [--out DIR]
 *
 * Prints one JSON line: correct / attempted / failed, every metric
 * with its unit, and the run's context (host, seed, stream digest,
 * ungated percentiles). bench/e2e/run.py builds this binary and
 * turns that line into the benchmark's result.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "harness.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload tcp_lookup|bulk_join_dram|"
                 "tcp_mixed_rw --seed N --seconds S [--trace 0|1] "
                 "[--smoke] [--out DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Settings set;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--smoke") {
            set.smoke = true;
        } else if (a == "--workload" && hasValue) {
            set.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            set.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            set.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && hasValue) {
            set.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--out" && hasValue) {
            set.outDir = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    void (*run)(const e2e::Settings &, e2e::Record &) = nullptr;
    if (set.workload == "tcp_lookup")
        run = e2e::runTcpLookup;
    else if (set.workload == "bulk_join_dram")
        run = e2e::runBulkJoin;
    else if (set.workload == "tcp_mixed_rw")
        run = e2e::runTcpMixed;
    if (!run || !(set.seconds > 0))
        return usage(argv[0]);

    e2e::tightTimerSlack();
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    set.joinWalkers = unsigned(nproc > 1 ? nproc - 1 : 1);

    e2e::Record rec;
    rec.infoStr("workload", set.workload);
    rec.infoNum("seed", double(set.seed));
    rec.infoNum("seconds", set.seconds);
    rec.infoNum("trace", set.trace);
    rec.infoNum("smoke", set.smoke);
    e2e::addContext(rec);
    rec.metric("host.sleep_jitter_p999_us",
               e2e::sleepJitterP999Us(set.smoke ? 200'000'000ull
                                                : 2'000'000'000ull),
               "us");

    const e2e::CpuTicks before = e2e::cpuTicks();
    run(set, rec);
    rec.metric("host.steal_frac", e2e::stealFrac(before, e2e::cpuTicks()),
               "frac");

    if (rec.attempted == 0)
        rec.fail("no request was attempted");
    std::printf("%s\n", rec.json().c_str());
    return 0;
}
