/**
 * @file
 * The optimized hash-join kernel workload (Section 5, after Balkesen
 * et al.): a "no partitioning" join probing a hash table with up to
 * two nodes per bucket, built on a unique (primary-key) relation and
 * probed by a uniformly distributed outer relation.
 *
 * Paper sizes: Small 4 K tuples (32 KB raw), Medium 512 K (4 MB raw),
 * Large 128 M (1 GB); the outer relation has 128 M keys. We keep the
 * Small/Medium tuple counts and scale Large to 8 M tuples, which is
 * already ~48x the modeled 4 MB LLC — the same DRAM-resident regime —
 * and sample 400 K probes per run (the paper itself measures sampled
 * windows via SMARTS/SimFlex). DESIGN.md §1 records this substitution.
 */

#ifndef WIDX_WORKLOAD_JOIN_KERNEL_HH
#define WIDX_WORKLOAD_JOIN_KERNEL_HH

#include <memory>
#include <string>

#include "common/arena.hh"
#include "db/column.hh"
#include "db/hash_index.hh"

namespace widx::wl {

struct KernelSize
{
    const char *name;
    u64 tuples; ///< build-side cardinality
    u64 probes; ///< sampled outer-relation keys per run

    static KernelSize small() { return {"Small", 4 * 1024, 200000}; }
    static KernelSize medium()
    {
        return {"Medium", 512 * 1024, 200000};
    }
    static KernelSize large()
    {
        return {"Large", 8 * 1024 * 1024, 400000};
    }
};

/** A fully built kernel dataset: build/probe columns plus the index. */
struct KernelDataset
{
    explicit KernelDataset(const KernelSize &size, u64 seed = 42);

    KernelSize size;
    Arena arena;
    std::unique_ptr<db::Column> buildKeys;
    std::unique_ptr<db::Column> probeKeys;
    std::unique_ptr<db::HashIndex> index;
    /** Results region large enough for every probe to match. */
    u64 *outRegion = nullptr;

    Addr
    outBase() const
    {
        return Addr(reinterpret_cast<std::uintptr_t>(outRegion));
    }
};

} // namespace widx::wl

#endif // WIDX_WORKLOAD_JOIN_KERNEL_HH
