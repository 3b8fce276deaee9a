// widx-lint corpus: seqlock writer-protocol violations. Keep line
// numbers stable; expected.txt pins them.
#include <atomic>

struct Slot4Corpus // not *Slot-suffixed: padded check stays quiet
{
    std::atomic<unsigned long> seq{0};
    std::atomic<unsigned long> payload{0};
};

// widx-lint: seqlock-writer
void
good_writer(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    s.seq.store(2 * t + 1, std::memory_order_release);
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

// widx-lint: seqlock-writer
void
missing_end_bump(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    // Only one seq store: finding on the function line.
    s.seq.store(2 * t + 1, std::memory_order_release);
    s.payload.store(v, std::memory_order_relaxed);
}

// widx-lint: seqlock-writer
void
even_begin(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    s.seq.store(2 * t, std::memory_order_release); // finding: not odd
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

// widx-lint: seqlock-writer
void
odd_end(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    s.seq.store(2 * t + 1, std::memory_order_release);
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 1, std::memory_order_release); // finding
}

// widx-lint: seqlock-writer
void
relaxed_seq(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    s.seq.store(2 * t + 1, std::memory_order_relaxed); // finding
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_relaxed); // finding
}

// widx-lint: seqlock-writer
void
empty_section(Slot4Corpus &s, unsigned long t)
{
    // No payload store between the bumps: finding on the function
    // line — the section publishes nothing.
    s.seq.store(2 * t + 1, std::memory_order_release);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

// widx-lint: seqlock-writer
void
cas_claim(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    // A CAS from an older even value is a valid begin step.
    unsigned long seq = s.seq.load(std::memory_order_relaxed);
    if (!s.seq.compare_exchange_strong(seq, 2 * t + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        return;
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

// widx-lint: seqlock-writer
void
relaxed_cas_claim(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    unsigned long seq = s.seq.load(std::memory_order_relaxed);
    if (!s.seq.compare_exchange_strong(seq, 2 * t + 1, // finding
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed))
        return;
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}

// widx-lint: seqlock-writer
void
even_cas_claim(Slot4Corpus &s, unsigned long t, unsigned long v)
{
    unsigned long seq = s.seq.load(std::memory_order_relaxed);
    if (!s.seq.compare_exchange_weak(seq, 2 * t, // finding: not odd
                                     std::memory_order_release,
                                     std::memory_order_relaxed))
        return;
    s.payload.store(v, std::memory_order_relaxed);
    s.seq.store(2 * t + 2, std::memory_order_release);
}
