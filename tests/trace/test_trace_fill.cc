/**
 * @file
 * Tests for TraceSource::fill() batching: the stream must not depend on
 * how a reader chunks it, for every catalog workload and any chunk
 * size, next() (a fill of one) included. runSimulation() consumes
 * traces through fill(), so any divergence here would silently change
 * every experiment result.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "trace/access.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

constexpr std::uint64_t kAccesses = 4'000;
constexpr std::uint64_t kSeed = 1234;
constexpr VirtAddr kBase{0x10'0000'0000ULL};

std::vector<MemAccess>
drainOneAtATime(TraceSource &trace)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (trace.next(a))
        out.push_back(a);
    return out;
}

/** Drain via fill(), cycling through a mix of chunk sizes. */
std::vector<MemAccess>
drainChunked(TraceSource &trace, const std::vector<std::size_t> &chunks)
{
    std::vector<MemAccess> out;
    std::vector<MemAccess> buffer;
    std::size_t turn = 0;
    for (;;) {
        const std::size_t chunk = chunks[turn++ % chunks.size()];
        buffer.resize(chunk);
        const std::size_t n = trace.fill(buffer.data(), chunk);
        out.insert(out.end(), buffer.begin(), buffer.begin() + n);
        if (n == 0)
            return out;
    }
}

void
expectSameStream(const std::vector<MemAccess> &a,
                 const std::vector<MemAccess> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vaddr, b[i].vaddr) << "access " << i;
        ASSERT_EQ(a[i].write, b[i].write) << "access " << i;
    }
}

TEST(TraceFill, MatchesNextForEveryCatalogWorkload)
{
    const std::vector<std::size_t> chunks = {1, 3, 7, 64, 1024};
    for (const WorkloadSpec &spec : workloadCatalog()) {
        SCOPED_TRACE(spec.name);
        PatternTrace serial(spec, kBase, kAccesses, kSeed);
        PatternTrace batched(spec, kBase, kAccesses, kSeed);
        expectSameStream(drainOneAtATime(serial),
                         drainChunked(batched, chunks));
    }
}

TEST(TraceFill, ShorterStreamIsAPrefixOfALongerOne)
{
    // A cell's stream length only stops the generator, so a pair may
    // replay the first N accesses of a longer stream it keeps.
    for (const WorkloadSpec &spec : workloadCatalog()) {
        SCOPED_TRACE(spec.name);
        PatternTrace longer(spec, kBase, kAccesses, kSeed);
        const std::vector<MemAccess> full = drainChunked(longer, {1024});
        for (const std::uint64_t n :
             {std::uint64_t{1}, std::uint64_t{777}, kAccesses - 1}) {
            PatternTrace shorter(spec, kBase, n, kSeed);
            expectSameStream(
                std::vector<MemAccess>(full.begin(), full.begin() + n),
                drainChunked(shorter, {64}));
        }
    }
}

TEST(TraceFill, ChunkLargerThanStreamReturnsPartialFill)
{
    const WorkloadSpec &spec = findWorkload("canneal");
    PatternTrace trace(spec, kBase, 100, kSeed);
    std::vector<MemAccess> buffer(256);
    EXPECT_EQ(trace.fill(buffer.data(), buffer.size()), 100u);
    EXPECT_EQ(trace.fill(buffer.data(), buffer.size()), 0u);
}

TEST(TraceFill, ExhaustedTraceKeepsReturningZero)
{
    const WorkloadSpec &spec = findWorkload("gups");
    PatternTrace trace(spec, kBase, 10, kSeed);
    std::vector<MemAccess> buffer(10);
    EXPECT_EQ(trace.fill(buffer.data(), buffer.size()), 10u);
    EXPECT_EQ(trace.fill(buffer.data(), buffer.size()), 0u);
    EXPECT_EQ(trace.fill(buffer.data(), buffer.size()), 0u);
    MemAccess a;
    EXPECT_FALSE(trace.next(a));
}

TEST(TraceFill, ResetReproducesTheStream)
{
    const WorkloadSpec &spec = findWorkload("omnetpp");
    PatternTrace trace(spec, kBase, 500, kSeed);
    const std::vector<MemAccess> first = drainChunked(trace, {128});
    trace.reset();
    const std::vector<MemAccess> second = drainChunked(trace, {37});
    expectSameStream(first, second);
}

TEST(TraceFill, MixedNextAndFillConsumeOneStream)
{
    const WorkloadSpec &spec = findWorkload("mcf");
    PatternTrace reference(spec, kBase, 1'000, kSeed);
    PatternTrace mixed(spec, kBase, 1'000, kSeed);

    const std::vector<MemAccess> expect = drainOneAtATime(reference);
    std::vector<MemAccess> got;
    std::vector<MemAccess> buffer(64);
    MemAccess a;
    for (;;) {
        // Alternate: a few next() calls, then a fill() chunk.
        bool progressed = false;
        for (int i = 0; i < 5 && mixed.next(a); ++i) {
            got.push_back(a);
            progressed = true;
        }
        const std::size_t n = mixed.fill(buffer.data(), buffer.size());
        got.insert(got.end(), buffer.begin(), buffer.begin() + n);
        if (!progressed && n == 0)
            break;
    }
    expectSameStream(expect, got);
}

/** Minimal source exercising TraceSource's default next(). */
class CountingTrace : public TraceSource
{
  public:
    explicit CountingTrace(std::uint64_t length) : length_(length) {}

    std::size_t
    fill(MemAccess *out, std::size_t max) override
    {
        std::size_t n = 0;
        for (; n < max && produced_ < length_; ++n, ++produced_) {
            out[n].vaddr = VirtAddr{produced_ * pageBytes};
            out[n].write = produced_ % 2 == 0;
        }
        return n;
    }

    void reset() override { produced_ = 0; }

  private:
    std::uint64_t length_;
    std::uint64_t produced_ = 0;
};

TEST(TraceFill, BaseClassDefaultNextDelegatesToFill)
{
    CountingTrace reference(100);
    CountingTrace batched(100);
    const std::vector<MemAccess> one_at_a_time = drainOneAtATime(reference);
    ASSERT_EQ(one_at_a_time.size(), 100u);
    EXPECT_EQ(one_at_a_time[99].vaddr, VirtAddr{99 * pageBytes});
    expectSameStream(one_at_a_time, drainChunked(batched, {9, 32}));
}

} // namespace
} // namespace atlb
