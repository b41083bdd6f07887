/**
 * @file
 * Seeded mutation fuzzing of the ATLBTRC2 block decoder.
 *
 * The corpus is real block bodies: every block of the checked-in mini
 * capture, plus writer output covering varint, packed, width-0 and
 * one-access blocks. Each mutant is a body with a few random edits
 * (bytes, length, the width byte, the access count), copied into an
 * exact-size heap allocation so that ASan sees any read past its end.
 * It is decoded twice, through the scalar unpack and through the
 * detected SIMD level's kernel: the two must agree on the verdict, the
 * error text and the words. The run is deterministic per seed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ingest/trace_v2.hh"

namespace atlb
{
namespace
{

/** One block body and the access count its index entry declares. */
struct Block
{
    std::vector<std::uint8_t> body;
    std::uint64_t count = 0;
};

/** Every block of the ATLBTRC2 file at @p path. */
std::vector<Block>
cutBlocks(const std::string &path)
{
    std::string error;
    const std::optional<TraceV2Layout> layout = traceV2Layout(path, error);
    if (!layout) {
        ADD_FAILURE() << error;
        return {};
    }
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> file(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::vector<Block> blocks;
    for (const TraceV2Layout::Block &entry : layout->index) {
        const auto from = file.begin() +
                          static_cast<std::ptrdiff_t>(entry.offset);
        blocks.push_back(
            {{from, from + static_cast<std::ptrdiff_t>(entry.bytes)},
             entry.count});
    }
    return blocks;
}

/** Scratch path for writer output, removed on destruction. */
struct ScratchFile
{
    std::string path = testing::TempDir() + "atlb_v2_fuzz_" +
                       std::to_string(::getpid()) + ".atlbtrc2";
    ~ScratchFile() { std::remove(path.c_str()); }
};

/** Blocks of @p accesses written at @p capacity. */
std::vector<Block>
writtenBlocks(const std::vector<MemAccess> &accesses,
              std::uint64_t capacity)
{
    const ScratchFile file;
    {
        TraceV2Writer writer(file.path, capacity);
        for (const MemAccess &a : accesses)
            writer.append(a);
    }
    return cutBlocks(file.path);
}

/** The body of @p words written as one block. */
std::vector<std::uint8_t>
reencoded(const std::vector<std::uint64_t> &words)
{
    std::vector<MemAccess> accesses;
    for (const std::uint64_t word : words)
        accesses.push_back({VirtAddr{word >> 1}, (word & 1) != 0});
    const std::vector<Block> blocks =
        writtenBlocks(accesses, accesses.size());
    return blocks.size() == 1 ? blocks[0].body
                              : std::vector<std::uint8_t>{};
}

std::vector<Block>
fuzzCorpus()
{
    std::vector<Block> corpus =
        cutBlocks(std::string(ATLB_GOLDEN_DIR) + "/mini.atlbtrc2");
    Rng rng(0xb10c);
    const std::uint64_t base = 0x7f0000000000ULL;
    std::vector<MemAccess> local;     // small deltas: varint blocks
    std::vector<MemAccess> scattered; // wide deltas: packed blocks
    std::vector<MemAccess> same;      // no deltas: width-0 packed blocks
    for (std::uint64_t i = 0; i < 300; ++i) {
        local.push_back({VirtAddr{base + i * 64 + rng.nextBounded(64)},
                         rng.nextBool(0.3)});
        scattered.push_back(
            {VirtAddr{base + rng.nextBounded(1ULL << 36)},
             rng.nextBool(0.5)});
        same.push_back({VirtAddr{base + 0x1238}, true});
    }
    for (const std::vector<MemAccess> *stream :
         {&local, &scattered, &same}) {
        for (const Block &block : writtenBlocks(*stream, 128))
            corpus.push_back(block);
    }
    for (const Block &block : writtenBlocks({local[0]}, 128)) // 1 access
        corpus.push_back(block);
    return corpus;
}

/** @p block with one random edit. */
void
mutate(Rng &rng, Block &block)
{
    std::vector<std::uint8_t> &body = block.body;
    const auto at = [&](std::size_t bound) {
        return static_cast<std::size_t>(rng.nextBounded(bound + 1));
    };
    switch (rng.nextBounded(6)) {
      case 0: // set a byte
        if (!body.empty())
            body[at(body.size() - 1)] =
                static_cast<std::uint8_t>(rng.nextBounded(256));
        break;
      case 1: // flip one bit
        if (!body.empty())
            body[at(body.size() - 1)] ^=
                static_cast<std::uint8_t>(1u << rng.nextBounded(8));
        break;
      case 2: // cut the body or grow it by a few random bytes
        if (rng.nextBool(0.5)) {
            body.resize(at(body.size()));
        } else {
            for (std::size_t n = 1 + at(15); n > 0; --n)
                body.push_back(
                    static_cast<std::uint8_t>(rng.nextBounded(256)));
        }
        break;
      case 3: // the width byte, past 64 at times
        if (body.size() >= 2)
            body[1] = static_cast<std::uint8_t>(rng.nextBounded(72));
        break;
      case 4: // the tag byte
        if (!body.empty())
            body[0] = static_cast<std::uint8_t>(rng.nextBounded(3));
        break;
      default: { // the access count, within [1, the cap]
        const std::uint64_t cap = traceV2MaxBlockCapacity;
        const std::uint64_t roll = rng.nextBounded(16);
        if (roll == 0) {
            block.count = cap;
        } else if (roll < 8) { // log-uniform, so mostly small
            block.count =
                1 + rng.nextBounded(std::uint64_t{1} << rng.nextBounded(21));
        } else { // a near miss
            const std::uint64_t near = block.count + rng.nextBounded(9);
            block.count = std::clamp<std::uint64_t>(
                near > 4 ? near - 4 : 1, 1, cap);
        }
      }
    }
}

TEST(TraceV2Fuzz, BlockDecoderAgreesAcrossUnpackKernels)
{
    const std::vector<Block> corpus = fuzzCorpus();
    ASSERT_GE(corpus.size(), 10u);
    const SimdUnpackFn kernel = simdBlockUnpackFn(detectedSimdLevel());

    // Unmutated bodies decode alike at both kernels and re-encode to
    // the same bytes.
    for (const Block &block : corpus) {
        std::vector<std::uint64_t> scalar;
        std::vector<std::uint64_t> vector;
        std::string error;
        ASSERT_TRUE(decodeTraceV2Block(block.body.data(), block.body.size(),
                                       block.count, &scalarUnpackBits,
                                       scalar, error))
            << error;
        ASSERT_TRUE(decodeTraceV2Block(block.body.data(), block.body.size(),
                                       block.count, kernel, vector, error))
            << error;
        ASSERT_EQ(scalar, vector);
        ASSERT_EQ(scalar.size(), block.count);
        EXPECT_EQ(reencoded(scalar), block.body);
    }

    Rng rng(20'260'420);
    constexpr int mutations = 60'000;
    int accepted = 0;
    int disagreements = 0;
    std::vector<std::uint64_t> scalar;
    std::vector<std::uint64_t> vector;
    for (int i = 0; i < mutations; ++i) {
        Block mutant = corpus[rng.nextBounded(corpus.size())];
        for (std::uint64_t e = 1 + rng.nextBounded(3); e > 0; --e)
            mutate(rng, mutant);
        // An exact-size allocation: any read past the body is a
        // heap-buffer-overflow under ASan.
        const std::size_t bytes = mutant.body.size();
        const std::unique_ptr<std::uint8_t[]> body(
            new std::uint8_t[bytes]);
        std::copy(mutant.body.begin(), mutant.body.end(), body.get());

        std::string scalar_error;
        std::string vector_error;
        const bool scalar_ok =
            decodeTraceV2Block(body.get(), bytes, mutant.count,
                               &scalarUnpackBits, scalar, scalar_error);
        const bool vector_ok = decodeTraceV2Block(
            body.get(), bytes, mutant.count, kernel, vector, vector_error);
        accepted += scalar_ok ? 1 : 0;
        const bool same = scalar_ok == vector_ok &&
                          scalar_error == vector_error &&
                          (!scalar_ok || scalar == vector);
        if (!same && ++disagreements <= 10) {
            ADD_FAILURE() << "mutant " << i << " (" << bytes
                          << " bytes, count " << mutant.count
                          << "): scalar '" << scalar_error << "', vector '"
                          << vector_error << "'";
        }
        if (scalar_ok && scalar.size() != mutant.count)
            ADD_FAILURE() << "mutant " << i << " decoded "
                          << scalar.size() << " of " << mutant.count;
    }
    EXPECT_EQ(disagreements, 0);
    // The mutants must keep reaching the unpack and the varint loop,
    // not only the header checks.
    EXPECT_GE(accepted * 20, mutations) << accepted << " accepted";
    std::printf("%d mutants, %d decoded\n", mutations, accepted);
}

} // namespace
} // namespace atlb
