/**
 * @file
 * A crafted ATLBTRC2 file whose header, trailer and block index all
 * hold up, but whose one block declares more accesses than any reader
 * can hold. The codec tests and the serve tests both feed it in.
 */

#ifndef ANCHORTLB_TESTS_INGEST_TRACE_V2_CRAFTED_HH
#define ANCHORTLB_TESTS_INGEST_TRACE_V2_CRAFTED_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hh"

namespace atlb::test
{

/** Accesses the crafted block and header declare: 2^58 + 1. */
constexpr std::uint64_t oversizedBlockCount = (std::uint64_t{1} << 58) + 1;

/**
 * Write a 121-byte ATLBTRC2 file to @p path: a header capacity of
 * oversizedBlockCount, then one packed block of that many accesses at
 * width 64, all at @p vaddr (below 2^54), with a correct block FNV,
 * index FNV and trailer. (count - 1) * 64 wraps to 0, so a payload
 * size computed by multiplying first fits its 9-byte body exactly:
 * the tag, the width and the first word as one 7-byte varint.
 */
inline void
writeOversizedPackedBlockTrace(const std::string &path, std::uint64_t vaddr)
{
    std::vector<std::uint8_t> body = {1, 64}; // packed, width 64
    // The first word is vaddr * 2 (a read), its delta from 0 zigzags
    // to twice that.
    std::uint64_t z = vaddr * 4;
    for (; z >= 0x80; z /= 0x80)
        body.push_back(static_cast<std::uint8_t>(z % 0x80) | 0x80);
    body.push_back(static_cast<std::uint8_t>(z));

    std::vector<std::uint8_t> index;
    const auto put = [](std::vector<std::uint8_t> &out, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(index, 16); // the block's offset, right after the header
    put(index, body.size());
    put(index, oversizedBlockCount);
    put(index, fnv1a64(body.data(), body.size()));

    std::vector<std::uint8_t> file = {'A', 'T', 'L', 'B',
                                      'T', 'R', 'C', '2'};
    put(file, oversizedBlockCount);
    file.insert(file.end(), body.begin(), body.end());
    file.insert(file.end(), index.begin(), index.end());
    put(file, 16 + body.size()); // index offset
    put(file, 1);                // blocks
    put(file, oversizedBlockCount);
    put(file, vaddr); // min vaddr
    put(file, vaddr); // max vaddr
    put(file, fnv1a64(index.data(), index.size()));
    put(file, 0); // reserved
    for (const char c : {'A', 'T', 'L', 'B', 'E', 'N', 'D', '2'})
        file.push_back(static_cast<std::uint8_t>(c));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(file.data()),
              static_cast<std::streamsize>(file.size()));
}

} // namespace atlb::test

#endif // ANCHORTLB_TESTS_INGEST_TRACE_V2_CRAFTED_HH
