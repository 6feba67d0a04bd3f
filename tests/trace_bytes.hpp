/**
 * @file
 * Test helpers over serialized traces: load bytes through
 * trace::loadBinary, the one cache-v4 loader, by way of a temp file;
 * re-seal a hand-edited v4 image; and write a trace in the retired
 * cache-v3 layout, which the loader must reject by its version.
 */

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace copra::test_support {

/** @p t serialized in the cache-v4 format. */
inline std::string
binaryBytes(const trace::Trace &t)
{
    std::ostringstream os;
    trace::writeBinary(t, os);
    return os.str();
}

/** Store the checksum of the edited v4 image @p bytes in its header. */
inline void
reseal(std::string &bytes)
{
    uint64_t checksum = trace::imageChecksum(
        reinterpret_cast<const unsigned char *>(bytes.data()), bytes.size());
    std::memcpy(bytes.data() + trace::header_offset::kChecksum, &checksum,
                sizeof checksum);
}

/**
 * @p t in the retired cache-v3 layout: the v4 header with a static pc
 * count where v4 has its site count, then per record pc, target, kind,
 * taken and static id columns and the static pc table, every section
 * zero-padded to 8 bytes, sealed with the same FNV-1a word checksum.
 */
inline std::string
v3Bytes(const trace::Trace &t)
{
    std::string out;
    auto put = [&](uint64_t v, size_t bytes) {
        for (size_t i = 0; i < bytes; ++i)
            out.push_back(char((v >> (8 * i)) & 0xff));
    };
    auto pad = [&]() { out.resize((out.size() + 7) & ~size_t(7), '\0'); };
    std::unordered_map<uint64_t, uint32_t> ids;
    std::vector<uint64_t> pcs;
    std::vector<uint32_t> id_of;
    for (const trace::BranchRecord &rec : t.records()) {
        auto [it, fresh] =
            ids.try_emplace(rec.pc, static_cast<uint32_t>(pcs.size()));
        if (fresh)
            pcs.push_back(rec.pc);
        id_of.push_back(it->second);
    }
    out = "COPRATRC";
    put(3, 4);
    put(t.name().size(), 4);
    put(t.seed(), 8);
    put(t.size(), 8);
    put(t.conditionalCount(), 8);
    put(pcs.size(), 8);
    put(0, 8); // checksum, sealed below
    out += t.name();
    pad();
    for (const trace::BranchRecord &rec : t.records())
        put(rec.pc, 8);
    for (const trace::BranchRecord &rec : t.records())
        put(rec.target, 8);
    for (const trace::BranchRecord &rec : t.records())
        put(static_cast<uint8_t>(rec.kind), 1);
    pad();
    for (const trace::BranchRecord &rec : t.records())
        put(rec.taken ? 1 : 0, 1);
    pad();
    for (uint32_t id : id_of)
        put(id, 4);
    pad();
    for (uint64_t pc : pcs)
        put(pc, 8);
    reseal(out);
    return out;
}

/**
 * Write @p bytes to a temp file and load it. The file is removed
 * before returning; a loaded trace keeps its mapping.
 *
 * @throws std::runtime_error whatever loadBinary throws.
 */
inline trace::Trace
loadBytes(const std::string &bytes)
{
    std::string path =
        (std::filesystem::path(::testing::TempDir()) /
         ("copra-bytes-" + std::to_string(::getpid()) + ".trc"))
            .string();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    struct Remove
    {
        std::string path;
        ~Remove()
        {
            std::error_code ec;
            std::filesystem::remove(path, ec);
        }
    } remove{path};
    return trace::loadBinary(path);
}

} // namespace copra::test_support
