/**
 * @file
 * Test helper: load serialized trace bytes through trace::loadBinary,
 * the one cache-v3 loader, by way of a temp file.
 */

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace copra::test_support {

/** @p t serialized in the cache-v3 format. */
inline std::string
binaryBytes(const trace::Trace &t)
{
    std::ostringstream os;
    trace::writeBinary(t, os);
    return os.str();
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
