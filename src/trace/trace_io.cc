#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "trace/trace_soa.hpp"

namespace copra::trace {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'P', 'R', 'A', 'T', 'R', 'C'};
constexpr uint32_t kVersion = kTraceFormatVersion;

void
putU32(std::ostream &os, uint32_t v)
{
    std::array<char, 4> buf;
    for (int i = 0; i < 4; ++i)
        buf[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), buf.size());
}

void
putU64(std::ostream &os, uint64_t v)
{
    std::array<char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), buf.size());
}

uint32_t
getU32(std::istream &is)
{
    std::array<unsigned char, 4> buf;
    is.read(reinterpret_cast<char *>(buf.data()), buf.size());
    if (!is)
        throw std::runtime_error("copra trace: truncated input (u32)");
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | buf[static_cast<size_t>(i)];
    return v;
}

uint64_t
getU64(std::istream &is)
{
    std::array<unsigned char, 8> buf;
    is.read(reinterpret_cast<char *>(buf.data()), buf.size());
    if (!is)
        throw std::runtime_error("copra trace: truncated input (u64)");
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[static_cast<size_t>(i)];
    return v;
}

/** Little-endian u64 load; compiles to one mov on LE hosts. */
uint64_t
loadLe64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[static_cast<size_t>(i)];
    return v;
}

size_t
paddedNameLen(size_t name_len)
{
    return (name_len + 7) & ~size_t(7);
}

/** v2 header: everything before the name bytes (incl. checksum). */
constexpr size_t kV2HeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/**
 * FNV-1a folded over 8-byte LE words (byte-wise tail). The column
 * layout has no per-record structure to validate — a flipped pc byte
 * decodes silently — so v2 carries an explicit payload checksum;
 * corruption detection, not adversarial tamper-proofing.
 */
uint64_t
checksumPayload(const unsigned char *p, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    size_t words = n / 8;
    for (size_t i = 0; i < words; ++i) {
        h ^= loadLe64(p + i * 8);
        h *= 1099511628211ull;
    }
    for (size_t i = words * 8; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

size_t
v2PayloadBytes(uint64_t count)
{
    return static_cast<size_t>(count) * (8 + 8 + 1 + 1);
}

/**
 * Decode the v2 column payload (laid out pc, target, kind, taken) into
 * a SoABlocks. @p payload must hold v2PayloadBytes(count) bytes.
 */
SoABlocks
decodeColumns(const unsigned char *payload, uint64_t count,
              uint64_t claimed_conditionals)
{
    size_t n = static_cast<size_t>(count);
    std::vector<uint64_t> pc(n);
    std::vector<uint64_t> target(n);
    std::vector<uint8_t> kind(n);
    std::vector<uint8_t> taken(n);
    const unsigned char *p = payload;
    for (size_t i = 0; i < n; ++i, p += 8)
        pc[i] = loadLe64(p);
    for (size_t i = 0; i < n; ++i, p += 8)
        target[i] = loadLe64(p);
    for (size_t i = 0; i < n; ++i)
        kind[i] = p[i];
    p += n;
    std::copy(p, p + n, taken.begin());
    for (size_t i = 0; i < n; ++i)
        if (kind[i] > static_cast<uint8_t>(BranchKind::Return))
            throw std::runtime_error("copra trace: invalid branch kind");
    SoABlocks blocks(std::move(pc), std::move(target), std::move(kind),
                     std::move(taken));
    if (blocks.conditionalCount() != claimed_conditionals)
        throw std::runtime_error(
            "copra trace: conditional count mismatch (header says " +
            std::to_string(claimed_conditionals) + ", columns hold " +
            std::to_string(blocks.conditionalCount()) + ")");
    return blocks;
}

Trace
readBinaryV2(std::istream &is)
{
    uint32_t name_len = getU32(is);
    if (name_len > (1u << 16))
        throw std::runtime_error("copra trace: implausible name length " +
                                 std::to_string(name_len));
    uint64_t seed = getU64(is);
    uint64_t count = getU64(is);
    uint64_t conditionals = getU64(is);
    uint64_t checksum = getU64(is);

    size_t padded = paddedNameLen(name_len);
    std::string name_buf(padded, '\0');
    is.read(name_buf.data(), static_cast<std::streamsize>(padded));
    if (!is)
        throw std::runtime_error("copra trace: truncated name");
    std::string name = name_buf.substr(0, name_len);

    // Validate the claimed record count against the actual stream size
    // before allocating column storage for it.
    std::istream::pos_type here = is.tellg();
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (here == std::istream::pos_type(-1) ||
        end == std::istream::pos_type(-1) ||
        static_cast<uint64_t>(end - here) != v2PayloadBytes(count))
        throw std::runtime_error("copra trace: truncated columns");

    std::vector<unsigned char> payload(v2PayloadBytes(count));
    if (!payload.empty()) {
        is.read(reinterpret_cast<char *>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
        if (!is)
            throw std::runtime_error("copra trace: truncated columns");
    }
    if (checksumPayload(payload.data(), payload.size()) != checksum)
        throw std::runtime_error("copra trace: payload checksum mismatch");
    return Trace(std::move(name), seed,
                 decodeColumns(payload.data(), count, conditionals));
}

} // namespace

void
writeBinary(const Trace &trace, std::ostream &os)
{
    // Stage the whole column payload first: the header carries its
    // checksum, so the bytes must exist before the header is written.
    const SoABlocks &soa = trace.soa();
    size_t n = soa.size();
    std::vector<unsigned char> payload(v2PayloadBytes(n));
    unsigned char *p = payload.data();
    for (const uint64_t *column : {soa.pc(), soa.target()}) {
        for (size_t i = 0; i < n; ++i, p += 8) {
            for (int b = 0; b < 8; ++b)
                p[static_cast<size_t>(b)] = static_cast<unsigned char>(
                    (column[i] >> (8 * b)) & 0xff);
        }
    }
    std::copy(soa.kind(), soa.kind() + n, p);
    std::copy(soa.taken(), soa.taken() + n, p + n);

    os.write(kMagic, sizeof(kMagic));
    putU32(os, kVersion);
    putU32(os, static_cast<uint32_t>(trace.name().size()));
    putU64(os, trace.seed());
    putU64(os, trace.size());
    putU64(os, trace.conditionalCount());
    putU64(os, checksumPayload(payload.data(), payload.size()));
    size_t padded = paddedNameLen(trace.name().size());
    std::string name_buf(padded, '\0');
    std::copy(trace.name().begin(), trace.name().end(), name_buf.begin());
    os.write(name_buf.data(), static_cast<std::streamsize>(padded));
    if (!payload.empty())
        os.write(reinterpret_cast<const char *>(payload.data()),
                 static_cast<std::streamsize>(payload.size()));
}

Trace
readBinary(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("copra trace: bad magic");
    uint32_t version = getU32(is);
    if (version == kVersion)
        return readBinaryV2(is);
    throw std::runtime_error("copra trace: unsupported version " +
                             std::to_string(version));
}

void
saveBinary(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("copra trace: cannot open for write: " +
                                 path);
    writeBinary(trace, os);
    if (!os)
        throw std::runtime_error("copra trace: write failed: " + path);
}

Trace
loadBinary(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("copra trace: cannot open for read: " +
                                 path);
    return readBinary(is);
}

#ifndef _WIN32

Trace
loadBinaryMapped(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("copra trace: cannot open for read: " +
                                 path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw std::runtime_error("copra trace: cannot stat: " + path);
    }
    size_t file_size = static_cast<size_t>(st.st_size);
    if (file_size < kV2HeaderBytes) {
        ::close(fd);
        throw std::runtime_error("copra trace: truncated header");
    }
    void *map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        throw std::runtime_error("copra trace: mmap failed: " + path);

    // Unmap on every exit path; the decoded columns own their memory.
    struct Unmapper
    {
        void *addr;
        size_t len;
        ~Unmapper() { ::munmap(addr, len); }
    } unmapper{map, file_size};

    const unsigned char *base = static_cast<const unsigned char *>(map);
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("copra trace: bad magic");
    uint32_t version = static_cast<uint32_t>(loadLe64(base + 8) & 0xffffffff);
    uint32_t name_len =
        static_cast<uint32_t>(loadLe64(base + 8) >> 32);
    if (version != kVersion)
        throw std::runtime_error("copra trace: unsupported version " +
                                 std::to_string(version));
    if (name_len > (1u << 16))
        throw std::runtime_error("copra trace: implausible name length " +
                                 std::to_string(name_len));
    uint64_t seed = loadLe64(base + 16);
    uint64_t count = loadLe64(base + 24);
    uint64_t conditionals = loadLe64(base + 32);
    uint64_t checksum = loadLe64(base + 40);

    size_t padded = paddedNameLen(name_len);
    uint64_t expected = kV2HeaderBytes + padded + v2PayloadBytes(count);
    if (file_size != expected)
        throw std::runtime_error(
            "copra trace: size mismatch (file is " +
            std::to_string(file_size) + " bytes, header implies " +
            std::to_string(expected) + ")");
    const unsigned char *payload = base + kV2HeaderBytes + padded;
    if (checksumPayload(payload, v2PayloadBytes(count)) != checksum)
        throw std::runtime_error("copra trace: payload checksum mismatch");
    std::string name(reinterpret_cast<const char *>(base) + kV2HeaderBytes,
                     name_len);
    return Trace(std::move(name), seed,
                 decodeColumns(payload, count, conditionals));
}

#else // _WIN32

Trace
loadBinaryMapped(const std::string &path)
{
    // No mmap on this platform; callers fall back to loadBinary.
    throw std::runtime_error("copra trace: mapped load unsupported: " +
                             path);
}

#endif

void
writeText(const Trace &trace, std::ostream &os)
{
    os << "# name " << trace.name() << '\n';
    os << "# seed " << trace.seed() << '\n';
    for (const auto &rec : trace.records()) {
        os << branchKindName(rec.kind) << ' ' << std::hex << "0x" << rec.pc
           << " 0x" << rec.target << std::dec << ' '
           << (rec.taken ? 'T' : 'N') << '\n';
    }
}

Trace
readText(std::istream &is)
{
    Trace trace;
    std::string line;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream hdr(line.substr(1));
            std::string key;
            hdr >> key;
            if (key == "name") {
                std::string name;
                hdr >> name;
                trace.setName(name);
            } else if (key == "seed") {
                uint64_t seed = 0;
                hdr >> seed;
                trace.setSeed(seed);
            }
            continue;
        }
        std::istringstream ls(line);
        std::string kind_str, pc_str, target_str, taken_str;
        if (!(ls >> kind_str >> pc_str >> target_str >> taken_str))
            throw std::runtime_error("copra trace: malformed text line " +
                                     std::to_string(line_no));
        BranchRecord rec;
        if (kind_str == "cond")
            rec.kind = BranchKind::Conditional;
        else if (kind_str == "jump")
            rec.kind = BranchKind::Jump;
        else if (kind_str == "call")
            rec.kind = BranchKind::Call;
        else if (kind_str == "ret")
            rec.kind = BranchKind::Return;
        else
            throw std::runtime_error("copra trace: unknown kind '" +
                                     kind_str + "' on line " +
                                     std::to_string(line_no));
        rec.pc = std::stoull(pc_str, nullptr, 0);
        rec.target = std::stoull(target_str, nullptr, 0);
        if (taken_str == "T")
            rec.taken = true;
        else if (taken_str == "N")
            rec.taken = false;
        else
            throw std::runtime_error("copra trace: bad outcome on line " +
                                     std::to_string(line_no));
        trace.append(rec);
    }
    return trace;
}

} // namespace copra::trace
