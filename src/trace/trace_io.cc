#include "trace/trace_io.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/trace_soa.hpp"

namespace copra::trace {

// The file's little-endian record columns are the trace's, viewed in
// place; a big-endian host would need a decode pass.
static_assert(std::endian::native == std::endian::little,
              "cache-v4 images are viewed in place on little-endian hosts");

namespace {

constexpr char kMagic[8] = {'C', 'O', 'P', 'R', 'A', 'T', 'R', 'C'};
constexpr size_t kHeaderBytes = header_offset::kName;
constexpr uint32_t kMaxNameLength = 1u << 16;
/** Smallest per-record footprint: site id and taken. */
constexpr uint64_t kMinRecordBytes = 4 + 1;
/** Smallest per-site footprint: pc, target and kind. */
constexpr uint64_t kMinSiteBytes = 8 + 8 + 1;
constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

size_t
pad8(size_t n)
{
    return (n + 7) & ~size_t(7);
}

uint64_t
loadU64(const unsigned char *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
storeU64(unsigned char *p, uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Fold @p bytes at @p data into FNV-1a state @p h one 8-byte word at a
 * time; a partial last word is zero-extended, which is what the
 * section's zero padding holds on disk.
 */
uint64_t
foldWords(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    size_t words = bytes / 8;
    for (size_t i = 0; i < words; ++i) {
        h ^= loadU64(p + 8 * i);
        h *= kFnvPrime;
    }
    if (size_t tail = bytes % 8) {
        uint64_t last = 0;
        std::memcpy(&last, p + 8 * words, tail);
        h ^= last;
        h *= kFnvPrime;
    }
    return h;
}

/** The header fields of a cache-v4 image, checked against its size. */
struct Header
{
    uint32_t nameLength = 0;
    uint64_t seed = 0;
    uint64_t records = 0;
    uint64_t conditionals = 0;
    uint64_t sites = 0;
    uint64_t checksum = 0;
    ImageLayout layout;
};

/**
 * Parse the header in the first @p have bytes at @p p of an image that
 * is @p image_bytes long. Checks run in the order a reader needs them:
 * magic, version, a complete header, then the exact image size — the
 * counts are bounded by that size before any offset is computed from
 * them.
 */
Header
parseHeader(const unsigned char *p, size_t have, uint64_t image_bytes)
{
    if (have < sizeof kMagic || std::memcmp(p, kMagic, sizeof kMagic) != 0)
        throw std::runtime_error("copra trace: bad magic");
    if (have < header_offset::kVersion + 4)
        throw std::runtime_error("copra trace: truncated header");
    uint64_t word = loadU64(p + header_offset::kVersion);
    auto version = static_cast<uint32_t>(word);
    if (version != kTraceFormatVersion)
        throw std::runtime_error("copra trace: unsupported version " +
                                 std::to_string(version));
    if (have < kHeaderBytes)
        throw std::runtime_error("copra trace: truncated header");
    Header h;
    h.nameLength = static_cast<uint32_t>(word >> 32);
    if (h.nameLength > kMaxNameLength)
        throw std::runtime_error("copra trace: implausible name length " +
                                 std::to_string(h.nameLength));
    h.seed = loadU64(p + header_offset::kSeed);
    h.records = loadU64(p + header_offset::kRecords);
    h.conditionals = loadU64(p + header_offset::kConditionals);
    h.sites = loadU64(p + header_offset::kSites);
    h.checksum = loadU64(p + header_offset::kChecksum);
    if (h.records > image_bytes / kMinRecordBytes ||
        h.sites > image_bytes / kMinSiteBytes)
        throw std::runtime_error(
            "copra trace: size mismatch (file is " +
            std::to_string(image_bytes) + " bytes, too few for " +
            std::to_string(h.records) + " records and " +
            std::to_string(h.sites) + " sites)");
    h.layout = imageLayout(h.nameLength, h.records, h.sites);
    if (h.layout.end != image_bytes)
        throw std::runtime_error(
            "copra trace: size mismatch (file is " +
            std::to_string(image_bytes) + " bytes, header implies " +
            std::to_string(h.layout.end) + ")");
    return h;
}

/** A read-only view of @p count values of type T at @p base + @p offset. */
template <typename T>
std::span<const T>
section(const unsigned char *base, size_t offset, uint64_t count)
{
    return {reinterpret_cast<const T *>(base + offset),
            static_cast<size_t>(count)};
}

/**
 * Check the image at @p base (@p bytes long, 8-aligned, kept alive by
 * @p owner) and adopt its sections: the record columns in place, the
 * site table decoded.
 */
Trace
adoptImage(std::shared_ptr<const void> owner, const unsigned char *base,
           size_t bytes)
{
    Header h = parseHeader(base, bytes, bytes);
    if (imageChecksum(base, bytes) != h.checksum)
        throw std::runtime_error("copra trace: checksum mismatch");
    std::string name(reinterpret_cast<const char *>(base) + kHeaderBytes,
                     h.nameLength);
    const ImageLayout &at = h.layout;
    SoABlocks::Columns columns{
        section<uint32_t>(base, at.site, h.records),
        section<uint8_t>(base, at.taken, h.records),
        section<uint64_t>(base, at.sitePc, h.sites),
        section<uint64_t>(base, at.siteTarget, h.sites),
        section<uint8_t>(base, at.siteKind, h.sites),
    };
    SoABlocks soa = SoABlocks::adopt(std::move(owner), columns);
    if (soa.conditionalCount() != h.conditionals)
        throw std::runtime_error(
            "copra trace: conditional count mismatch (header says " +
            std::to_string(h.conditionals) + ", records hold " +
            std::to_string(soa.conditionalCount()) + ")");
    return Trace(std::move(name), h.seed, std::move(soa));
}

} // namespace

ImageLayout
imageLayout(uint32_t name_length, uint64_t records, uint64_t sites)
{
    auto n = static_cast<size_t>(records);
    auto s = static_cast<size_t>(sites);
    ImageLayout at;
    at.site = kHeaderBytes + pad8(name_length);
    at.taken = at.site + pad8(4 * n);
    at.sitePc = at.taken + pad8(n);
    at.siteTarget = at.sitePc + 8 * s;
    at.siteKind = at.siteTarget + 8 * s;
    at.end = at.siteKind + pad8(s);
    return at;
}

uint64_t
imageChecksum(const unsigned char *image, size_t bytes)
{
    uint64_t h = foldWords(kFnvBasis, image, header_offset::kChecksum);
    return foldWords(h, image + kHeaderBytes, bytes - kHeaderBytes);
}

void
writeBinary(const Trace &trace, std::ostream &os)
{
    const SoABlocks &soa = trace.soa();
    const std::string &name = trace.name();
    if (name.size() > kMaxNameLength)
        throw std::runtime_error("copra trace: name longer than 64 KiB");
    size_t n = soa.size();

    std::array<unsigned char, kHeaderBytes> header{};
    std::memcpy(header.data(), kMagic, sizeof kMagic);
    storeU64(header.data() + header_offset::kVersion,
             kTraceFormatVersion | uint64_t(name.size()) << 32);
    storeU64(header.data() + header_offset::kSeed, trace.seed());
    storeU64(header.data() + header_offset::kRecords, n);
    storeU64(header.data() + header_offset::kConditionals,
             soa.conditionalCount());
    storeU64(header.data() + header_offset::kSites, soa.siteCount());

    // The site table as the three columns the file stores.
    std::span<const Site> sites = soa.sites();
    std::vector<uint64_t> site_pc(sites.size());
    std::vector<uint64_t> site_target(sites.size());
    std::vector<uint8_t> site_kind(sites.size());
    for (size_t j = 0; j < sites.size(); ++j) {
        site_pc[j] = sites[j].pc;
        site_target[j] = sites[j].target;
        site_kind[j] = static_cast<uint8_t>(sites[j].kind);
    }

    // The name and the five sections in file order; each is padded with
    // zeros to an 8-byte boundary on disk.
    struct Section
    {
        const void *data;
        size_t bytes;
    };
    const Section sections[] = {
        {name.data(), name.size()},
        {soa.site(), 4 * n},
        {soa.taken(), n},
        {site_pc.data(), 8 * sites.size()},
        {site_target.data(), 8 * sites.size()},
        {site_kind.data(), sites.size()},
    };
    uint64_t h = foldWords(kFnvBasis, header.data(), header_offset::kChecksum);
    for (const Section &s : sections)
        h = foldWords(h, s.data, s.bytes);
    storeU64(header.data() + header_offset::kChecksum, h);

    constexpr char kZeros[8] = {};
    os.write(reinterpret_cast<const char *>(header.data()), kHeaderBytes);
    for (const Section &s : sections) {
        if (s.bytes != 0)
            os.write(static_cast<const char *>(s.data),
                     static_cast<std::streamsize>(s.bytes));
        os.write(kZeros,
                 static_cast<std::streamsize>(pad8(s.bytes) - s.bytes));
    }
}

void
saveBinary(const Trace &trace, const std::string &path)
{
    // A fresh inode, so traces still mapping the old file keep it.
    std::error_code ec;
    std::filesystem::remove(path, ec);
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
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("copra trace: cannot open for read: " +
                                 path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw std::runtime_error("copra trace: cannot stat: " + path);
    }
    auto bytes = static_cast<size_t>(st.st_size);
    if (bytes == 0) {
        // Nothing to map; the header check names what is missing.
        ::close(fd);
        return adoptImage(nullptr, nullptr, 0);
    }
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE; // the checksum reads every page anyway
#endif
    void *map = ::mmap(nullptr, bytes, PROT_READ, flags, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        throw std::runtime_error("copra trace: mmap failed: " + path);
    // The last trace sharing the image unmaps it.
    std::shared_ptr<const void> image(
        map, [bytes](void *p) { ::munmap(p, bytes); });
    return adoptImage(std::move(image),
                      static_cast<const unsigned char *>(map), bytes);
}

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

} // namespace copra::trace
