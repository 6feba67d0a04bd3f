#include "trace/trace_io.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "trace/ingest.hpp"
#include "trace/trace_soa.hpp"

namespace copra::trace {

// The file's little-endian columns are the trace's columns, viewed in
// place; a big-endian host would need a decode pass.
static_assert(std::endian::native == std::endian::little,
              "cache-v3 images are viewed in place on little-endian hosts");

namespace {

constexpr char kMagic[8] = {'C', 'O', 'P', 'R', 'A', 'T', 'R', 'C'};
constexpr size_t kHeaderBytes = header_offset::kName;
constexpr uint32_t kMaxNameLength = 1u << 16;
/** Smallest per-record footprint: pc, target, kind, taken, static id. */
constexpr uint64_t kMinRecordBytes = 8 + 8 + 1 + 1 + 4;
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

/** The header fields of a cache-v3 image, checked against its size. */
struct Header
{
    uint32_t nameLength = 0;
    uint64_t seed = 0;
    uint64_t records = 0;
    uint64_t conditionals = 0;
    uint64_t staticPcs = 0;
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
    h.staticPcs = loadU64(p + header_offset::kStaticPcs);
    h.checksum = loadU64(p + header_offset::kChecksum);
    if (h.records > image_bytes / kMinRecordBytes ||
        h.staticPcs > image_bytes / 8)
        throw std::runtime_error(
            "copra trace: size mismatch (file is " +
            std::to_string(image_bytes) + " bytes, too few for " +
            std::to_string(h.records) + " records)");
    h.layout = imageLayout(h.nameLength, h.records, h.staticPcs);
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
 * The one decode path of both loaders: check the image at @p base
 * (@p bytes long, 8-aligned, kept alive by @p owner) and adopt its
 * sections as the trace's columns in place.
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
        section<uint64_t>(base, at.pc, h.records),
        section<uint64_t>(base, at.target, h.records),
        section<uint8_t>(base, at.kind, h.records),
        section<uint8_t>(base, at.taken, h.records),
        section<uint32_t>(base, at.staticIndex, h.records),
        section<uint64_t>(base, at.staticPcs, h.staticPcs),
    };
    SoABlocks soa = SoABlocks::adopt(std::move(owner), columns);
    if (soa.conditionalCount() != h.conditionals)
        throw std::runtime_error(
            "copra trace: conditional count mismatch (header says " +
            std::to_string(h.conditionals) + ", columns hold " +
            std::to_string(soa.conditionalCount()) + ")");
    return Trace(std::move(name), h.seed, std::move(soa));
}

} // namespace

ImageLayout
imageLayout(uint32_t name_length, uint64_t records, uint64_t static_pcs)
{
    auto n = static_cast<size_t>(records);
    ImageLayout at;
    at.pc = kHeaderBytes + pad8(name_length);
    at.target = at.pc + 8 * n;
    at.kind = at.target + 8 * n;
    at.taken = at.kind + pad8(n);
    at.staticIndex = at.taken + pad8(n);
    at.staticPcs = at.staticIndex + pad8(4 * n);
    at.end = at.staticPcs + 8 * static_cast<size_t>(static_pcs);
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
    storeU64(header.data() + header_offset::kStaticPcs, soa.staticCount());

    // The name and the six sections in file order; each is padded with
    // zeros to an 8-byte boundary on disk.
    struct Section
    {
        const void *data;
        size_t bytes;
    };
    const Section sections[] = {
        {name.data(), name.size()},
        {soa.pc(), 8 * n},
        {soa.target(), 8 * n},
        {soa.kind(), n},
        {soa.taken(), n},
        {soa.staticIndex(), 4 * n},
        {soa.staticPcs().data(), 8 * soa.staticCount()},
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

Trace
readBinary(std::istream &is)
{
    std::istream::pos_type start = is.tellg();
    std::array<unsigned char, kHeaderBytes> header{};
    is.read(reinterpret_cast<char *>(header.data()), kHeaderBytes);
    auto have = static_cast<size_t>(is.gcount());
    is.clear();
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    if (start == std::istream::pos_type(-1) ||
        end == std::istream::pos_type(-1))
        throw std::runtime_error("copra trace: input is not seekable");
    auto bytes = static_cast<uint64_t>(end - start);
    parseHeader(header.data(), have, bytes);

    // One buffer holds the whole image and the trace views it in place.
    // operator new aligns it for u64 and implicitly creates the column
    // objects the views read.
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= alignof(uint64_t));
    std::shared_ptr<void> buffer(::operator new(static_cast<size_t>(bytes)),
                                 [](void *p) { ::operator delete(p); });
    auto *base = static_cast<unsigned char *>(buffer.get());
    std::memcpy(base, header.data(), kHeaderBytes);
    is.seekg(start + std::streamoff(kHeaderBytes));
    is.read(reinterpret_cast<char *>(base) + kHeaderBytes,
            static_cast<std::streamsize>(bytes - kHeaderBytes));
    if (!is)
        throw std::runtime_error("copra trace: truncated input");
    return adoptImage(std::move(buffer), base, static_cast<size_t>(bytes));
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
    auto bytes = static_cast<size_t>(st.st_size);
    if (bytes < kHeaderBytes) {
        ::close(fd);
        throw std::runtime_error("copra trace: truncated header");
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
        rec.pc = parseAddress(pc_str, line_no);
        rec.target = parseAddress(target_str, line_no);
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
