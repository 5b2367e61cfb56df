#include "ccq/serve/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "ccq/common/bytes.hpp"
#include "ccq/obs/trace.hpp"
#include "ccq/serve/checksum.hpp"

namespace ccq {
namespace {

constexpr std::array<char, 8> kMagic = {'C', 'C', 'Q', 'S', 'N', 'A', 'P', '\n'};
constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 8;
constexpr std::size_t kFooterBytes = 8;

/// fnv1a_update inside a snapshot/checksum span.
[[nodiscard]] std::uint64_t traced_fnv1a_update(std::uint64_t hash, std::string_view bytes)
{
    obs::TraceSpan span("snapshot/checksum", "serve",
                        obs::Tracer::global().enabled()
                            ? "{\"bytes\":" + std::to_string(bytes.size()) + ",\"isa\":\"" +
                                  checksum_isa() + "\"}"
                            : std::string());
    return fnv1a_update(hash, bytes);
}

// --- shared payload pieces --------------------------------------------------

void encode_meta(std::string& payload, const SnapshotMeta& meta)
{
    put_i32(payload, meta.node_count);
    put_u64(payload, meta.edge_count);
    put_u32(payload, meta.directed ? 1 : 0);
    put_i64(payload, meta.max_weight);
    put_string(payload, meta.algorithm);
    put_f64(payload, meta.claimed_stretch);
    put_f64(payload, meta.total_rounds);
    put_u64(payload, meta.total_words);
    put_u64(payload, meta.build_seed);
}

[[nodiscard]] SnapshotMeta decode_meta(ByteReader& reader, const char* who)
{
    SnapshotMeta meta;
    meta.node_count = reader.i32();
    if (meta.node_count < 0) throw snapshot_io_error(std::string(who) + ": negative node count");
    meta.edge_count = reader.u64();
    const std::uint32_t directed = reader.u32();
    if (directed > 1)
        throw snapshot_io_error(std::string(who) + ": malformed orientation flag");
    meta.directed = directed == 1;
    meta.max_weight = reader.i64();
    meta.algorithm = reader.str();
    meta.claimed_stretch = reader.f64();
    meta.total_rounds = reader.f64();
    meta.total_words = reader.u64();
    meta.build_seed = reader.u64();
    return meta;
}

[[nodiscard]] bool decode_flag(ByteReader& reader, const char* what)
{
    const std::uint32_t flag = reader.u32();
    if (flag > 1) throw snapshot_io_error(std::string("MappedSnapshot: malformed ") + what);
    return flag == 1;
}

// --- envelope ----------------------------------------------------------------

void write_header(std::ostream& out, SnapshotFormat format, std::uint64_t payload_size)
{
    std::string header(kMagic.data(), kMagic.size());
    put_u32(header, format_version(format));
    put_u64(header, payload_size);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
}

void write_footer(std::ostream& out, std::uint64_t checksum, const char* who)
{
    std::string footer;
    put_u64(footer, checksum);
    out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
    if (!out) throw snapshot_io_error(std::string(who) + ": stream write failed");
}

// --- version 1: fixed-width cells -------------------------------------------

/// Streams a payload through a reused fixed-size chunk: cells are stored
/// little-endian into the chunk, and each full chunk feeds the running
/// checksum and then the stream, so memory stays bounded by the chunk.
class ChunkedPayloadWriter {
public:
    explicit ChunkedPayloadWriter(std::ostream& out) : out_(out), chunk_(kChunkBytes) {}

    /// Appends `count` cells as little-endian integers of the cell width
    /// (raw bytes when Cell is char).
    template <class Cell>
    void append(const Cell* cells, std::size_t count)
    {
        static_assert(std::is_integral_v<Cell>);
        while (count > 0) {
            const std::size_t take = std::min(count, room() / sizeof(Cell));
            if (take == 0) {
                flush();
                continue;
            }
            char* dst = chunk_.data() + used_;
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(dst, cells, take * sizeof(Cell));
            } else {
                for (std::size_t i = 0; i < take; ++i) {
                    const auto bits = static_cast<std::make_unsigned_t<Cell>>(cells[i]);
                    for (std::size_t b = 0; b < sizeof(Cell); ++b)
                        dst[i * sizeof(Cell) + b] = static_cast<char>((bits >> (8 * b)) & 0xff);
                }
            }
            used_ += take * sizeof(Cell);
            cells += take;
            count -= take;
        }
    }

    /// Writes the buffered bytes; returns the checksum of everything so far.
    std::uint64_t flush()
    {
        const std::string_view bytes(chunk_.data(), used_);
        hash_ = traced_fnv1a_update(hash_, bytes);
        out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        used_ = 0;
        return hash_;
    }

private:
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

    [[nodiscard]] std::size_t room() const noexcept { return chunk_.size() - used_; }

    std::ostream& out_;
    std::vector<char> chunk_;
    std::size_t used_ = 0;
    std::uint64_t hash_ = kFnvOffset;
};

/// Writes the v1 envelope without materializing the payload.  Its length
/// is known upfront (meta + n^2 x i64 + u32 flag + optional n^2 x i32),
/// so the header goes first; the bytes equal write_envelope's over the
/// whole payload.
void write_v1_streamed(std::ostream& out, const OracleSnapshot& snapshot)
{
    const auto cells = static_cast<std::size_t>(snapshot.meta.node_count) *
                       static_cast<std::size_t>(snapshot.meta.node_count);
    std::string meta;
    encode_meta(meta, snapshot.meta);
    write_header(out, SnapshotFormat::v1_raw,
                 meta.size() + cells * 8 + 4 + (snapshot.has_routing ? cells * 4 : 0));

    ChunkedPayloadWriter payload(out);
    payload.append(meta.data(), meta.size());
    payload.append(snapshot.estimate.data(), cells);
    const std::uint32_t has_routing = snapshot.has_routing ? 1 : 0;
    payload.append(&has_routing, 1);
    if (snapshot.has_routing) payload.append(snapshot.routing.data(), cells);

    write_footer(out, payload.flush(), "write_snapshot");
}

// Decoded-cell invariants, enforced by BOTH dense codecs at load time.  The
// dense engine's raw-add kernels assume every stored cell is in
// [0, kInfinity] (the no-overflow argument in matrix/kernels/), so a
// crafted or corrupted snapshot must never hand an out-of-range cell
// back to anything that might feed the engine — reject at the decode
// boundary instead.

void check_estimate_cell(std::int64_t value)
{
    if (value < 0 || value > kInfinity)
        throw snapshot_io_error("MappedSnapshot: estimate cell out of range");
}

void check_next_hop(std::int64_t value, int n)
{
    if (value < -1 || value >= n)
        throw snapshot_io_error("MappedSnapshot: next hop out of range");
}

/// The little-endian integer of width sizeof(Cell) at `bytes`.
template <class Cell>
[[nodiscard]] Cell load_le(const char* bytes)
{
    std::make_unsigned_t<Cell> bits = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&bits, bytes, sizeof(bits));
    } else {
        for (std::size_t b = 0; b < sizeof(Cell); ++b)
            bits |= static_cast<std::make_unsigned_t<Cell>>(static_cast<unsigned char>(bytes[b]))
                    << (8 * b);
    }
    return static_cast<Cell>(bits);
}

/// Checks a fixed-width section of little-endian cells in one pass:
/// the section's minimum and maximum go through `check`, which is the
/// per-cell check (an invariant of the form lo <= cell <= hi holds for
/// every cell iff it holds for both extremes).
template <class Cell, class Check>
void validate_cells(std::string_view bytes, const char* section, Check check)
{
    const std::size_t count = bytes.size() / sizeof(Cell);
    obs::TraceSpan span("snapshot/validate", "serve",
                        obs::Tracer::global().enabled()
                            ? std::string("{\"section\":\"") + section +
                                  "\",\"cells\":" + std::to_string(count) + "}"
                            : std::string());
    if (count == 0) return;
    Cell lo = std::numeric_limits<Cell>::max();
    Cell hi = std::numeric_limits<Cell>::min();
    for (std::size_t i = 0; i < count; ++i) {
        const Cell value = load_le<Cell>(bytes.data() + i * sizeof(Cell));
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    check(lo);
    check(hi);
}

/// Copies a section of little-endian cells into native integers.
template <class Cell>
void copy_cells(Cell* out, std::string_view bytes)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, bytes.data(), bytes.size());
    } else {
        for (std::size_t i = 0; i < bytes.size() / sizeof(Cell); ++i)
            out[i] = load_le<Cell>(bytes.data() + i * sizeof(Cell));
    }
}

/// Where the v1 cell sections sit in the payload.
struct V1Layout {
    std::size_t estimate_offset = 0;
    std::size_t routing_offset = 0;
    bool has_routing = false;
};

/// Reads the v1 sections after the meta block, validating every cell.
/// node_count is untrusted (FNV-1a detects accidents, not forgery), so
/// each section's size is proven against the payload before anything
/// n^2-sized is touched.
[[nodiscard]] V1Layout read_v1_layout(ByteReader& reader, int n)
{
    const std::uint64_t cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    if (cells > reader.remaining() / 8)
        throw snapshot_io_error("MappedSnapshot: node count exceeds payload size");
    V1Layout layout;
    layout.estimate_offset = reader.position();
    validate_cells<std::int64_t>(reader.bytes(static_cast<std::size_t>(cells) * 8), "estimate",
                                 [](std::int64_t value) { check_estimate_cell(value); });
    layout.has_routing = decode_flag(reader, "routing flag");
    if (layout.has_routing) {
        if (cells > reader.remaining() / 4)
            throw snapshot_io_error("MappedSnapshot: routing table exceeds payload size");
        layout.routing_offset = reader.position();
        validate_cells<std::int32_t>(reader.bytes(static_cast<std::size_t>(cells) * 4),
                                     "routing",
                                     [n](std::int32_t value) { check_next_hop(value, n); });
    }
    return layout;
}

// --- version 2: per-row delta+varint behind a row-offset table --------------
//
// Section layout (used for the estimate and, when present, the routing
// table):
//
//   offsets  (n+1) x u64   row i occupies blob[offsets[i], offsets[i+1])
//   blob     offsets[n] bytes of concatenated rows
//
// Each row is delta-encoded from 0: cell_j = prev + zigzag-varint, with
// prev starting at 0.  Every cell takes at least one byte, so a valid
// section's blob holds at least n bytes per row — the pre-allocation
// bound used against forged node counts.

/// prev + delta with wrap-around semantics: a forged delta must reach
/// the range check below as a deterministic (aliased) value, never as
/// signed-overflow UB.  Unsigned wrap + the C++20 modular narrowing
/// conversion back to int64 make the addition well-defined for every
/// input.
[[nodiscard]] std::int64_t wrapping_add(std::int64_t prev, std::int64_t delta)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                     static_cast<std::uint64_t>(delta));
}

/// value - prev with the same wrap-around: out-of-range cells (which
/// the decoders then reject) encode without signed overflow, and
/// in-range cells encode exactly as a plain subtraction would.
[[nodiscard]] std::int64_t wrapping_sub(std::int64_t value, std::int64_t prev)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                     static_cast<std::uint64_t>(prev));
}

template <class Cell>
void encode_v2_rows(std::string& payload, int n, const Cell* cells)
{
    std::string blob;
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (int u = 0; u < n; ++u) {
        std::int64_t prev = 0;
        const Cell* row = cells + static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
        for (int v = 0; v < n; ++v) {
            const std::int64_t value = static_cast<std::int64_t>(row[v]);
            put_varint_i64(blob, wrapping_sub(value, prev));
            prev = value;
        }
        offsets[static_cast<std::size_t>(u) + 1] = blob.size();
    }
    for (const std::uint64_t offset : offsets) put_u64(payload, offset);
    payload += blob;
}

/// A validated v2 section: absolute blob position plus row offsets.
struct V2Section {
    std::vector<std::size_t> row_offsets; ///< n+1 entries, relative to blob
    std::size_t blob_offset = 0;          ///< absolute position in the payload
};

/// Reads and validates one section's offset table, advances the reader
/// past the blob.  All bounds are proven before any n-sized allocation.
[[nodiscard]] V2Section read_v2_section(ByteReader& reader, int n, const char* what)
{
    const std::uint64_t entries = static_cast<std::uint64_t>(n) + 1;
    if (entries > reader.remaining() / 8)
        throw snapshot_io_error(std::string("MappedSnapshot: node count exceeds payload size (") +
                                what + " offsets)");
    V2Section section;
    section.row_offsets.resize(static_cast<std::size_t>(entries));
    for (std::size_t i = 0; i < section.row_offsets.size(); ++i) {
        const std::uint64_t offset = reader.u64();
        if (offset > reader.remaining())
            throw snapshot_io_error(std::string("MappedSnapshot: ") + what +
                                    " row offset exceeds payload size");
        section.row_offsets[i] = static_cast<std::size_t>(offset);
    }
    if (section.row_offsets.front() != 0)
        throw snapshot_io_error(std::string("MappedSnapshot: ") + what +
                                " offsets do not start at zero");
    for (std::size_t i = 0; i + 1 < section.row_offsets.size(); ++i) {
        if (section.row_offsets[i + 1] < section.row_offsets[i])
            throw snapshot_io_error(std::string("MappedSnapshot: ") + what +
                                    " row offsets not monotone");
        // Every cell costs at least one varint byte: a shorter row can
        // only come from a forged header, so reject before decoding.
        if (section.row_offsets[i + 1] - section.row_offsets[i] < static_cast<std::size_t>(n))
            throw snapshot_io_error(std::string("MappedSnapshot: ") + what +
                                    " row shorter than the node count");
    }
    const std::size_t blob_size = section.row_offsets.back();
    if (blob_size > reader.remaining())
        throw snapshot_io_error(std::string("MappedSnapshot: ") + what +
                                " blob exceeds payload size");
    section.blob_offset = reader.position();
    (void)reader.bytes(blob_size);
    return section;
}

/// Decodes one v2 row of n cells into `out`, range-checking each cell
/// with `check` as it is decoded.
template <class Cell, class Check>
void decode_row(std::string_view row_bytes, int n, Cell* out, const char* section, Check check)
{
    try {
        ByteReader reader(row_bytes);
        std::int64_t prev = 0;
        for (int v = 0; v < n; ++v) {
            const std::int64_t value = wrapping_add(prev, reader.varint_i64());
            check(value);
            out[v] = static_cast<Cell>(value);
            prev = value;
        }
        if (!reader.exhausted())
            throw snapshot_io_error(std::string("MappedSnapshot: trailing bytes in ") + section +
                                    " row");
    } catch (const decode_error& error) {
        throw snapshot_io_error(std::string("MappedSnapshot: ") + error.what());
    }
}

void decode_weight_row(std::string_view row_bytes, int n, Weight* out)
{
    decode_row(row_bytes, n, out, "estimate",
               [](std::int64_t value) { check_estimate_cell(value); });
}

void decode_hop_row(std::string_view row_bytes, int n, NodeId* out)
{
    decode_row(row_bytes, n, out, "routing",
               [n](std::int64_t value) { check_next_hop(value, n); });
}

[[nodiscard]] std::string encode_payload_v2(const OracleSnapshot& snapshot)
{
    const int n = snapshot.meta.node_count;
    std::string payload;
    encode_meta(payload, snapshot.meta);
    encode_v2_rows(payload, n, snapshot.estimate.data());
    put_u32(payload, snapshot.has_routing ? 1 : 0);
    if (snapshot.has_routing) encode_v2_rows(payload, n, snapshot.routing.data());
    return payload;
}

// Every unknown-version rejection goes through here so the message
// always names the version that was found, not just "unsupported".
[[noreturn]] void throw_unknown_version(const char* who, std::uint32_t version)
{
    throw snapshot_io_error(std::string(who) + ": unsupported snapshot format version " +
                            std::to_string(version) + " (this build understands 1.." +
                            std::to_string(kSnapshotFormatVersion) + ")");
}

void write_envelope(std::ostream& out, SnapshotFormat format, std::string_view payload,
                    const char* who)
{
    write_header(out, format, payload.size());
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_footer(out, traced_fnv1a_update(kFnvOffset, payload), who);
}

/// The fields of a 20-byte envelope header.
struct Header {
    std::uint32_t version = 0;
    std::uint64_t payload_size = 0;
};

/// Reads the header at the start of `bytes`, checking the magic and
/// that this build knows the version.
[[nodiscard]] Header read_header(std::string_view bytes, const std::string& who)
{
    if (bytes.size() < kHeaderBytes) throw snapshot_io_error(who + ": truncated header");
    if (bytes.substr(0, kMagic.size()) != std::string_view(kMagic.data(), kMagic.size()))
        throw snapshot_io_error(who + ": bad magic (not a ccq snapshot)");
    ByteReader fields(bytes.substr(kMagic.size(), kHeaderBytes - kMagic.size()));
    Header header;
    header.version = fields.u32();
    header.payload_size = fields.u64();
    if (header.version < format_version(SnapshotFormat::v1_raw) ||
        header.version > kSnapshotFormatVersion)
        throw_unknown_version(who.c_str(), header.version);
    return header;
}

struct VerifiedPayload {
    std::uint32_t version = 0;
    std::string_view bytes;
};

/// The codec family a reader decodes.
enum class Family { dense, sparse };

/// The one integrity check of a snapshot file being read, run over its
/// mapped bytes before any payload byte is decoded: the magic, a
/// version of the family the caller decodes (dense v1/v2 or sparse v3;
/// the other family is refused with a pointer at its loader), a payload
/// length equal to the file size minus the 28 envelope bytes, and the
/// FNV-1a checksum.
[[nodiscard]] VerifiedPayload verify_envelope(std::string_view file, Family family,
                                              const char* who)
{
    const bool sparse = family == Family::sparse;
    const Header header = read_header(file, who);
    if ((header.version == format_version(SnapshotFormat::v3_spanner)) != sparse)
        throw snapshot_io_error(
            sparse ? std::string(who) + ": format version " + std::to_string(header.version) +
                         " is a dense snapshot; load it with load_snapshot"
                   : std::string(who) +
                         ": format version 3 stores a sparse spanner, not a dense matrix; "
                         "load it with load_sparse_snapshot or open_distance_source");
    if (file.size() < kHeaderBytes + kFooterBytes ||
        header.payload_size != file.size() - kHeaderBytes - kFooterBytes)
        throw snapshot_io_error(std::string(who) +
                                ": payload length does not match the file size");
    const std::string_view payload = file.substr(kHeaderBytes, header.payload_size);
    ByteReader footer(file.substr(kHeaderBytes + payload.size()));
    if (footer.u64() != traced_fnv1a_update(kFnvOffset, payload))
        throw snapshot_io_error(std::string(who) + ": checksum mismatch (corrupted snapshot)");
    return {header.version, payload};
}

/// Moves the finished file `temp` to `path` in one step.  An existing
/// regular file at `path` is exchanged with `temp` and then unlinked:
/// a plain rename over it makes ext4 start writeback of the whole new
/// file inside rename(2) (its auto_da_alloc heuristic), which cost
/// ~20 ms on a 50 MB snapshot.  Elsewhere (no file there yet, a symlink, a filesystem or
/// kernel without RENAME_EXCHANGE) a plain rename does the same job.
void move_into_place(const std::string& temp, const std::string& path, const char* who)
{
#ifdef RENAME_EXCHANGE
    struct stat info = {};
    if (::lstat(path.c_str(), &info) == 0 && S_ISREG(info.st_mode) &&
        ::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, path.c_str(), RENAME_EXCHANGE) == 0) {
        ::unlink(temp.c_str()); // now the old file
        return;
    }
#endif
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        throw snapshot_io_error(std::string(who) + ": cannot rename " + temp + " to " + path);
}

/// Writes a file through `write_to` into a fresh temporary next to `path`
/// and moves it over `path`.  A process that has the old file mapped
/// keeps reading the old bytes (the name moves to a new inode, never
/// the inode under a live mapping), and a failed write leaves `path` as
/// it was and removes the temporary.  No fsync: this is atomic
/// replacement, not durability.
template <class Write>
void replace_file(const std::string& path, const char* who, Write&& write_to)
{
    static std::atomic<std::uint64_t> serial{0};
    const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                             std::to_string(serial.fetch_add(1));
    // O_EXCL claims the name, so an existing file or symlink there is
    // never written through.
    const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0) throw snapshot_io_error(std::string(who) + ": cannot create " + temp);
    ::close(fd);
    try {
        // in|out opens the new, empty file without O_TRUNC: on ext4 a
        // truncate makes close(2) start writeback of the whole file, and
        // unlinking that file later waits for it.
        std::ofstream out(temp, std::ios::binary | std::ios::in | std::ios::out);
        if (!out) throw snapshot_io_error(std::string(who) + ": cannot open " + temp);
        write_to(out);
        out.close();
        if (!out) throw snapshot_io_error(std::string(who) + ": write to " + temp + " failed");
        move_into_place(temp, path, who);
    } catch (...) {
        std::remove(temp.c_str());
        throw;
    }
}

} // namespace

const char* snapshot_format_name(SnapshotFormat format) noexcept
{
    switch (format) {
    case SnapshotFormat::v1_raw: return "v1-raw";
    case SnapshotFormat::v2_compressed: return "v2-compressed";
    case SnapshotFormat::v3_spanner: return "v3-spanner";
    }
    return "unknown";
}

SnapshotFormat peek_snapshot_format(const std::string& path)
{
    const MappedFile file(path, "peek_snapshot_format");
    return static_cast<SnapshotFormat>(
        read_header(file.bytes(), "peek_snapshot_format " + path).version);
}

OracleSnapshot OracleSnapshot::from_result(const Graph& source, const ApspResult& result,
                                           std::uint64_t build_seed,
                                           const RoutingTables* routing)
{
    CCQ_EXPECT(source.node_count() == result.estimate.size(),
               "OracleSnapshot::from_result: graph/result size mismatch");
    OracleSnapshot snapshot;
    snapshot.meta.node_count = source.node_count();
    snapshot.meta.edge_count = source.edge_count();
    snapshot.meta.directed = source.is_directed();
    snapshot.meta.max_weight = source.max_weight();
    snapshot.meta.algorithm = result.algorithm;
    snapshot.meta.claimed_stretch = result.claimed_stretch;
    snapshot.meta.total_rounds = result.ledger.total_rounds();
    snapshot.meta.total_words = result.ledger.total_words();
    snapshot.meta.build_seed = build_seed;
    snapshot.estimate = result.estimate;
    if (routing != nullptr) {
        CCQ_EXPECT(routing->size() == source.node_count(),
                   "OracleSnapshot::from_result: routing size mismatch");
        snapshot.has_routing = true;
        snapshot.routing = *routing;
    }
    return snapshot;
}

void write_snapshot(std::ostream& out, const OracleSnapshot& snapshot, SnapshotFormat format)
{
    obs::TraceSpan span("snapshot/write", "serve");
    const SnapshotMeta& meta = snapshot.meta;
    CCQ_EXPECT(meta.node_count == snapshot.estimate.size(),
               "write_snapshot: meta/estimate node count mismatch");
    CCQ_EXPECT(!snapshot.has_routing || snapshot.routing.size() == meta.node_count,
               "write_snapshot: routing node count mismatch");
    CCQ_EXPECT(format == SnapshotFormat::v1_raw || format == SnapshotFormat::v2_compressed,
               "write_snapshot: dense snapshots are v1 or v2 (v3 is write_sparse_snapshot)");

    if (format == SnapshotFormat::v1_raw)
        write_v1_streamed(out, snapshot);
    else
        write_envelope(out, format, encode_payload_v2(snapshot), "write_snapshot");
}

void save_snapshot(const std::string& path, const OracleSnapshot& snapshot, SnapshotFormat format)
{
    replace_file(path, "save_snapshot",
                 [&](std::ostream& out) { write_snapshot(out, snapshot, format); });
}

OracleSnapshot load_snapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/read", "serve");
    return MappedSnapshot(path).materialize();
}

// --- version 3: sparse spanner edge list (CSR, delta+varint) ----------------

SparseSnapshot SparseSnapshot::from_spanner(const Graph& source, const SpannerResult& result,
                                            std::string construction, std::uint64_t build_seed)
{
    CCQ_EXPECT(source.node_count() == result.spanner.node_count(),
               "SparseSnapshot::from_spanner: graph/spanner size mismatch");
    CCQ_EXPECT(!source.is_directed(),
               "SparseSnapshot::from_spanner: spanners are for undirected graphs");
    SparseSnapshot snapshot;
    snapshot.meta.node_count = source.node_count();
    snapshot.meta.edge_count = source.edge_count();
    snapshot.meta.directed = false;
    snapshot.meta.max_weight = source.max_weight();
    snapshot.meta.algorithm = "spanner-" + construction;
    snapshot.meta.claimed_stretch = static_cast<double>(result.stretch_bound);
    snapshot.meta.build_seed = build_seed;
    snapshot.stretch_bound = result.stretch_bound;
    snapshot.parameter_k = result.parameter_k;
    snapshot.construction = std::move(construction);

    // Canonical edge list: u <= v, self-loops dropped, parallels collapsed
    // to their minimum weight, sorted by (u, v) — the order the CSR
    // encoding (strictly increasing targets per row) requires.
    std::vector<WeightedEdge> edges = result.spanner.edge_list();
    for (WeightedEdge& edge : edges)
        if (edge.u > edge.v) std::swap(edge.u, edge.v);
    std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
        if (a.u != b.u) return a.u < b.u;
        if (a.v != b.v) return a.v < b.v;
        return a.weight < b.weight;
    });
    for (const WeightedEdge& edge : edges) {
        if (edge.u == edge.v) continue;
        if (!snapshot.edges.empty() && snapshot.edges.back().u == edge.u &&
            snapshot.edges.back().v == edge.v)
            continue; // sorted by weight within (u, v): the kept one is minimal
        snapshot.edges.push_back(edge);
    }
    return snapshot;
}

Graph SparseSnapshot::spanner_graph() const
{
    Graph g(meta.node_count, Orientation::undirected);
    for (const WeightedEdge& edge : edges) g.add_edge(edge.u, edge.v, edge.weight);
    return g;
}

namespace {

[[nodiscard]] std::string encode_payload_v3(const SparseSnapshot& snapshot)
{
    const int n = snapshot.meta.node_count;
    std::string payload;
    encode_meta(payload, snapshot.meta);
    put_u32(payload, static_cast<std::uint32_t>(snapshot.stretch_bound));
    put_u32(payload, static_cast<std::uint32_t>(snapshot.parameter_k));
    put_string(payload, snapshot.construction);
    put_u64(payload, snapshot.edges.size());

    std::string blob;
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    std::size_t next = 0;
    for (int u = 0; u < n; ++u) {
        NodeId prev = static_cast<NodeId>(u);
        while (next < snapshot.edges.size() && snapshot.edges[next].u == u) {
            const WeightedEdge& edge = snapshot.edges[next];
            CCQ_EXPECT(edge.v > prev && edge.v < n && edge.weight >= 0 &&
                           edge.weight < kInfinity,
                       "write_sparse_snapshot: edge list not canonical (sorted, u < v, "
                       "finite weights)");
            put_varint_u64(blob, static_cast<std::uint64_t>(edge.v - prev));
            put_varint_u64(blob, static_cast<std::uint64_t>(edge.weight));
            prev = edge.v;
            ++next;
        }
        offsets[static_cast<std::size_t>(u) + 1] = blob.size();
    }
    CCQ_EXPECT(next == snapshot.edges.size(),
               "write_sparse_snapshot: edge endpoints out of node range");
    for (const std::uint64_t offset : offsets) put_u64(payload, offset);
    payload += blob;
    return payload;
}

[[nodiscard]] SparseSnapshot decode_payload_v3(std::string_view payload)
{
    ByteReader reader(payload);
    SparseSnapshot snapshot;
    snapshot.meta = decode_meta(reader, "load_sparse_snapshot");
    const int n = snapshot.meta.node_count;
    if (snapshot.meta.directed)
        throw snapshot_io_error("load_sparse_snapshot: spanner snapshots are undirected");

    const std::uint32_t stretch = reader.u32();
    const std::uint32_t k = reader.u32();
    if (stretch < 1 || stretch > std::numeric_limits<std::int32_t>::max() || k < 1 ||
        k > std::numeric_limits<std::int32_t>::max())
        throw snapshot_io_error("load_sparse_snapshot: stretch/k out of range");
    snapshot.stretch_bound = static_cast<int>(stretch);
    snapshot.parameter_k = static_cast<int>(k);
    snapshot.construction = reader.str();

    // edge_count is untrusted (FNV-1a detects accidents, not forgery):
    // each edge costs at least 2 blob bytes (delta + weight varints), so
    // prove the payload can hold m edges before allocating m.
    const std::uint64_t m = reader.u64();
    if (m > reader.remaining() / 2)
        throw snapshot_io_error("load_sparse_snapshot: edge count exceeds payload size");

    const std::uint64_t entries = static_cast<std::uint64_t>(n) + 1;
    if (entries > reader.remaining() / 8)
        throw snapshot_io_error(
            "load_sparse_snapshot: node count exceeds payload size (spanner offsets)");
    std::vector<std::size_t> offsets(static_cast<std::size_t>(entries));
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const std::uint64_t offset = reader.u64();
        if (offset > reader.remaining())
            throw snapshot_io_error(
                "load_sparse_snapshot: spanner row offset exceeds payload size");
        offsets[i] = static_cast<std::size_t>(offset);
    }
    if (offsets.front() != 0)
        throw snapshot_io_error("load_sparse_snapshot: spanner offsets do not start at zero");
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
        if (offsets[i + 1] < offsets[i])
            throw snapshot_io_error("load_sparse_snapshot: spanner row offsets not monotone");
    const std::size_t blob_size = offsets.back();
    if (blob_size > reader.remaining())
        throw snapshot_io_error("load_sparse_snapshot: spanner blob exceeds payload size");
    const std::size_t blob_offset = reader.position();
    (void)reader.bytes(blob_size);
    if (!reader.exhausted())
        throw snapshot_io_error("load_sparse_snapshot: trailing bytes after payload");

    snapshot.edges.reserve(static_cast<std::size_t>(m));
    for (int u = 0; u < n; ++u) {
        const std::size_t begin = offsets[static_cast<std::size_t>(u)];
        const std::size_t end = offsets[static_cast<std::size_t>(u) + 1];
        ByteReader row(payload.substr(blob_offset + begin, end - begin));
        NodeId prev = static_cast<NodeId>(u);
        while (!row.exhausted()) {
            const std::uint64_t delta = row.varint_u64();
            // delta >= 1 keeps targets strictly increasing; the sum
            // check also rejects targets past the last node.
            if (delta == 0 ||
                delta > static_cast<std::uint64_t>(n) - static_cast<std::uint64_t>(prev) - 1)
                throw snapshot_io_error("load_sparse_snapshot: spanner target out of range");
            const NodeId target = static_cast<NodeId>(prev + static_cast<NodeId>(delta));
            const std::uint64_t weight = row.varint_u64();
            if (weight >= static_cast<std::uint64_t>(kInfinity))
                throw snapshot_io_error("load_sparse_snapshot: edge weight out of range");
            if (snapshot.edges.size() >= m)
                throw snapshot_io_error(
                    "load_sparse_snapshot: more edges than the declared count");
            snapshot.edges.push_back({static_cast<NodeId>(u), target,
                                      static_cast<Weight>(weight)});
            prev = target;
        }
    }
    if (snapshot.edges.size() != m)
        throw snapshot_io_error("load_sparse_snapshot: fewer edges than the declared count");
    return snapshot;
}

} // namespace

void write_sparse_snapshot(std::ostream& out, const SparseSnapshot& snapshot)
{
    obs::TraceSpan span("snapshot/write_sparse", "serve");
    CCQ_EXPECT(snapshot.meta.node_count >= 0, "write_sparse_snapshot: negative node count");
    write_envelope(out, SnapshotFormat::v3_spanner, encode_payload_v3(snapshot),
                   "write_sparse_snapshot");
}

void save_sparse_snapshot(const std::string& path, const SparseSnapshot& snapshot)
{
    replace_file(path, "save_sparse_snapshot",
                 [&](std::ostream& out) { write_sparse_snapshot(out, snapshot); });
}

SparseSnapshot load_sparse_snapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/read_sparse", "serve");
    const MappedFile file(path, "load_sparse_snapshot");
    const VerifiedPayload payload =
        verify_envelope(file.bytes(), Family::sparse, "load_sparse_snapshot");
    try {
        return decode_payload_v3(payload.bytes);
    } catch (const decode_error& error) {
        throw snapshot_io_error(std::string("load_sparse_snapshot: ") + error.what());
    }
}

// --- mapped files -----------------------------------------------------------

MappedFile::MappedFile(const std::string& path, const char* who)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw snapshot_io_error(std::string(who) + ": cannot open " + path);
    struct stat info = {};
    if (::fstat(fd, &info) != 0) {
        ::close(fd);
        throw snapshot_io_error(std::string(who) + ": cannot stat " + path);
    }
    size_ = static_cast<std::size_t>(info.st_size);
    // mmap rejects a zero length; an empty file stays an empty view.
    if (size_ > 0) data_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (data_ == MAP_FAILED) {
        data_ = nullptr;
        throw snapshot_io_error(std::string(who) + ": mmap failed for " + path);
    }
}

MappedFile::~MappedFile()
{
    if (data_ != nullptr) ::munmap(data_, size_);
}

// --- MappedSnapshot ---------------------------------------------------------

MappedSnapshot::MappedSnapshot(const std::string& path) : file_(path, "MappedSnapshot")
{
    obs::TraceSpan span("snapshot/mmap_open", "serve");
    const VerifiedPayload verified =
        verify_envelope(file_.bytes(), Family::dense, "MappedSnapshot");
    version_ = verified.version;
    payload_ = verified.bytes;

    // The checksum covers every byte read below and every row decoded
    // later.
    ByteReader reader(payload_);
    try {
        meta_ = decode_meta(reader, "MappedSnapshot");
        const int n = meta_.node_count;
        if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
            // v1 cells are later read in place with no per-read
            // validation, so every cell is checked here.
            const V1Layout layout = read_v1_layout(reader, n);
            v1_estimate_offset_ = layout.estimate_offset;
            v1_routing_offset_ = layout.routing_offset;
            has_routing_ = layout.has_routing;
        } else {
            V2Section estimate = read_v2_section(reader, n, "estimate");
            est_row_offsets_ = std::move(estimate.row_offsets);
            est_blob_offset_ = estimate.blob_offset;
            est_rows_ = std::make_unique<WeightRowSlot[]>(static_cast<std::size_t>(n));
            has_routing_ = decode_flag(reader, "routing flag");
            if (has_routing_) {
                V2Section routing = read_v2_section(reader, n, "routing");
                hop_row_offsets_ = std::move(routing.row_offsets);
                hop_blob_offset_ = routing.blob_offset;
                hop_rows_ = std::make_unique<HopRowSlot[]>(static_cast<std::size_t>(n));
            }
        }
        if (!reader.exhausted())
            throw snapshot_io_error("MappedSnapshot: trailing bytes after payload");
    } catch (const decode_error& error) {
        throw snapshot_io_error(std::string("MappedSnapshot: ") + error.what());
    }
}

std::string_view MappedSnapshot::v2_row(const std::vector<std::size_t>& row_offsets,
                                        std::size_t blob_offset, NodeId u) const
{
    const std::size_t begin = row_offsets[static_cast<std::size_t>(u)];
    const std::size_t end = row_offsets[static_cast<std::size_t>(u) + 1];
    return payload_.substr(blob_offset + begin, end - begin);
}

void MappedSnapshot::check_node(NodeId v, const char* what) const
{
    CCQ_EXPECT(v >= 0 && v < meta_.node_count, what);
}

const std::vector<Weight>& MappedSnapshot::estimate_row(NodeId u) const
{
    WeightRowSlot& slot = est_rows_[static_cast<std::size_t>(u)];
    std::call_once(slot.once, [&] {
        std::vector<Weight> cells(static_cast<std::size_t>(meta_.node_count));
        decode_weight_row(v2_row(est_row_offsets_, est_blob_offset_, u), meta_.node_count,
                          cells.data());
        slot.cells = std::move(cells);
    });
    return slot.cells;
}

const std::vector<NodeId>& MappedSnapshot::hop_row(NodeId u) const
{
    HopRowSlot& slot = hop_rows_[static_cast<std::size_t>(u)];
    std::call_once(slot.once, [&] {
        std::vector<NodeId> hops(static_cast<std::size_t>(meta_.node_count));
        decode_hop_row(v2_row(hop_row_offsets_, hop_blob_offset_, u), meta_.node_count,
                       hops.data());
        slot.hops = std::move(hops);
    });
    return slot.hops;
}

Weight MappedSnapshot::distance(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::distance: node out of range");
    check_node(to, "MappedSnapshot::distance: node out of range");
    if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
        const std::size_t cell = static_cast<std::size_t>(from) *
                                     static_cast<std::size_t>(meta_.node_count) +
                                 static_cast<std::size_t>(to);
        return load_le<Weight>(payload_.data() + v1_estimate_offset_ + cell * 8);
    }
    return estimate_row(from)[static_cast<std::size_t>(to)];
}

NodeId MappedSnapshot::next_hop(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::next_hop: node out of range");
    check_node(to, "MappedSnapshot::next_hop: node out of range");
    CCQ_EXPECT(has_routing_, "MappedSnapshot::next_hop: snapshot has no routing tables");
    if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
        const std::size_t cell = static_cast<std::size_t>(from) *
                                     static_cast<std::size_t>(meta_.node_count) +
                                 static_cast<std::size_t>(to);
        return load_le<NodeId>(payload_.data() + v1_routing_offset_ + cell * 4);
    }
    return hop_row(from)[static_cast<std::size_t>(to)];
}

std::vector<NodeId> MappedSnapshot::route(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::route: node out of range");
    check_node(to, "MappedSnapshot::route: node out of range");
    CCQ_EXPECT(has_routing_, "MappedSnapshot::route: snapshot has no routing tables");
    const int n = meta_.node_count;
    std::vector<NodeId> path{from};
    NodeId current = from;
    // Same hardening as RoutingTables::route: hop ranges are validated
    // at load time in both codecs, but in-range hops can still form a
    // cycle, so the walk stays hop-budgeted and ends as unreachable
    // instead of looping.
    for (int steps = 0; current != to; ++steps) {
        if (steps >= n) return {};
        const NodeId next = next_hop(current, to);
        if (next < 0 || next >= n) return {};
        path.push_back(next);
        current = next;
    }
    return path;
}

OracleSnapshot MappedSnapshot::materialize() const
{
    const int n = meta_.node_count;
    const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    OracleSnapshot snapshot;
    snapshot.meta = meta_;
    snapshot.estimate = DistanceMatrix::uninitialized(n);
    snapshot.has_routing = has_routing_;
    std::vector<NodeId> hops(has_routing_ ? cells : 0);
    if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
        copy_cells(snapshot.estimate.data(), payload_.substr(v1_estimate_offset_, cells * 8));
        if (has_routing_) copy_cells(hops.data(), payload_.substr(v1_routing_offset_, cells * 4));
    } else {
        for (NodeId u = 0; u < n; ++u) {
            const std::size_t row = static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
            decode_weight_row(v2_row(est_row_offsets_, est_blob_offset_, u), n,
                              snapshot.estimate.data() + row);
            if (has_routing_)
                decode_hop_row(v2_row(hop_row_offsets_, hop_blob_offset_, u), n,
                               hops.data() + row);
        }
    }
    if (has_routing_) snapshot.routing = RoutingTables(n, std::move(hops));
    return snapshot;
}

} // namespace ccq
