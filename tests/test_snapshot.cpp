// Tests for the oracle snapshot format: round-trip fidelity, version
// gating, corruption detection (truncation, bit flips, bad magic), and
// replacing a file that a reader still maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "ccq/common/bytes.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;

/// A small built oracle (with routing) for serialization tests.
OracleSnapshot make_snapshot(const InstanceSpec& spec)
{
    const Graph g = testing::make_instance(spec);
    ApspOptions options;
    options.seed = spec.seed;
    const ApspResult result = logn_approx_apsp(g, options);
    const RoutingTables routing = build_routing_tables(g);
    return OracleSnapshot::from_result(g, result, options.seed, &routing);
}

/// Serializes to an in-memory byte string.
std::string to_bytes(const OracleSnapshot& snapshot, SnapshotFormat codec = SnapshotFormat::v1_raw)
{
    std::ostringstream out(std::ios::binary);
    write_snapshot(out, snapshot, codec);
    return out.str();
}

/// FNV-1a 64 of a whole byte string (the pinned constants hash whole files).
std::uint64_t fnv1a_of(std::string_view bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// Recomputes the trailing FNV-1a checksum after a payload mutation, so
/// a test exercises structural validation instead of checksum rejection.
void rehash(std::string& bytes)
{
    const std::size_t header_size = 8 + 4 + 8;
    const std::uint64_t hash = fnv1a_of(
        std::string_view(bytes).substr(header_size, bytes.size() - 8 - header_size));
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((hash >> (8 * i)) & 0xff);
}

/// Loads `bytes` with load_snapshot, through a temporary file.
OracleSnapshot from_bytes(const std::string& bytes)
{
    const testing::TempFile file("ccq_snapshot_from_bytes.snap", bytes);
    return load_snapshot(file.path());
}

void expect_equal(const OracleSnapshot& a, const OracleSnapshot& b)
{
    EXPECT_EQ(a.meta, b.meta);
    EXPECT_EQ(a.estimate, b.estimate);
    ASSERT_EQ(a.has_routing, b.has_routing);
    if (a.has_routing) {
        ASSERT_EQ(a.routing.size(), b.routing.size());
        for (NodeId u = 0; u < a.routing.size(); ++u)
            for (NodeId v = 0; v < a.routing.size(); ++v)
                EXPECT_EQ(a.routing.next_hop(u, v), b.routing.next_hop(u, v));
    }
}

/// The v1 file for `snapshot`, written out field by field with the
/// shared byte primitives: the layout docs/SNAPSHOTS.md specifies.
std::string reference_v1_bytes(const OracleSnapshot& snapshot)
{
    const SnapshotMeta& meta = snapshot.meta;
    std::string payload;
    put_i32(payload, meta.node_count);
    put_u64(payload, meta.edge_count);
    put_u32(payload, meta.directed ? 1 : 0);
    put_i64(payload, meta.max_weight);
    put_string(payload, meta.algorithm);
    put_f64(payload, meta.claimed_stretch);
    put_f64(payload, meta.total_rounds);
    put_u64(payload, meta.total_words);
    put_u64(payload, meta.build_seed);
    const int n = meta.node_count;
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) put_i64(payload, snapshot.estimate.at(u, v));
    put_u32(payload, snapshot.has_routing ? 1 : 0);
    if (snapshot.has_routing)
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v = 0; v < n; ++v) put_i32(payload, snapshot.routing.next_hop(u, v));
    std::string file("CCQSNAP\n");
    put_u32(file, 1);
    put_u64(file, payload.size());
    file += payload;
    put_u64(file, fnv1a_of(payload));
    return file;
}

/// A hand-built oracle whose v1 bytes are pinned: fixed meta, the exact
/// distances of a 6-node graph with tied shortest paths and one isolated
/// node (kInfinity cells, -1 hops), and its routing tables.
OracleSnapshot pinned_snapshot(bool with_routing)
{
    Graph g = Graph::undirected(6);
    g.add_edge(0, 1, 3);
    g.add_edge(1, 2, 4);
    g.add_edge(2, 3, 1);
    g.add_edge(0, 3, 7); // ties with 0-1-3
    g.add_edge(3, 4, 2);
    g.add_edge(1, 3, 4);
    OracleSnapshot snapshot;
    snapshot.meta.node_count = g.node_count();
    snapshot.meta.edge_count = g.edge_count();
    snapshot.meta.max_weight = g.max_weight();
    snapshot.meta.algorithm = "fixture";
    snapshot.meta.claimed_stretch = 1.5;
    snapshot.meta.total_rounds = 12.25;
    snapshot.meta.total_words = 4096;
    snapshot.meta.build_seed = 42;
    snapshot.estimate = exact_apsp(g);
    snapshot.has_routing = with_routing;
    if (with_routing) snapshot.routing = build_routing_tables(g);
    return snapshot;
}

std::string file_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(Snapshot, RoundTripsThroughStreamsOnRandomGraphs)
{
    for (const InstanceSpec spec :
         {InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 3},
          InstanceSpec{GraphFamily::clustered, 48, 5},
          InstanceSpec{GraphFamily::tree, 24, 9}}) {
        const OracleSnapshot original = make_snapshot(spec);
        const OracleSnapshot loaded = from_bytes(to_bytes(original));
        expect_equal(original, loaded);
    }
}

TEST(Snapshot, RoundTripsThroughAFile)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 7});
    const std::string path = ::testing::TempDir() + "ccq_snapshot_roundtrip.snap";
    save_snapshot(path, original);
    const OracleSnapshot loaded = load_snapshot(path);
    expect_equal(original, loaded);
    std::remove(path.c_str());
}

TEST(Snapshot, RoundTripsWithoutRouting)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::grid, 25, 2});
    const ApspResult result = logn_approx_apsp(g, {});
    const OracleSnapshot original = OracleSnapshot::from_result(g, result, 1);
    EXPECT_FALSE(original.has_routing);
    const OracleSnapshot loaded = from_bytes(to_bytes(original));
    expect_equal(original, loaded);
}

TEST(Snapshot, MetaRecordsTheBuild)
{
    const InstanceSpec spec{GraphFamily::erdos_renyi_sparse, 36, 11};
    const Graph g = testing::make_instance(spec);
    ApspOptions options;
    options.seed = 77;
    const ApspResult result = logn_approx_apsp(g, options);
    const OracleSnapshot snapshot = OracleSnapshot::from_result(g, result, options.seed);
    EXPECT_EQ(snapshot.meta.node_count, g.node_count());
    EXPECT_EQ(snapshot.meta.edge_count, g.edge_count());
    EXPECT_FALSE(snapshot.meta.directed);
    EXPECT_EQ(snapshot.meta.max_weight, g.max_weight());
    EXPECT_EQ(snapshot.meta.algorithm, result.algorithm);
    EXPECT_DOUBLE_EQ(snapshot.meta.claimed_stretch, result.claimed_stretch);
    EXPECT_DOUBLE_EQ(snapshot.meta.total_rounds, result.ledger.total_rounds());
    EXPECT_EQ(snapshot.meta.total_words, result.ledger.total_words());
    EXPECT_EQ(snapshot.meta.build_seed, 77u);
}

TEST(SnapshotV1Bytes, PinnedFixtureBytesAreUnchanged)
{
    // Size and whole-file FNV-1a of the v1 encoding, recorded when the
    // writer still materialized the payload; the streamed writer must
    // reproduce them byte for byte.
    const std::string with_routing = to_bytes(pinned_snapshot(true));
    EXPECT_EQ(with_routing.size(), 531u);
    EXPECT_EQ(fnv1a_of(with_routing), 0x66248e65aca22000ULL);
    EXPECT_EQ(with_routing, reference_v1_bytes(pinned_snapshot(true)));

    const std::string without_routing = to_bytes(pinned_snapshot(false));
    EXPECT_EQ(without_routing.size(), 387u);
    EXPECT_EQ(fnv1a_of(without_routing), 0x64fb6f5cc7563a4aULL);
    EXPECT_EQ(without_routing, reference_v1_bytes(pinned_snapshot(false)));
}

TEST(SnapshotV1Bytes, StreamedWriterMatchesTheReferenceAcrossChunks)
{
    // n = 420 makes a ~2 MB payload, so both sections cross the writer's
    // chunk boundaries; the stream and the file must hold the same bytes.
    Rng rng(13);
    const Graph g =
        make_family_instance(GraphFamily::erdos_renyi_sparse, 420, WeightRange{1, 100}, rng);
    const RoutingTables routing = build_routing_tables(g);
    ApspResult result;
    result.algorithm = "exact";
    result.estimate = exact_apsp(g);
    const OracleSnapshot snapshot = OracleSnapshot::from_result(g, result, 3, &routing);

    const std::string streamed = to_bytes(snapshot);
    EXPECT_EQ(streamed, reference_v1_bytes(snapshot));
    const std::string path = ::testing::TempDir() + "ccq_snapshot_v1_bytes.snap";
    save_snapshot(path, snapshot);
    EXPECT_EQ(file_bytes(path), streamed);
    std::remove(path.c_str());
}

TEST(Snapshot, RejectsBadMagic)
{
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[0] = 'X';
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
}

TEST(Snapshot, RejectsVersionMismatch)
{
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1); // little-endian u32 after magic
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
    }
}

TEST(Snapshot, RejectsTruncationAtEveryRegion)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    // Header, payload interior, and dropped checksum tail.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, std::size_t{19}, bytes.size() / 2, bytes.size() - 3}) {
        EXPECT_THROW((void)from_bytes(bytes.substr(0, keep)), snapshot_io_error)
            << "kept " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(Snapshot, DetectsFlippedPayloadBytes)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    const std::size_t header_size = 8 + 4 + 8;
    // Flip a byte in several payload positions; the checksum must catch all.
    for (const std::size_t offset :
         {header_size, header_size + 9, (header_size + bytes.size() - 8) / 2, bytes.size() - 9}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "flip at offset " << offset;
    }
}

TEST(Snapshot, DetectsFlippedChecksumBytes)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    std::string corrupted = bytes;
    corrupted[bytes.size() - 1] = static_cast<char>(corrupted[bytes.size() - 1] ^ 0x01);
    EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error);
}

TEST(Snapshot, RejectsTrailingGarbageInsidePayloadLength)
{
    // Corrupt the declared payload length so the reader sees extra bytes.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[12] = static_cast<char>(bytes[12] + 1); // length field, low byte
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
}

TEST(Snapshot, CorruptedLengthFieldFailsCleanlyWithoutHugeAllocation)
{
    // The length field is outside the checksummed payload; flipping its
    // high bytes must surface as snapshot_io_error, not std::bad_alloc.
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    for (const std::size_t offset : {std::size_t{12}, std::size_t{18}, std::size_t{19}}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "length byte at offset " << offset;
    }
}

TEST(Snapshot, ForgedNodeCountIsRejectedBeforeAllocation)
{
    // FNV-1a detects accidents, not forgery: a crafted snapshot with a
    // huge node_count and a recomputed checksum must be rejected by the
    // payload-size bound, not by an n^2 allocation attempt.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    const std::size_t header_size = 8 + 4 + 8;
    // Payload starts with the little-endian node count; forge 2^30.
    bytes[header_size + 0] = 0;
    bytes[header_size + 1] = 0;
    bytes[header_size + 2] = 0;
    bytes[header_size + 3] = 0x40;
    // Recompute the FNV-1a 64 checksum over the forged payload.
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = header_size; i < bytes.size() - 8; ++i) {
        hash ^= static_cast<unsigned char>(bytes[i]);
        hash *= 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((hash >> (8 * i)) & 0xff);
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("exceeds payload size"), std::string::npos)
            << error.what();
    }
}

// --- decoded-cell range validation (both codecs) ----------------------------
//
// The dense engine's raw-add kernels require every cell in
// [0, kInfinity]; the writer trusts its callers, so a crafted snapshot
// can carry anything.  Both codecs must reject out-of-range cells at
// load time instead of handing them back to the engine.

/// A structurally valid snapshot whose estimate holds one illegal cell.
OracleSnapshot snapshot_with_bad_cell(Weight bad)
{
    OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    snapshot.estimate.at(2, 7) = bad;
    return snapshot;
}

TEST(SnapshotCellValidation, OutOfRangeEstimateCellsAreRejectedByBothCodecs)
{
    for (const Weight bad : {kInfinity + 1, kInfinity + 12345, Weight{-1},
                             std::numeric_limits<Weight>::max(),
                             std::numeric_limits<Weight>::min()}) {
        const OracleSnapshot forged = snapshot_with_bad_cell(bad);
        for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
            try {
                (void)from_bytes(to_bytes(forged, codec));
                FAIL() << "codec " << static_cast<int>(codec) << " accepted cell " << bad;
            } catch (const snapshot_io_error& error) {
                EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
                    << error.what();
            }
        }
    }
    // kInfinity itself (unreachable) stays legal in both codecs.
    const OracleSnapshot legal = snapshot_with_bad_cell(kInfinity);
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed})
        EXPECT_EQ(from_bytes(to_bytes(legal, codec)).estimate.at(2, 7), kInfinity);
}

TEST(SnapshotCellValidation, OutOfRangeNextHopsAreRejectedByBothCodecs)
{
    OracleSnapshot forged = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    std::vector<NodeId> hops(100, -1);
    hops[5] = 10; // one past the node range
    forged.routing = RoutingTables(10, std::move(hops));
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        try {
            (void)from_bytes(to_bytes(forged, codec));
            FAIL() << "codec " << static_cast<int>(codec) << " accepted a bad hop";
        } catch (const snapshot_io_error& error) {
            EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
                << error.what();
        }
    }
}

TEST(Snapshot, FromResultValidatesSizes)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 12, 1});
    const ApspResult result = logn_approx_apsp(g, {});
    const Graph other = testing::make_instance(InstanceSpec{GraphFamily::tree, 8, 1});
    EXPECT_THROW((void)OracleSnapshot::from_result(other, result, 1), check_error);
    const RoutingTables wrong_size = build_routing_tables(other);
    EXPECT_THROW((void)OracleSnapshot::from_result(g, result, 1, &wrong_size), check_error);
}

TEST(Snapshot, LoadFailsOnMissingFile)
{
    EXPECT_THROW((void)load_snapshot("/nonexistent/ccq.snap"), snapshot_io_error);
}

// --- codec v2 (compressed) --------------------------------------------------

TEST(SnapshotV2, RoundTripsBitwiseOnRandomGraphs)
{
    for (const InstanceSpec spec :
         {InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 3},
          InstanceSpec{GraphFamily::clustered, 48, 5},
          InstanceSpec{GraphFamily::tree, 24, 9}}) {
        const OracleSnapshot original = make_snapshot(spec);
        const OracleSnapshot loaded =
            from_bytes(to_bytes(original, SnapshotFormat::v2_compressed));
        expect_equal(original, loaded);
    }
}

TEST(SnapshotV2, RoundTripsWithoutRouting)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::grid, 25, 2});
    const ApspResult result = logn_approx_apsp(g, {});
    const OracleSnapshot original = OracleSnapshot::from_result(g, result, 1);
    const OracleSnapshot loaded = from_bytes(to_bytes(original, SnapshotFormat::v2_compressed));
    expect_equal(original, loaded);
}

TEST(SnapshotV2, CompressedIsStrictlySmallerThanRaw)
{
    const OracleSnapshot snapshot =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 64, 11});
    const std::size_t raw = to_bytes(snapshot, SnapshotFormat::v1_raw).size();
    const std::size_t compressed = to_bytes(snapshot, SnapshotFormat::v2_compressed).size();
    EXPECT_LT(compressed, raw);
    // Delta+varint should beat fixed 8-byte cells by a wide margin on
    // 1..100-weight instances; 2x is a deliberately loose floor.
    EXPECT_LT(compressed * 2, raw);
}

TEST(SnapshotV2, VersionFieldDistinguishesTheCodecs)
{
    // Back-compat contract: the default writer still produces version 1,
    // the compressed writer stamps version 2, and both load.
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string v1 = to_bytes(snapshot, SnapshotFormat::v1_raw);
    const std::string v2 = to_bytes(snapshot, SnapshotFormat::v2_compressed);
    EXPECT_EQ(v1[8], 1);
    EXPECT_EQ(v2[8], 2);
    expect_equal(from_bytes(v1), from_bytes(v2));
}

TEST(SnapshotV2, RejectsTruncationAndBitFlipsLikeV1)
{
    const std::string bytes =
        to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                 SnapshotFormat::v2_compressed);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, std::size_t{19}, bytes.size() / 2, bytes.size() - 3})
        EXPECT_THROW((void)from_bytes(bytes.substr(0, keep)), snapshot_io_error)
            << "kept " << keep;
    const std::size_t header_size = 8 + 4 + 8;
    for (const std::size_t offset :
         {header_size, header_size + 9, (header_size + bytes.size() - 8) / 2,
          bytes.size() - 9}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "flip at offset " << offset;
    }
}

TEST(SnapshotV2, V1PayloadRelabeledAsV2IsRejected)
{
    // The version field is outside the checksummed payload, so flipping
    // it alone passes the checksum; the structural row-table validation
    // must catch the mismatch (and not crash or misread).
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                 SnapshotFormat::v1_raw);
    bytes[8] = 2;
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
    std::string reversed = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                    SnapshotFormat::v2_compressed);
    reversed[8] = 1;
    EXPECT_THROW((void)from_bytes(reversed), snapshot_io_error);
}

TEST(SnapshotV2, ForgedNodeCountIsRejectedBeforeAllocation)
{
    // Same contract as v1: a crafted huge node_count with a recomputed
    // checksum dies on the payload-size bound, not on an n^2 allocation.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                 SnapshotFormat::v2_compressed);
    const std::size_t header_size = 8 + 4 + 8;
    bytes[header_size + 0] = 0;
    bytes[header_size + 1] = 0;
    bytes[header_size + 2] = 0;
    bytes[header_size + 3] = 0x40; // node_count = 2^30
    rehash(bytes);
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("exceeds payload size"), std::string::npos)
            << error.what();
    }
}

TEST(SnapshotV2, CorruptedRowOffsetsAreRejectedEvenWithAValidChecksum)
{
    // Break the estimate row-offset table structurally (non-monotone /
    // out-of-bounds) and rehash, so only the v2 validation can object.
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string good = to_bytes(snapshot, SnapshotFormat::v2_compressed);
    // The offset table starts right after the meta block; find it by
    // encoding meta alone is fragile, so flip high bytes of several u64s
    // in the table region instead (first ~13*8 bytes after meta end are
    // offsets for n=12).  Locate meta end via the v1 encoding prefix:
    // meta is identical across codecs and is followed in v1 by cells.
    const std::size_t header_size = 8 + 4 + 8;
    const std::size_t meta_bytes = 4 + 8 + 4 + 8 + (4 + snapshot.meta.algorithm.size()) + 8 +
                                   8 + 8 + 8; // fields of encode_meta, in order
    for (int entry = 1; entry <= 3; ++entry) {
        std::string corrupted = good;
        const std::size_t offset_pos =
            header_size + meta_bytes + static_cast<std::size_t>(entry) * 8 + 6; // high byte
        corrupted[offset_pos] = static_cast<char>(0x7f);
        rehash(corrupted);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error) << "entry " << entry;
    }
}

// --- mmap-backed loading ----------------------------------------------------

class SnapshotMmap : public ::testing::Test {
protected:
    [[nodiscard]] static std::string write_file(const OracleSnapshot& snapshot,
                                                SnapshotFormat codec, const std::string& name)
    {
        const std::string path = ::testing::TempDir() + name;
        save_snapshot(path, snapshot, codec);
        return path;
    }
};

TEST_F(SnapshotMmap, ServesBothCodecsBitwiseIdenticalToEagerLoading)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13});
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        const std::string path = write_file(
            original, codec, "ccq_mmap_" + std::to_string(static_cast<int>(codec)) + ".snap");
        const MappedSnapshot mapped(path);
        EXPECT_EQ(mapped.format_version(), static_cast<std::uint32_t>(codec));
        EXPECT_EQ(mapped.meta(), original.meta);
        ASSERT_EQ(mapped.has_routing(), original.has_routing);
        for (NodeId u = 0; u < 40; ++u)
            for (NodeId v = 0; v < 40; ++v) {
                ASSERT_EQ(mapped.distance(u, v), original.estimate.at(u, v))
                    << u << "->" << v;
                ASSERT_EQ(mapped.next_hop(u, v), original.routing.next_hop(u, v))
                    << u << "->" << v;
            }
        for (NodeId u = 0; u < 40; u += 7)
            for (NodeId v = 0; v < 40; v += 5)
                EXPECT_EQ(mapped.route(u, v), original.routing.route(u, v));
        expect_equal(original, mapped.materialize());
        std::remove(path.c_str());
    }
}

TEST_F(SnapshotMmap, ConcurrentLazyRowDecodingIsConsistent)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::clustered, 48, 5});
    const std::string path =
        write_file(original, SnapshotFormat::v2_compressed, "ccq_mmap_concurrent.snap");
    const MappedSnapshot mapped(path);
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int w = 0; w < 4; ++w)
        workers.emplace_back([&, w] {
            // Overlapping row sets force concurrent first-touch decodes.
            for (NodeId u = 0; u < 48; ++u)
                for (NodeId v = static_cast<NodeId>(w); v < 48; v += 2)
                    if (mapped.distance(u, v) != original.estimate.at(u, v))
                        failures.fetch_add(1);
        });
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, RejectsCorruptionTruncationAndBadMagicAtOpen)
{
    const OracleSnapshot original = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string good = to_bytes(original, SnapshotFormat::v2_compressed);
    const std::string path = ::testing::TempDir() + "ccq_mmap_corrupt.snap";

    const auto write_raw = [&](const std::string& bytes) {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };

    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x20;
    write_raw(flipped);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    write_raw(good.substr(0, good.size() - 10));
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    write_raw(bad_magic);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    std::string bad_version = good;
    bad_version[8] = 99;
    write_raw(bad_version);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    // Trailing garbage after the checksum: the file size no longer
    // matches the declared payload length.
    write_raw(good + "extra");
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    EXPECT_THROW((void)MappedSnapshot("/nonexistent/ccq.snap"), snapshot_io_error);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, OutOfRangeCellsAreRejectedInBothCodecs)
{
    OracleSnapshot forged = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    forged.estimate.at(2, 7) = kInfinity + 99;

    // v1 cells are served straight from the mapping, so the invariant
    // scan runs at open and the constructor itself must reject.
    const std::string v1 = write_file(forged, SnapshotFormat::v1_raw, "ccq_mmap_badcell_v1.snap");
    EXPECT_THROW((void)MappedSnapshot(v1), snapshot_io_error);

    // v2 rows decode lazily: the open validates structure, the poisoned
    // row is rejected on first touch, and clean rows still answer.
    const std::string v2 =
        write_file(forged, SnapshotFormat::v2_compressed, "ccq_mmap_badcell_v2.snap");
    const MappedSnapshot mapped(v2);
    EXPECT_EQ(mapped.distance(0, 7), forged.estimate.at(0, 7));
    EXPECT_THROW((void)mapped.distance(2, 7), snapshot_io_error);
    EXPECT_THROW((void)mapped.materialize(), snapshot_io_error);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

TEST_F(SnapshotMmap, QueryEngineOverMmapMatchesInMemoryEngine)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 7});
    const std::string path =
        write_file(original, SnapshotFormat::v2_compressed, "ccq_mmap_engine.snap");
    const QueryEngine reference(original);
    const QueryEngine served(std::make_shared<const MappedSnapshot>(path));
    EXPECT_TRUE(served.is_mapped());
    EXPECT_EQ(served.meta(), reference.meta());
    for (NodeId u = 0; u < 32; ++u) {
        for (NodeId v = 0; v < 32; v += 3) {
            ASSERT_EQ(served.distance(u, v), reference.distance(u, v));
            ASSERT_EQ(served.path(u, v), reference.path(u, v));
        }
        ASSERT_EQ(served.nearest_targets(u, 5), reference.nearest_targets(u, 5));
    }
    std::remove(path.c_str());
}

// --- rewriting a file under a live mapping ----------------------------------
//
// A served snapshot may be rebuilt in place.  The writers rename a
// finished temporary over the path, so a process that still maps the
// old file keeps reading the bytes its checksum covered, a file that
// shrinks cannot fault the old mapping past its new end, and the next
// open reads the new file.

/// Every estimate cell and next hop of `mapped` equals `expected`'s.
void expect_mapping_answers(const MappedSnapshot& mapped, const OracleSnapshot& expected)
{
    const int n = expected.meta.node_count;
    ASSERT_EQ(mapped.node_count(), n);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            ASSERT_EQ(mapped.distance(u, v), expected.estimate.at(u, v)) << u << "->" << v;
            ASSERT_EQ(mapped.next_hop(u, v), expected.routing.next_hop(u, v)) << u << "->" << v;
        }
}

TEST_F(SnapshotMmap, SavingOverAMappedFileLeavesTheMappingOnItsOwnBytes)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13});
    // Same node count and meta, every finite off-diagonal cell moved: the
    // v1 file has the same size and different cells.
    OracleSnapshot same_size = original;
    for (NodeId u = 0; u < 40; ++u)
        for (NodeId v = 0; v < 40; ++v)
            if (u != v && same_size.estimate.at(u, v) < kInfinity) ++same_size.estimate.at(u, v);
    const OracleSnapshot smaller =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 20, 5});

    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        for (const OracleSnapshot* replacement :
             std::initializer_list<const OracleSnapshot*>{&same_size, &smaller}) {
            const std::string path = write_file(original, codec, "ccq_mmap_rewrite.snap");
            const std::uintmax_t old_size = std::filesystem::file_size(path);
            const MappedSnapshot mapped(path);
            save_snapshot(path, *replacement, codec);
            if (codec == SnapshotFormat::v1_raw && replacement == &same_size) {
                ASSERT_EQ(std::filesystem::file_size(path), old_size);
            }
            if (replacement == &smaller) {
                ASSERT_LT(std::filesystem::file_size(path), old_size);
            }
            expect_mapping_answers(mapped, original);
            expect_mapping_answers(MappedSnapshot(path), *replacement);
            expect_equal(*replacement, load_snapshot(path));
            std::remove(path.c_str());
        }
    }
}

TEST_F(SnapshotMmap, SavingASparseSnapshotOverAMappedFileKeepsTheMapping)
{
    // save_sparse_snapshot replaces the file the same way.
    const OracleSnapshot dense = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string path = write_file(dense, SnapshotFormat::v1_raw, "ccq_rewrite_kind.snap");
    const MappedSnapshot mapped(path);
    SparseSnapshot sparse;
    sparse.meta = dense.meta;
    sparse.meta.algorithm = "spanner-fixture";
    sparse.construction = "fixture";
    sparse.edges = {{0, 1, 3}, {1, 5, 2}};
    save_sparse_snapshot(path, sparse);
    expect_mapping_answers(mapped, dense);
    EXPECT_EQ(load_sparse_snapshot(path), sparse);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, AFailedSaveLeavesNoTemporaryBehind)
{
    // Renaming a file over a directory fails after the temporary was
    // written; the writer must remove it and leave the directory alone.
    const std::filesystem::path dir = ::testing::TempDir() + "ccq_save_over_dir.snap";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    EXPECT_THROW(save_snapshot(dir.string(), snapshot), snapshot_io_error);
    EXPECT_THROW(save_snapshot(::testing::TempDir() + "no_such_dir/ccq.snap", snapshot),
                 snapshot_io_error);
    for (const auto& entry : std::filesystem::directory_iterator(dir.parent_path()))
        EXPECT_EQ(entry.path().filename().string().rfind("ccq_save_over_dir.snap.tmp", 0),
                  std::string::npos)
            << "left behind: " << entry.path();
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    std::filesystem::remove_all(dir);
}

// --- multi-megabyte files ---------------------------------------------------
//
// The checksum kernel and the bulk cell scans only engage on large
// inputs, so these files are several MiB: a flipped byte anywhere in
// any section, and an out-of-range cell at either end of a section, must
// be caught by both the eager and the mmap loader.

/// A synthetic n-node oracle with routing: cells spread over the whole
/// legal range (so v2 deltas need long varints), some unreachable.
OracleSnapshot large_snapshot(int n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    OracleSnapshot snapshot;
    snapshot.meta.node_count = n;
    snapshot.meta.edge_count = 12345;
    snapshot.meta.max_weight = 1000;
    snapshot.meta.algorithm = "synthetic";
    snapshot.meta.build_seed = seed;
    snapshot.estimate = DistanceMatrix(n);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v)
            snapshot.estimate.at(u, v) =
                rng() % 16 == 0 ? kInfinity : static_cast<Weight>(rng() % (kInfinity + 1));
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (NodeId& hop : hops) hop = static_cast<NodeId>(rng() % (static_cast<unsigned>(n) + 1)) - 1;
    snapshot.has_routing = true;
    snapshot.routing = RoutingTables(n, std::move(hops));
    return snapshot;
}

/// File-offset ranges [begin, end) of every payload section of a dense
/// v1 or v2 file: meta, then per matrix the cells (v1) or the row-offset
/// table and the blob (v2), with the routing flag between the matrices.
std::vector<std::pair<std::size_t, std::size_t>> dense_sections(const std::string& file)
{
    const std::size_t header = 8 + 4 + 8;
    ByteReader reader(std::string_view(file).substr(header, file.size() - header - 8));
    const bool v1 = file[8] == 1;
    const int n = reader.i32();
    (void)reader.u64();
    (void)reader.u32();
    (void)reader.i64();
    (void)reader.str();
    (void)reader.f64();
    (void)reader.f64();
    (void)reader.u64();
    (void)reader.u64();
    std::vector<std::pair<std::size_t, std::size_t>> sections;
    const auto take = [&](std::size_t bytes) {
        const std::size_t begin = header + reader.position();
        (void)reader.bytes(bytes);
        sections.emplace_back(begin, begin + bytes);
    };
    sections.emplace_back(header, header + reader.position());
    const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    const auto matrix = [&](std::size_t cell_bytes) {
        if (v1) {
            take(cells * cell_bytes);
            return;
        }
        ByteReader offsets(std::string_view(file).substr(header + reader.position()));
        std::uint64_t blob = 0;
        for (int i = 0; i <= n; ++i) blob = offsets.u64();
        take((static_cast<std::size_t>(n) + 1) * 8);
        take(static_cast<std::size_t>(blob));
    };
    matrix(8);
    take(4); // routing flag
    matrix(4);
    EXPECT_TRUE(reader.exhausted());
    return sections;
}

void expect_checksum_rejection(const std::function<void()>& load, const std::string& what)
{
    try {
        load();
        ADD_FAILURE() << what << ": corrupted file accepted";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("checksum mismatch"), std::string::npos)
            << what << ": " << error.what();
    }
}

TEST_F(SnapshotMmap, LargeFilesRejectAFlippedByteInEverySectionEagerAndMapped)
{
    const OracleSnapshot original = large_snapshot(640, 21);
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        const std::string good = to_bytes(original, codec);
        ASSERT_GE(good.size(), std::size_t{4} << 20) << snapshot_format_name(codec);
        const std::string path = write_file(original, codec, "ccq_large_flip.snap");
        for (const OracleSnapshot& loaded : {from_bytes(good), MappedSnapshot(path).materialize()}) {
            EXPECT_EQ(loaded.meta, original.meta);
            EXPECT_TRUE(loaded.estimate == original.estimate);
            ASSERT_TRUE(loaded.has_routing);
            EXPECT_TRUE(std::equal(loaded.routing.data(),
                                   loaded.routing.data() + 640 * 640, original.routing.data()));
        }
        for (const auto& [begin, end] : dense_sections(good)) {
            for (const std::size_t offset : {begin, begin + (end - begin) / 2, end - 1}) {
                const std::string what = std::string(snapshot_format_name(codec)) +
                                         " section [" + std::to_string(begin) + ", " +
                                         std::to_string(end) + ") byte " + std::to_string(offset);
                std::string corrupted = good;
                corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0xff);
                expect_checksum_rejection([&] { (void)from_bytes(corrupted); }, what + " eager");
                {
                    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
                    file.seekp(static_cast<std::streamoff>(offset));
                    file.put(corrupted[offset]);
                }
                expect_checksum_rejection([&] { (void)MappedSnapshot(path); }, what + " mmap");
                {
                    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
                    file.seekp(static_cast<std::streamoff>(offset));
                    file.put(good[offset]);
                }
            }
        }
        std::remove(path.c_str());
    }
}

TEST_F(SnapshotMmap, LargeV1FilesRejectOutOfRangeCellsAtEitherEndEagerAndMapped)
{
    // The v1 scans check each section's minimum and maximum; a bad cell
    // at the first or last position (with a valid checksum) must still
    // reach the range check in both loaders.
    const int n = 640;
    const std::size_t last = static_cast<std::size_t>(n) * static_cast<std::size_t>(n) - 1;
    const std::string path = ::testing::TempDir() + "ccq_large_badcell.snap";
    for (const std::size_t cell : {std::size_t{0}, last}) {
        for (const bool hop : {false, true}) {
            OracleSnapshot forged = large_snapshot(n, 22);
            if (hop) {
                std::vector<NodeId> hops(forged.routing.data(),
                                         forged.routing.data() + last + 1);
                hops[cell] = cell == 0 ? -2 : n;
                forged.routing = RoutingTables(n, std::move(hops));
            } else {
                forged.estimate.data()[cell] = cell == 0 ? Weight{-1} : kInfinity + 1;
            }
            const std::string bytes = to_bytes(forged);
            const std::string expected = hop ? "next hop out of range" : "estimate cell out of range";
            const std::string what = std::string(hop ? "hop" : "estimate") + " cell " +
                                     std::to_string(cell);
            try {
                (void)from_bytes(bytes);
                ADD_FAILURE() << what << ": eager load accepted";
            } catch (const snapshot_io_error& error) {
                EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
                    << what << ": " << error.what();
            }
            {
                std::ofstream out(path, std::ios::binary);
                out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            }
            try {
                (void)MappedSnapshot(path);
                ADD_FAILURE() << what << ": mmap open accepted";
            } catch (const snapshot_io_error& error) {
                EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
                    << what << ": " << error.what();
            }
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ccq
