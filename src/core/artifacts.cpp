/**
 * @file
 * ArtifactStore: thread-safe keyed memoization of wait-graph bundles
 * with an optional on-disk cache, plus the bundles' binary codec.
 *
 * Disk format ("TLA1"):
 *
 *   magic "TLA1", version u32, stage u32,
 *   key echo (hi u64, lo u64),
 *   payload size u64, payload checksum (hi u64, lo u64),
 *   payload bytes.
 *
 * A load is trusted only when every header field matches what the
 * reader expects *and* the payload re-hashes to the stored checksum;
 * anything else (truncation, bit flips, a stale schema, a key
 * collision in the file name) degrades to a cache miss. Writes go to
 * a temporary file first and are renamed into place, so readers never
 * observe a half-written artifact.
 */

#include "src/core/artifacts.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/util/bytecodec.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

constexpr char kMagic[4] = {'T', 'L', 'A', '1'};
constexpr std::uint32_t kVersion = 1;

/** Fixed-size header preceding every artifact payload. */
constexpr std::size_t kHeaderBytes =
    4 + 4 + 4 + 8 + 8 + 8 + 8 + 8; // magic..checksum

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Digest
payloadChecksum(const std::string &payload)
{
    Digest d;
    d.mixBytes(payload.data(), payload.size());
    return d;
}

/**
 * Read an artifact file and return its payload, or nullopt when the
 * file is missing, truncated, from another schema version/stage/key,
 * or fails its checksum.
 */
std::optional<std::string>
loadArtifactFile(const std::string &path, Stage stage, const Digest &key)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = std::move(buffer).str();
    if (bytes.size() < kHeaderBytes)
        return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        return std::nullopt;

    ByteReader reader(bytes);
    reader.u32(); // magic, already checked
    if (reader.u32() != kVersion)
        return std::nullopt;
    if (reader.u32() != static_cast<std::uint32_t>(stage))
        return std::nullopt;
    if (reader.u64() != key.hi() || reader.u64() != key.lo())
        return std::nullopt;
    const std::uint64_t payload_size = reader.u64();
    const std::uint64_t check_hi = reader.u64();
    const std::uint64_t check_lo = reader.u64();
    if (reader.failed() ||
        payload_size != bytes.size() - kHeaderBytes)
        return std::nullopt;

    std::string payload = bytes.substr(kHeaderBytes);
    const Digest check = payloadChecksum(payload);
    if (check.hi() != check_hi || check.lo() != check_lo)
        return std::nullopt;
    return payload;
}

/**
 * Write an artifact file (tmp + rename, so concurrent readers never
 * see a partial file). Failures are logged and swallowed: the disk
 * cache is an optimization, never a correctness dependency.
 */
void
storeArtifactFile(const std::string &path, Stage stage,
                  const Digest &key, const std::string &payload)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);

    std::string header;
    header.reserve(kHeaderBytes);
    header.append(kMagic, 4);
    putU32(header, kVersion);
    putU32(header, static_cast<std::uint32_t>(stage));
    putU64(header, key.hi());
    putU64(header, key.lo());
    putU64(header, payload.size());
    const Digest check = payloadChecksum(payload);
    putU64(header, check.hi());
    putU64(header, check.lo());

    // The temp name must be unique per writer: two processes (or two
    // stores in one process) sharing a cache directory may store the
    // same artifact concurrently, and a shared "path + .tmp" lets one
    // writer rename the other's half-written file into place. The
    // content under a given name is identical across writers, so with
    // unique temp names the last rename wins harmlessly.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("artifact cache: cannot write ", tmp);
            return;
        }
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            warn("artifact cache: short write to ", tmp);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        warn("artifact cache: rename failed for ", path, ": ",
             ec.message());
}

} // namespace

std::string_view
stageName(Stage stage)
{
    switch (stage) {
    case Stage::WaitGraphs:
        return "wait-graphs";
    }
    return "unknown";
}

std::string
PipelineStats::render() const
{
    std::ostringstream oss;
    oss << "pipeline stages:\n";
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageStats &s = stages[i];
        oss << "  " << stageName(static_cast<Stage>(i)) << ": "
            << s.hits << " hit" << (s.hits == 1 ? "" : "s") << ", "
            << s.misses << " miss" << (s.misses == 1 ? "" : "es");
        if (s.diskHits || s.diskWrites || s.diskBytes)
            oss << ", " << s.diskHits << " disk hit"
                << (s.diskHits == 1 ? "" : "s") << ", " << s.diskWrites
                << " disk write" << (s.diskWrites == 1 ? "" : "s")
                << ", " << s.diskBytes << " disk bytes";
        oss << ", " << s.buildMs << " ms build\n";
    }
    return oss.str();
}

ArtifactStore::ArtifactStore(std::string diskDir)
    : diskDir_(std::move(diskDir)),
      hits_(&metrics_.counter("pipeline.wait-graphs.hits")),
      misses_(&metrics_.counter("pipeline.wait-graphs.misses")),
      diskHits_(&metrics_.counter("pipeline.wait-graphs.disk_hits")),
      diskWrites_(&metrics_.counter("pipeline.wait-graphs.disk_writes")),
      diskBytes_(&metrics_.counter("pipeline.wait-graphs.disk_bytes")),
      buildNs_(&metrics_.counter("pipeline.wait-graphs.build_ns"))
{
}

ArtifactStore::~ArtifactStore()
{
    metrics_.mergeInto(MetricsRegistry::global());
}

std::string
ArtifactStore::artifactPath(const Digest &key) const
{
    return (std::filesystem::path(diskDir_) /
            (std::string(stageName(Stage::WaitGraphs)) + "-" +
             key.hex() + ".tla"))
        .string();
}

ArtifactStore::Bundle
ArtifactStore::load(const Digest &key)
{
    if (diskDir_.empty())
        return nullptr;
    const std::optional<std::string> payload =
        loadArtifactFile(artifactPath(key), Stage::WaitGraphs, key);
    std::vector<WaitGraph> graphs;
    if (!payload || !WaitGraphCodec::decode(*payload, graphs))
        return nullptr;
    diskHits_->add(1);
    diskBytes_->add(payload->size());
    return std::make_shared<const std::vector<WaitGraph>>(
        std::move(graphs));
}

std::shared_ptr<const std::vector<WaitGraph>>
ArtifactStore::waitGraphs(
    const Digest &key,
    const std::function<std::vector<WaitGraph>()> &build)
{
    Span span("stage.wait-graphs", "pipeline");
    if (span.active())
        span.arg("key", key.hex());

    // Find-or-insert under the map mutex, then build under the
    // entry's once_flag outside it, so builds for distinct keys
    // proceed concurrently.
    Entry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = entries_.try_emplace(key);
        if (inserted)
            it->second = std::make_unique<Entry>();
        entry = it->second.get();
    }

    std::string_view outcome = "hit";
    std::call_once(entry->once, [&] {
        const auto start = std::chrono::steady_clock::now();
        entry->value = load(key);
        if (entry->value != nullptr) {
            outcome = "disk-hit";
        } else {
            entry->value =
                std::make_shared<const std::vector<WaitGraph>>(build());
            outcome = "miss";
            misses_->add(1);
            if (!diskDir_.empty()) {
                std::string payload;
                WaitGraphCodec::encode(*entry->value, payload);
                storeArtifactFile(artifactPath(key), Stage::WaitGraphs,
                                  key, payload);
                diskWrites_->add(1);
                diskBytes_->add(payload.size());
            }
        }
        buildNs_->add(
            static_cast<std::uint64_t>(msSince(start) * 1e6));
    });
    if (outcome == "hit")
        hits_->add(1);
    if (span.active())
        span.arg("outcome", std::string(outcome));
    return entry->value;
}

PipelineStats
ArtifactStore::stats() const
{
    // A snapshot view over the registry counters: same struct, same
    // render, no second set of books.
    PipelineStats stats;
    StageStats &s = stats.stages[static_cast<std::size_t>(
        Stage::WaitGraphs)];
    s.hits = hits_->value();
    s.misses = misses_->value();
    s.diskHits = diskHits_->value();
    s.diskWrites = diskWrites_->value();
    s.diskBytes = diskBytes_->value();
    s.buildMs = static_cast<double>(buildNs_->value()) / 1e6;
    return stats;
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

void
WaitGraphCodec::encode(const std::vector<WaitGraph> &graphs,
                       std::string &out)
{
    putU64(out, graphs.size());
    for (const WaitGraph &graph : graphs) {
        const ScenarioInstance &inst = graph.instance();
        putU32(out, inst.stream);
        putU32(out, inst.scenario);
        putU32(out, inst.tid);
        putI64(out, inst.t0);
        putI64(out, inst.t1);

        putU64(out, graph.nodes().size());
        for (const WaitGraph::Node &node : graph.nodes()) {
            putI64(out, node.event.timestamp);
            putI64(out, node.event.cost);
            putU32(out, node.event.tid);
            putU32(out, node.event.wtid);
            putU32(out, node.event.stack);
            putU8(out, static_cast<std::uint8_t>(node.event.type));
            putU32(out, node.ref.stream);
            putU32(out, node.ref.index);
            putU32(out, node.unwaitStack);
            putU8(out, node.truncated ? 1 : 0);
            const auto children = graph.children(node);
            putU64(out, children.size());
            for (std::uint32_t child : children)
                putU32(out, child);
        }
        putU64(out, graph.roots().size());
        for (std::uint32_t root : graph.roots())
            putU32(out, root);
    }
}

bool
WaitGraphCodec::decode(const std::string &bytes,
                       std::vector<WaitGraph> &graphs)
{
    ByteReader reader(bytes);
    const std::uint64_t graph_count = reader.u64();
    // Minimum bytes per graph: instance + node count + root count.
    if (!reader.countFits(graph_count, 28 + 8 + 8))
        return false;
    graphs.clear();
    graphs.reserve(graph_count);
    for (std::uint64_t g = 0; g < graph_count; ++g) {
        auto body = std::make_shared<WaitGraph::Body>();
        WaitGraph::Body &graph = *body;
        graph.instance.stream = reader.u32();
        graph.instance.scenario = reader.u32();
        graph.instance.tid = reader.u32();
        graph.instance.t0 = reader.i64();
        graph.instance.t1 = reader.i64();

        const std::uint64_t node_count = reader.u64();
        if (!reader.countFits(node_count, 50)) // fixed node bytes
            return false;
        graph.nodes.reserve(node_count);
        for (std::uint64_t n = 0; n < node_count; ++n) {
            WaitGraph::Node node;
            node.event.timestamp = reader.i64();
            node.event.cost = reader.i64();
            node.event.tid = reader.u32();
            node.event.wtid = reader.u32();
            node.event.stack = reader.u32();
            const std::uint8_t type = reader.u8();
            if (type > static_cast<std::uint8_t>(
                           EventType::HardwareService))
                return false;
            node.event.type = static_cast<EventType>(type);
            node.ref.stream = reader.u32();
            node.ref.index = reader.u32();
            node.unwaitStack = reader.u32();
            const std::uint8_t truncated = reader.u8();
            if (truncated > 1)
                return false;
            node.truncated = truncated != 0;
            const std::uint64_t child_count = reader.u64();
            if (!reader.countFits(child_count, 4))
                return false;
            // Rebuild the CSR edge arena: nodes arrive in the same
            // order encode() walked them, so appending each node's
            // segment reproduces the builder's layout.
            node.childBegin =
                static_cast<std::uint32_t>(graph.childArena.size());
            node.childCount = static_cast<std::uint32_t>(child_count);
            for (std::uint64_t c = 0; c < child_count; ++c) {
                const std::uint32_t child = reader.u32();
                if (child >= node_count)
                    return false;
                graph.childArena.push_back(child);
            }
            graph.nodes.push_back(node);
        }
        const std::uint64_t root_count = reader.u64();
        if (!reader.countFits(root_count, 4))
            return false;
        graph.roots.reserve(root_count);
        for (std::uint64_t r = 0; r < root_count; ++r) {
            const std::uint32_t root = reader.u32();
            if (root >= node_count)
                return false;
            graph.roots.push_back(root);
        }
        if (reader.failed())
            return false;
        graphs.push_back(WaitGraph(std::move(body)));
    }
    return !reader.failed() && reader.atEnd();
}

std::uint32_t
artifactCacheVersion()
{
    return kVersion;
}

} // namespace tracelens
