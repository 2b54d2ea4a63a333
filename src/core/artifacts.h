/**
 * @file
 * The artifact store of the analysis pipeline: the one cached
 * artifact, the per-shard wait-graph bundle.
 *
 * Building a shard's wait graphs is the expensive step every analysis
 * starts from, and its result depends only on the shard chain and the
 * wait-graph options. ArtifactStore memoizes those bundles under a key
 * that hashes exactly that: the digest chain of the shards up to and
 * including this one plus a fingerprint of the configuration (see
 * docs/ARCHITECTURE.md, "Pipeline stage graph & artifact keys").
 * Everything downstream (classes, impact, AWGs, mining) is recomputed
 * per call from the bundles; the daemon caches rendered answers
 * instead (src/server/responsecache.h).
 *
 * Bundles live:
 *
 *  - in memory, always: a thread-safe map with per-entry
 *    once-semantics, so concurrent analyses share one build per key;
 *  - on disk, optionally: "wait-graphs-<keyhex>.tla" files under a
 *    cache directory (CLI: --artifact-cache DIR), so a later process
 *    warm-starts without rebuilding them. Corrupt or stale cache files
 *    are never trusted: every load validates magic, version, stage,
 *    key echo, and a payload checksum, and any mismatch falls back to
 *    a rebuild that overwrites the bad file.
 *
 * Because keys are content hashes, incrementality falls out for free:
 * appending a shard adds one chain link, so every prefix shard keeps
 * its key and is served from the store while only the new shard's
 * bundle builds. PipelineStats counts exactly that (hits, misses, disk
 * traffic, build wall time).
 */

#ifndef TRACELENS_CORE_ARTIFACTS_H
#define TRACELENS_CORE_ARTIFACTS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/hash.h"
#include "src/util/telemetry.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

/** The cached stages of the analysis pipeline. */
enum class Stage : std::uint8_t
{
    WaitGraphs = 0, //!< Per-shard wait-graph bundles (disk-backed).
};

/** Number of pipeline stages (array sizing). */
inline constexpr std::size_t kStageCount = 1;

/** Human-readable stage name ("wait-graphs"). */
std::string_view stageName(Stage stage);

/** Cache counters of one pipeline stage. */
struct StageStats
{
    std::uint64_t hits = 0;       //!< Served from the in-memory map.
    std::uint64_t misses = 0;     //!< Built from the inputs.
    std::uint64_t diskHits = 0;   //!< Deserialized from the disk cache.
    std::uint64_t diskWrites = 0; //!< Artifact files written.
    std::uint64_t diskBytes = 0;  //!< Bytes read from + written to disk.
    double buildMs = 0.0;         //!< Wall time spent producing values.
};

/**
 * Per-stage cache counters of one pipeline run. This is a *snapshot
 * view* over the store's MetricsRegistry ("pipeline.<stage>.<name>"
 * counters), kept as a struct so the CLI's --pipeline-stats rendering
 * stays byte-compatible.
 */
struct PipelineStats
{
    StageStats stages[kStageCount];

    const StageStats &of(Stage stage) const
    {
        return stages[static_cast<std::size_t>(stage)];
    }

    /** Multi-line human-readable rendering (CLI --pipeline-stats). */
    std::string render() const;
};

/**
 * Thread-safe keyed memoization of wait-graph bundles. Bundles are
 * immutable once published; concurrent requests for one key run the
 * build exactly once (the others block and then share the result).
 * Lookups for *different* keys never serialize behind a build.
 */
class ArtifactStore
{
  public:
    /**
     * @param diskDir Directory for the optional on-disk cache of
     *        wait-graph bundles (created on first write); empty =
     *        memory-only.
     */
    explicit ArtifactStore(std::string diskDir = {});

    /** Folds this store's counters into MetricsRegistry::global(), so
     *  --metrics-out reports process-wide pipeline totals. */
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * One shard's wait-graph bundle for @p key, restored from disk or
     * built via @p build on first request. Every request records a
     * "stage.wait-graphs" telemetry span carrying the key and the
     * hit/miss/disk-hit outcome as span args.
     */
    std::shared_ptr<const std::vector<WaitGraph>>
    waitGraphs(const Digest &key,
               const std::function<std::vector<WaitGraph>()> &build);

    /** Snapshot of the per-stage counters. */
    PipelineStats stats() const;

    const std::string &diskDir() const { return diskDir_; }

  private:
    using Bundle = std::shared_ptr<const std::vector<WaitGraph>>;

    struct Entry
    {
        std::once_flag once;
        Bundle value;
    };

    /** The bundle's disk file, or null when absent or untrusted;
     *  counts a disk hit. */
    Bundle load(const Digest &key);

    /** Path of the artifact file for @p key. */
    std::string artifactPath(const Digest &key) const;

    std::string diskDir_;

    mutable std::mutex mutex_;
    std::unordered_map<Digest, std::unique_ptr<Entry>, DigestHash>
        entries_;

    /**
     * Per-store metrics backing PipelineStats: lock-free handles into
     * metrics_ ("pipeline.wait-graphs.hits", ...). Build wall time
     * accumulates in nanoseconds (a counter) and is rendered back to
     * milliseconds by stats().
     */
    MetricsRegistry metrics_;
    Counter *hits_;
    Counter *misses_;
    Counter *diskHits_;
    Counter *diskWrites_;
    Counter *diskBytes_;
    Counter *buildNs_;
};

/**
 * Binary codec of wait-graph bundles for the disk cache. The payload
 * is a flat little-endian encoding of every graph's nodes, roots, and
 * instance; decode() bounds-checks every count and index and reports
 * failure instead of reading past the buffer.
 */
struct WaitGraphCodec
{
    static void encode(const std::vector<WaitGraph> &graphs,
                       std::string &out);
    static bool decode(const std::string &bytes,
                       std::vector<WaitGraph> &graphs);
};

/** On-disk artifact (TLA1) format revision (`tracelens version`). */
std::uint32_t artifactCacheVersion();

} // namespace tracelens

#endif // TRACELENS_CORE_ARTIFACTS_H
