/**
 * @file
 * TraceSource: the ingestion boundary between trace storage and the
 * analyses.
 *
 * The original API assumed a fully resident TraceCorpus before any
 * analysis could start. At fleet scale (the paper ran over 19,500 ETW
 * streams) ingestion is the wall, so the pipeline now consumes a
 * TraceSource instead: an abstraction over *where the bytes live* —
 * one file, a sharded directory, or an already-loaded corpus — with
 * two implementations:
 *
 *  - EagerSource   wraps an in-memory TraceCorpus (zero behavior
 *                  change for existing callers) or loads shard files
 *                  through the classic full-read path.
 *  - MmapSource    maps shards zero-copy (MmapReader), answers
 *                  summary queries (instance windows, scenario names,
 *                  event counts) without materializing symbol tables,
 *                  and materializes shards on demand through an LRU
 *                  cache bounded by a configurable byte budget.
 *
 * Both implementations isolate per-shard errors: a corrupt trace file
 * is recorded in IngestStats::errors (in shard order) and skipped —
 * never fatal. The two paths produce bit-identical analysis results
 * (asserted by tests/source_test.cpp).
 */

#ifndef TRACELENS_TRACE_SOURCE_H
#define TRACELENS_TRACE_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/trace/mmapreader.h"
#include "src/trace/stream.h"
#include "src/util/expected.h"

namespace tracelens
{

/** Ingestion configuration. */
struct SourceOptions
{
    /**
     * Byte budget for MmapSource's materialized-shard LRU cache. The
     * most recently used shard is always kept resident, even when it
     * alone exceeds the budget — otherwise repeated access to one
     * large shard would thrash.
     */
    std::size_t cacheBytes = 256ull << 20;
    /** openSource(): mmap the shards instead of eager full reads. */
    bool useMmap = false;
};

/** Ingestion counters and the per-shard errors that were isolated. */
struct IngestStats
{
    /** Shard files discovered (or 1 for an in-memory corpus). */
    std::size_t shards = 0;
    /** Shards materialized successfully at least once. */
    std::size_t loadedShards = 0;
    /** Corrupt/unreadable shards reported and skipped. */
    std::size_t skippedShards = 0;
    /** Raw file bytes of the usable shards. */
    std::uint64_t ingestBytes = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t cacheEvictions = 0;
    /** Estimated bytes of currently cached materialized shards. */
    std::size_t residentBytes = 0;
    /** One entry per skipped shard: file, offset, reason. */
    std::vector<SourceError> errors;

    /** Multi-line human-readable rendering. */
    std::string render() const;
};

/**
 * What a shard contains, answerable without materializing its symbol
 * table (cheap on the mmap path): classification windows, per-shard
 * scenario names, and size figures.
 */
struct ShardSummary
{
    std::string path;
    std::uint64_t fileBytes = 0;
    std::uint64_t events = 0;
    /** Shard-local scenario names, in interning order. */
    std::vector<std::string> scenarios;
    /** Instance records; .scenario indexes into @ref scenarios. */
    std::vector<ScenarioInstance> instances;
};

/** Shared handle to a materialized (possibly cached) shard corpus. */
using CorpusPtr = std::shared_ptr<const TraceCorpus>;

/**
 * Pure interface the Analyzer (and CLI) ingest through.
 *
 * Threading contract: shard() must be safe to call concurrently for
 * distinct shard indices — the Analyzer decodes several shards at
 * once (AnalyzerConfig::threads). Implementations decode outside any
 * lock and serialize only their bookkeeping (stats, caches, the
 * bad-shard record), and they keep IngestStats::errors in shard order
 * whatever order concurrent decodes fail in. Everything else —
 * corpus(), summarize(), reading stats() — is single-threaded: share a
 * source across threads for those only behind external
 * synchronization. Warning about a skipped shard is the caller's job,
 * at the point where it skips it, so warnings follow the caller's
 * (shard) order too. corpus() may materialize and so may be expensive
 * on first call; it is cached afterwards.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** One-line description ("mmap dir corpus/ (8 shards)", ...). */
    virtual std::string describe() const = 0;

    virtual std::size_t shardCount() const = 0;
    virtual const std::string &shardPath(std::size_t shard) const = 0;

    /** Cheap shard summary; error for a corrupt shard (also recorded
     *  in stats()). */
    virtual Expected<ShardSummary> summarize(std::size_t shard) = 0;

    /**
     * The materialized corpus of one shard. MmapSource serves this
     * through its byte-budget LRU cache; holding the returned
     * CorpusPtr keeps the shard alive across evictions.
     */
    virtual Expected<CorpusPtr> shard(std::size_t shard) = 0;

    /**
     * The merged analysis corpus over all usable shards. Corrupt
     * shards are skipped and recorded in stats().errors; an all-bad
     * source yields an empty corpus, never a fatal error.
     */
    virtual const TraceCorpus &corpus() = 0;

    virtual const IngestStats &stats() const = 0;
};

/**
 * TraceSource over the classic eager-load path: either wrapping an
 * existing in-memory corpus (borrowed or owned — zero behavior
 * change), or reading shard files fully into memory on first use.
 */
class EagerSource : public TraceSource
{
  public:
    /** Borrow an already-built corpus (caller keeps ownership). */
    explicit EagerSource(const TraceCorpus &corpus);
    /** Take ownership of a corpus (rvalues only, so a const lvalue
     * unambiguously borrows). */
    explicit EagerSource(TraceCorpus &&corpus);
    /** Load these shard files eagerly on first corpus()/shard(). */
    explicit EagerSource(std::vector<std::string> paths);

    std::string describe() const override;
    std::size_t shardCount() const override;
    const std::string &shardPath(std::size_t shard) const override;
    Expected<ShardSummary> summarize(std::size_t shard) override;
    Expected<CorpusPtr> shard(std::size_t shard) override;
    const TraceCorpus &corpus() override;
    const IngestStats &stats() const override;

  private:
    void ensureLoaded();
    /** Record a shard's load error in stats (once per shard). */
    void recordError(std::size_t shard, const SourceError &error);

    /** Count shard @p i as loaded (first success only). */
    void countLoaded(std::size_t shard, std::uint64_t bytes);

    const TraceCorpus *borrowed_ = nullptr;
    std::optional<TraceCorpus> owned_;
    std::vector<std::string> paths_;
    bool loaded_ = false;
    /** Shards whose errors were already counted. */
    std::vector<bool> reported_;
    /** Shards that counted toward loadedShards already. */
    std::vector<bool> everLoaded_;
    IngestStats stats_;
    /** Guards reported_, everLoaded_ and stats_ under concurrent
     *  shard() calls. */
    std::mutex mutex_;
};

/**
 * TraceSource over mmap'ed shards: summaries come straight from the
 * zero-copy skip-scan index; full materializations go through an LRU
 * cache bounded by SourceOptions::cacheBytes.
 */
class MmapSource : public TraceSource
{
  public:
    explicit MmapSource(std::vector<std::string> paths,
                        SourceOptions options = {});

    std::string describe() const override;
    std::size_t shardCount() const override;
    const std::string &shardPath(std::size_t shard) const override;
    Expected<ShardSummary> summarize(std::size_t shard) override;
    Expected<CorpusPtr> shard(std::size_t shard) override;
    const TraceCorpus &corpus() override;
    const IngestStats &stats() const override;

  private:
    struct CacheEntry
    {
        CorpusPtr corpus;
        std::size_t bytes = 0;
        std::list<std::size_t>::iterator lruIt;
    };

    /** Record shard @p i as corrupt (first time only; mutex_ held). */
    void markBad(std::size_t shard, SourceError error);
    void touch(CacheEntry &entry, std::size_t shard);
    void evictOver(std::size_t budget);

    std::vector<std::string> paths_;
    SourceOptions options_;
    /** Open readers; nullopt for shards that failed to open/index. */
    std::vector<std::optional<MmapReader>> readers_;
    /** Open/materialize error per bad shard, in shard order. */
    std::map<std::size_t, SourceError> bad_;
    /** Shards that counted toward loadedShards already. */
    std::vector<bool> everLoaded_;

    std::unordered_map<std::size_t, CacheEntry> cache_;
    /** Front = most recently used shard. */
    std::list<std::size_t> lru_;

    std::optional<TraceCorpus> merged_;
    CorpusPtr mergedShard_; // pins the single-shard fast path
    IngestStats stats_;
    /** Guards bad_, everLoaded_, cache_, lru_ and stats_ under
     *  concurrent shard() calls; decodes run outside it. */
    std::mutex mutex_;
};

/**
 * The shard files of the corpus at @p path, in ingest order: a
 * directory lists its isShardFilename() regular files sorted by name
 * (see docs/TRACE_FORMAT.md, "Sharded corpora"); a regular file is its
 * own single shard. Shard order IS merge order, so openSource() and
 * the coordinator's scatter both list through here. Fails only when
 * @p path itself is unusable (missing, or a directory with no shards).
 */
Expected<std::vector<std::string>> listShards(const std::string &path);

/**
 * Open @p path as a TraceSource over its listShards() listing. Fails
 * only when the listing does — corrupt shard *files* are isolated
 * later, per shard.
 */
Expected<std::unique_ptr<TraceSource>>
openSource(const std::string &path, const SourceOptions &options = {});

/**
 * True when @p filename (the final path component, no directory) is a
 * finished shard a corpus-directory scan should pick up: a `*.tlc`
 * name that is not hidden. Dotfiles and any other extension —
 * notably the `*.tmp` staging names of the rename-into-place
 * convention (docs/TRACE_FORMAT.md "Sharded corpora") — are skipped,
 * so a writer racing a reader can never surface a torn shard as a
 * corrupt-input error. Every directory scan (openSource, the
 * coordinator's enumerateShards, the fleet watcher) shares this
 * predicate: shard *selection* feeding shard order IS merge order,
 * so any divergence breaks byte-identity.
 */
bool isShardFilename(std::string_view filename);

/** What stat() says about a file's bytes: equal stamps are taken to
 *  mean unchanged content (the response caches key on them). */
struct FileStamp
{
    std::uint64_t size = 0;
    std::int64_t mtimeNs = 0;
    std::uint64_t inode = 0;

    friend bool
    operator==(const FileStamp &a, const FileStamp &b)
    {
        return a.size == b.size && a.mtimeNs == b.mtimeNs &&
               a.inode == b.inode;
    }
};

/** stat() @p path; nullopt unless it names a regular file. */
std::optional<FileStamp> fileStamp(const std::string &path);

/**
 * Stat-only identity of a shard listing: every shard's path and
 * FileStamp, no shard bytes read. Equal stamps are taken to mean the
 * same corpus bytes (warm sessions and the coordinator's response
 * cache key on them). The per-shard terms are summed, so a listing
 * that gained one shard is re-stamped by add()ing that shard alone;
 * order needs no term of its own, since a listing is sorted by path.
 */
struct ListingStamp
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** Add @p shard's term; a shard that is not (or no longer) a
     *  regular file adds a marker term. */
    void add(const std::string &shard);

    friend bool operator==(const ListingStamp &,
                           const ListingStamp &) = default;
};

/** The stamp of a listShards() listing. */
ListingStamp listingStamp(const std::vector<std::string> &shards);

/**
 * Estimated resident bytes of a materialized corpus (events,
 * instances, symbol table, stream metadata) — the unit of
 * SourceOptions::cacheBytes accounting.
 */
std::size_t estimateCorpusBytes(const TraceCorpus &corpus);

} // namespace tracelens

#endif // TRACELENS_TRACE_SOURCE_H
