/**
 * @file
 * TraceSource implementations: eager wrapper/loader, the mmap-backed
 * streaming source with its byte-budget LRU shard cache, and the
 * path-dispatching openSource() factory.
 */

#include "src/trace/source.h"

#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

const std::string kMemoryPath = "<memory>";

/** Process-wide ingestion metrics ("source.cache.*" counters). */
struct SourceMetrics
{
    Counter &cacheHits;
    Counter &cacheMisses;
    Counter &cacheEvictions;
    Counter &shardLoads;
};

SourceMetrics &
sourceMetrics()
{
    static SourceMetrics metrics{
        MetricsRegistry::global().counter("source.cache.hits"),
        MetricsRegistry::global().counter("source.cache.misses"),
        MetricsRegistry::global().counter("source.cache.evictions"),
        MetricsRegistry::global().counter("source.shard_loads"),
    };
    return metrics;
}

std::uint64_t
fileSizeOrZero(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/** Build a ShardSummary from a fully materialized corpus. */
ShardSummary
summarizeCorpus(const TraceCorpus &corpus, std::string path,
                std::uint64_t file_bytes)
{
    ShardSummary summary;
    summary.path = std::move(path);
    summary.fileBytes = file_bytes;
    summary.events = corpus.totalEvents();
    summary.scenarios.reserve(corpus.scenarioCount());
    for (std::uint32_t id = 0; id < corpus.scenarioCount(); ++id)
        summary.scenarios.push_back(corpus.scenarioName(id));
    summary.instances = corpus.instances();
    return summary;
}

} // namespace

std::string
IngestStats::render() const
{
    std::ostringstream oss;
    oss << "shards:   " << shards << " (" << loadedShards
        << " loaded, " << skippedShards << " skipped)\n"
        << "bytes:    " << ingestBytes << " ingested, " << residentBytes
        << " resident\n"
        << "cache:    " << cacheHits << " hits / " << cacheMisses
        << " misses / " << cacheEvictions << " evictions\n";
    for (const SourceError &e : errors)
        oss << "skipped:  " << e.render() << "\n";
    return oss.str();
}

std::size_t
estimateCorpusBytes(const TraceCorpus &corpus)
{
    // Containers carry per-element bookkeeping beyond payload; the
    // constants approximate libstdc++ node/header overheads closely
    // enough for cache budgeting.
    std::size_t bytes = sizeof(TraceCorpus);
    bytes += corpus.totalEvents() * sizeof(Event);
    bytes += corpus.instances().size() * sizeof(ScenarioInstance);
    const SymbolTable &sym = corpus.symbols();
    for (FrameId f = 0;
         f < static_cast<FrameId>(sym.frameCount()); ++f)
        bytes += sym.frameName(f).size() + 48;
    for (CallstackId s = 0;
         s < static_cast<CallstackId>(sym.stackCount()); ++s)
        bytes += sym.stackFrames(s).size() * sizeof(FrameId) + 16;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(corpus.streamCount()); ++i) {
        const TraceStream &stream = corpus.stream(i);
        bytes += sizeof(TraceStream) + stream.name.size();
        for (const auto &[key, value] : stream.tags)
            bytes += key.size() + value.size() + 64;
    }
    for (std::uint32_t id = 0; id < corpus.scenarioCount(); ++id)
        bytes += corpus.scenarioName(id).size() + 48;
    return bytes;
}

// --------------------------------------------------------------- EagerSource

EagerSource::EagerSource(const TraceCorpus &corpus) : borrowed_(&corpus)
{
    loaded_ = true;
    stats_.shards = 1;
    stats_.loadedShards = 1;
}

EagerSource::EagerSource(TraceCorpus &&corpus) : owned_(std::move(corpus))
{
    loaded_ = true;
    stats_.shards = 1;
    stats_.loadedShards = 1;
}

EagerSource::EagerSource(std::vector<std::string> paths)
    : paths_(std::move(paths)), reported_(paths_.size(), false),
      everLoaded_(paths_.size(), false)
{
    stats_.shards = paths_.size();
}

std::string
EagerSource::describe() const
{
    if (paths_.empty())
        return "eager(in-memory corpus)";
    return "eager(" + std::to_string(paths_.size()) + " shard file" +
           (paths_.size() == 1 ? "" : "s") + ")";
}

std::size_t
EagerSource::shardCount() const
{
    return paths_.empty() ? 1 : paths_.size();
}

const std::string &
EagerSource::shardPath(std::size_t shard) const
{
    if (paths_.empty())
        return kMemoryPath;
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    return paths_[shard];
}

void
EagerSource::countLoaded(std::size_t shard, std::uint64_t bytes)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (everLoaded_[shard])
        return;
    everLoaded_[shard] = true;
    stats_.loadedShards++;
    stats_.ingestBytes += bytes;
    sourceMetrics().shardLoads.add(1);
}

void
EagerSource::recordError(std::size_t shard, const SourceError &error)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (reported_[shard])
        return;
    // Keep errors in shard order, whatever order concurrent decodes
    // fail in: the shards reported so far below this one precede it.
    const auto before = std::count(
        reported_.begin(),
        reported_.begin() + static_cast<std::ptrdiff_t>(shard), true);
    reported_[shard] = true;
    stats_.skippedShards++;
    stats_.errors.insert(stats_.errors.begin() + before, error);
}

Expected<ShardSummary>
EagerSource::summarize(std::size_t shard)
{
    if (paths_.empty()) {
        return summarizeCorpus(corpus(), kMemoryPath,
                               estimateCorpusBytes(corpus()));
    }
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    Expected<TraceCorpus> loaded = readCorpusFileChecked(paths_[shard]);
    if (!loaded) {
        recordError(shard, loaded.error());
        return loaded.error();
    }
    countLoaded(shard, fileSizeOrZero(paths_[shard]));
    return summarizeCorpus(loaded.value(), paths_[shard],
                           fileSizeOrZero(paths_[shard]));
}

Expected<CorpusPtr>
EagerSource::shard(std::size_t shard)
{
    if (paths_.empty()) {
        // Alias the wrapped corpus; the caller must not outlive it
        // (same contract as borrowing the corpus directly).
        return CorpusPtr(CorpusPtr{}, &corpus());
    }
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    Expected<TraceCorpus> loaded = readCorpusFileChecked(paths_[shard]);
    if (!loaded) {
        recordError(shard, loaded.error());
        return loaded.error();
    }
    countLoaded(shard, fileSizeOrZero(paths_[shard]));
    return CorpusPtr(
        std::make_shared<const TraceCorpus>(std::move(loaded.value())));
}

void
EagerSource::ensureLoaded()
{
    if (loaded_)
        return;
    loaded_ = true;
    Span span("source.load-eager", "ingest");
    if (span.active())
        span.arg("shards", static_cast<std::uint64_t>(paths_.size()));
    std::vector<TraceCorpus> parts;
    parts.reserve(paths_.size());
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        Expected<TraceCorpus> part = readCorpusFileChecked(paths_[i]);
        if (!part) {
            recordError(i, part.error());
            warn("skipping corrupt shard: ", part.error().render());
            continue;
        }
        countLoaded(i, fileSizeOrZero(paths_[i]));
        parts.push_back(std::move(part.value()));
    }
    if (parts.size() == 1)
        owned_ = std::move(parts.front());
    else
        owned_ = mergeCorpora(parts);
    stats_.residentBytes = estimateCorpusBytes(*owned_);
}

const TraceCorpus &
EagerSource::corpus()
{
    if (borrowed_ != nullptr)
        return *borrowed_;
    ensureLoaded();
    return *owned_;
}

const IngestStats &
EagerSource::stats() const
{
    return stats_;
}

// ---------------------------------------------------------------- MmapSource

MmapSource::MmapSource(std::vector<std::string> paths,
                       SourceOptions options)
    : paths_(std::move(paths)), options_(options),
      everLoaded_(paths_.size(), false)
{
    stats_.shards = paths_.size();
    readers_.reserve(paths_.size());
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        Expected<MmapReader> reader = MmapReader::open(paths_[i]);
        if (!reader) {
            readers_.emplace_back(std::nullopt);
            markBad(i, reader.error());
            continue;
        }
        stats_.ingestBytes += reader.value().fileBytes();
        readers_.emplace_back(std::move(reader.value()));
    }
}

std::string
MmapSource::describe() const
{
    return "mmap(" + std::to_string(paths_.size()) + " shard" +
           (paths_.size() == 1 ? "" : "s") + ", cache " +
           std::to_string(options_.cacheBytes) + " bytes)";
}

std::size_t
MmapSource::shardCount() const
{
    return paths_.size();
}

const std::string &
MmapSource::shardPath(std::size_t shard) const
{
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    return paths_[shard];
}

void
MmapSource::markBad(std::size_t shard, SourceError error)
{
    if (bad_.count(shard) > 0)
        return;
    // Keep errors in shard order, whatever order concurrent decodes
    // fail in: bad_ is ordered, so its rank is the error's position.
    const auto before =
        std::distance(bad_.begin(), bad_.lower_bound(shard));
    stats_.skippedShards++;
    stats_.errors.insert(stats_.errors.begin() + before, error);
    bad_.emplace(shard, std::move(error));
}

Expected<ShardSummary>
MmapSource::summarize(std::size_t shard)
{
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = bad_.find(shard); it != bad_.end())
            return it->second;
    }
    const MmapReader &reader = *readers_[shard];
    ShardSummary summary;
    summary.path = reader.path();
    summary.fileBytes = reader.fileBytes();
    summary.events = reader.index().eventCount;
    summary.scenarios = reader.scenarioNames();
    summary.instances = reader.instances();
    return summary;
}

void
MmapSource::touch(CacheEntry &entry, std::size_t shard)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(shard);
    entry.lruIt = lru_.begin();
}

void
MmapSource::evictOver(std::size_t budget)
{
    // Never evict the most recently used entry: one oversized shard
    // must stay usable under any budget.
    while (stats_.residentBytes > budget && lru_.size() > 1) {
        const std::size_t victim = lru_.back();
        lru_.pop_back();
        auto it = cache_.find(victim);
        TL_ASSERT(it != cache_.end(), "LRU/cache out of sync");
        stats_.residentBytes -= it->second.bytes;
        cache_.erase(it);
        stats_.cacheEvictions++;
        sourceMetrics().cacheEvictions.add(1);
    }
}

Expected<CorpusPtr>
MmapSource::shard(std::size_t shard)
{
    TL_ASSERT(shard < paths_.size(), "bad shard index ", shard);
    Span span("source.shard", "ingest");
    if (span.active())
        span.arg("shard", static_cast<std::uint64_t>(shard));

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (auto bad = bad_.find(shard); bad != bad_.end())
            return bad->second;
        if (auto it = cache_.find(shard); it != cache_.end()) {
            stats_.cacheHits++;
            sourceMetrics().cacheHits.add(1);
            if (span.active())
                span.arg("outcome", std::string("hit"));
            touch(it->second, shard);
            return it->second.corpus;
        }
        stats_.cacheMisses++;
        sourceMetrics().cacheMisses.add(1);
    }
    if (span.active())
        span.arg("outcome", std::string("miss"));

    // Decode outside the lock: distinct shards materialize
    // concurrently, each through its own reader.
    Expected<TraceCorpus> materialized = readers_[shard]->materialize();
    CorpusPtr corpus;
    std::size_t bytes = 0;
    if (materialized) {
        corpus = std::make_shared<const TraceCorpus>(
            std::move(materialized.value()));
        bytes = estimateCorpusBytes(*corpus);
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    if (!corpus) {
        markBad(shard, materialized.error());
        return materialized.error();
    }
    if (!everLoaded_[shard]) {
        everLoaded_[shard] = true;
        stats_.loadedShards++;
        sourceMetrics().shardLoads.add(1);
    }
    if (auto it = cache_.find(shard); it != cache_.end()) {
        // A concurrent call for the same shard cached it first.
        touch(it->second, shard);
        return it->second.corpus;
    }

    CacheEntry entry;
    entry.corpus = std::move(corpus);
    entry.bytes = bytes;
    lru_.push_front(shard);
    entry.lruIt = lru_.begin();
    stats_.residentBytes += entry.bytes;
    CorpusPtr result = entry.corpus;
    cache_.emplace(shard, std::move(entry));
    evictOver(options_.cacheBytes);
    return result;
}

const TraceCorpus &
MmapSource::corpus()
{
    if (merged_)
        return *merged_;
    if (mergedShard_)
        return *mergedShard_;

    if (paths_.size() == 1) {
        // Single-shard fast path: adopt the materialized corpus
        // without an extra merge copy.
        Expected<CorpusPtr> part = shard(0);
        if (part) {
            mergedShard_ = part.value();
            return *mergedShard_;
        }
        warn("skipping corrupt shard: ", part.error().render());
        merged_.emplace(); // corrupt single shard: empty corpus
        return *merged_;
    }

    // Walk shards one at a time, releasing each handle before the
    // next materialization, so peak residency during the merge stays
    // bounded by the cache budget plus the merged result itself.
    merged_.emplace();
    for (std::size_t i = 0; i < paths_.size(); ++i) {
        Expected<CorpusPtr> part = shard(i);
        if (!part) {
            // Isolated and recorded in stats().
            warn("skipping corrupt shard: ", part.error().render());
            continue;
        }
        appendCorpus(*merged_, *part.value());
    }
    return *merged_;
}

const IngestStats &
MmapSource::stats() const
{
    return stats_;
}

// ---------------------------------------------------------------- openSource

Expected<std::vector<std::string>>
listShards(const std::string &path)
{
    std::error_code ec;
    const auto status = std::filesystem::status(path, ec);
    if (ec || status.type() == std::filesystem::file_type::not_found)
        return SourceError{path, 0, "no such file or directory"};

    std::vector<std::string> shards;
    if (!std::filesystem::is_directory(status)) {
        shards.push_back(path);
        return shards;
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(path, ec)) {
        if (entry.is_regular_file() &&
            isShardFilename(entry.path().filename().string()))
            shards.push_back(entry.path().string());
    }
    if (ec)
        return SourceError{path, 0,
                           "cannot list directory: " + ec.message()};
    std::sort(shards.begin(), shards.end());
    if (shards.empty())
        return SourceError{path, 0,
                           "directory contains no *.tlc shard files"};
    return shards;
}

Expected<std::unique_ptr<TraceSource>>
openSource(const std::string &path, const SourceOptions &options)
{
    Expected<std::vector<std::string>> shards = listShards(path);
    if (!shards)
        return shards.error();
    if (options.useMmap) {
        return std::unique_ptr<TraceSource>(std::make_unique<MmapSource>(
            std::move(shards.value()), options));
    }
    return std::unique_ptr<TraceSource>(
        std::make_unique<EagerSource>(std::move(shards.value())));
}

bool
isShardFilename(std::string_view filename)
{
    if (filename.empty() || filename.front() == '.')
        return false;
    constexpr std::string_view kExt = ".tlc";
    return filename.size() > kExt.size() &&
           filename.substr(filename.size() - kExt.size()) == kExt;
}

std::optional<FileStamp>
fileStamp(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
        return std::nullopt;
    FileStamp stamp;
    stamp.size = static_cast<std::uint64_t>(st.st_size);
    stamp.mtimeNs =
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
        st.st_mtim.tv_nsec;
    stamp.inode = static_cast<std::uint64_t>(st.st_ino);
    return stamp;
}

void
ListingStamp::add(const std::string &shard)
{
    Digest term;
    term.mix(shard);
    const std::optional<FileStamp> stamp = fileStamp(shard);
    term.mix(static_cast<std::uint64_t>(stamp.has_value()));
    if (stamp) {
        term.mix(stamp->size)
            .mix(static_cast<std::uint64_t>(stamp->mtimeNs))
            .mix(stamp->inode);
    }
    hi += term.hi();
    lo += term.lo();
}

ListingStamp
listingStamp(const std::vector<std::string> &shards)
{
    ListingStamp stamp;
    for (const std::string &shard : shards)
        stamp.add(shard);
    return stamp;
}

} // namespace tracelens
