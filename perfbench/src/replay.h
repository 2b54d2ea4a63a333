/**
 * @file
 * In-process pipeline for the benchmark: the query vocabulary the
 * clients send, the reference answers every response is checked
 * against (rendered exactly as the daemon renders them, through the
 * Analyzer path), and the traced replays that call each layer's
 * public functions directly under a span per layer.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/server/protocol.h"
#include "src/trace/source.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace perfbench
{

// ------------------------------------------------------------ corpora

/** Shards written to disk for one workload. */
struct CorpusFiles
{
    std::string dir;
    std::vector<std::string> paths;
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    std::size_t instances = 0;
    std::uint32_t machines = 0;
};

/** generateShardedCorpus(@p machines, seed) written as dir/shard-NNN.tlc. */
CorpusFiles writeCorpus(const std::string &dir, std::uint32_t machines,
                        std::size_t shards, std::uint64_t seed);

/** Shards decoded into memory (trace layer: openSource + shard()). */
struct Decoded
{
    std::vector<std::string> paths;
    std::vector<tracelens::CorpusPtr> shards;
    std::uint64_t bytes = 0;
};
Decoded decode(const std::string &dir);

/**
 * TraceSource over shards already in memory, so that Analyzer
 * construction measures digest and absorb alone.
 */
class PreloadedSource : public tracelens::TraceSource
{
  public:
    explicit PreloadedSource(const Decoded &decoded);
    std::string describe() const override;
    std::size_t shardCount() const override;
    const std::string &shardPath(std::size_t shard) const override;
    tracelens::Expected<tracelens::ShardSummary>
    summarize(std::size_t shard) override;
    tracelens::Expected<tracelens::CorpusPtr>
    shard(std::size_t shard) override;
    const tracelens::TraceCorpus &corpus() override;
    const tracelens::IngestStats &stats() const override;

  private:
    const Decoded &decoded_;
    tracelens::IngestStats stats_;
};

/** Decoded shards plus a warm Analyzer over them. */
struct Warm
{
    Decoded decoded;
    std::unique_ptr<PreloadedSource> source;
    std::unique_ptr<tracelens::Analyzer> analyzer;
};
/** Decode @p dir and build an Analyzer with @p threads. */
Warm warmUp(const std::string &dir, unsigned threads);

// ------------------------------------------------------------ queries

/** One client request of the query workloads. */
struct Query
{
    enum class Kind
    {
        AnalyzeFresh,  //!< analyze with thresholds never sent before.
        AnalyzeRepeat, //!< exact repeat of an earlier analyze or mine.
        Mine,          //!< mine with fresh thresholds.
        Impact,        //!< corpus-wide impact.
    };
    Kind kind = Kind::Impact;
    /** What the daemon runs (a repeat copies its target's method). */
    tracelens::server::Method method = tracelens::server::Method::Impact;
    std::string scenario;
    double tfastMs = 0;
    double tslowMs = 0;

    tracelens::JsonValue params(const std::string &corpus) const;
    /** Identity of the answer (method + params). */
    std::string key() const;
    static const char *kindName(Kind kind);
};

/** Sorted instance durations (ms) per scenario name. */
using ScenarioDurations = std::map<std::string, std::vector<double>>;
ScenarioDurations scenarioDurations(const tracelens::TraceCorpus &corpus,
                                    const std::vector<std::string> &scenarios);

/**
 * The seeded query stream: half analyze with fresh thresholds, a
 * quarter exact repeats of an earlier analyze or mine, the rest mine
 * with fresh thresholds plus impact. Fresh thresholds sit at duration
 * quantiles of their scenario that no earlier query used.
 */
std::vector<Query> queryStream(std::uint64_t seed, std::size_t count,
                               const ScenarioDurations &durations);

/** An analyze of @p scenario at the catalog's thresholds. */
Query catalogQuery(const std::string &scenario);

/** A fresh analyze or mine query outside any stream. */
Query freshQuery(tracelens::Rng &rng, Query::Kind kind,
                 const ScenarioDurations &durations);

/** The catalog's selected scenarios present in @p corpus. */
std::vector<tracelens::ScenarioThresholds>
presentScenarios(const tracelens::TraceCorpus &corpus);

// ------------------------------------------------- reference answers

/** The `analyze` result object, as Server::handleAnalyze builds it. */
tracelens::JsonValue
analyzeAnswer(const tracelens::TraceCorpus &corpus,
              const std::string &scenario, tracelens::DurationNs tFast,
              tracelens::DurationNs tSlow,
              const tracelens::ContrastClasses &classes,
              const tracelens::ImpactResult &slowImpact,
              double driverCostShare,
              const tracelens::CoverageResult &coverage,
              const tracelens::MiningResult &mining);

/** The rendered answer to @p query through the Analyzer path. */
std::string referenceAnswer(const tracelens::Analyzer &analyzer,
                            const Query &query);

// ----------------------------------------------------- traced replays

/** Work counts of one replayed operation (summed over its stages). */
struct LayerCounts
{
    double graphs = 0;
    double graphNodes = 0;
    double awgNodes = 0;
    double patterns = 0;
    double selectedPaths = 0;
    double fullPaths = 0;
};

/**
 * @p query through the layer functions (classify, ImpactAnalysis,
 * AwgBuilder, ContrastMiner, render), one span each, under a root
 * span "replay.<kind>" tagged @p queryId. Returns the rendered answer.
 */
std::string replayQuery(const tracelens::Analyzer &analyzer,
                        const std::vector<tracelens::WaitGraph> &graphs,
                        const Query &query, unsigned threads,
                        std::uint64_t queryId,
                        LayerCounts *counts = nullptr);

/** Wait graphs of every instance (span waitgraph.build). */
std::vector<tracelens::WaitGraph>
buildGraphs(const tracelens::Analyzer &analyzer, unsigned threads,
            const char *metric = "waitgraph.build_ms");

/**
 * One cold report from shard bytes to text, decomposed: decode, ingest,
 * wait graphs, impact, then per scenario classes, impact, AWGs, mining
 * and the text render. Equals `tracelens report` output.
 */
std::string replayReport(const std::string &dir, unsigned threads,
                         std::uint64_t iteration,
                         LayerCounts *counts = nullptr);

/** The report text through the Analyzer path (`tracelens report`). */
std::string referenceReport(const std::string &dir, unsigned threads,
                            tracelens::PipelineStats *stats = nullptr);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
