/**
 * @file
 * Analyzer: per-shard ingestion with content digesting, the cached
 * per-shard wait graphs, the analysis chain over them (classes ->
 * impact -> AWGs -> mining), and the multi-scenario fan-out.
 */

#include "src/core/analyzer.h"

#include <optional>

#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{

namespace
{

/** Bumped whenever a wait graph's content changes for equal inputs. */
constexpr std::uint64_t kSchemaVersion = 1;

/**
 * The wait-graph key's config fingerprint: exactly the options that
 * can change a wait graph (the component filter and the wait-graph
 * options) plus the schema version — never the thread count.
 */
Digest
waitGraphFingerprint(const AnalyzerConfig &config)
{
    Digest fingerprint;
    fingerprint.mix(kSchemaVersion);
    fingerprint.mix(static_cast<std::uint64_t>(config.components.size()));
    for (const std::string &component : config.components)
        fingerprint.mix(std::string_view(component));
    fingerprint.mix(config.waitGraph.maxDepth)
        .mix(config.waitGraph.maxNodes)
        .mix(static_cast<std::uint64_t>(config.waitGraph.containmentOnly))
        .mix(static_cast<std::uint64_t>(config.waitGraph.clipToWindows));
    return fingerprint;
}

/**
 * The graphs at @p indices of @p all. Copies are handles sharing
 * @p all's storage, so a class subset costs no node copies.
 */
std::vector<WaitGraph>
gatherGraphs(const std::vector<WaitGraph> &all,
             const std::vector<std::uint32_t> &indices)
{
    std::vector<WaitGraph> subset;
    subset.reserve(indices.size());
    for (std::uint32_t i : indices)
        subset.push_back(all[i]);
    return subset;
}

} // namespace

double
ScenarioAnalysis::driverCostShare()
 const
{
    if (slowDuration == 0)
        return 0.0;
    return static_cast<double>(slowImpact.dWait + slowImpact.dRun) /
           static_cast<double>(slowDuration);
}

double
ScenarioAnalysis::nonOptimizableShare() const
{
    const DurationNs reduced = awgSlow.reducedCost();
    const DurationNs kept = awgSlow.totalRootCost();
    if (reduced + kept == 0)
        return 0.0;
    return static_cast<double>(reduced) /
           static_cast<double>(reduced + kept);
}

Analyzer::Analyzer(TraceSource &source, AnalyzerConfig config)
    : source_(&source), config_(std::move(config)),
      components_(config_.components),
      fpWaitGraph_(waitGraphFingerprint(config_)),
      store_(config_.artifactCacheDir)
{
    // Decode and digest shards in parallel; absorb them serially in
    // shard order, so interning order and the digest chain match a
    // serial ingest exactly.
    struct Decoded
    {
        Expected<CorpusPtr> shard;
        Digest digest;
    };
    std::vector<std::optional<Decoded>> slots(source.shardCount());
    parallelPipeline(
        config_.threads, slots.size(),
        [&](std::size_t i) {
            Expected<CorpusPtr> shard = source.shard(i);
            Digest digest;
            if (shard)
                digest = digestCorpus(*shard.value());
            slots[i].emplace(Decoded{std::move(shard), digest});
        },
        [&](std::size_t i) {
            Decoded decoded = std::move(*slots[i]);
            slots[i].reset();
            if (!decoded.shard) {
                // Recorded in source.stats(); warned here, in shard
                // order, whatever order the decodes finished in.
                warn("skipping corrupt shard: ",
                     decoded.shard.error().render());
                return;
            }
            absorb(*decoded.shard.value(), decoded.shard.value(),
                   decoded.digest);
        });
}

void
Analyzer::absorb(const TraceCorpus &part, CorpusPtr alias,
                 const Digest &digest)
{
    Span span("analyzer.ingest-shard", "analysis");
    if (span.active()) {
        span.arg("shard", static_cast<std::uint64_t>(shards_.size()));
        span.arg("instances",
                 static_cast<std::uint64_t>(part.instances().size()));
    }

    ShardRecord record;
    record.digest = digest;
    record.chain = shards_.empty() ? Digest{} : shards_.back().chain;
    record.chain.mix(record.digest);
    record.firstInstance =
        static_cast<std::uint32_t>(corpus_->instances().size());
    record.instanceCount =
        static_cast<std::uint32_t>(part.instances().size());

    if (shards_.empty() && alias != nullptr) {
        // Single-shard fast path: adopt the shard as the analysis
        // corpus without a merge copy (copy-on-append later).
        aliasShard_ = std::move(alias);
        corpus_ = aliasShard_.get();
    } else {
        ensureOwned();
        appendCorpus(ownedCorpus_, part);
    }
    shards_.push_back(record);

    // (Re-)prime the symbol table's per-filter match cache: the
    // parallel stages consult it concurrently, which is safe only
    // once the entry covers every interned frame.
    corpus_->symbols().primeFilter(components_);
}

void
Analyzer::ensureOwned()
{
    if (aliasShard_ == nullptr)
        return;
    // appendCorpus re-interns in id order, so the copy is structurally
    // identical to the alias (same ids, same instance order) and every
    // existing artifact stays valid.
    ownedCorpus_ = TraceCorpus{};
    appendCorpus(ownedCorpus_, *aliasShard_);
    aliasShard_.reset();
    corpus_ = &ownedCorpus_;
}

void
Analyzer::addStreams(const TraceCorpus &part)
{
    ensureOwned();
    absorb(part, nullptr, digestCorpus(part));
}

const Digest &
Analyzer::chainTip() const
{
    static const Digest kEmptyChain;
    return shards_.empty() ? kEmptyChain : shards_.back().chain;
}

const std::vector<WaitGraph> &
Analyzer::graphs() const
{
    std::lock_guard<std::mutex> lock(graphsMutex_);
    if (graphsShards_ != shards_.size()) {
        Span span("analyzer.graphs", "analysis");
        if (span.active()) {
            span.arg("shards",
                     static_cast<std::uint64_t>(shards_.size()));
            span.arg("instances", static_cast<std::uint64_t>(
                                      corpus_->instances().size()));
        }
        graphs_.clear();
        graphs_.reserve(corpus_->instances().size());
        const unsigned threads = resolveThreads(config_.threads);
        WaitGraphBuilder builder(*corpus_, config_.waitGraph);
        for (const ShardRecord &shard : shards_) {
            // Keyed by the shard's *chain* digest: a shard's graphs
            // depend on the merged corpus' stream indices and interned
            // ids, which the prefix shards determine.
            Digest key = fpWaitGraph_;
            key.mix(std::string_view("waitgraphs")).mix(shard.chain);
            auto bundle = store_.waitGraphs(key, [&] {
                return builder.buildRangeParallel(
                    shard.firstInstance, shard.instanceCount, threads);
            });
            graphs_.insert(graphs_.end(), bundle->begin(),
                           bundle->end());
        }
        graphsShards_ = shards_.size();
    }
    return graphs_;
}

ImpactResult
Analyzer::impactAll() const
{
    return ImpactAnalysis(*corpus_, components_)
        .analyze(graphs(), config_.threads);
}

std::unordered_map<std::uint32_t, ImpactResult>
Analyzer::impactPerScenario() const
{
    return ImpactAnalysis(*corpus_, components_)
        .analyzePerScenario(graphs(), config_.threads);
}

ContrastClasses
Analyzer::classify(std::uint32_t scenario, DurationNs t_fast,
                   DurationNs t_slow) const
{
    TL_ASSERT(t_fast > 0 && t_slow > t_fast, "bad thresholds");
    ContrastClasses result;
    // T_fast/T_slow classification as a sweep over the instance
    // columns — two small arrays instead of the full records.
    const auto scenarios = corpus_->instanceScenarios();
    const auto durations = corpus_->instanceDurations();
    for (std::uint32_t i = 0; i < scenarios.size(); ++i) {
        if (scenarios[i] != scenario)
            continue;
        const DurationNs duration = durations[i];
        if (duration < t_fast)
            result.fast.push_back(i);
        else if (duration > t_slow)
            result.slow.push_back(i);
        else
            result.middle.push_back(i);
    }
    return result;
}

ScenarioPartial
Analyzer::contrastPartial(const ContrastClasses &classes,
                          unsigned threads) const
{
    ScenarioPartial partial;
    partial.classes.fast = classes.fast.size();
    partial.classes.middle = classes.middle.size();
    partial.classes.slow = classes.slow.size();
    for (std::uint32_t i : classes.slow)
        partial.classes.slowDuration +=
            corpus_->instances()[i].duration();

    auto gather = [&](const std::vector<std::uint32_t> &indices) {
        return gatherGraphs(graphs(), indices);
    };

    ImpactAnalysis impact(*corpus_, components_);
    partial.slowImpact =
        impact.analyzePartial(gather(classes.slow), threads);

    AwgBuilder builder(*corpus_, components_, config_.awg);
    partial.awgFast =
        builder.aggregatePartial(gather(classes.fast), threads);
    partial.awgSlow =
        builder.aggregatePartial(gather(classes.slow), threads);
    return partial;
}

ScenarioPartial
Analyzer::scenarioPartial(std::string_view name, DurationNs t_fast,
                          DurationNs t_slow) const
{
    Span span("analyzer.scenario-partial", "analysis");
    if (span.active())
        span.arg("scenario", std::string(name));

    // A scenario absent here yields empty partials, still mergeable.
    const std::uint32_t scenario = corpus_->findScenario(name);
    ScenarioPartial partial =
        scenario == UINT32_MAX
            ? ScenarioPartial{}
            : contrastPartial(classify(scenario, t_fast, t_slow),
                              config_.threads);

    partial.streamCount =
        static_cast<std::uint32_t>(corpus_->streamCount());
    const SymbolTable &symbols = corpus_->symbols();
    partial.frames.reserve(symbols.frameCount());
    for (FrameId f = 0; f < symbols.frameCount(); ++f)
        partial.frames.push_back(symbols.frameName(f));
    return partial;
}

ImpactPartial
Analyzer::impactPartial() const
{
    Span span("analyzer.impact-partial", "analysis");

    ImpactPartial partial;
    partial.streamCount =
        static_cast<std::uint32_t>(corpus_->streamCount());
    ImpactAnalysis impact(*corpus_, components_);
    partial.all = impact.analyzePartial(graphs(), config_.threads);
    for (auto &[scenario, accumulator] :
         impact.analyzePerScenarioPartial(graphs(), config_.threads)) {
        partial.perScenario.emplace_back(
            corpus_->scenarioName(scenario), std::move(accumulator));
    }
    return partial;
}

ScenarioAnalysis
Analyzer::analyzeScenario(std::string_view name, DurationNs t_fast,
                          DurationNs t_slow) const
{
    return analyzeScenarioWithThreads(name, t_fast, t_slow,
                                      config_.threads);
}

std::vector<ScenarioAnalysis>
Analyzer::analyzeScenarios(
    std::span<const ScenarioThresholds> scenarios) const
{
    graphs(); // build once, up front, across all configured threads
    // Scenario analyses are independent; fan them out and keep each
    // one's inner stages serial so the machine is not oversubscribed.
    return parallelMap<ScenarioAnalysis>(
        config_.threads, scenarios.size(), [&](std::size_t i) {
            return analyzeScenarioWithThreads(
                scenarios[i].name, scenarios[i].tFast,
                scenarios[i].tSlow, 1);
        });
}

ScenarioAnalysis
Analyzer::analyzeScenarioWithThreads(std::string_view name,
                                     DurationNs t_fast,
                                     DurationNs t_slow,
                                     unsigned threads) const
{
    Span span("analyzer.scenario", "analysis");
    if (span.active())
        span.arg("scenario", std::string(name));

    const std::uint32_t scenario = corpus_->findScenario(name);
    if (scenario == UINT32_MAX)
        TL_FATAL("scenario '", std::string(name), "' not in corpus");

    ScenarioAnalysis analysis;
    analysis.name = std::string(name);
    analysis.tFast = t_fast;
    analysis.tSlow = t_slow;
    analysis.classes = classify(scenario, t_fast, t_slow);

    // The partials of the whole corpus, finalized in place: exactly
    // ImpactAnalysis::analyze and AwgBuilder::aggregate, with no fold.
    ScenarioPartial partial = contrastPartial(analysis.classes, threads);
    analysis.slowImpact = partial.slowImpact.finalize();
    analysis.slowDuration = partial.classes.slowDuration;
    analysis.awgFast =
        partial.awgFast.finalize(config_.awg.reduceNonOptimizable);
    analysis.awgSlow =
        partial.awgSlow.finalize(config_.awg.reduceNonOptimizable);

    MiningOptions mining_options;
    mining_options.maxSegmentLength = config_.maxSegmentLength;
    mining_options.tFast = t_fast;
    mining_options.tSlow = t_slow;
    mining_options.useMetaPatternGate = config_.useMetaPatternGate;
    analysis.mining = ContrastMiner(*corpus_, mining_options)
                          .mine(analysis.awgFast, analysis.awgSlow,
                                threads);

    // RQ1 denominator: the total driver cost as aggregated — the kept
    // graph plus the non-optimizable portion removed by ReduceAWG
    // (Section 5.2.2 accounts exactly this way).
    analysis.coverage = computeCoverage(
        analysis.mining,
        analysis.awgSlow.reducedCost() + analysis.awgSlow.totalRootCost(),
        t_slow);

    return analysis;
}

} // namespace tracelens
