/**
 * @file
 * In-process pipeline for the benchmark: see replay.h.
 */

#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "perfbench/src/support.h"
#include "src/core/report.h"
#include "src/core/resultjson.h"
#include "src/impact/breakdown.h"
#include "src/mining/knowledge.h"
#include "src/trace/serialize.h"
#include "src/trace/validate.h"
#include "src/util/table.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace perfbench
{

using namespace tracelens;

// ------------------------------------------------------------ corpora

CorpusFiles
writeCorpus(const std::string &dir, std::uint32_t machines,
            std::size_t shards, std::uint64_t seed)
{
    CorpusSpec spec;
    spec.seed = seed;
    spec.machines = machines;
    const std::vector<TraceCorpus> parts =
        generateShardedCorpus(spec, shards);
    CorpusFiles files;
    files.dir = dir;
    files.machines = machines;
    std::filesystem::create_directories(dir);
    for (std::size_t i = 0; i < parts.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "/shard-%03zu.tlc", i);
        const std::string path = dir + name;
        writeCorpusFile(parts[i], path);
        files.paths.push_back(path);
        files.bytes += std::filesystem::file_size(path);
        files.events += parts[i].totalEvents();
        files.instances += parts[i].instances().size();
    }
    return files;
}

Decoded
decode(const std::string &dir)
{
    Span span("trace.decode", "trace.decode_ms");
    Expected<std::unique_ptr<TraceSource>> source = openSource(dir);
    if (!source)
        fail("cannot open corpus " + dir + ": " + source.error().render());
    Decoded decoded;
    for (std::size_t i = 0; i < source.value()->shardCount(); ++i) {
        Expected<CorpusPtr> shard = source.value()->shard(i);
        if (!shard)
            fail("corrupt shard: " + shard.error().render());
        decoded.paths.push_back(source.value()->shardPath(i));
        decoded.shards.push_back(std::move(shard.value()));
    }
    decoded.bytes = source.value()->stats().ingestBytes;
    return decoded;
}

PreloadedSource::PreloadedSource(const Decoded &decoded)
    : decoded_(decoded)
{
    stats_.shards = decoded.shards.size();
    stats_.loadedShards = decoded.shards.size();
    stats_.ingestBytes = decoded.bytes;
}

std::string
PreloadedSource::describe() const
{
    return "preloaded (" + std::to_string(decoded_.shards.size()) +
           " shards)";
}

std::size_t
PreloadedSource::shardCount() const
{
    return decoded_.shards.size();
}

const std::string &
PreloadedSource::shardPath(std::size_t shard) const
{
    return decoded_.paths.at(shard);
}

Expected<ShardSummary>
PreloadedSource::summarize(std::size_t)
{
    fail("PreloadedSource::summarize is not used by the analyzer");
}

Expected<CorpusPtr>
PreloadedSource::shard(std::size_t shard)
{
    return decoded_.shards.at(shard);
}

const TraceCorpus &
PreloadedSource::corpus()
{
    fail("PreloadedSource::corpus is not used by the analyzer");
}

const IngestStats &
PreloadedSource::stats() const
{
    return stats_;
}

Warm
warmUp(const std::string &dir, unsigned threads)
{
    Warm warm;
    warm.decoded = decode(dir);
    warm.source = std::make_unique<PreloadedSource>(warm.decoded);
    AnalyzerConfig config;
    config.threads = threads;
    Span span("core.ingest", "core.ingest_ms");
    warm.analyzer = std::make_unique<Analyzer>(*warm.source, config);
    return warm;
}

// ------------------------------------------------------------ queries

namespace
{

const ScenarioSpec &
catalogSpec(const std::string &name)
{
    for (const ScenarioSpec &spec : scenarioCatalog())
        if (spec.name == name)
            return spec;
    fail("scenario " + name + " is not in the catalog");
}

double
roundMs(double ms)
{
    return std::round(ms * 1000.0) / 1000.0;
}

} // namespace

JsonValue
Query::params(const std::string &corpus) const
{
    using server::Method;
    switch (method) {
    case Method::Analyze: {
        server::AnalyzeRequest request;
        request.corpus = corpus;
        request.scenario = scenario;
        request.tfastMs = tfastMs;
        request.tslowMs = tslowMs;
        return request.toParams();
    }
    case Method::Mine: {
        server::MineRequest request;
        request.corpus = corpus;
        request.scenario = scenario;
        request.tfastMs = tfastMs;
        request.tslowMs = tslowMs;
        return request.toParams();
    }
    default: {
        server::ImpactRequest request;
        request.corpus = corpus;
        return request.toParams();
    }
    }
}

std::string
Query::key() const
{
    return std::string(server::methodName(method)) + "|" + scenario +
           "|" + formatNumber(tfastMs) + "|" + formatNumber(tslowMs);
}

const char *
Query::kindName(Kind kind)
{
    switch (kind) {
    case Kind::AnalyzeFresh:
        return "analyze_fresh";
    case Kind::AnalyzeRepeat:
        return "analyze_repeat";
    case Kind::Mine:
        return "mine";
    case Kind::Impact:
        return "impact";
    }
    return "?";
}

Query
catalogQuery(const std::string &scenario)
{
    const ScenarioSpec &spec = catalogSpec(scenario);
    Query query;
    query.kind = Query::Kind::AnalyzeFresh;
    query.method = server::Method::Analyze;
    query.scenario = scenario;
    query.tfastMs = toMs(spec.tFast);
    query.tslowMs = toMs(spec.tSlow);
    return query;
}

ScenarioDurations
scenarioDurations(const TraceCorpus &corpus,
                  const std::vector<std::string> &scenarios)
{
    ScenarioDurations out;
    const auto ids = corpus.instanceScenarios();
    const auto durations = corpus.instanceDurations();
    for (const std::string &name : scenarios) {
        const std::uint32_t id = corpus.findScenario(name);
        std::vector<double> &ms = out[name];
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] == id)
                ms.push_back(toMs(durations[i]));
        std::sort(ms.begin(), ms.end());
        if (ms.size() < 2)
            fail("scenario " + name + " has fewer than 2 instances");
    }
    return out;
}

namespace
{

/** The duration at quantile @p q of @p sorted, interpolated. */
double
quantileMs(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < sorted.size()
               ? sorted[i] + frac * (sorted[i + 1] - sorted[i])
               : sorted.back();
}

/**
 * analyze/mine of @p scenario whose thresholds sit at duration
 * quantiles chosen by @p u, @p v in [0,1): the fast class takes the
 * fastest 15-45% of instances, the slow class the slowest 10-30%.
 */
Query
quantileQuery(Query::Kind kind, const std::string &scenario,
              const ScenarioDurations &durations, double u, double v)
{
    Query query;
    query.kind = kind;
    query.method = kind == Query::Kind::Mine ? server::Method::Mine
                                             : server::Method::Analyze;
    query.scenario = scenario;
    const std::vector<double> &sorted = durations.at(scenario);
    query.tfastMs = roundMs(quantileMs(sorted, 0.15 + 0.3 * u));
    query.tslowMs = roundMs(quantileMs(sorted, 0.7 + 0.2 * v));
    if (query.tslowMs <= query.tfastMs)
        query.tslowMs = query.tfastMs + 0.001;
    return query;
}

} // namespace

Query
freshQuery(Rng &rng, Query::Kind kind, const ScenarioDurations &durations)
{
    auto it = durations.begin();
    std::advance(it, rng.uniformInt(
                         0, static_cast<std::int64_t>(durations.size()) - 1));
    const double u = rng.uniform();
    return quantileQuery(kind, it->first, durations, u, rng.uniform());
}

std::vector<Query>
queryStream(std::uint64_t seed, std::size_t count,
            const ScenarioDurations &durations)
{
    // Every block of 20 holds 10 fresh analyzes, 5 repeats, 4 fresh
    // mines and 1 impact in a seeded order. Scenarios go round robin
    // and threshold quantiles follow golden-ratio sequences from
    // seeded starts, so every seed sends the same mix and class sizes,
    // and runs on different seeds differ in corpus and order.
    constexpr std::size_t kRepeatDistance = 8; // its answer is cached
    constexpr double kGolden = 0.6180339887498949;
    const std::vector<Query::Kind> block = [] {
        std::vector<Query::Kind> kinds;
        kinds.insert(kinds.end(), 10, Query::Kind::AnalyzeFresh);
        kinds.insert(kinds.end(), 5, Query::Kind::AnalyzeRepeat);
        kinds.insert(kinds.end(), 4, Query::Kind::Mine);
        kinds.insert(kinds.end(), 1, Query::Kind::Impact);
        return kinds;
    }();
    std::vector<std::string> scenarios;
    for (const auto &[name, ms] : durations)
        scenarios.push_back(name);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    double u = rng.uniform(), v = rng.uniform();
    std::size_t nextScenario =
        static_cast<std::size_t>(rng.uniformInt(0, 1 << 20));
    std::vector<Query> stream;
    std::vector<std::size_t> fresh;
    stream.reserve(count);
    std::vector<Query::Kind> order;
    for (std::size_t i = 0; i < count; ++i) {
        if (order.empty()) {
            order = block;
            for (std::size_t k = order.size(); k > 1; --k)
                std::swap(order[k - 1],
                          order[static_cast<std::size_t>(rng.uniformInt(
                              0, static_cast<std::int64_t>(k) - 1))]);
        }
        Query::Kind kind = order.back();
        order.pop_back();
        const std::size_t eligible = static_cast<std::size_t>(
            std::upper_bound(fresh.begin(), fresh.end(),
                             i >= kRepeatDistance ? i - kRepeatDistance
                                                  : 0) -
            fresh.begin());
        if (kind == Query::Kind::AnalyzeRepeat &&
            (i < kRepeatDistance || eligible == 0))
            kind = Query::Kind::AnalyzeFresh;
        if (kind == Query::Kind::AnalyzeRepeat) {
            Query repeat = stream[fresh[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(eligible) -
                                      1))]];
            repeat.kind = kind;
            stream.push_back(repeat);
        } else if (kind == Query::Kind::Impact) {
            stream.push_back(Query{});
        } else {
            u += kGolden - static_cast<double>(u + kGolden >= 1.0);
            v += kGolden * kGolden -
                 static_cast<double>(v + kGolden * kGolden >= 1.0);
            fresh.push_back(i);
            stream.push_back(quantileQuery(
                kind, scenarios[nextScenario++ % scenarios.size()],
                durations, u, v));
        }
    }
    return stream;
}

std::vector<ScenarioThresholds>
presentScenarios(const TraceCorpus &corpus)
{
    std::vector<ScenarioThresholds> out;
    for (const ScenarioSpec &spec : scenarioCatalog())
        if (spec.selected && corpus.findScenario(spec.name) != UINT32_MAX)
            out.push_back({spec.name, spec.tFast, spec.tSlow});
    return out;
}

// ------------------------------------------------- reference answers

JsonValue
analyzeAnswer(const TraceCorpus &corpus, const std::string &scenario,
              DurationNs tFast, DurationNs tSlow,
              const ContrastClasses &classes,
              const ImpactResult &slowImpact, double driverCostShare,
              const CoverageResult &coverage, const MiningResult &mining)
{
    constexpr std::size_t kTop = 5; // the daemon's default "top"
    const FilteredMiningResult filtered =
        KnowledgeBase::defaults().apply(mining, corpus.symbols());
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("tfast_ms", JsonValue(toMs(tFast)));
    result.set("tslow_ms", JsonValue(toMs(tSlow)));
    JsonValue counts = JsonValue::makeObject();
    counts.set("fast", JsonValue(classes.fast.size()));
    counts.set("middle", JsonValue(classes.middle.size()));
    counts.set("slow", JsonValue(classes.slow.size()));
    result.set("classes", std::move(counts));
    result.set("slow_impact", impactJson(slowImpact));
    result.set("driver_cost_share", JsonValue(driverCostShare));
    result.set("coverage", JsonValue(coverage.render()));
    result.set("mining_stats", JsonValue(mining.stats.render()));
    result.set("suppressed", JsonValue(filtered.suppressed.size()));
    JsonValue list = JsonValue::makeArray();
    for (std::size_t i = 0; i < std::min(kTop, filtered.kept.size()); ++i)
        list.push(patternJson(filtered.kept[i], tSlow, corpus.symbols(),
                              i + 1));
    result.set("patterns", std::move(list));
    return result;
}

namespace
{

/** The `mine` result object, as Server::handleMine builds it. */
JsonValue
mineAnswer(const TraceCorpus &corpus, const std::string &scenario,
           DurationNs tSlow, const CoverageResult &coverage,
           const MiningResult &mining)
{
    constexpr std::size_t kMaxPatterns = 100; // the daemon's default
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("mining_stats", JsonValue(mining.stats.render()));
    result.set("coverage", JsonValue(coverage.render()));
    JsonValue list = JsonValue::makeArray();
    for (std::size_t i = 0;
         i < std::min(kMaxPatterns, mining.patterns.size()); ++i)
        list.push(patternJson(mining.patterns[i], tSlow, corpus.symbols(),
                              i + 1));
    result.set("patterns", std::move(list));
    result.set("total_patterns", JsonValue(mining.patterns.size()));
    return result;
}

/** The `impact` result object, as Server::handleImpact builds it. */
JsonValue
impactAnswer(const Analyzer &analyzer, const ImpactResult &all,
             const std::unordered_map<std::uint32_t, ImpactResult> &each)
{
    JsonValue result = JsonValue::makeObject();
    JsonValue components = JsonValue::makeArray();
    for (const std::string &glob : analyzer.components().patterns())
        components.push(JsonValue(glob));
    result.set("components", std::move(components));
    result.set("all", impactJson(all));
    JsonValue perScenario = JsonValue::makeObject();
    for (const auto &[id, impact] : each)
        perScenario.set(analyzer.corpus().scenarioName(id),
                        impactJson(impact));
    result.set("per_scenario", std::move(perScenario));
    return result;
}

} // namespace

std::string
referenceAnswer(const Analyzer &analyzer, const Query &query)
{
    if (query.method == server::Method::Impact)
        return impactAnswer(analyzer, analyzer.impactAll(),
                            analyzer.impactPerScenario())
            .render();
    const DurationNs tFast = fromMs(query.tfastMs);
    const DurationNs tSlow = fromMs(query.tslowMs);
    const ScenarioAnalysis a =
        analyzer.analyzeScenario(query.scenario, tFast, tSlow);
    if (query.method == server::Method::Mine)
        return mineAnswer(analyzer.corpus(), query.scenario, tSlow,
                          a.coverage, a.mining)
            .render();
    return analyzeAnswer(analyzer.corpus(), query.scenario, tFast, tSlow,
                         a.classes, a.slowImpact, a.driverCostShare(),
                         a.coverage, a.mining)
        .render();
}

// ----------------------------------------------------- traced replays

namespace
{

/** One scenario's causality analysis, stage by stage. */
struct Stages
{
    ContrastClasses classes;
    ImpactResult slowImpact;
    DurationNs slowDuration = 0;
    AggregatedWaitGraph awgFast;
    AggregatedWaitGraph awgSlow;
    MiningResult mining;
    CoverageResult coverage;

    double
    driverCostShare() const
    {
        return slowDuration == 0
                   ? 0.0
                   : static_cast<double>(slowImpact.dWait +
                                         slowImpact.dRun) /
                         static_cast<double>(slowDuration);
    }
};

/** Analyzer::analyzeScenario's stages through the layer functions. */
Stages
runStages(const Analyzer &analyzer, const std::vector<WaitGraph> &graphs,
          const std::string &scenario, DurationNs tFast, DurationNs tSlow,
          unsigned threads, LayerCounts *counts)
{
    const TraceCorpus &corpus = analyzer.corpus();
    const AnalyzerConfig &config = analyzer.config();
    Stages s;
    {
        Span span("core.classes", "core.classes_ms");
        s.classes =
            analyzer.classify(corpus.findScenario(scenario), tFast, tSlow);
    }
    auto subset = [&](const std::vector<std::uint32_t> &indices) {
        std::vector<WaitGraph> out;
        out.reserve(indices.size());
        for (std::uint32_t i : indices)
            out.push_back(graphs[i]);
        return out;
    };
    const std::vector<WaitGraph> fast = subset(s.classes.fast);
    const std::vector<WaitGraph> slow = subset(s.classes.slow);
    {
        Span span("impact.slow-class", "impact.ms");
        s.slowImpact = ImpactAnalysis(corpus, analyzer.components())
                           .analyze(slow, threads);
    }
    for (std::uint32_t i : s.classes.slow)
        s.slowDuration += corpus.instances()[i].duration();
    {
        Span span("awg.aggregate", "awg.aggregate_ms");
        const AwgBuilder builder(corpus, analyzer.components(), config.awg);
        s.awgFast = builder.aggregate(fast, threads);
        s.awgSlow = builder.aggregate(slow, threads);
    }
    {
        Span span("mining.mine", "mining.mine_ms");
        MiningOptions options;
        options.maxSegmentLength = config.maxSegmentLength;
        options.tFast = tFast;
        options.tSlow = tSlow;
        options.useMetaPatternGate = config.useMetaPatternGate;
        s.mining = ContrastMiner(corpus, options)
                       .mine(s.awgFast, s.awgSlow, threads);
        s.coverage = computeCoverage(
            s.mining, s.awgSlow.reducedCost() + s.awgSlow.totalRootCost(),
            tSlow);
    }
    if (counts != nullptr) {
        counts->awgNodes += static_cast<double>(s.awgFast.nodes().size() +
                                                s.awgSlow.nodes().size());
        counts->patterns += static_cast<double>(s.mining.patterns.size());
        counts->selectedPaths +=
            static_cast<double>(s.mining.stats.selectedPaths);
        counts->fullPaths += static_cast<double>(s.mining.stats.fullPaths);
    }
    return s;
}

void
countGraphs(const std::vector<WaitGraph> &graphs, LayerCounts *counts)
{
    if (counts == nullptr)
        return;
    counts->graphs += static_cast<double>(graphs.size());
    for (const WaitGraph &g : graphs)
        counts->graphNodes += static_cast<double>(g.size());
}

} // namespace

std::vector<WaitGraph>
buildGraphs(const Analyzer &analyzer, unsigned threads, const char *metric)
{
    Span span("waitgraph.build-range", metric);
    const TraceCorpus &corpus = analyzer.corpus();
    return WaitGraphBuilder(corpus, analyzer.config().waitGraph)
        .buildRangeParallel(
            0, static_cast<std::uint32_t>(corpus.instances().size()),
            threads);
}

std::string
replayQuery(const Analyzer &analyzer, const std::vector<WaitGraph> &graphs,
            const Query &query, unsigned threads, std::uint64_t queryId,
            LayerCounts *counts)
{
    const std::string root = std::string("replay.") +
                             Query::kindName(query.kind);
    Span span(root.c_str(), "", queryId);
    if (query.method == server::Method::Impact) {
        ImpactResult all;
        std::unordered_map<std::uint32_t, ImpactResult> each;
        {
            Span impact("impact.corpus-wide", "impact.ms");
            const ImpactAnalysis analysis(analyzer.corpus(),
                                          analyzer.components());
            all = analysis.analyze(graphs, threads);
            each = analysis.analyzePerScenario(graphs, threads);
        }
        Span render("core.render", "core.render_ms");
        return impactAnswer(analyzer, all, each).render();
    }
    const DurationNs tFast = fromMs(query.tfastMs);
    const DurationNs tSlow = fromMs(query.tslowMs);
    const Stages s = runStages(analyzer, graphs, query.scenario, tFast,
                               tSlow, threads, counts);
    Span render("core.render", "core.render_ms");
    if (query.method == server::Method::Mine)
        return mineAnswer(analyzer.corpus(), query.scenario, tSlow,
                          s.coverage, s.mining)
            .render();
    return analyzeAnswer(analyzer.corpus(), query.scenario, tFast, tSlow,
                         s.classes, s.slowImpact, s.driverCostShare(),
                         s.coverage, s.mining)
        .render();
}

std::string
replayReport(const std::string &dir, unsigned threads,
             std::uint64_t iteration, LayerCounts *counts)
{
    Span root("replay.report", "", iteration);
    const Warm warm = warmUp(dir, threads);
    const Analyzer &analyzer = *warm.analyzer;
    const TraceCorpus &corpus = analyzer.corpus();
    const std::vector<WaitGraph> graphs = buildGraphs(analyzer, threads);
    countGraphs(graphs, counts);

    std::string validation;
    {
        Span span("trace.validate", "trace.validate_ms");
        validation = validateCorpus(corpus).render();
    }
    ImpactResult all;
    std::vector<ComponentImpact> byComponent;
    {
        Span span("impact.corpus-wide", "impact.ms");
        all = ImpactAnalysis(corpus, analyzer.components())
                  .analyze(graphs, threads);
        byComponent =
            impactByComponent(corpus, graphs, analyzer.components());
    }
    const std::vector<ScenarioThresholds> scenarios =
        presentScenarios(corpus);
    std::vector<Stages> stages;
    for (const ScenarioThresholds &t : scenarios)
        stages.push_back(runStages(analyzer, graphs, t.name, t.tFast,
                                   t.tSlow, threads, counts));
    std::vector<FilteredMiningResult> filtered;
    {
        Span span("mining.knowledge-filter", "mining.mine_ms");
        const KnowledgeBase knowledge = KnowledgeBase::defaults();
        for (const Stages &s : stages)
            filtered.push_back(knowledge.apply(s.mining, corpus.symbols()));
    }

    // The text render mirrors buildReport (src/core/report.cpp).
    Span span("core.render", "core.render_ms");
    const ReportOptions options;
    std::ostringstream oss;
    oss << "==================== TraceLens report ===================\n";
    oss << "corpus: " << corpus.streamCount() << " streams, "
        << corpus.instances().size() << " scenario instances, "
        << corpus.totalEvents() << " events\n";
    oss << "validation: " << validation << "\n";
    oss << "components: ";
    for (const auto &p : analyzer.components().patterns())
        oss << p << " ";
    oss << "\n\n";
    oss << "---- impact analysis (all scenarios) ----\n";
    oss << all.render() << "\n\n";
    oss << "---- impact by component ----\n";
    TextTable table({"Component", "Wait", "Run", "Waits"});
    for (std::size_t i = 0;
         i < std::min(options.topComponents, byComponent.size()); ++i) {
        const ComponentImpact &c = byComponent[i];
        table.addRow({c.component, TextTable::ms(toMs(c.wait)),
                      TextTable::ms(toMs(c.run)),
                      std::to_string(c.waitEvents)});
    }
    oss << table.render() << "\n";
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        const ScenarioThresholds &t = scenarios[k];
        const Stages &s = stages[k];
        oss << "---- scenario " << t.name << " (T_fast=" << toMs(t.tFast)
            << "ms, T_slow=" << toMs(t.tSlow) << "ms) ----\n";
        oss << "classes: " << s.classes.fast.size() << " fast / "
            << s.classes.middle.size() << " middle / "
            << s.classes.slow.size() << " slow\n";
        oss << "slow-class impact: " << s.slowImpact.render() << "\n";
        oss << "coverage: " << s.coverage.render() << "\n";
        const DurationNs reduced = s.awgSlow.reducedCost();
        const DurationNs kept = s.awgSlow.totalRootCost();
        oss << "non-optimizable (direct hardware) share: "
            << TextTable::pct(reduced + kept == 0
                                  ? 0.0
                                  : static_cast<double>(reduced) /
                                        static_cast<double>(reduced +
                                                            kept))
            << "\n";
        if (!filtered[k].suppressed.empty()) {
            oss << filtered[k].suppressed.size()
                << " pattern(s) suppressed as by-design ("
                << filtered[k].suppressed.front().reason << ")\n";
        }
        const std::vector<ContrastPattern> &patterns = filtered[k].kept;
        for (std::size_t i = 0;
             i < std::min(options.topPatterns, patterns.size()); ++i) {
            const ContrastPattern &p = patterns[i];
            oss << "#" << i + 1 << " impact="
                << toMs(static_cast<DurationNs>(p.impact()))
                << "ms N=" << p.count
                << (p.highImpact(t.tSlow) ? " [high-impact]" : "") << "\n"
                << p.tuple.render(corpus.symbols());
        }
        oss << "\n";
    }
    return oss.str();
}

std::string
referenceReport(const std::string &dir, unsigned threads,
                PipelineStats *stats)
{
    Expected<std::unique_ptr<TraceSource>> source = openSource(dir);
    if (!source)
        fail("cannot open corpus " + dir + ": " + source.error().render());
    AnalyzerConfig config;
    config.threads = threads;
    const Analyzer analyzer(*source.value(), config);
    const std::vector<ScenarioThresholds> scenarios =
        presentScenarios(analyzer.corpus());
    std::string text = buildReport(analyzer, scenarios);
    if (stats != nullptr)
        *stats = analyzer.pipelineStats();
    return text;
}

} // namespace perfbench
