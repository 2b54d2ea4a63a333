/**
 * @file
 * The finalize-and-render path for folded partial results (see
 * src/core/resultjson.h for the byte-identity contract).
 */

#include "src/core/resultjson.h"

#include <algorithm>

#include "src/core/analyzer.h"
#include "src/mining/knowledge.h"

namespace tracelens
{

JsonValue
impactJson(const ImpactResult &impact)
{
    JsonValue out = JsonValue::makeObject();
    out.set("instances", JsonValue(impact.instances));
    out.set("d_scn_ms", JsonValue(toMs(impact.dScn)));
    out.set("d_wait_ms", JsonValue(toMs(impact.dWait)));
    out.set("d_run_ms", JsonValue(toMs(impact.dRun)));
    out.set("d_waitdist_ms", JsonValue(toMs(impact.dWaitDist)));
    out.set("ia_run", JsonValue(impact.iaRun()));
    out.set("ia_wait", JsonValue(impact.iaWait()));
    out.set("ia_opt", JsonValue(impact.iaOpt()));
    return out;
}

JsonValue
patternJson(const ContrastPattern &pattern, DurationNs tSlow,
            const SymbolTable &symbols, std::size_t rank)
{
    JsonValue out = JsonValue::makeObject();
    out.set("rank", JsonValue(rank));
    out.set("impact_ms",
            JsonValue(toMs(static_cast<DurationNs>(pattern.impact()))));
    out.set("count", JsonValue(pattern.count));
    out.set("high_impact", JsonValue(pattern.highImpact(tSlow)));
    out.set("tuple", JsonValue(pattern.tuple.renderCompact(symbols)));
    return out;
}

namespace
{

/**
 * Mine two finalized AWGs exactly as a single-node analyzer would
 * (AnalyzerConfig mining defaults; the miner reads only the AWGs) and
 * compute RQ1 coverage, whose denominator is the total driver cost as
 * aggregated: the kept slow graph plus the non-optimizable portion
 * ReduceAWG removed (Section 5.2.2).
 */
ScenarioSummary
mineScenario(const AggregatedWaitGraph &fast,
             const AggregatedWaitGraph &slow, DurationNs tFast,
             DurationNs tSlow, unsigned threads)
{
    const AnalyzerConfig defaults;
    MiningOptions options;
    options.maxSegmentLength = defaults.maxSegmentLength;
    options.tFast = tFast;
    options.tSlow = tSlow;
    options.useMetaPatternGate = defaults.useMetaPatternGate;
    const TraceCorpus dummy;
    ScenarioSummary mined;
    mined.mining = ContrastMiner(dummy, options).mine(fast, slow, threads);
    mined.coverage = computeCoverage(
        mined.mining, slow.reducedCost() + slow.totalRootCost(), tSlow);
    return mined;
}

JsonValue
patternList(const std::vector<ContrastPattern> &patterns,
            std::size_t limit, DurationNs tSlow,
            const SymbolTable &symbols)
{
    JsonValue list = JsonValue::makeArray();
    for (std::size_t i = 0; i < std::min(limit, patterns.size()); ++i)
        list.push(patternJson(patterns[i], tSlow, symbols, i + 1));
    return list;
}

} // namespace

ScenarioSummary
summarizeScenario(const std::string &scenario, DurationNs tFast,
                  DurationNs tSlow, const PartialClasses &classes,
                  const ImpactResult &slowImpact,
                  const AggregatedWaitGraph &awgFast,
                  const AggregatedWaitGraph &awgSlow,
                  const SymbolTable &symbols, std::size_t top,
                  bool applyKnowledgeFilter, unsigned threads)
{
    ScenarioSummary summary =
        mineScenario(awgFast, awgSlow, tFast, tSlow, threads);

    std::vector<ContrastPattern> patterns = summary.mining.patterns;
    std::size_t suppressed = 0;
    if (applyKnowledgeFilter) {
        const auto filtered =
            KnowledgeBase::defaults().apply(summary.mining, symbols);
        suppressed = filtered.suppressed.size();
        patterns = filtered.kept;
    }

    summary.driverCostShare =
        classes.slowDuration == 0
            ? 0.0
            : static_cast<double>(slowImpact.dWait + slowImpact.dRun) /
                  static_cast<double>(classes.slowDuration);

    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("tfast_ms", JsonValue(toMs(tFast)));
    result.set("tslow_ms", JsonValue(toMs(tSlow)));
    JsonValue classesJson = JsonValue::makeObject();
    classesJson.set("fast", JsonValue(classes.fast));
    classesJson.set("middle", JsonValue(classes.middle));
    classesJson.set("slow", JsonValue(classes.slow));
    result.set("classes", std::move(classesJson));
    result.set("slow_impact", impactJson(slowImpact));
    result.set("driver_cost_share", JsonValue(summary.driverCostShare));
    result.set("coverage", JsonValue(summary.coverage.render()));
    result.set("mining_stats",
               JsonValue(summary.mining.stats.render()));
    result.set("suppressed", JsonValue(suppressed));
    result.set("patterns", patternList(patterns, top, tSlow, symbols));
    summary.json = std::move(result);
    return summary;
}

JsonValue
mineResultJson(const std::string &scenario, DurationNs tFast,
               DurationNs tSlow, const FoldedScenario &folded,
               std::size_t maxPatterns, unsigned threads)
{
    const ScenarioSummary mined = mineScenario(
        folded.awgFast, folded.awgSlow, tFast, tSlow, threads);
    const std::vector<ContrastPattern> &patterns = mined.mining.patterns;
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("mining_stats", JsonValue(mined.mining.stats.render()));
    result.set("coverage", JsonValue(mined.coverage.render()));
    result.set("patterns",
               patternList(patterns, maxPatterns, tSlow, folded.symbols));
    result.set("total_patterns", JsonValue(patterns.size()));
    return result;
}

JsonValue
impactResultJson(const std::vector<std::string> &components,
                 const FoldedImpact &impact)
{
    JsonValue result = JsonValue::makeObject();
    JsonValue componentsJson = JsonValue::makeArray();
    for (const std::string &glob : components)
        componentsJson.push(JsonValue(glob));
    result.set("components", std::move(componentsJson));
    result.set("all", impactJson(impact.all));
    JsonValue perScenario = JsonValue::makeObject();
    for (const auto &[name, scenarioImpact] : impact.perScenario)
        perScenario.set(name, impactJson(scenarioImpact));
    result.set("per_scenario", std::move(perScenario));
    return result;
}

} // namespace tracelens
