/**
 * @file
 * The one finalize-and-render path for folded partial results.
 *
 * Every `analyze`, `mine` and `impact` answer is a ScenarioFold or
 * ImpactFold (src/core/partial.h) finalized and rendered here — on a
 * single-node daemon (one in-process shard set), on a coordinator
 * (the workers' shard partials) and in fleet rolling windows (cached
 * per-shard partials). The result objects are built nowhere else, so
 * the three paths are byte-identical for the same shards by
 * construction; tests/server_test.cpp checks the renders against an
 * independent reference built from Analyzer::analyzeScenario, and
 * tests/cluster_test.cpp and tests/fleet_test.cpp check the paths
 * against each other.
 */

#ifndef TRACELENS_CORE_RESULTJSON_H
#define TRACELENS_CORE_RESULTJSON_H

#include <cstddef>
#include <string>
#include <vector>

#include "src/awg/awg.h"
#include "src/core/partial.h"
#include "src/impact/impact.h"
#include "src/mining/coverage.h"
#include "src/mining/miner.h"
#include "src/trace/symbols.h"
#include "src/util/json.h"
#include "src/util/types.h"

namespace tracelens
{

/** The `slow_impact` / `impact` JSON object shape. */
JsonValue impactJson(const ImpactResult &impact);

/** One ranked pattern entry of a `patterns` array. */
JsonValue patternJson(const ContrastPattern &pattern, DurationNs tSlow,
                      const SymbolTable &symbols, std::size_t rank);

/**
 * A scenario summary finalized from merged partial state: the mined
 * patterns plus the rendered JSON object — the exact shape `analyze`
 * returns, so callers can byte-compare across batch, coordinator,
 * and rolling-window paths.
 */
struct ScenarioSummary
{
    MiningResult mining;
    CoverageResult coverage;
    double driverCostShare = 0.0;
    JsonValue json;
};

/**
 * Finalize merged scenario partials into the canonical summary JSON:
 * mine the AWGs exactly as a single-node analyzer would (AnalyzerConfig
 * mining defaults; @p threads never changes the ranked result),
 * compute coverage, apply the knowledge filter when requested, and
 * emit the `analyze` result object (scenario, tfast_ms, tslow_ms,
 * classes, slow_impact, driver_cost_share, coverage, mining_stats,
 * suppressed, patterns).
 *
 * @p awgFast / @p awgSlow must already be finalized *reduced* graphs;
 * @p slowImpact must already be finalized. @p symbols is the merged
 * table the partial frames were interned into.
 */
ScenarioSummary
summarizeScenario(const std::string &scenario, DurationNs tFast,
                  DurationNs tSlow, const PartialClasses &classes,
                  const ImpactResult &slowImpact,
                  const AggregatedWaitGraph &awgFast,
                  const AggregatedWaitGraph &awgSlow,
                  const SymbolTable &symbols, std::size_t top,
                  bool applyKnowledgeFilter, unsigned threads = 1);

/**
 * The `mine` result object (scenario, mining_stats, coverage, the
 * first @p maxPatterns ranked patterns unfiltered, total_patterns),
 * mined from a finalized scenario fold.
 */
JsonValue mineResultJson(const std::string &scenario, DurationNs tFast,
                         DurationNs tSlow, const FoldedScenario &folded,
                         std::size_t maxPatterns, unsigned threads);

/**
 * The `impact` result object: the resolved component globs, the
 * corpus-wide metrics, and per-scenario metrics keyed by name.
 */
JsonValue impactResultJson(const std::vector<std::string> &components,
                           const FoldedImpact &impact);

} // namespace tracelens

#endif // TRACELENS_CORE_RESULTJSON_H
