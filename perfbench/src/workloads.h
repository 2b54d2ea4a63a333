/**
 * @file
 * The four benchmark workloads and the context they run in.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/support.h"

namespace perfbench
{

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test sizes: every workload in seconds. */
    bool tiny = false;
    /** Checkout root; scratch and results live under it. */
    std::string root = ".";
    std::string commit = "unknown";
};

/** What a workload run needs and fills. */
struct Context
{
    Options options;
    std::string cli;     //!< The tracelens binary built beside us.
    unsigned nproc = 1;  //!< Hardware threads of this host.
    std::string workDir; //!< Scratch directory of this run.
    std::string resultsDir;
    Result result;

    /** Set-up repetitions whose median is setup_s. */
    static constexpr int kSetupRuns = 5;

    void record(const std::string &key, tracelens::JsonValue value);
    /** Record a percentile's value, percentile and sample count. */
    void recordTail(const std::string &key, const Tail &tail);
    /**
     * Per-layer times from the traced replays: for every span metric,
     * the median over the root spans whose name starts with one of
     * @p roots (a root's own self time is core.orchestration_ms).
     */
    void layerMedians(const std::vector<std::string> &roots);
    /** Write the run's spans as Chrome trace_event JSON. */
    void writeTrace();
};

/** The end-to-end metrics every workload reports untraced. */
void setEndToEnd(Context &ctx, const Samples &setupMs,
                 const Samples &queryMs, double queriesPerSecond,
                 double peakRssMb);

/** Set every common per-layer metric to 0 (= not exercised here). */
void zeroPerLayer(Context &ctx);

/** bench.tracing_overhead_pct: traced against untraced medians. */
void setOverhead(Context &ctx, const Samples &plain, const Samples &traced);

/** core.stage_hit_ratio (hits / lookups, base recorded). */
void setStageHitRatio(Context &ctx, const tracelens::PipelineStats &stats);

/** waitgraph/awg/mining counts of one traced operation. */
void setCounts(Context &ctx, const LayerCounts &counts, double operations);

/** trace.decode_mb_per_s from @p bytes per traced decode. */
void setDecodeRate(Context &ctx, double bytes);

/** The per-layer metrics every traced run reports, with units. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/** The per-layer metrics fleet_ingest reports in addition. */
const std::vector<std::pair<std::string, std::string>> &fleetMetrics();

void runBatchReport(Context &ctx);
/** daemon_query (@p cluster false) or cluster_query. */
void runQueries(Context &ctx, bool cluster);
void runFleetIngest(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
