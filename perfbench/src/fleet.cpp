/**
 * @file
 * fleet_ingest: a continuous-mode daemon fed by an open-loop pusher of
 * small shards at a fixed rate, beside one closed-loop reader and one
 * long-polling alert watcher.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "src/core/partial.h"
#include "src/fleet/fleet.h"
#include "src/fleet/sentinel.h"
#include "src/fleet/windows.h"
#include "src/trace/serialize.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"

namespace perfbench
{

using namespace tracelens;
using server::Method;

namespace
{

/** Window width in timestamp milliseconds (timestamps are explicit). */
constexpr std::uint64_t kWindowMs = 1000;
/** Calm windows pushed during set-up: the sentinel's first baseline. */
constexpr std::uint64_t kBaselineWindows = 2;
/**
 * Shards per window and machines per shard. Smaller shards miss the
 * injected regressions, so the self-test keeps these and only pushes
 * faster for a shorter run.
 */
constexpr std::size_t kShardsPerWindow = 4;
constexpr std::uint32_t kMachinesPerShard = 8;
/** Rolling windows the daemon keeps. */
constexpr std::size_t kMaxWindows = 8;
/** Every window w with w % kRegressEvery == kRegressEvery-1 regresses. */
constexpr std::uint64_t kRegressEvery = 4;
/** The one watched scenario (the paper's motivating example). */
const char *const kScenario = "BrowserTabCreate";

struct Shard
{
    std::string name;
    std::uint64_t window = 0;
    std::uint64_t timestampMs = 0;
    std::string bytes;
    std::string base64;
};

bool
regressed(std::uint64_t window)
{
    return window % kRegressEvery == kRegressEvery - 1;
}

/**
 * @p windows windows of kShardsPerWindow shards each. A regressed window's
 * cohort has encryption everywhere and more HDDs; calm ones have none.
 */
std::vector<Shard>
generateShards(std::uint64_t seed, std::uint64_t windows)
{
    std::vector<Shard> shards;
    for (std::uint64_t w = 0; w < windows; ++w) {
        CorpusSpec spec;
        spec.seed = seed * 1000003 + w;
        spec.machines = kMachinesPerShard *
                        static_cast<std::uint32_t>(kShardsPerWindow);
        spec.encryptedFraction = regressed(w) ? 1.0 : 0.0;
        spec.hddFraction = regressed(w) ? 0.5 : 0.1;
        const std::vector<TraceCorpus> parts =
            generateShardedCorpus(spec, kShardsPerWindow);
        for (std::size_t i = 0; i < parts.size(); ++i) {
            Shard shard;
            char name[48];
            std::snprintf(name, sizeof name, "w%05llu-s%zu.tlc",
                          static_cast<unsigned long long>(w), i);
            shard.name = name;
            shard.window = w;
            shard.timestampMs = w * kWindowMs + i;
            std::ostringstream out;
            writeCorpus(parts[i], out);
            shard.bytes = out.str();
            shard.base64 = base64Encode(shard.bytes);
            shards.push_back(std::move(shard));
        }
    }
    return shards;
}

JsonValue
pushParams(const Shard &shard)
{
    server::IngestPushRequest request;
    request.name = shard.name;
    request.payloadBase64 = shard.base64;
    request.fleetRevision = fleetRevision();
    request.timestampMs = shard.timestampMs;
    return request.toParams();
}

JsonValue
summaryParams(const std::string &windows, std::size_t trailing)
{
    server::WindowSummaryRequest request;
    request.scenario = kScenario;
    request.windows = windows;
    if (trailing > 0)
        request.trailing = trailing;
    return request.toParams();
}

struct Push
{
    std::size_t shard = 0;
    double ms = 0;  //!< Scheduled send time to reply.
    double lag = 0; //!< How late the send went out.
    bool ok = false;
    bool traced = false;
    std::uint64_t alerts = 0;
    Clock::time_point due;
    std::string error;
};

struct Read
{
    bool summary = false;
    double ms = 0;
    bool ok = false;
    bool traced = false;
    std::string error;
};

struct SeenAlert
{
    std::uint64_t window = 0;
    std::string rule;
    std::string component;
    Clock::time_point seen;

    std::string
    key() const
    {
        return rule + "/" + component + "/" + std::to_string(window);
    }
};

TraceCorpus
parseShard(const Shard &shard)
{
    Expected<TraceCorpus> corpus = parseCorpus(
        std::as_bytes(std::span(shard.bytes.data(), shard.bytes.size())),
        shard.name);
    if (!corpus)
        fail("cannot parse shard " + shard.name + ": " +
             corpus.error().render());
    return std::move(corpus.value());
}

/** What the in-process replay of the pushes produced. */
struct FleetReplay
{
    std::set<std::string> alertKeys;
    LayerCounts counts;
    double bytes = 0;
};

/**
 * The first @p count shards through the fleet layer as the daemon's
 * FleetService runs them (window add, sentinel, eviction), plus the
 * reader's trailing summary, one root span "replay.push" each. The
 * wait graphs are built once more on the side to time that layer.
 */
FleetReplay
replayPushes(const std::vector<Shard> &shards, std::size_t count,
             unsigned threads)
{
    FleetWindowConfig windowConfig;
    windowConfig.windowNs = kWindowMs * 1000 * 1000;
    windowConfig.maxWindows = kMaxWindows;
    WindowedAnalyzer windows(windowConfig);
    AlertSink sink;
    SentinelConfig sentinelConfig;
    sentinelConfig.baselineWindows = kBaselineWindows;
    const Query watched = catalogQuery(kScenario);
    sentinelConfig.scenarios.push_back({kScenario, fromMs(watched.tfastMs),
                                        fromMs(watched.tslowMs)});
    RegressionSentinel sentinel(windows, sink, sentinelConfig);
    FleetReplay out;
    for (std::size_t i = 0; i < count; ++i) {
        const Shard &s = shards[i];
        Span root("replay.push", "", i);
        TraceCorpus corpus = [&] {
            Span span("trace.decode", "trace.decode_ms");
            return parseShard(s);
        }();
        out.bytes += static_cast<double>(s.bytes.size());
        {
            Span span("waitgraph.build-range", "waitgraph.build_ms");
            const std::vector<WaitGraph> graphs =
                WaitGraphBuilder(corpus).buildRangeParallel(
                    0, static_cast<std::uint32_t>(corpus.instances().size()),
                    threads);
            out.counts.graphs += static_cast<double>(graphs.size());
            for (const WaitGraph &g : graphs)
                out.counts.graphNodes += static_cast<double>(g.size());
        }
        {
            Span span("fleet.add-shard", "fleet.add_ms");
            windows.addShard(s.name, std::move(corpus),
                             s.timestampMs * 1000 * 1000);
        }
        {
            Span span("fleet.sentinel", "fleet.sentinel_ms");
            sentinel.evaluate();
        }
        windows.evictExpired();
        Span span("fleet.summary", "fleet.summary_ms");
        (void)windows.summarize(windows.trailingWindows(3), kScenario,
                                fromMs(watched.tfastMs),
                                fromMs(watched.tslowMs), 5, true);
    }
    for (const Alert &a : sink.since(0))
        out.alertKeys.insert(SeenAlert{a.window, a.rule, a.component, {}}
                                 .key());
    return out;
}

} // namespace

void
runFleetIngest(Context &ctx)
{
    const Options &opt = ctx.options;
    const double pushesPerSecond = opt.tiny ? 16 : 8;
    const std::size_t loadPushes = static_cast<std::size_t>(
        std::max(1.0, opt.seconds * pushesPerSecond));
    const std::uint64_t windows =
        kBaselineWindows + (loadPushes + kShardsPerWindow - 1) / kShardsPerWindow;
    const std::vector<Shard> shards = generateShards(opt.seed, windows);
    const std::size_t warmPushes = kBaselineWindows * kShardsPerWindow;
    const std::string nproc = std::to_string(ctx.nproc);

    JsonValue corpus = JsonValue::makeObject();
    corpus.set("shards", JsonValue(shards.size()));
    corpus.set("machines_per_shard", JsonValue(kMachinesPerShard));
    corpus.set("shards_per_window", JsonValue(kShardsPerWindow));
    corpus.set("windows", JsonValue(windows));
    corpus.set("push_rate_per_s", JsonValue(pushesPerSecond));
    ctx.record("corpus", std::move(corpus));
    ctx.record("clients", JsonValue("1 pusher (open loop), 1 reader, "
                                    "1 alert long-poll"));
    ctx.record("daemon_request_workers", JsonValue(ctx.nproc));
    ctx.record("daemon_analysis_threads", JsonValue(1));
    ctx.record("fleet_window_threads", JsonValue(ctx.nproc));

    // Set-up: a fresh daemon and spool, the calm baseline windows
    // pushed, and the reader's two queries answered once.
    Samples setup;
    Daemon daemon;
    std::string spool;
    server::Session pusher, reader, watcher;
    for (int k = 0; k < Context::kSetupRuns; ++k) {
        if (k > 0) {
            pusher.close();
            reader.close();
            daemon.stop();
        }
        spool = ctx.workDir + "/spool-" + std::to_string(k);
        std::filesystem::create_directories(spool);
        const Clock::time_point start = Clock::now();
        daemon = Daemon::start(
            ctx.cli, ctx.workDir, "fleet",
            {"--watch", spool, "--window-ms", std::to_string(kWindowMs),
             "--max-windows", std::to_string(kMaxWindows),
             "--baseline-windows",
             std::to_string(kBaselineWindows), "--watch-scenario",
             kScenario, "--workers", nproc});
        pusher = connectSession(daemon.port());
        reader = connectSession(daemon.port());
        for (std::size_t i = 0; i < warmPushes; ++i) {
            ++ctx.result.attempted;
            const CallOutcome r =
                callChecked(pusher, Method::IngestPush, pushParams(shards[i]));
            if (!r.ok)
                ctx.result.mismatch("warm-up ingest_push: " + r.error);
        }
        for (bool summary : {true, false}) {
            ++ctx.result.attempted;
            const CallOutcome r =
                summary ? callChecked(reader, Method::WindowSummary,
                                      summaryParams("current", 3))
                        : callChecked(reader, Method::Analyze,
                                      catalogQuery(kScenario).params(spool));
            if (!r.ok)
                ctx.result.mismatch("warm-up read: " + r.error);
        }
        setup.add(msSince(start));
    }
    watcher = connectSession(daemon.port());

    // Load: pushes on a fixed schedule, reads back to back, alerts
    // long-polled on their own connection.
    Tracer &tracer = Tracer::instance();
    std::vector<Push> pushes;
    std::vector<Read> reads;
    std::vector<SeenAlert> seen;
    std::atomic<bool> pushing{true};
    std::atomic<bool> watching{true};
    const Clock::time_point loadStart = Clock::now();
    std::thread pushThread([&] {
        for (std::size_t i = warmPushes; i < shards.size(); ++i) {
            Push p;
            p.shard = i;
            p.due = secondsAfter(loadStart,
                                 static_cast<double>(i - warmPushes) /
                                     pushesPerSecond);
            std::this_thread::sleep_until(p.due);
            p.traced = tracer.enabled();
            const JsonValue params = pushParams(shards[i]);
            Span root("push", "", i);
            Span rtt("server.rtt", "server.rtt");
            p.lag = msSince(p.due);
            const CallOutcome r =
                callChecked(pusher, Method::IngestPush, params);
            p.ms = msSince(p.due);
            p.ok = r.ok;
            p.error = r.error;
            if (r.ok)
                if (const JsonValue *a = r.result.find("alerts"))
                    p.alerts = static_cast<std::uint64_t>(a->asNumber());
            pushes.push_back(std::move(p));
        }
        pushing = false;
    });
    std::thread readThread([&] {
        const JsonValue summary = summaryParams("current", 3);
        const JsonValue analyze = catalogQuery(kScenario).params(spool);
        // Two summaries per analyze: the window summary is the read
        // this mode adds, the analyze is the spool's warm batch session.
        for (std::size_t n = 0; pushing; ++n) {
            const bool isSummary = n % 3 != 2;
            Read r;
            r.summary = isSummary;
            r.traced = tracer.enabled();
            Span root("read", "", reads.size());
            Span rtt("server.rtt", "server.rtt");
            const Clock::time_point start = Clock::now();
            const CallOutcome out =
                callChecked(reader,
                            isSummary ? Method::WindowSummary
                                      : Method::Analyze,
                            isSummary ? summary : analyze);
            r.ms = msSince(start);
            r.ok = out.ok;
            r.error = out.error;
            reads.push_back(std::move(r));
        }
    });
    std::thread alertThread([&] {
        std::uint64_t last = 0;
        while (watching) {
            server::AlertsRequest request;
            request.afterSeq = last;
            request.waitMs = 200;
            const CallOutcome r =
                callChecked(watcher, Method::Alerts, request.toParams());
            const Clock::time_point now = Clock::now();
            if (!r.ok) {
                ctx.result.mismatch("alerts long-poll: " + r.error);
                return;
            }
            for (const JsonValue &a : r.result.find("alerts")->asArray()) {
                const std::optional<Alert> alert = parseAlert(a);
                if (!alert)
                    continue;
                seen.push_back(
                    {alert->window, alert->rule, alert->component, now});
                last = std::max(last, alert->seq);
            }
        }
    });
    if (opt.trace) {
        for (bool on = false; pushing; on = !on) {
            tracer.setEnabled(on);
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
        }
        tracer.setEnabled(false);
    }
    pushThread.join();
    readThread.join();
    const double loadSeconds = msSince(loadStart) / 1000.0;
    // The last push's alert, if any, is already emitted; give the
    // long-poll one round to deliver it.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    watching = false;
    alertThread.join();

    // The final rolling summary, checked below against a cold batch
    // analysis of the same shards.
    ++ctx.result.attempted;
    const CallOutcome last =
        callChecked(reader, Method::WindowSummary, summaryParams("all", 0));
    double queueWaitMs = 0, ingestMs = 0, rejected = 0;
    {
        const CallOutcome stats =
            callChecked(reader, Method::Stats, JsonValue::makeObject());
        const CallOutcome metrics =
            callChecked(reader, Method::Metrics, JsonValue::makeObject());
        if (!stats.ok || !metrics.ok)
            fail("stats/metrics failed");
        rejected = stats.result.find("requests")->find("rejected")->asNumber();
        for (const auto &[name, state] :
             server::parseMetricsSnapshot(metrics.result).histograms) {
            Histogram h;
            h.mergeState(state);
            if (name == "server.queue_wait_us")
                queueWaitMs = static_cast<double>(h.percentile(0.5)) / 1e3;
            if (name == "fleet.ingest_ms")
                ingestMs = static_cast<double>(h.percentile(0.5));
        }
    }
    const double peakRss = daemon.peakRssMb();
    pusher.close();
    reader.close();
    watcher.close();
    daemon.stop();

    // Checks. Every push and read must succeed.
    for (const Push &p : pushes) {
        ++ctx.result.attempted;
        if (!p.ok)
            ctx.result.mismatch("ingest_push " + shards[p.shard].name +
                                ": " + p.error);
    }
    for (const Read &r : reads) {
        ++ctx.result.attempted;
        if (!r.ok)
            ctx.result.mismatch(std::string(r.summary ? "window_summary"
                                                      : "analyze") +
                                ": " + r.error);
    }
    // The final summary equals a cold batch analyze of its shards.
    std::string checkDir;
    if (!last.ok) {
        ctx.result.mismatch("final window_summary: " + last.error);
    } else {
        std::set<std::uint64_t> ids;
        for (const JsonValue &id : last.result.find("windows")->asArray())
            ids.insert(static_cast<std::uint64_t>(id.asNumber()));
        checkDir = ctx.workDir + "/cold-batch";
        std::filesystem::create_directories(checkDir);
        for (const Shard &s : shards) {
            if (ids.count(s.window) == 0 || s.window >= windows)
                continue;
            std::ofstream out(checkDir + "/" + s.name, std::ios::binary);
            out << s.bytes;
        }
        const Warm cold = warmUp(checkDir, 1);
        if (last.result.find("summary")->render() !=
            referenceAnswer(*cold.analyzer, catalogQuery(kScenario)))
            ctx.result.mismatch("final window_summary differs from a cold "
                                "batch analyze of its shards");
    }
    // Each alert key (rule, component, window) fires exactly once, and
    // every injected regression raises at least one alert in its window.
    std::set<std::string> alertKeys;
    std::map<std::uint64_t, std::size_t> alertsIn;
    for (const SeenAlert &a : seen) {
        ++alertsIn[a.window];
        if (!alertKeys.insert(a.key()).second)
            ctx.result.mismatch("alert fired twice: " + a.key());
    }
    std::size_t expectedAlerts = 0;
    for (const Push &p : pushes) {
        const std::uint64_t w = shards[p.shard].window;
        if (!regressed(w) || shards[p.shard].timestampMs % kWindowMs != 0)
            continue; // one check per regressed window, at its first shard
        ++expectedAlerts;
        ++ctx.result.attempted;
        if (alertsIn[w] == 0)
            ctx.result.mismatch("injected regression in window " +
                                std::to_string(w) + " raised no alert");
    }
    // Alert latency: from the due time of the push whose ingest fired
    // a regressed window's first alert to the long-poll that saw it.
    Samples alertLatency;
    std::set<std::uint64_t> timed;
    for (const Push &p : pushes) {
        const std::uint64_t w = shards[p.shard].window;
        if (p.alerts == 0 || !regressed(w) || !timed.insert(w).second)
            continue;
        for (const SeenAlert &a : seen) {
            if (a.window == w) {
                alertLatency.add(msBetween(p.due, a.seen));
                break;
            }
        }
    }

    // The same pushes through the fleet layer in process: its sentinel
    // must raise exactly the daemon's alerts.
    tracer.setEnabled(opt.trace);
    const FleetReplay replay =
        replayPushes(shards, warmPushes + pushes.size(), ctx.nproc);
    tracer.setEnabled(false);
    ++ctx.result.attempted;
    if (replay.alertKeys != alertKeys)
        ctx.result.mismatch("the in-process sentinel raised " +
                            std::to_string(replay.alertKeys.size()) +
                            " alerts, the daemon " +
                            std::to_string(alertKeys.size()));

    Samples readMs, summaryMs, analyzeMs, pushMs, lag;
    std::size_t completedReads = 0;
    for (const Read &r : reads) {
        readMs.add(r.ms);
        (r.summary ? summaryMs : analyzeMs).add(r.ms);
        completedReads += r.ok ? 1 : 0;
    }
    for (const Push &p : pushes) {
        pushMs.add(p.ms);
        lag.add(p.lag);
    }
    ctx.record("pushes", JsonValue(pushes.size()));
    ctx.record("reads", JsonValue(reads.size()));
    ctx.record("alerts_seen", JsonValue(seen.size()));
    ctx.recordTail("push_tail", pushMs.tail());
    ctx.record("alert_latency_samples", JsonValue(alertLatency.size()));
    if (!opt.trace) {
        setEndToEnd(ctx, setup, readMs,
                    static_cast<double>(completedReads) / loadSeconds,
                    peakRss);
        return;
    }

    zeroPerLayer(ctx);
    Samples plain, traced;
    for (const Read &r : reads)
        (r.traced ? traced : plain).add(r.ms);
    setOverhead(ctx, plain, traced);
    ctx.result.set("server.rtt_ms.window_summary", summaryMs.median(), "ms");
    ctx.result.set("server.rtt_ms.analyze_fresh", analyzeMs.median(), "ms");
    ctx.result.set("server.queue_wait_ms", queueWaitMs, "ms");
    ctx.result.set("server.rejected", rejected, "count");
    ctx.result.set("fleet.ingest_ms", ingestMs, "ms");
    ctx.result.set("fleet.push_p50_ms", pushMs.median(), "ms");
    ctx.result.set("fleet.push_tail_ms", pushMs.tail().value, "ms");
    ctx.result.set("fleet.generator_lag_ms", lag.max(), "ms");
    ctx.result.set("fleet.alerts_fired", static_cast<double>(seen.size()),
                   "count");
    ctx.result.set("fleet.alerts_expected",
                   static_cast<double>(expectedAlerts), "count");
    ctx.result.set("fleet.alert_latency_ms", alertLatency.median(), "ms");

    // The check's cold batch analysis through the layer functions, for
    // the stages a push does not run directly.
    if (checkDir.empty())
        fail("no final window summary to replay");
    tracer.setEnabled(true);
    Warm warm;
    std::vector<WaitGraph> graphs;
    {
        Span root("replay.cold-batch", "", 0);
        warm = warmUp(checkDir, 1);
        graphs = buildGraphs(*warm.analyzer, 1);
    }
    LayerCounts stageCounts;
    ++ctx.result.attempted;
    if (replayQuery(*warm.analyzer, graphs, catalogQuery(kScenario), 1, 0,
                    &stageCounts) != last.result.find("summary")->render())
        ctx.result.mismatch("replayed cold batch differs from the summary");
    tracer.setEnabled(false);
    setStageHitRatio(ctx, warm.analyzer->pipelineStats());
    ctx.layerMedians({"replay.cold-batch"});
    ctx.layerMedians({"replay.analyze_fresh"});
    // Per push: decode, wait graphs, sentinel, summary, orchestration.
    ctx.layerMedians({"replay.push"});
    const double pushed = static_cast<double>(warmPushes + pushes.size());
    stageCounts.graphs = replay.counts.graphs / pushed;
    stageCounts.graphNodes = replay.counts.graphNodes / pushed;
    setCounts(ctx, stageCounts, 1);
    setDecodeRate(ctx, replay.bytes / pushed);

    Samples serialBuild;
    for (std::size_t i = 0; i < std::min<std::size_t>(shards.size(), 16);
         ++i) {
        const TraceCorpus corpus = parseShard(shards[i]);
        const Clock::time_point start = Clock::now();
        (void)WaitGraphBuilder(corpus).buildRangeParallel(
            0, static_cast<std::uint32_t>(corpus.instances().size()), 1);
        serialBuild.add(msSince(start));
    }
    ctx.result.set("waitgraph.build_ms_serial", serialBuild.median(), "ms");
    ctx.writeTrace();
}

} // namespace perfbench
