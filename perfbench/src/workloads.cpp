/**
 * @file
 * batch_report, daemon_query and cluster_query (fleet_ingest lives in
 * fleet.cpp), plus the metric bookkeeping every workload shares.
 */

#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "perfbench/src/replay.h"
#include "src/core/partial.h"
#include "src/core/resultjson.h"
#include "src/server/coordinator.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"

namespace perfbench
{

using namespace tracelens;
using server::Method;

// ------------------------------------------------------------ context

void
Context::record(const std::string &key, JsonValue value)
{
    result.record.set(key, std::move(value));
}

void
Context::recordTail(const std::string &key, const Tail &tail)
{
    JsonValue entry = JsonValue::makeObject();
    entry.set("value", JsonValue(tail.value));
    entry.set("percentile", JsonValue(tail.percentile));
    entry.set("samples", JsonValue(tail.samples));
    record(key, std::move(entry));
}

void
Context::layerMedians(const std::vector<std::string> &roots)
{
    std::map<std::string, Samples> byMetric;
    std::size_t matched = 0;
    for (const auto &[name, layers] : Tracer::instance().layerTimesByRoot()) {
        const bool wanted =
            std::any_of(roots.begin(), roots.end(), [&](const auto &r) {
                return name.rfind(r, 0) == 0;
            });
        if (!wanted)
            continue;
        ++matched;
        for (const auto &[metric, ms] : layers)
            byMetric[metric].add(ms);
    }
    for (const auto &[metric, samples] : byMetric)
        for (const auto *list : {&perLayerMetrics(), &fleetMetrics()})
            for (const auto &[known, unit] : *list)
                if (known == metric)
                    result.set(metric, samples.median(), unit);
    record("traced_operations." + roots.front(), JsonValue(matched));
}

void
Context::writeTrace()
{
    const std::string path = resultsDir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".json";
    Tracer::instance().writeChromeTrace(path);
    record("trace_file", JsonValue(path));
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics =
        {
            {"trace.decode_ms", "ms"},
            {"trace.decode_mb_per_s", "MB/s"},
            {"core.ingest_ms", "ms"},
            {"core.classes_ms", "ms"},
            {"core.render_ms", "ms"},
            {"core.orchestration_ms", "ms"},
            {"core.stage_hit_ratio", "ratio"},
            {"waitgraph.build_ms", "ms"},
            {"waitgraph.build_ms_serial", "ms"},
            {"waitgraph.graphs", "count"},
            {"waitgraph.nodes", "count"},
            {"impact.ms", "ms"},
            {"awg.aggregate_ms", "ms"},
            {"awg.nodes", "count"},
            {"mining.mine_ms", "ms"},
            {"mining.patterns", "count"},
            {"mining.selected_ratio", "ratio"},
            {"server.rtt_ms.analyze_fresh", "ms"},
            {"server.rtt_ms.analyze_repeat", "ms"},
            {"server.rtt_ms.mine", "ms"},
            {"server.rtt_ms.impact", "ms"},
            {"server.overhead_ms", "ms"},
            {"server.queue_wait_ms", "ms"},
            {"server.wire_bytes_per_query", "B"},
            {"server.rejected", "count"},
            {"coordinator.worker_requests_per_query", "count"},
            {"coordinator.scatter_ms", "ms"},
            {"coordinator.partial_decode_ms", "ms"},
            {"coordinator.merge_ms", "ms"},
            {"coordinator.finalize_ms", "ms"},
            {"coordinator.partial_bytes_per_query", "B"},
            {"bench.tracing_overhead_pct", "%"},
        };
    return kMetrics;
}

const std::vector<std::pair<std::string, std::string>> &
fleetMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics =
        {
            {"server.rtt_ms.window_summary", "ms"},
            {"fleet.ingest_ms", "ms"},
            {"fleet.summary_ms", "ms"},
            {"fleet.sentinel_ms", "ms"},
            {"fleet.alerts_fired", "count"},
            {"fleet.alerts_expected", "count"},
            {"fleet.generator_lag_ms", "ms"},
            {"fleet.push_p50_ms", "ms"},
            {"fleet.push_tail_ms", "ms"},
            {"fleet.alert_latency_ms", "ms"},
        };
    return kMetrics;
}

void
zeroPerLayer(Context &ctx)
{
    for (const auto &[name, unit] : perLayerMetrics())
        ctx.result.set(name, 0.0, unit);
}

void
setOverhead(Context &ctx, const Samples &plain, const Samples &traced)
{
    const double base = plain.median();
    ctx.result.set("bench.tracing_overhead_pct",
                   base <= 0.0 || traced.empty()
                       ? 0.0
                       : (traced.median() - base) / base * 100.0,
                   "%");
    ctx.record("overhead_samples",
               JsonValue(std::to_string(plain.size()) + " untraced / " +
                         std::to_string(traced.size()) + " traced"));
}

void
setStageHitRatio(Context &ctx, const PipelineStats &stats)
{
    std::uint64_t hits = 0, lookups = 0;
    for (const StageStats &s : stats.stages) {
        hits += s.hits + s.diskHits;
        lookups += s.hits + s.diskHits + s.misses;
    }
    ctx.record("stage_lookups", JsonValue(lookups));
    ctx.result.set("core.stage_hit_ratio",
                   lookups == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(lookups),
                   "ratio");
}

void
setCounts(Context &ctx, const LayerCounts &c, double operations)
{
    const double n = std::max(1.0, operations);
    ctx.result.set("waitgraph.graphs", c.graphs, "count");
    ctx.result.set("waitgraph.nodes", c.graphNodes, "count");
    ctx.result.set("awg.nodes", c.awgNodes / n, "count");
    ctx.result.set("mining.patterns", c.patterns / n, "count");
    ctx.result.set("mining.selected_ratio",
                   c.fullPaths == 0 ? 0.0 : c.selectedPaths / c.fullPaths,
                   "ratio");
    ctx.record("mining_full_paths_per_op", JsonValue(c.fullPaths / n));
}

void
setDecodeRate(Context &ctx, double bytes)
{
    const double ms = ctx.result.value("trace.decode_ms");
    if (ms > 0)
        ctx.result.set("trace.decode_mb_per_s", bytes / 1e6 / (ms / 1000.0),
                       "MB/s");
}

void
setEndToEnd(Context &ctx, const Samples &setupMs, const Samples &queryMs,
            double queriesPerSecond, double peakRssMb)
{
    ctx.result.set("setup_s", setupMs.median() / 1000.0, "s");
    ctx.result.set("query_p50_ms", queryMs.median(), "ms");
    const Tail tail = queryMs.tail();
    ctx.result.set("query_tail_ms", tail.value, "ms");
    ctx.result.set("query_qps", queriesPerSecond, "1/s");
    ctx.result.set("peak_rss_mb", peakRssMb, "MB");
    ctx.record("setup_runs", JsonValue(setupMs.size()));
    ctx.record("query_p50_samples", JsonValue(queryMs.size()));
    ctx.recordTail("query_tail", tail);
}

namespace
{

void
recordCorpus(Context &ctx, const CorpusFiles &files)
{
    JsonValue corpus = JsonValue::makeObject();
    corpus.set("machines", JsonValue(files.machines));
    corpus.set("shards", JsonValue(files.paths.size()));
    corpus.set("events", JsonValue(files.events));
    corpus.set("instances", JsonValue(files.instances));
    corpus.set("bytes", JsonValue(files.bytes));
    ctx.record("corpus", std::move(corpus));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

double
timedSerialBuild(const Analyzer &analyzer)
{
    const Clock::time_point start = Clock::now();
    const std::vector<WaitGraph> graphs = buildGraphs(analyzer, 1);
    return msSince(start);
}

} // namespace

// ------------------------------------------------------- batch_report

void
runBatchReport(Context &ctx)
{
    const Options &opt = ctx.options;
    const CorpusFiles files =
        writeCorpus(ctx.workDir + "/corpus", opt.tiny ? 40 : 1600,
                    opt.tiny ? 4 : 16, opt.seed);
    recordCorpus(ctx, files);
    const unsigned threads = ctx.nproc;
    ctx.record("report_threads", JsonValue(threads));
    ctx.record("reference_threads", JsonValue(1));

    // Set-up: the 1-thread reference every report is checked against.
    Samples setup;
    std::string reference;
    for (int k = 0; k < Context::kSetupRuns; ++k) {
        const Clock::time_point start = Clock::now();
        std::string text = referenceReport(files.dir, 1);
        setup.add(msSince(start));
        if (k == 0)
            reference = std::move(text);
        else if (text != reference)
            ctx.result.mismatch("1-thread reference differs between runs");
    }

    const Clock::time_point end = secondsAfter(Clock::now(), opt.seconds);
    if (!opt.trace) {
        // Cold `tracelens report` processes, one after another.
        Samples reports;
        double peakRss = 0;
        std::vector<std::string> outputs;
        while (Clock::now() < end || reports.size() < 3) {
            const std::string out = ctx.workDir + "/report-" +
                                    std::to_string(outputs.size()) + ".txt";
            const Clock::time_point start = Clock::now();
            Child child = Child::spawn(
                {ctx.cli, "report", files.dir, "--threads",
                 std::to_string(threads), "--log-level", "warn"},
                out, ctx.workDir + "/report.err");
            double rss = 0;
            const std::optional<int> status = child.wait(170000, &rss);
            reports.add(msSince(start));
            ++ctx.result.attempted;
            if (!status || *status != 0)
                ctx.result.mismatch("report exited with a failure");
            peakRss = std::max(peakRss, rss);
            outputs.push_back(out);
        }
        for (const std::string &out : outputs)
            if (readFile(out) != reference)
                ctx.result.mismatch("report differs from the reference: " +
                                    out);
        setEndToEnd(ctx, setup, reports,
                    static_cast<double>(reports.size()) /
                        (reports.sum() / 1000.0),
                    peakRss);
        return;
    }

    // Traced run: decomposed in-process reports, alternately untraced
    // and traced, so the overhead is measured on the same code path.
    zeroPerLayer(ctx);
    Tracer &tracer = Tracer::instance();
    Samples plain, traced;
    LayerCounts counts;
    for (std::uint64_t i = 0;
         Clock::now() < end || plain.size() < 2 || traced.size() < 2;
         ++i) {
        const bool on = i % 2 == 1;
        LayerCounts c;
        tracer.setEnabled(on);
        const Clock::time_point start = Clock::now();
        const std::string text = replayReport(files.dir, threads, i, &c);
        const double ms = msSince(start);
        tracer.setEnabled(false);
        (on ? traced : plain).add(ms);
        ++ctx.result.attempted;
        if (text != reference)
            ctx.result.mismatch("decomposed report differs from reference");
        if (on)
            counts = c;
    }
    ctx.layerMedians({"replay.report"});
    setCounts(ctx, counts, 1);
    {
        const Warm warm = warmUp(files.dir, threads);
        ctx.result.set("waitgraph.build_ms_serial",
                       timedSerialBuild(*warm.analyzer), "ms");
    }
    PipelineStats stats;
    ++ctx.result.attempted;
    if (referenceReport(files.dir, threads, &stats) != reference)
        ctx.result.mismatch("nproc-thread report differs from reference");
    setStageHitRatio(ctx, stats);
    setDecodeRate(ctx, static_cast<double>(files.bytes));
    setOverhead(ctx, plain, traced);
    ctx.writeTrace();
}

// ------------------------------------------- daemon_query / cluster_query

namespace
{

/** The daemons serving one set-up, and the client sessions. */
struct Serving
{
    std::vector<Daemon> workers; //!< cluster: the worker daemons.
    Daemon front;                //!< What the clients connect to.
    std::vector<server::Session> clients;

    double
    peakRssMb() const
    {
        double total = front.peakRssMb();
        for (const Daemon &w : workers)
            total += w.peakRssMb();
        return total;
    }

    void
    stop()
    {
        for (server::Session &s : clients)
            s.close();
        clients.clear();
        front.stop();
        for (Daemon &w : workers)
            w.stop();
    }
};

/** One answered (or failed) client request. */
struct Answer
{
    std::size_t index = 0; //!< Position in the query stream.
    double ms = 0;
    bool traced = false;
    bool ok = false;
    std::string error;
    JsonValue result;
};

std::uint64_t
requestsTotal(std::uint16_t port)
{
    server::Session session = connectSession(port);
    CallOutcome stats = callChecked(session, Method::Stats,
                                    JsonValue::makeObject());
    if (!stats.ok)
        fail("stats failed: " + stats.error);
    const JsonValue *requests = stats.result.find("requests");
    const JsonValue *total =
        requests != nullptr ? requests->find("total") : nullptr;
    return total != nullptr && total->isNumber()
               ? static_cast<std::uint64_t>(total->asNumber())
               : 0;
}

/** The `rejected` count and queue-wait p50 (ms) of a daemon. */
std::pair<double, double>
serverCounters(std::uint16_t port)
{
    server::Session session = connectSession(port);
    const CallOutcome stats =
        callChecked(session, Method::Stats, JsonValue::makeObject());
    const CallOutcome metrics =
        callChecked(session, Method::Metrics, JsonValue::makeObject());
    if (!stats.ok || !metrics.ok)
        fail("stats/metrics failed: " + stats.error + metrics.error);
    double rejected = 0;
    if (const JsonValue *requests = stats.result.find("requests"))
        if (const JsonValue *r = requests->find("rejected"))
            rejected = r->asNumber();
    double queueWaitMs = 0;
    for (const auto &[name, state] :
         server::parseMetricsSnapshot(metrics.result).histograms) {
        if (name == "server.queue_wait_us") {
            Histogram h;
            h.mergeState(state);
            queueWaitMs = static_cast<double>(h.percentile(0.5)) / 1000.0;
        }
    }
    return {rejected, queueWaitMs};
}

/**
 * The coordinator's analyze through public calls: scatter the shard
 * partials to their ring owners, decode, merge in shard order,
 * finalize and render. Returns the rendered answer.
 */
std::string
replayCoordinator(const std::vector<std::string> &shards,
                  const server::HashRing &ring,
                  std::vector<server::Session> &workers, const Query &q,
                  std::uint64_t id, double &partialBytes)
{
    Span root("replay.coordinator", "", id);
    std::vector<std::string> payloads(shards.size());
    {
        Span span("coordinator.scatter", "coordinator.scatter_ms");
        std::vector<std::pair<std::uint32_t, std::uint64_t>> pending;
        for (const std::string &shard : shards) {
            server::AnalyzePartialRequest request;
            request.corpus = shard;
            request.scenario = q.scenario;
            request.tfastMs = q.tfastMs;
            request.tslowMs = q.tslowMs;
            const std::uint32_t w = ring.primary(shard);
            Expected<std::uint64_t> handle =
                workers[w].send(Method::AnalyzePartial, request.toParams());
            if (!handle)
                fail("analyze_partial send: " + handle.error().render());
            pending.emplace_back(w, handle.value());
        }
        for (std::size_t i = 0; i < pending.size(); ++i) {
            Expected<server::Response> r =
                workers[pending[i].first].wait(pending[i].second);
            if (!r || !r.value().ok)
                fail("analyze_partial failed for " + shards[i]);
            const JsonValue *b64 = r.value().result.find("partial");
            if (b64 == nullptr || !b64->isString())
                fail("analyze_partial returned no payload");
            payloads[i] = b64->asString();
        }
    }
    std::vector<ScenarioPartial> partials;
    partialBytes = 0;
    {
        Span span("coordinator.partial-decode",
                  "coordinator.partial_decode_ms");
        for (const std::string &b64 : payloads) {
            const std::optional<std::string> bytes = base64Decode(b64);
            if (!bytes)
                fail("partial payload is not base64");
            partialBytes += static_cast<double>(bytes->size());
            Expected<ScenarioPartial> p = decodeScenarioPartial(*bytes);
            if (!p)
                fail("partial decode: " + p.error().render());
            partials.push_back(std::move(p.value()));
        }
    }
    SymbolTable symbols;
    PartialClasses classes;
    PartialImpact slowImpact;
    PartialAwg awgFast, awgSlow;
    {
        Span span("coordinator.merge", "coordinator.merge_ms");
        std::uint32_t streams = 0;
        for (ScenarioPartial &p : partials) {
            p.remapFrames(symbols);
            classes.merge(p.classes);
            p.slowImpact.rebaseStreams(streams);
            slowImpact.merge(p.slowImpact);
            awgFast.merge(p.awgFast);
            awgSlow.merge(p.awgSlow);
            streams += p.streamCount;
        }
    }
    Span span("coordinator.finalize", "coordinator.finalize_ms");
    const AggregatedWaitGraph fast = std::move(awgFast).finalize(true);
    const AggregatedWaitGraph slow = std::move(awgSlow).finalize(true);
    return summarizeScenario(q.scenario, fromMs(q.tfastMs),
                             fromMs(q.tslowMs), classes,
                             slowImpact.finalize(), fast, slow, symbols, 5,
                             true)
        .json.render();
}

} // namespace

void
runQueries(Context &ctx, bool cluster)
{
    const Options &opt = ctx.options;
    // One fixed corpus (the generator's default seed); --seed drives the
    // query stream. A 400-machine corpus drawn per seed moved the
    // per-scenario costs, and with them query_p50_ms, by up to 25%.
    const std::uint64_t corpusSeed = CorpusSpec{}.seed;
    const CorpusFiles files =
        writeCorpus(ctx.workDir + "/corpus", opt.tiny ? 40 : 400,
                    opt.tiny ? 2 : 8, corpusSeed);
    recordCorpus(ctx, files);
    ctx.record("corpus_seed", JsonValue(corpusSeed));
    const unsigned clients = std::min(2u, ctx.nproc);
    // Thread budget: the single daemon gets nproc request workers; in
    // the cluster the two workers share nproc and the coordinator gets
    // one per client, so queries never oversubscribe the host.
    const unsigned daemonWorkers = ctx.nproc;
    const unsigned clusterWorkers = std::max(1u, ctx.nproc / 2);
    ctx.record("clients", JsonValue(clients));
    ctx.record("daemon_analysis_threads", JsonValue(1));
    if (cluster) {
        ctx.record("cluster_workers", JsonValue(2));
        ctx.record("worker_request_workers", JsonValue(clusterWorkers));
        ctx.record("coordinator_request_workers", JsonValue(clients));
    } else {
        ctx.record("daemon_request_workers", JsonValue(daemonWorkers));
    }

    // The in-process reference every answer is checked against.
    const Warm reference = warmUp(files.dir, 1);
    std::vector<std::string> scenarios;
    for (const ScenarioThresholds &t :
         presentScenarios(reference.analyzer->corpus()))
        scenarios.push_back(t.name);
    const ScenarioDurations durations =
        scenarioDurations(reference.analyzer->corpus(), scenarios);
    const std::vector<Query> stream = queryStream(
        opt.seed, 64 + static_cast<std::size_t>(opt.seconds * 4000),
        durations);
    std::vector<Query> warmups(1); // impact, then analyze per scenario
    for (const std::string &name : scenarios)
        warmups.push_back(catalogQuery(name));

    // Set-up: daemons started, sessions open, warm-up answered.
    Samples setup;
    Serving serving;
    std::vector<Answer> warmAnswers;
    for (int k = 0; k < Context::kSetupRuns; ++k) {
        if (k > 0)
            serving.stop();
        serving = Serving{};
        warmAnswers.clear();
        const Clock::time_point start = Clock::now();
        if (cluster) {
            std::string list;
            for (int w = 0; w < 2; ++w) {
                serving.workers.push_back(Daemon::start(
                    ctx.cli, ctx.workDir, "worker" + std::to_string(w),
                    {"--workers", std::to_string(clusterWorkers),
                     "--analysis-threads", "1",
                     "--max-sessions", "64"}));
                list += (w ? "," : "") + serving.workers.back().address();
            }
            serving.front = Daemon::start(
                ctx.cli, ctx.workDir, "coordinator",
                {"--coordinator", "--cluster-workers", list, "--workers",
                 std::to_string(clients)});
        } else {
            serving.front = Daemon::start(
                ctx.cli, ctx.workDir, "daemon",
                {"--workers", std::to_string(daemonWorkers),
                 "--analysis-threads", "1"});
        }
        for (unsigned c = 0; c < clients; ++c)
            serving.clients.push_back(connectSession(serving.front.port()));
        for (std::size_t i = 0; i < warmups.size(); ++i) {
            CallOutcome r =
                callChecked(serving.clients[0], warmups[i].method,
                            warmups[i].params(files.dir));
            warmAnswers.push_back(
                {i, 0, false, r.ok, r.error, std::move(r.result)});
        }
        setup.add(msSince(start));
    }

    std::vector<std::uint64_t> workerRequests;
    for (const Daemon &w : serving.workers)
        workerRequests.push_back(requestsTotal(w.port()));
    std::vector<server::WireStats> wireBefore;
    for (const server::Session &s : serving.clients)
        wireBefore.push_back(s.wireStats());

    // Closed loop: each client sends the stream's next query when its
    // previous answer is in.
    Tracer &tracer = Tracer::instance();
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Answer>> answers(clients);
    const Clock::time_point loadStart = Clock::now();
    const Clock::time_point end = secondsAfter(loadStart, opt.seconds);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= stream.size() || Clock::now() >= end)
                    break;
                const Query &q = stream[i];
                Answer a;
                a.index = i;
                a.traced = tracer.enabled();
                const JsonValue params = q.params(files.dir);
                {
                    Span root("query", "", i);
                    Span rtt("server.rtt", "server.rtt");
                    const Clock::time_point start = Clock::now();
                    CallOutcome r =
                        callChecked(serving.clients[c], q.method, params);
                    a.ms = msSince(start);
                    a.ok = r.ok;
                    a.error = std::move(r.error);
                    a.result = std::move(r.result);
                }
                answers[c].push_back(std::move(a));
            }
        });
    }
    if (opt.trace) {
        // Trace every other quarter second, so traced and untraced
        // queries see the same daemon state.
        for (bool on = false; Clock::now() < end; on = !on) {
            tracer.setEnabled(on);
            std::this_thread::sleep_until(
                std::min(end, Clock::now() + std::chrono::milliseconds(250)));
        }
        tracer.setEnabled(false);
    }
    for (std::thread &t : threads)
        t.join();
    const double loadSeconds = msSince(loadStart) / 1000.0;

    std::vector<Answer> all;
    for (std::vector<Answer> &list : answers)
        for (Answer &a : list)
            all.push_back(std::move(a));
    std::uint64_t wireBytes = 0;
    for (std::size_t c = 0; c < serving.clients.size(); ++c) {
        const server::WireStats after = serving.clients[c].wireStats();
        wireBytes += after.bytesSent + after.bytesReceived -
                     wireBefore[c].bytesSent - wireBefore[c].bytesReceived;
    }
    double workerDelta = 0;
    for (std::size_t w = 0; w < serving.workers.size(); ++w)
        workerDelta += static_cast<double>(
            requestsTotal(serving.workers[w].port()) - workerRequests[w]);
    const auto [rejected, queueWaitMs] =
        serverCounters(serving.front.port());
    const double peakRss = serving.peakRssMb();

    // Traced run: the coordinator's steps replayed against the live
    // workers, with thresholds no client sent (cold worker caches).
    std::vector<Query> coordQueries;
    std::vector<std::string> coordAnswers;
    Samples partialBytes;
    if (opt.trace && cluster) {
        std::vector<std::string> addresses;
        std::vector<server::Session> workerSessions;
        for (const Daemon &w : serving.workers) {
            addresses.push_back(w.address());
            workerSessions.push_back(connectSession(w.port()));
        }
        const server::HashRing ring(addresses);
        Expected<std::vector<std::string>> shards =
            server::Coordinator::enumerateShards(files.dir);
        if (!shards)
            fail("cannot enumerate shards: " + shards.error().render());
        Rng rng(opt.seed * 31 + 7);
        tracer.setEnabled(true);
        for (std::uint64_t i = 0; i < (opt.tiny ? 2u : 12u); ++i) {
            coordQueries.push_back(
                freshQuery(rng, Query::Kind::AnalyzeFresh, durations));
            double bytes = 0;
            coordAnswers.push_back(
                replayCoordinator(shards.value(), ring, workerSessions,
                                  coordQueries.back(), i, bytes));
            partialBytes.add(bytes);
        }
        tracer.setEnabled(false);
    }
    serving.stop();

    // Answer checks, outside every timed window: each distinct query's
    // in-process answer, computed in parallel.
    std::vector<std::pair<const Query *, const Answer *>> checks;
    for (const Answer &a : warmAnswers)
        checks.emplace_back(&warmups[a.index], &a);
    for (const Answer &a : all)
        checks.emplace_back(&stream[a.index], &a);
    std::vector<const Query *> distinct;
    std::unordered_map<std::string, std::size_t> slot;
    for (const auto &[q, a] : checks)
        if (slot.emplace(q->key(), distinct.size()).second)
            distinct.push_back(q);
    for (const Query &q : coordQueries)
        if (slot.emplace(q.key(), distinct.size()).second)
            distinct.push_back(&q);
    std::vector<std::string> expected(distinct.size());
    {
        std::atomic<std::size_t> cursor{0};
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < ctx.nproc; ++t)
            pool.emplace_back([&] {
                for (std::size_t i; (i = cursor.fetch_add(1)) <
                                    distinct.size();)
                    expected[i] =
                        referenceAnswer(*reference.analyzer, *distinct[i]);
            });
        for (std::thread &t : pool)
            t.join();
    }
    for (const auto &[q, a] : checks) {
        ++ctx.result.attempted;
        if (!a->ok) {
            ctx.result.mismatch(std::string(server::methodName(q->method)) +
                                " failed: " + a->error);
        } else if (a->result.render() != expected[slot.at(q->key())]) {
            ctx.result.mismatch(std::string(server::methodName(q->method)) +
                                " answer differs from the in-process "
                                "reference: " +
                                q->key());
        }
    }
    for (std::size_t i = 0; i < coordQueries.size(); ++i) {
        ++ctx.result.attempted;
        if (coordAnswers[i] != expected[slot.at(coordQueries[i].key())])
            ctx.result.mismatch("replayed coordinator answer differs: " +
                                coordQueries[i].key());
    }

    Samples latency;
    std::map<Query::Kind, Samples> byKind;
    std::size_t completed = 0;
    for (const Answer &a : all) {
        latency.add(a.ms);
        byKind[stream[a.index].kind].add(a.ms);
        completed += a.ok ? 1 : 0;
    }
    if (!opt.trace) {
        setEndToEnd(ctx, setup, latency,
                    static_cast<double>(completed) / loadSeconds, peakRss);
        return;
    }

    zeroPerLayer(ctx);
    Samples plain, traced;
    for (const Answer &a : all)
        (a.traced ? traced : plain).add(a.ms);
    setOverhead(ctx, plain, traced);
    for (const auto &[kind, samples] : byKind) {
        const std::string name = Query::kindName(kind);
        ctx.result.set("server.rtt_ms." + name, samples.median(), "ms");
        ctx.record("rtt_samples." + name, JsonValue(samples.size()));
    }
    ctx.result.set("server.queue_wait_ms", queueWaitMs, "ms");
    ctx.result.set("server.rejected", rejected, "count");
    ctx.result.set("server.wire_bytes_per_query",
                   static_cast<double>(wireBytes) /
                       static_cast<double>(std::max<std::size_t>(1, all.size())),
                   "B");
    if (cluster) {
        ctx.result.set("coordinator.worker_requests_per_query",
                       workerDelta / static_cast<double>(std::max<std::size_t>(
                                         1, all.size())),
                       "count");
        ctx.result.set("coordinator.partial_bytes_per_query",
                       partialBytes.median(), "B");
        ctx.layerMedians({"replay.coordinator"});
    }

    // The daemon's session open and per-query stages, replayed in
    // process through the layer functions.
    tracer.setEnabled(true);
    Warm warm;
    std::vector<WaitGraph> graphs;
    {
        Span root("replay.session-open", "", 0);
        warm = warmUp(files.dir, 1);
        graphs = buildGraphs(*warm.analyzer, ctx.nproc);
    }
    tracer.setEnabled(false);
    ctx.layerMedians({"replay.session-open"});
    ctx.result.set("waitgraph.build_ms_serial",
                   timedSerialBuild(*warm.analyzer), "ms");
    setDecodeRate(ctx, static_cast<double>(files.bytes));

    std::unordered_map<std::size_t, double> rttOf;
    for (const Answer &a : all)
        rttOf[a.index] = a.ms;
    LayerCounts counts;
    Samples overhead;
    std::size_t replayed = 0;
    const std::size_t budget = opt.tiny ? 3 : 16;
    tracer.setEnabled(true);
    for (const Answer &a : all) {
        const Query &q = stream[a.index];
        if (q.kind != Query::Kind::AnalyzeFresh || replayed == budget)
            continue;
        ++replayed;
        const Clock::time_point start = Clock::now();
        const std::string text =
            replayQuery(*warm.analyzer, graphs, q, 1, a.index, &counts);
        overhead.add(rttOf[a.index] - msSince(start));
        ++ctx.result.attempted;
        if (text != expected[slot.at(q.key())])
            ctx.result.mismatch("replayed answer differs: " + q.key());
    }
    tracer.setEnabled(false);
    graphs.clear();
    LayerCounts graphCounts;
    {
        const std::vector<WaitGraph> all = buildGraphs(*warm.analyzer, 1);
        graphCounts.graphs = static_cast<double>(all.size());
        for (const WaitGraph &g : all)
            graphCounts.graphNodes += static_cast<double>(g.size());
    }
    counts.graphs = graphCounts.graphs;
    counts.graphNodes = graphCounts.graphNodes;
    setCounts(ctx, counts, static_cast<double>(replayed));
    ctx.layerMedians({"replay.analyze_fresh"});
    ctx.result.set("server.overhead_ms", overhead.median(), "ms");
    setStageHitRatio(ctx, reference.analyzer->pipelineStats());
    ctx.writeTrace();
}

} // namespace perfbench
