/**
 * @file
 * Tests for the analysis service (src/server/): the wire protocol
 * against hostile input (malformed JSON, oversized lines, half-closed
 * sockets, clients vanishing mid-response), backpressure and deadline
 * behaviour, the session registry's leak-freedom, warm-query serving
 * from the artifact store (asserted via stage-span outcomes), and
 * graceful drain. Protocol-v2 framing, negotiation, and corruption
 * handling live in tests/protocol2_test.cpp; this file drives the
 * daemon through the typed Session API (negotiating v2 by default)
 * and through raw v1 lines. Built into the "server" ctest label so
 * the whole file runs under both sanitizers (ctest --preset
 * asan-server / tsan-server).
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/resultjson.h"
#include "src/mining/knowledge.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/registry.h"
#include "src/server/responsecache.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace server
{
namespace
{

namespace fs = std::filesystem;

/** Self-cleaning scratch dir (pid-suffixed: binaries run under -j). */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(fs::temp_directory_path() /
                ("tracelens_server_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** One small corpus file + one running daemon per fixture. */
class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = std::make_unique<ScratchDir>(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
        CorpusSpec spec;
        spec.machines = 8;
        spec.seed = 1337;
        corpusPath_ = (scratch_->path() / "corpus.tlc").string();
        writeCorpusFile(generateCorpus(spec), corpusPath_);
    }

    /** Start a daemon on an ephemeral port with @p config. */
    void
    startServer(ServerConfig config = {})
    {
        config.host = "127.0.0.1";
        config.port = 0;
        config.enableTestMethods = true;
        server_ = std::make_unique<Server>(config);
        Expected<std::uint16_t> port = server_->start();
        ASSERT_TRUE(port.ok()) << port.error().render();
        port_ = port.value();
    }

    Session
    connect(SessionOptions options = {})
    {
        Expected<Session> session =
            Session::connect("127.0.0.1", port_, options);
        EXPECT_TRUE(session.ok());
        return std::move(session.value());
    }

    RawConn
    connectRaw()
    {
        Expected<RawConn> conn = RawConn::connect(
            "127.0.0.1", port_, std::chrono::milliseconds(30000));
        EXPECT_TRUE(conn.ok());
        return std::move(conn.value());
    }

    /** One raw v1 request/response round trip on @p conn. */
    std::string
    rawCall(RawConn &conn, const std::string &method,
            const JsonValue &params, double id = 1)
    {
        JsonValue request = JsonValue::makeObject();
        request.set("id", JsonValue(id));
        request.set("method", JsonValue(method));
        request.set("params", params);
        EXPECT_TRUE(conn.sendRaw(request.render() + "\n"));
        Expected<std::string> reply = conn.readLine();
        EXPECT_TRUE(reply.ok());
        return reply.ok() ? reply.value() : std::string();
    }

    AnalyzeRequest
    analyzeRequest(std::size_t top = 5) const
    {
        AnalyzeRequest request;
        request.corpus = corpusPath_;
        request.scenario = "BrowserTabCreate";
        request.top = top;
        return request;
    }

    void
    TearDown() override
    {
        if (server_ != nullptr && !server_->stopped()) {
            server_->requestStop();
            server_->wait();
        }
        // Leak check on every path out of every test: a request that
        // crashed, timed out, or vanished must still unpin its
        // session.
        if (server_ != nullptr) {
            EXPECT_EQ(server_->registry().stats().activeHandles, 0u);
        }
        server_.reset();
        scratch_.reset();
    }

    std::unique_ptr<ScratchDir> scratch_;
    std::string corpusPath_;
    std::unique_ptr<Server> server_;
    std::uint16_t port_ = 0;
};

TEST_F(ServerTest, HealthReportsProtocolVersions)
{
    startServer();
    Session session = connect();
    // Auto-negotiation against a current server lands on v2.
    EXPECT_EQ(session.protocolVersion(), kProtocolVersionV2);
    Expected<Response> response = session.health();
    ASSERT_TRUE(response.ok()) << response.error().render();
    ASSERT_TRUE(response.value().ok);
    const JsonValue *protocol =
        response.value().result.find("protocol");
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->asNumber(), kProtocolVersion);
    const JsonValue *protocols =
        response.value().result.find("protocols");
    ASSERT_NE(protocols, nullptr);
    ASSERT_TRUE(protocols->isArray());
    ASSERT_EQ(protocols->asArray().size(),
              supportedProtocolVersions().size());
    EXPECT_EQ(protocols->asArray()[0].asNumber(), kProtocolVersionV1);
    EXPECT_EQ(protocols->asArray()[1].asNumber(), kProtocolVersionV2);
}

TEST_F(ServerTest, MalformedJsonAnswersBadRequestAndKeepsConnection)
{
    startServer();
    RawConn client = connectRaw();
    const char *garbage[] = {
        "not json at all",
        "{\"method\":}",
        "[1,2,3]",
        "{\"method\":42}",
        "{\"method\":\"\"}",
        "{\"method\":\"analyze\",\"params\":7}",
        "{\"method\":\"analyze\",\"deadline_ms\":-5}",
        "{\"unterminated\":\"",
    };
    for (const char *line : garbage) {
        ASSERT_TRUE(client.sendRaw(std::string(line) + "\n"));
        Expected<std::string> reply = client.readLine();
        ASSERT_TRUE(reply.ok()) << reply.error().render();
        EXPECT_NE(reply.value().find("bad_request"),
                  std::string::npos)
            << "for input: " << line;
    }
    // Deeply nested input must be depth-limited, not stack-overflowed.
    std::string deep(20000, '[');
    ASSERT_TRUE(client.sendRaw(deep + "\n"));
    Expected<std::string> reply = client.readLine();
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(reply.value().find("bad_request"), std::string::npos);

    // The connection survived all of it.
    const std::string health =
        rawCall(client, "health", JsonValue::makeObject());
    EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
}

TEST_F(ServerTest, OversizedRequestLineAnswersProtocolErrorAndRecovers)
{
    ServerConfig config;
    config.maxLineBytes = 256;
    startServer(config);
    RawConn client = connectRaw();

    // 4 KiB without a newline: the server must bound its buffer and
    // answer one structured protocol_error carrying the byte offset
    // of the offending line...
    ASSERT_TRUE(client.sendRaw(std::string(4096, 'x')));
    Expected<std::string> reply = client.readLine();
    ASSERT_TRUE(reply.ok()) << reply.error().render();
    Expected<Response> parsed = parseResponseLine(reply.value());
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().ok);
    EXPECT_EQ(parsed.value().error.code, ErrorCode::ProtocolError);
    EXPECT_EQ(parsed.value().error.offset, 0u)
        << "offending line started at byte 0 of the connection";

    // ...and the connection must survive: terminating the discarded
    // line resumes normal service on the same socket.
    ASSERT_TRUE(client.sendRaw("\n"));
    const std::string health =
        rawCall(client, "health", JsonValue::makeObject());
    EXPECT_NE(health.find("\"ok\":true"), std::string::npos);

    // A second violation mid-connection reports a nonzero offset.
    ASSERT_TRUE(client.sendRaw(std::string(4096, 'y')));
    Expected<std::string> again = client.readLine();
    ASSERT_TRUE(again.ok());
    Expected<Response> parsedAgain = parseResponseLine(again.value());
    ASSERT_TRUE(parsedAgain.ok());
    EXPECT_EQ(parsedAgain.value().error.code,
              ErrorCode::ProtocolError);
    EXPECT_GT(parsedAgain.value().error.offset, 0u);
    EXPECT_GE(server_->stats().protocolErrors, 2u);
}

TEST_F(ServerTest, UnknownMethodAndUnknownCorpusAnswerNotFound)
{
    startServer();
    Session session = connect();

    // Unknown method names can only exist over v1 (v2 transits a
    // method byte), so drive that case with a raw line.
    RawConn raw = connectRaw();
    const std::string unknown =
        rawCall(raw, "frobnicate", JsonValue::makeObject());
    EXPECT_NE(unknown.find("not_found"), std::string::npos);

    IngestRequest missing;
    missing.corpus = (scratch_->path() / "nope.tlc").string();
    Expected<Response> corpus = session.ingest(missing);
    ASSERT_TRUE(corpus.ok());
    EXPECT_FALSE(corpus.value().ok);
    EXPECT_EQ(corpus.value().error.code, ErrorCode::NotFound);

    AnalyzeRequest bad = analyzeRequest();
    bad.scenario = "NoSuchScenario";
    bad.tfastMs = 100;
    bad.tslowMs = 200;
    Expected<Response> scenario = session.analyze(bad);
    ASSERT_TRUE(scenario.ok());
    EXPECT_FALSE(scenario.value().ok);
    EXPECT_EQ(scenario.value().error.code, ErrorCode::NotFound);
}

TEST_F(ServerTest, WarmQueriesAreServedFromTheArtifactStore)
{
    startServer();
    Session session = connect();

    Telemetry::setEnabled(true);
    Telemetry::reset();

    // Cold: the wait graphs build (outcome "miss").
    Expected<Response> cold = session.analyze(analyzeRequest(3));
    ASSERT_TRUE(cold.ok()) << cold.error().render();
    ASSERT_TRUE(cold.value().ok) << cold.value().error.message;
    const std::string coldTrace = Telemetry::renderChromeTrace();
    EXPECT_NE(coldTrace.find("stage."), std::string::npos);
    EXPECT_NE(coldTrace.find("\"outcome\": \"miss\""),
              std::string::npos)
        << coldTrace;

    // Warm, different params (top=5): a different response-cache key
    // over the same corpus — the query re-enters the pipeline on the
    // session's wait graphs (no graph is built, no "miss"), while
    // classes, the AWG fold and mining re-run, keeping no
    // per-threshold artifacts resident.
    Telemetry::reset();
    Expected<Response> warm = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.value().ok);
    const std::string warmTrace = Telemetry::renderChromeTrace();
    EXPECT_NE(warmTrace.find("analyzer.scenario-partial"),
              std::string::npos);
    EXPECT_EQ(warmTrace.find("waitgraph.build-range"), std::string::npos)
        << warmTrace;
    EXPECT_EQ(warmTrace.find("\"outcome\": \"miss\""),
              std::string::npos)
        << warmTrace;

    // Warm, identical params: the rendered response itself is cached;
    // the pipeline is not re-entered at all.
    Telemetry::reset();
    Expected<Response> repeat = session.analyze(analyzeRequest(5));
    ASSERT_TRUE(repeat.ok());
    ASSERT_TRUE(repeat.value().ok);
    const std::string repeatTrace = Telemetry::renderChromeTrace();
    EXPECT_EQ(repeatTrace.find("stage."), std::string::npos);
    EXPECT_NE(repeatTrace.find("server.response-cache-hit"),
              std::string::npos);
    EXPECT_EQ(repeat.value().result.render(),
              warm.value().result.render());
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

/** The `analyze` result object built straight from the batch
 *  Analyzer — an independent reference for the daemon's
 *  fold-and-render path. */
std::string
referenceAnalyze(const Analyzer &analyzer, const std::string &scenario,
                 DurationNs tFast, DurationNs tSlow, std::size_t top,
                 bool applyFilter)
{
    const SymbolTable &symbols = analyzer.corpus().symbols();
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(scenario, tFast, tSlow);
    std::vector<ContrastPattern> patterns = analysis.mining.patterns;
    std::size_t suppressed = 0;
    if (applyFilter) {
        const FilteredMiningResult filtered =
            KnowledgeBase::defaults().apply(analysis.mining, symbols);
        suppressed = filtered.suppressed.size();
        patterns = filtered.kept;
    }
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("tfast_ms", JsonValue(toMs(tFast)));
    result.set("tslow_ms", JsonValue(toMs(tSlow)));
    JsonValue classes = JsonValue::makeObject();
    classes.set("fast", JsonValue(analysis.classes.fast.size()));
    classes.set("middle", JsonValue(analysis.classes.middle.size()));
    classes.set("slow", JsonValue(analysis.classes.slow.size()));
    result.set("classes", std::move(classes));
    result.set("slow_impact", impactJson(analysis.slowImpact));
    result.set("driver_cost_share",
               JsonValue(analysis.driverCostShare()));
    result.set("coverage", JsonValue(analysis.coverage.render()));
    result.set("mining_stats",
               JsonValue(analysis.mining.stats.render()));
    result.set("suppressed", JsonValue(suppressed));
    JsonValue list = JsonValue::makeArray();
    for (std::size_t i = 0; i < std::min(top, patterns.size()); ++i)
        list.push(patternJson(patterns[i], tSlow, symbols, i + 1));
    result.set("patterns", std::move(list));
    return result.render();
}

/** The `mine` result object from the batch Analyzer. */
std::string
referenceMine(const Analyzer &analyzer, const std::string &scenario,
              DurationNs tFast, DurationNs tSlow, std::size_t maxPatterns)
{
    const ScenarioAnalysis analysis =
        analyzer.analyzeScenario(scenario, tFast, tSlow);
    const std::vector<ContrastPattern> &patterns =
        analysis.mining.patterns;
    JsonValue result = JsonValue::makeObject();
    result.set("scenario", JsonValue(scenario));
    result.set("mining_stats",
               JsonValue(analysis.mining.stats.render()));
    result.set("coverage", JsonValue(analysis.coverage.render()));
    JsonValue list = JsonValue::makeArray();
    for (std::size_t i = 0; i < std::min(maxPatterns, patterns.size());
         ++i)
        list.push(patternJson(patterns[i], tSlow,
                              analyzer.corpus().symbols(), i + 1));
    result.set("patterns", std::move(list));
    result.set("total_patterns", JsonValue(patterns.size()));
    return result.render();
}

/** The `impact` result object from the batch Analyzer. */
std::string
referenceImpact(const Analyzer &analyzer)
{
    JsonValue result = JsonValue::makeObject();
    JsonValue components = JsonValue::makeArray();
    for (const std::string &glob : analyzer.components().patterns())
        components.push(JsonValue(glob));
    result.set("components", std::move(components));
    result.set("all", impactJson(analyzer.impactAll()));
    JsonValue perScenario = JsonValue::makeObject();
    for (const auto &[id, impact] : analyzer.impactPerScenario())
        perScenario.set(analyzer.corpus().scenarioName(id),
                        impactJson(impact));
    result.set("per_scenario", std::move(perScenario));
    return result.render();
}

TEST_F(ServerTest, SingleNodeAnswersMatchTheBatchAnalyzer)
{
    startServer();
    Session session = connect();

    // The reference: a batch Analyzer over the same file, configured
    // as the daemon's sessions are (one analysis thread, default
    // components) — analyzeScenario, not the partial fold.
    Expected<std::unique_ptr<TraceSource>> source =
        openSource(corpusPath_);
    ASSERT_TRUE(source.ok()) << source.error().render();
    AnalyzerConfig config;
    config.threads = 1;
    const Analyzer analyzer(*source.value(), config);

    const std::string scenario = "BrowserTabCreate";
    DurationNs tFast = 0, tSlow = 0;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.name == scenario) {
            tFast = spec.tFast;
            tSlow = spec.tSlow;
        }
    }
    ASSERT_GT(tSlow, tFast);

    // Catalog thresholds, default top and knowledge filter.
    Expected<Response> plain = session.analyze(analyzeRequest());
    ASSERT_TRUE(plain.ok()) << plain.error().render();
    ASSERT_TRUE(plain.value().ok) << plain.value().error.message;
    EXPECT_EQ(plain.value().result.render(),
              referenceAnalyze(analyzer, scenario, tFast, tSlow, 5,
                               true));

    // Thresholds that split this small corpus into non-empty fast and
    // slow classes (the catalog's leave its slow class empty): whole
    // milliseconds around the second-fastest and second-slowest
    // instances, so the wire carries them exactly.
    std::vector<DurationNs> durations;
    const TraceCorpus &corpus = analyzer.corpus();
    for (std::uint32_t i :
         corpus.instancesOfScenario(corpus.findScenario(scenario)))
        durations.push_back(corpus.instanceDurations()[i]);
    std::sort(durations.begin(), durations.end());
    ASSERT_GE(durations.size(), 5u);
    const double fastMs = std::ceil(toMs(durations[1]));
    const double slowMs = std::floor(toMs(durations[durations.size() - 2]));
    ASSERT_LT(fastMs, slowMs);

    // A non-default top, no knowledge filter.
    AnalyzeRequest custom = analyzeRequest(2);
    custom.tfastMs = fastMs;
    custom.tslowMs = slowMs;
    custom.knowledgeFilter = false;
    Expected<Response> tuned = session.analyze(custom);
    ASSERT_TRUE(tuned.ok()) << tuned.error().render();
    ASSERT_TRUE(tuned.value().ok) << tuned.value().error.message;
    EXPECT_EQ(tuned.value().result.render(),
              referenceAnalyze(analyzer, scenario, fromMs(fastMs),
                               fromMs(slowMs), 2, false));
    ASSERT_NE(tuned.value().result.find("patterns"), nullptr);
    EXPECT_FALSE(
        tuned.value().result.find("patterns")->asArray().empty());

    MineRequest mine;
    mine.corpus = corpusPath_;
    mine.scenario = scenario;
    mine.tfastMs = fastMs;
    mine.tslowMs = slowMs;
    mine.maxPatterns = 3;
    Expected<Response> mined = session.mine(mine);
    ASSERT_TRUE(mined.ok()) << mined.error().render();
    ASSERT_TRUE(mined.value().ok) << mined.value().error.message;
    EXPECT_EQ(mined.value().result.render(),
              referenceMine(analyzer, scenario, fromMs(fastMs),
                            fromMs(slowMs), 3));

    ImpactRequest impact;
    impact.corpus = corpusPath_;
    Expected<Response> impacted = session.impact(impact);
    ASSERT_TRUE(impacted.ok()) << impacted.error().render();
    ASSERT_TRUE(impacted.value().ok) << impacted.value().error.message;
    EXPECT_EQ(impacted.value().result.render(), referenceImpact(analyzer));

    // A scenario absent from the corpus is NotFound on both methods.
    AnalyzeRequest absent = analyzeRequest();
    absent.scenario = "NoSuchScenario";
    absent.tfastMs = 100;
    absent.tslowMs = 200;
    Expected<Response> missing = session.analyze(absent);
    ASSERT_TRUE(missing.ok()) << missing.error().render();
    EXPECT_FALSE(missing.value().ok);
    EXPECT_EQ(missing.value().error.code, ErrorCode::NotFound);
    MineRequest absentMine = mine;
    absentMine.scenario = "NoSuchScenario";
    absentMine.tfastMs = 100;
    absentMine.tslowMs = 200;
    Expected<Response> missingMine = session.mine(absentMine);
    ASSERT_TRUE(missingMine.ok()) << missingMine.error().render();
    EXPECT_FALSE(missingMine.value().ok);
    EXPECT_EQ(missingMine.value().error.code, ErrorCode::NotFound);
}

TEST_F(ServerTest, FreshThresholdQueriesLeaveNoAwgOrMiningArtifacts)
{
    // Every entry an artifact store holds was built (a miss) or
    // restored (a disk hit) exactly once, and a session's store folds
    // its counters into the global registry when drain closes it: the
    // entries one daemon's lifetime created are those deltas.
    struct Entries
    {
        std::uint64_t all = 0;
        std::uint64_t waitGraphs = 0;
    };
    auto entries = [] {
        Entries count;
        for (const auto &[name, value] :
             MetricsRegistry::global().snapshot().counters) {
            if (!name.starts_with("pipeline.") ||
                !(name.ends_with(".misses") ||
                  name.ends_with(".disk_hits")))
                continue;
            count.all += value;
            if (name.starts_with("pipeline.wait-graphs."))
                count.waitGraphs += value;
        }
        return count;
    };
    const Entries before = entries();

    startServer();
    Session session = connect();
    constexpr int kQueries = 6;
    for (int i = 0; i < kQueries; ++i) {
        AnalyzeRequest analyze = analyzeRequest();
        analyze.tfastMs = 100 + i;
        analyze.tslowMs = 400 + i;
        Expected<Response> answered = session.analyze(analyze);
        ASSERT_TRUE(answered.ok()) << answered.error().render();
        ASSERT_TRUE(answered.value().ok)
            << answered.value().error.message;

        MineRequest mine;
        mine.corpus = corpusPath_;
        mine.scenario = analyze.scenario;
        mine.tfastMs = 100 + i;
        mine.tslowMs = 450 + i;
        Expected<Response> mined = session.mine(mine);
        ASSERT_TRUE(mined.ok()) << mined.error().render();
        ASSERT_TRUE(mined.value().ok) << mined.value().error.message;
    }
    server_->requestStop();
    server_->wait(); // drain closes the session, folding its counters

    // The one-file corpus's one wait-graph bundle, and nothing per
    // threshold pair: no classes, AWG or mining entries.
    const Entries after = entries();
    EXPECT_EQ(after.waitGraphs - before.waitGraphs, 1u);
    EXPECT_EQ(after.all - before.all, after.waitGraphs - before.waitGraphs);
}

TEST_F(ServerTest, RequestSpanParentsOnTheCallerWhenTracingPrecedesStart)
{
    // Telemetry is on before start(), so a request thread that ran
    // under a span of its own would parent every server.request on it
    // instead of on the remote caller's span.
    Telemetry::setEnabled(true);
    Telemetry::reset();
    startServer();
    Session session = connect();
    ASSERT_TRUE(session.tracingNegotiated());

    CallOptions options;
    options.traceContext.traceId = 0x5eedfeedull;
    options.traceContext.parentSpanId = 0xca11e4;
    options.traceContext.sampled = true;
    SleepRequest nap;
    nap.ms = 1;
    Expected<Response> response =
        session.call(Method::Sleep, nap.toParams(), options);
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_TRUE(response.value().ok);

    // The request span commits after the response is sent: poll.
    bool found = false;
    const auto start = std::chrono::steady_clock::now();
    while (!found && std::chrono::steady_clock::now() - start <
                         std::chrono::seconds(2)) {
        for (const SpanSnapshot &span : Telemetry::snapshotSpans()) {
            if (span.name == "server.request" &&
                span.traceId == options.traceContext.traceId) {
                EXPECT_EQ(span.parentSpanId, 0xca11e4u);
                // Nothing local encloses a request on its thread.
                EXPECT_EQ(span.depth, 0u);
                found = true;
            }
        }
        if (!found)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(found) << "no server.request span carried the trace id";
    Telemetry::setEnabled(false);
    Telemetry::reset();
}

TEST_F(ServerTest, BackpressureRejectsBeyondMaxInflight)
{
    ServerConfig config;
    config.workers = 1;
    config.maxInflight = 1;
    startServer(config);

    // First request occupies the single worker and the single
    // inflight slot...
    RawConn busy = connectRaw();
    JsonValue sleepLong = JsonValue::makeObject();
    sleepLong.set("ms", JsonValue(500));
    JsonValue request = JsonValue::makeObject();
    request.set("id", JsonValue(1));
    request.set("method", JsonValue("sleep"));
    request.set("params", sleepLong);
    ASSERT_TRUE(busy.sendRaw(request.render() + "\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // ...so a second is rejected with "overloaded" immediately, from
    // the reader thread, without queueing behind the sleeper.
    Session rejected = connect();
    SleepRequest sleepShort;
    sleepShort.ms = 1;
    const auto start = std::chrono::steady_clock::now();
    Expected<Response> response = rejected.sleep(sleepShort);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_FALSE(response.value().ok);
    EXPECT_EQ(response.value().error.code, ErrorCode::Overloaded);
    EXPECT_LT(elapsed, std::chrono::milliseconds(400));

    // Control-plane methods still answer while the queue is full.
    Expected<Response> health = rejected.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health.value().ok);

    // The sleeper finishes normally.
    Expected<std::string> done = busy.readLine();
    ASSERT_TRUE(done.ok());
    EXPECT_NE(done.value().find("slept_ms"), std::string::npos);
    EXPECT_GE(server_->stats().rejected, 1u);
}

TEST_F(ServerTest, DeadlinesCancelCooperatively)
{
    ServerConfig config;
    config.workers = 1;
    startServer(config);
    Session session = connect();

    // In-handler expiry: the sleep loop checks the deadline and stops
    // early instead of burning the full second.
    SleepRequest longSleep;
    longSleep.ms = 1000;
    CallOptions tight;
    tight.deadlineMs = 50;
    const auto start = std::chrono::steady_clock::now();
    Expected<Response> response = session.sleep(longSleep, tight);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << response.error().render();
    EXPECT_FALSE(response.value().ok);
    EXPECT_EQ(response.value().error.code,
              ErrorCode::DeadlineExceeded);
    EXPECT_LT(elapsed, std::chrono::milliseconds(800));

    // Queue-wait expiry: a request whose deadline elapses while a
    // long request holds the only worker is answered at dequeue, not
    // run.
    RawConn blocker = connectRaw();
    JsonValue longParams = JsonValue::makeObject();
    longParams.set("ms", JsonValue(400));
    JsonValue blockReq = JsonValue::makeObject();
    blockReq.set("id", JsonValue(1));
    blockReq.set("method", JsonValue("sleep"));
    blockReq.set("params", longParams);
    ASSERT_TRUE(blocker.sendRaw(blockReq.render() + "\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    SleepRequest quick;
    quick.ms = 1;
    CallOptions queuedDeadline;
    queuedDeadline.deadlineMs = 100;
    Expected<Response> queued = session.sleep(quick, queuedDeadline);
    ASSERT_TRUE(queued.ok());
    EXPECT_FALSE(queued.value().ok);
    EXPECT_EQ(queued.value().error.code, ErrorCode::DeadlineExceeded);
    Expected<std::string> done = blocker.readLine();
    ASSERT_TRUE(done.ok());
}

TEST_F(ServerTest, HalfClosedSocketStillReceivesItsResponse)
{
    startServer();
    RawConn client = connectRaw();
    JsonValue request = JsonValue::makeObject();
    request.set("id", JsonValue(9));
    request.set("method", JsonValue("ingest"));
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpusPath_));
    request.set("params", params);
    ASSERT_TRUE(client.sendRaw(request.render() + "\n"));
    client.shutdownWrite(); // half-close: FIN sent, read side open

    Expected<std::string> reply = client.readLine();
    ASSERT_TRUE(reply.ok()) << reply.error().render();
    EXPECT_NE(reply.value().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(reply.value().find("shards"), std::string::npos);
}

TEST_F(ServerTest, ClientDisconnectMidResponseDoesNotCrashOrLeak)
{
    startServer();
    for (int i = 0; i < 5; ++i) {
        RawConn client = connectRaw();
        JsonValue request = JsonValue::makeObject();
        request.set("id", JsonValue(i));
        request.set("method", JsonValue("sleep"));
        JsonValue params = JsonValue::makeObject();
        params.set("ms", JsonValue(60));
        request.set("params", params);
        ASSERT_TRUE(client.sendRaw(request.render() + "\n"));
        client.close(); // gone before the worker answers
    }
    // Workers must finish the orphaned requests, count the drops, and
    // release every session handle (checked in TearDown, after the
    // drain guarantees the workers retired them).
    Session probe = connect();
    for (int tries = 0; tries < 100; ++tries) {
        if (server_->stats().inflight == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(server_->stats().inflight, 0u);
    Expected<Response> health = probe.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health.value().ok);
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed)
{
    ServerConfig config;
    config.workers = 4;
    startServer(config);

    constexpr int kClients = 8;
    constexpr int kRequests = 6;
    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            SessionOptions options;
            options.ioTimeout = std::chrono::milliseconds(60000);
            // Half the fleet negotiates v2, half stays on v1: both
            // transports hammer the same daemon concurrently.
            options.prefer = (c % 2 == 0) ? ProtocolPreference::Auto
                                          : ProtocolPreference::V1;
            Expected<Session> session =
                Session::connect("127.0.0.1", port_, options);
            if (!session.ok()) {
                failures[static_cast<std::size_t>(c)] = kRequests;
                return;
            }
            for (int r = 0; r < kRequests; ++r) {
                Expected<Response> response = [&]() {
                    if (r % 3 == 1) {
                        AnalyzeRequest request;
                        request.corpus = corpusPath_;
                        request.scenario = "BrowserTabCreate";
                        return session.value().analyze(request);
                    }
                    if (r % 3 == 2) {
                        ImpactRequest request;
                        request.corpus = corpusPath_;
                        return session.value().impact(request);
                    }
                    IngestRequest request;
                    request.corpus = corpusPath_;
                    return session.value().ingest(request);
                }();
                if (!response.ok() || !response.value().ok)
                    ++failures[static_cast<std::size_t>(c)];
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
            << "client " << c;

    // All clients hit ONE session (same path, same filter): the
    // concurrent first requests shared a single open.
    const RegistryStats registry = server_->registry().stats();
    EXPECT_EQ(registry.opened, 1u);
    EXPECT_GE(registry.reused,
              static_cast<std::uint64_t>(kClients * kRequests - 1));
    EXPECT_GE(server_->stats().v2Connections, 4u);
}

TEST_F(ServerTest, ShutdownDrainsInflightRequestsFirst)
{
    startServer();
    RawConn client = connectRaw();
    JsonValue request = JsonValue::makeObject();
    request.set("id", JsonValue(1));
    request.set("method", JsonValue("sleep"));
    JsonValue params = JsonValue::makeObject();
    params.set("ms", JsonValue(150));
    request.set("params", params);
    ASSERT_TRUE(client.sendRaw(request.render() + "\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    server_->requestStop();
    // The admitted request still completes and is delivered.
    Expected<std::string> reply = client.readLine();
    ASSERT_TRUE(reply.ok()) << reply.error().render();
    EXPECT_NE(reply.value().find("slept_ms"), std::string::npos);

    server_->wait();
    EXPECT_TRUE(server_->stopped());
    EXPECT_EQ(server_->stats().inflight, 0u);
    EXPECT_GE(server_->stats().ok, 1u);
}

TEST_F(ServerTest, RegistryEvictionSurvivesConcurrentHandleChurn)
{
    // No daemon here: hammer the registry directly. A tiny resident
    // bound plus a zero idle timeout makes eviction fire constantly
    // while handles are being acquired and released, which is exactly
    // the race the ref-counting must survive (run under tsan-server).
    RegistryConfig config;
    config.maxSessions = 1;
    config.idleTimeout = std::chrono::seconds(0);
    SessionRegistry registry(config);

    // A second corpus so the LRU bound actually evicts.
    const std::string otherPath =
        (scratch_->path() / "other.tlc").string();
    CorpusSpec spec;
    spec.machines = 2;
    spec.seed = 99;
    writeCorpusFile(generateCorpus(spec), otherPath);

    constexpr int kThreads = 4;
    constexpr int kIterations = 40;
    std::vector<std::thread> churn;
    churn.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        churn.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                const std::string &path =
                    ((t + i) % 2 == 0) ? corpusPath_ : otherPath;
                Expected<SessionRegistry::Handle> handle =
                    registry.acquire(path);
                ASSERT_TRUE(handle.ok())
                    << handle.error().render();
                // Touch the session while eviction races us: the
                // handle pins it, so this can never dangle.
                EXPECT_FALSE(
                    handle.value()->ingestInfo().describe.empty());
            }
        });
    }
    churn.emplace_back([&] {
        for (int i = 0; i < kThreads * kIterations; ++i) {
            registry.evictIdle();
            std::this_thread::yield();
        }
    });
    for (std::thread &t : churn)
        t.join();

    const RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.activeHandles, 0u);
    EXPECT_LE(stats.openSessions, config.maxSessions);
    EXPECT_GE(stats.evicted, 1u)
        << "zero idle timeout + LRU bound of one must have evicted";
    registry.evictAll();
    EXPECT_EQ(registry.stats().openSessions, 0u);
}

/** Cache key number @p i. */
Digest
cacheKey(std::uint64_t i)
{
    Digest key;
    key.mix(i);
    return key;
}

TEST(ResponseCache, EvictsTheLeastRecentlyUsedPastItsBudget)
{
    const std::string line(100, 'x');
    const std::size_t cost = line.size() + ResponseCache::kEntryOverheadBytes;
    ResponseCache cache(3 * cost);
    for (std::uint64_t i = 1; i <= 3; ++i)
        cache.insert(cacheKey(i), std::make_shared<const std::string>(line));
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(cache.bytes(), 3 * cost);

    // A recent repeat of key 1 makes key 2 the oldest: the fourth
    // entry evicts it, and key 1 still hits.
    ASSERT_NE(cache.find(cacheKey(1)), nullptr);
    cache.insert(cacheKey(4), std::make_shared<const std::string>(line));
    EXPECT_EQ(cache.find(cacheKey(2)), nullptr);
    EXPECT_NE(cache.find(cacheKey(1)), nullptr);
    EXPECT_NE(cache.find(cacheKey(3)), nullptr);
    EXPECT_NE(cache.find(cacheKey(4)), nullptr);
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(cache.bytes(), 3 * cost);

    // Re-inserting a key replaces its line without growing the cache;
    // a line larger than the whole budget is not cached at all.
    cache.insert(cacheKey(4), std::make_shared<const std::string>("y"));
    EXPECT_EQ(*cache.find(cacheKey(4)), "y");
    EXPECT_EQ(cache.entries(), 3u);
    cache.insert(cacheKey(5),
                 std::make_shared<const std::string>(4 * cost, 'z'));
    EXPECT_EQ(cache.find(cacheKey(5)), nullptr);
    EXPECT_EQ(cache.entries(), 3u);

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResponseCache, ConcurrentClientsStayWithinTheBudget)
{
    const std::size_t cost = 10 + ResponseCache::kEntryOverheadBytes;
    ResponseCache cache(64 * cost);
    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < 4; ++c) {
        clients.emplace_back([&cache, c] {
            for (std::uint64_t i = 0; i < 2000; ++i) {
                const Digest key = cacheKey(i % 97 + c * 1000);
                if (cache.find(key) == nullptr)
                    cache.insert(key, std::make_shared<const std::string>(
                                          10, 'a'));
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(cache.entries(), 64u);
    EXPECT_EQ(cache.bytes(), 64 * cost);
}

TEST(SessionRegistry, AbsorbedShardEmptiesTheResponseCache)
{
    ScratchDir scratch("absorb");
    CorpusSpec spec;
    spec.machines = 4;
    spec.seed = 11;
    const std::string path = (scratch.path() / "corpus.tlc").string();
    writeCorpusFile(generateCorpus(spec), path);

    SessionRegistry registry;
    Expected<SessionRegistry::Handle> session = registry.acquire(path);
    ASSERT_TRUE(session.ok()) << session.error().render();
    session.value()->responses().insert(
        cacheKey(1), std::make_shared<const std::string>("{}"));
    EXPECT_EQ(registry.stats().cachedResponses, 1u);

    // The new corpus digest orphans every cached key: drop them.
    spec.seed = 12;
    const TraceCorpus pushed = generateCorpus(spec);
    const std::string pushedPath = (scratch.path() / "pushed.tlc").string();
    writeCorpusFile(pushed, pushedPath);
    session.value()->absorbShard(pushed, pushedPath);
    EXPECT_EQ(session.value()->responses().entries(), 0u);
    EXPECT_EQ(registry.stats().cachedResponses, 0u);
}

TEST(SessionRegistry, RewrittenFileReopensItsSession)
{
    ScratchDir scratch("rewrite");
    CorpusSpec spec;
    spec.machines = 4;
    spec.seed = 11;
    const std::string path = (scratch.path() / "corpus.tlc").string();
    writeCorpusFile(generateCorpus(spec), path);

    SessionRegistry registry;
    Expected<SessionRegistry::Handle> first = registry.acquire(path);
    ASSERT_TRUE(first.ok());
    const Digest before = first.value()->corpusDigest();
    first = SessionRegistry::Handle();
    EXPECT_EQ(registry.acquire(path).value()->corpusDigest(), before);
    EXPECT_EQ(registry.stats().opened, 1u);

    const std::string staged = path + ".tmp";
    spec.seed = 12;
    writeCorpusFile(generateCorpus(spec), staged);
    fs::rename(staged, path);
    Expected<SessionRegistry::Handle> reopened = registry.acquire(path);
    ASSERT_TRUE(reopened.ok());
    EXPECT_FALSE(reopened.value()->corpusDigest() == before);
    EXPECT_EQ(registry.stats().opened, 2u);
}

TEST(SessionRegistry, AbsorbedShardKeepsItsDirectorySession)
{
    ScratchDir scratch("spool");
    CorpusSpec spec;
    spec.machines = 4;
    spec.seed = 11;
    const std::string dir = (scratch.path() / "spool").string();
    writeShardedCorpusDir(generateCorpus(spec), dir, 2);

    SessionRegistry registry;
    Expected<SessionRegistry::Handle> session = registry.acquire(dir);
    ASSERT_TRUE(session.ok()) << session.error().render();

    // A pushed shard lands in the directory and is absorbed: the
    // session's stamp follows, so the next acquire reuses it.
    spec.seed = 12;
    const TraceCorpus pushed = generateCorpus(spec);
    const std::string pushedPath =
        (fs::path(dir) / "shard-9000.tlc").string();
    writeCorpusFile(pushed, pushedPath);
    session.value()->absorbShard(pushed, pushedPath);
    const Digest absorbed = session.value()->corpusDigest();
    session = SessionRegistry::Handle();
    Expected<SessionRegistry::Handle> reused = registry.acquire(dir);
    ASSERT_TRUE(reused.ok());
    EXPECT_TRUE(reused.value()->corpusDigest() == absorbed);
    EXPECT_EQ(registry.stats().opened, 1u);
    reused = SessionRegistry::Handle();

    // A shard that arrives any other way is a change on disk.
    spec.seed = 13;
    writeCorpusFile(generateCorpus(spec),
                    (fs::path(dir) / "shard-9001.tlc").string());
    Expected<SessionRegistry::Handle> reopened = registry.acquire(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_FALSE(reopened.value()->corpusDigest() == absorbed);
    EXPECT_EQ(registry.stats().opened, 2u);
}

TEST(ServerUtil, ParseHostPort)
{
    auto good = parseHostPort("127.0.0.1:7070");
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value().first, "127.0.0.1");
    EXPECT_EQ(good.value().second, 7070);

    EXPECT_FALSE(parseHostPort("127.0.0.1").ok());
    EXPECT_FALSE(parseHostPort(":7070").ok());
    EXPECT_FALSE(parseHostPort("host:").ok());
    EXPECT_FALSE(parseHostPort("host:99999").ok());
    EXPECT_FALSE(parseHostPort("host:7a").ok());
}

TEST(ServerUtil, ResponseRenderingEchoesIdsAndCodes)
{
    const std::string anonymous =
        renderError(std::nullopt, ErrorCode::Overloaded, "full");
    EXPECT_NE(anonymous.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(anonymous.find("\"code\":\"overloaded\""),
              std::string::npos);
    EXPECT_EQ(anonymous.find("\"id\""), std::string::npos);
    EXPECT_EQ(anonymous.back(), '\n');
    const std::string withId =
        renderError(7.0, ErrorCode::DeadlineExceeded, "late");
    EXPECT_NE(withId.find("\"id\":7"), std::string::npos);
    EXPECT_NE(withId.find("deadline_exceeded"), std::string::npos);

    const std::string withOffset = renderError(
        std::nullopt, ErrorCode::ProtocolError, "desync", 1234);
    EXPECT_NE(withOffset.find("protocol_error"), std::string::npos);
    EXPECT_NE(withOffset.find("\"offset\":1234"), std::string::npos);
    Expected<Response> parsed = parseResponseLine(withOffset);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().error.code, ErrorCode::ProtocolError);
    EXPECT_EQ(parsed.value().error.offset, 1234u);
}

TEST(ServerUtil, MethodAndErrorCodeVocabularyRoundTrips)
{
    for (const Method method :
         {Method::Health, Method::Stats, Method::Shutdown,
          Method::Analyze, Method::Impact, Method::Mine,
          Method::Ingest, Method::Sleep}) {
        EXPECT_EQ(parseMethod(methodName(method)), method);
        EXPECT_EQ(methodFromWireByte(methodWireByte(method)), method);
    }
    EXPECT_FALSE(parseMethod("frobnicate").has_value());
    EXPECT_FALSE(methodFromWireByte(200).has_value());
    for (const ErrorCode code :
         {ErrorCode::BadRequest, ErrorCode::Overloaded,
          ErrorCode::DeadlineExceeded, ErrorCode::NotFound,
          ErrorCode::ShuttingDown, ErrorCode::ProtocolError,
          ErrorCode::Internal}) {
        EXPECT_EQ(parseErrorCode(errorCodeName(code)), code);
    }
    EXPECT_FALSE(parseErrorCode("no_such_code").has_value());
}

} // namespace
} // namespace server
} // namespace tracelens
