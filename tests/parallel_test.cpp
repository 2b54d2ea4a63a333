/**
 * @file
 * Determinism and safety tests for the corpus-parallel pipeline.
 *
 * The contract under test: every analysis stage produces bit-identical
 * results for threads=1 and threads=hardware_concurrency (the parallel
 * paths shard only order-insensitive work and keep every
 * order-sensitive fold serial), including the parallel shard ingest
 * and the shared immutable wait-graph storage. Plus
 * ThreadSanitizer-friendly smoke tests of the work-stealing pool and
 * the ordered pipeline themselves — run these under the tsan CMake
 * preset: ctest --preset tsan -L tsan.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/report.h"
#include "src/impact/breakdown.h"
#include "src/trace/mmapreader.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/parallel.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace tracelens
{
namespace
{

unsigned
manyThreads()
{
    // At least 4 so the pool, the steals, and the shard merges are
    // genuinely exercised even on single-core CI machines.
    return std::max(4u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ThreadPool pool(manyThreads());
    pool.parallelFor(0, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(manyThreads());
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool.parallelFor(0, 1000, [&](std::size_t i) {
            sum.fetch_add(static_cast<std::int64_t>(i),
                          std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 999 * 1000 / 2);
    }
}

TEST(ThreadPool, StealsUnbalancedWork)
{
    // Front-loaded shard sizes: worker 0 owns indices that each spin,
    // the rest finish instantly and must steal to keep the wall time
    // bounded. Correctness (full coverage) is what we assert.
    const std::size_t n = 256;
    std::vector<std::atomic<int>> hits(n);
    ThreadPool pool(manyThreads());
    pool.parallelFor(0, n, [&](std::size_t i) {
        if (i < n / 8) { // heavy head
            volatile std::uint64_t x = 0;
            for (int k = 0; k < 20000; ++k)
                x = x + static_cast<std::uint64_t>(k);
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    pool.parallelFor(5, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ThreadPool, PropagatesBodyException)
{
    ThreadPool pool(manyThreads());
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    pool.parallelFor(0, 10, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelMap, ResultsInIndexOrder)
{
    const auto squares = parallelMap<std::size_t>(
        manyThreads(), 5000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 5000u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelFor, RespectsBeginOffset)
{
    std::atomic<std::int64_t> sum{0};
    parallelFor(manyThreads(), 100, 200, [&](std::size_t i) {
        sum.fetch_add(static_cast<std::int64_t>(i),
                      std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

// ------------------------------------------------------------ pipeline

TEST(ParallelPipeline, ConsumesInOrderWithinTheWindow)
{
    constexpr std::size_t kItems = 200;
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE(threads);
        std::vector<std::size_t> slots(kItems, 0);
        std::vector<std::size_t> order;
        std::atomic<std::size_t> produced{0};
        std::size_t most_ahead = 0;
        parallelPipeline(
            threads, kItems,
            [&](std::size_t i) {
                slots[i] = i * i + 1;
                produced.fetch_add(1);
            },
            [&](std::size_t i) {
                EXPECT_EQ(slots[i], i * i + 1);
                // Produced but not yet consumed, this item included.
                most_ahead = std::max(most_ahead, produced.load() - i);
                order.push_back(i);
            });
        ASSERT_EQ(order.size(), kItems);
        for (std::size_t i = 0; i < kItems; ++i)
            EXPECT_EQ(order[i], i);
        EXPECT_LE(most_ahead, threads);
    }
}

TEST(ParallelPipeline, PropagatesProducerAndConsumerExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        EXPECT_THROW(parallelPipeline(
                         threads, 50,
                         [](std::size_t i) {
                             if (i == 7)
                                 throw std::runtime_error("produce");
                         },
                         [](std::size_t) {}),
                     std::runtime_error);
        std::size_t consumed = 0;
        EXPECT_THROW(parallelPipeline(
                         threads, 50, [](std::size_t) {},
                         [&](std::size_t i) {
                             if (i == 3)
                                 throw std::runtime_error("consume");
                             ++consumed;
                         }),
                     std::runtime_error);
        EXPECT_EQ(consumed, 3u);
    }
}

// ------------------------------------------------------- determinism

CorpusSpec
smallFleet()
{
    CorpusSpec spec;
    spec.machines = 30;
    spec.seed = 0xC0FFEE;
    return spec;
}

void
expectSameImpact(const ImpactResult &a, const ImpactResult &b)
{
    EXPECT_EQ(a.dScn, b.dScn);
    EXPECT_EQ(a.dWait, b.dWait);
    EXPECT_EQ(a.dRun, b.dRun);
    EXPECT_EQ(a.dWaitDist, b.dWaitDist);
    EXPECT_EQ(a.instances, b.instances);
}

TEST(ParallelDeterminism, WaitGraphsIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    WaitGraphBuilder builder(corpus);
    const std::vector<WaitGraph> serial = builder.buildAll();
    const std::vector<WaitGraph> parallel =
        builder.buildAllParallel(manyThreads());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
        ASSERT_EQ(serial[g].size(), parallel[g].size()) << "graph " << g;
        ASSERT_EQ(serial[g].roots(), parallel[g].roots());
        for (std::size_t n = 0; n < serial[g].size(); ++n) {
            const auto &sn = serial[g].nodes()[n];
            const auto &pn = parallel[g].nodes()[n];
            EXPECT_EQ(sn.ref, pn.ref);
            EXPECT_EQ(sn.event.cost, pn.event.cost);
            const auto sc = serial[g].children(sn);
            const auto pc = parallel[g].children(pn);
            EXPECT_TRUE(std::equal(sc.begin(), sc.end(), pc.begin(),
                                   pc.end()));
            EXPECT_EQ(sn.unwaitStack, pn.unwaitStack);
        }
    }
}

TEST(ParallelDeterminism, ImpactAllIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());

    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    EagerSource serial_source(corpus);
    Analyzer serial(serial_source, serial_config);

    AnalyzerConfig parallel_config;
    parallel_config.threads = manyThreads();
    EagerSource parallel_source(corpus);
    Analyzer parallel(parallel_source, parallel_config);

    expectSameImpact(serial.impactAll(), parallel.impactAll());

    const auto serial_per = serial.impactPerScenario();
    const auto parallel_per = parallel.impactPerScenario();
    ASSERT_EQ(serial_per.size(), parallel_per.size());
    for (const auto &[scenario, impact] : serial_per) {
        auto it = parallel_per.find(scenario);
        ASSERT_NE(it, parallel_per.end());
        expectSameImpact(impact, it->second);
    }
}

TEST(ParallelDeterminism, ScenarioAnalysisIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());

    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    EagerSource serial_source(corpus);
    Analyzer serial(serial_source, serial_config);

    AnalyzerConfig parallel_config;
    parallel_config.threads = manyThreads();
    EagerSource parallel_source(corpus);
    Analyzer parallel(parallel_source, parallel_config);

    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (!spec.selected ||
            corpus.findScenario(spec.name) == UINT32_MAX)
            continue;
        SCOPED_TRACE(spec.name);
        const ScenarioAnalysis a =
            serial.analyzeScenario(spec.name, spec.tFast, spec.tSlow);
        const ScenarioAnalysis b =
            parallel.analyzeScenario(spec.name, spec.tFast, spec.tSlow);

        EXPECT_EQ(a.classes.fast, b.classes.fast);
        EXPECT_EQ(a.classes.slow, b.classes.slow);
        EXPECT_EQ(a.classes.middle, b.classes.middle);
        expectSameImpact(a.slowImpact, b.slowImpact);
        EXPECT_EQ(a.slowDuration, b.slowDuration);

        // AWGs: identical structure including node order (the trie
        // fold is serial and ordered in both paths).
        EXPECT_EQ(a.awgSlow.reducedCost(), b.awgSlow.reducedCost());
        EXPECT_EQ(a.awgSlow.totalRootCost(), b.awgSlow.totalRootCost());
        EXPECT_EQ(a.awgFast.renderText(corpus.symbols(), 10000),
                  b.awgFast.renderText(corpus.symbols(), 10000));
        EXPECT_EQ(a.awgSlow.renderText(corpus.symbols(), 10000),
                  b.awgSlow.renderText(corpus.symbols(), 10000));

        // Mined pattern ranking: identical order and contents.
        ASSERT_EQ(a.mining.patterns.size(), b.mining.patterns.size());
        for (std::size_t i = 0; i < a.mining.patterns.size(); ++i) {
            const ContrastPattern &pa = a.mining.patterns[i];
            const ContrastPattern &pb = b.mining.patterns[i];
            EXPECT_EQ(pa.cost, pb.cost) << "pattern " << i;
            EXPECT_EQ(pa.count, pb.count) << "pattern " << i;
            EXPECT_EQ(pa.maxExec, pb.maxExec) << "pattern " << i;
            EXPECT_EQ(pa.tuple.waits, pb.tuple.waits);
            EXPECT_EQ(pa.tuple.unwaits, pb.tuple.unwaits);
            EXPECT_EQ(pa.tuple.runnings, pb.tuple.runnings);
        }
        EXPECT_EQ(a.mining.stats.fullPaths, b.mining.stats.fullPaths);
        EXPECT_EQ(a.mining.stats.selectedPaths,
                  b.mining.stats.selectedPaths);

        EXPECT_EQ(a.coverage.componentCost, b.coverage.componentCost);
        EXPECT_EQ(a.coverage.impactfulCost, b.coverage.impactfulCost);
        EXPECT_EQ(a.coverage.totalCost, b.coverage.totalCost);
        EXPECT_EQ(a.coverage.patternCount, b.coverage.patternCount);
    }
}

TEST(ParallelDeterminism, ScenarioFanOutMatchesSequentialCalls)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    AnalyzerConfig config;
    config.threads = manyThreads();
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source, config);

    std::vector<ScenarioThresholds> requests;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            corpus.findScenario(spec.name) != UINT32_MAX)
            requests.push_back({spec.name, spec.tFast, spec.tSlow});
    }
    ASSERT_FALSE(requests.empty());

    const std::vector<ScenarioAnalysis> fanned =
        analyzer.analyzeScenarios(requests);
    ASSERT_EQ(fanned.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ScenarioAnalysis direct = analyzer.analyzeScenario(
            requests[i].name, requests[i].tFast, requests[i].tSlow);
        EXPECT_EQ(fanned[i].name, direct.name);
        EXPECT_EQ(fanned[i].classes.slow, direct.classes.slow);
        expectSameImpact(fanned[i].slowImpact, direct.slowImpact);
        ASSERT_EQ(fanned[i].mining.patterns.size(),
                  direct.mining.patterns.size());
        for (std::size_t p = 0; p < direct.mining.patterns.size(); ++p) {
            EXPECT_EQ(fanned[i].mining.patterns[p].cost,
                      direct.mining.patterns[p].cost);
            EXPECT_EQ(fanned[i].mining.patterns[p].count,
                      direct.mining.patterns[p].count);
        }
    }
}

TEST(SharedWaitGraph, CopiesShareStorage)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    WaitGraphBuilder builder(corpus);
    const std::vector<WaitGraph> graphs = builder.buildAll();
    const auto it =
        std::find_if(graphs.begin(), graphs.end(),
                     [](const WaitGraph &g) { return g.size() > 1; });
    ASSERT_NE(it, graphs.end());
    const WaitGraph &orig = *it;

    const WaitGraph copy = orig;
    EXPECT_EQ(&copy.nodes(), &orig.nodes());
    EXPECT_EQ(&copy.roots(), &orig.roots());
    EXPECT_EQ(&copy.instance(), &orig.instance());
    EXPECT_EQ(copy.children(orig.roots().front()).data(),
              orig.children(orig.roots().front()).data());

    // An empty graph reads as empty, and so do its copies.
    const WaitGraph empty;
    const WaitGraph empty_copy = empty;
    EXPECT_TRUE(empty_copy.empty());
    EXPECT_TRUE(empty_copy.roots().empty());
}

TEST(ParallelDeterminism, ComponentBreakdownIdentical)
{
    const TraceCorpus corpus = generateCorpus(smallFleet());
    EagerSource source(corpus);
    Analyzer analyzer(source);
    const auto serial = impactByComponent(corpus, analyzer.graphs(),
                                          analyzer.components(), 1);
    ASSERT_FALSE(serial.empty());
    for (unsigned threads : {2u, 3u, 8u}) {
        const auto parallel = impactByComponent(
            corpus, analyzer.graphs(), analyzer.components(), threads);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].component, parallel[i].component);
            EXPECT_EQ(serial[i].wait, parallel[i].wait);
            EXPECT_EQ(serial[i].run, parallel[i].run);
            EXPECT_EQ(serial[i].waitEvents, parallel[i].waitEvents);
        }
    }
}

// ------------------------------------------------------ parallel ingest

/**
 * Fresh scratch directory under the system temp dir, removed on
 * destruction; the path embeds the process id so concurrently running
 * test binaries never share fixtures.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(std::filesystem::temp_directory_path() /
                ("tracelens_parallel_test_" +
                 std::to_string(::getpid()) + "_" + name))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/**
 * Flip one payload byte of @p path so that the mmap skip-scan still
 * opens the shard but the full decode rejects it: the failure then
 * surfaces inside a concurrent decode, not at source construction.
 */
void
corruptPayload(const std::string &path)
{
    const std::string bytes = readBytes(path);
    for (std::size_t at = bytes.size() / 2; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x80);
        writeBytes(path, mutated);
        Expected<MmapReader> reader = MmapReader::open(path);
        if (reader && !reader.value().materialize() &&
            !readCorpusFileChecked(path))
            return;
    }
    FAIL() << "no payload byte of " << path << " breaks only decoding";
}

/** What an ingest leaves behind that must not depend on threads. */
struct IngestRun
{
    std::string report;
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    std::vector<std::string> errors;
};

IngestRun
ingestAndReport(const std::string &dir, bool mmap, unsigned threads)
{
    SourceOptions options;
    options.useMmap = mmap;
    auto opened = openSource(dir, options);
    EXPECT_TRUE(opened.ok());
    TraceSource &source = *opened.value();
    AnalyzerConfig config;
    config.threads = threads;
    Analyzer analyzer(source, config);

    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &spec : scenarioCatalog()) {
        if (spec.selected &&
            analyzer.corpus().findScenario(spec.name) != UINT32_MAX)
            scenarios.push_back({spec.name, spec.tFast, spec.tSlow});
    }
    IngestRun outcome;
    outcome.report = buildReport(analyzer, scenarios);
    const IngestStats &stats = source.stats();
    outcome.loaded = stats.loadedShards;
    outcome.skipped = stats.skippedShards;
    for (const SourceError &error : stats.errors)
        outcome.errors.push_back(error.render());
    return outcome;
}

TEST(ParallelIngest, ReportsAndIngestStatsIdenticalAcrossThreadsAndSources)
{
    const ScratchDir scratch("ingest");
    const std::string dir = scratch.file("sharded");
    const std::vector<std::string> paths =
        writeShardedCorpusDir(generateCorpus(smallFleet()), dir, 8);
    ASSERT_EQ(paths.size(), 8u);
    // Two corrupt neighbours, so every window of two or more shards
    // holds both: shard 2 fails only in the full decode, shard 3
    // already at open. Errors must still come out as [2, 3].
    corruptPayload(paths[2]);
    writeBytes(paths[3], "TLC1 this is not a corpus");

    const std::string report = ingestAndReport(dir, false, 1).report;
    EXPECT_NE(report.find("TraceLens report"), std::string::npos);

    for (bool mmap : {false, true}) {
        // The two readers word their errors differently; each source
        // must agree with itself across thread counts.
        const IngestRun reference = ingestAndReport(dir, mmap, 1);
        EXPECT_EQ(reference.report, report);
        EXPECT_EQ(reference.loaded, 6u);
        EXPECT_EQ(reference.skipped, 2u);
        ASSERT_EQ(reference.errors.size(), 2u);
        EXPECT_NE(reference.errors[0].find("shard-0002"),
                  std::string::npos);
        EXPECT_NE(reference.errors[1].find("shard-0003"),
                  std::string::npos);
        for (unsigned threads : {2u, 3u, 8u}) {
            SCOPED_TRACE(std::string(mmap ? "mmap" : "eager") +
                         " threads=" + std::to_string(threads));
            const IngestRun outcome =
                ingestAndReport(dir, mmap, threads);
            EXPECT_EQ(outcome.report, report);
            EXPECT_EQ(outcome.loaded, reference.loaded);
            EXPECT_EQ(outcome.skipped, reference.skipped);
            EXPECT_EQ(outcome.errors, reference.errors);
        }
    }
}

} // namespace
} // namespace tracelens
