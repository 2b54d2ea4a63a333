/**
 * @file
 * perfbench — the TraceLens end-to-end benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--commit SHA]
 *   perfbench --selftest [--root DIR]
 *
 * Workloads: batch_report, daemon_query, cluster_query, fleet_ingest
 * (perfbench/README.md). With --trace 0 the last stdout line carries
 * the end-to-end metrics; with --trace 1 the per-layer metrics of the
 * traced replays. The line before it is the run record (host, build,
 * sizes, thread counts, sample counts). A failed answer check makes
 * the exit status nonzero.
 */

#include <unistd.h>

#include <charconv>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/util/logging.h"

#ifndef PERFBENCH_CLI
#error "PERFBENCH_CLI must name the tracelens binary"
#endif

namespace
{

using namespace perfbench;
using tracelens::JsonValue;

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload batch_report|daemon_query|"
                 "cluster_query|fleet_ingest --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--commit SHA]\n"
                 "       perfbench --selftest [--root DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size())
        usage(flag + " expects a whole number, got '" + text + "'");
    return value;
}

int
runOne(const Options &options)
{
    Context ctx;
    ctx.options = options;
    ctx.cli = PERFBENCH_CLI;
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::string root = std::filesystem::absolute(options.root);
    ctx.resultsDir = root + "/.bench_results";
    std::filesystem::create_directories(ctx.resultsDir);
    const WorkDir work(root + "/.bench_work/" + options.workload + "-s" +
                       std::to_string(options.seed) + "-p" +
                       std::to_string(::getpid()));
    ctx.workDir = work.path();

    ctx.record("workload", JsonValue(options.workload));
    ctx.record("seed", JsonValue(options.seed));
    ctx.record("seconds", JsonValue(options.seconds));
    ctx.record("trace", JsonValue(options.trace));
    ctx.record("nproc", JsonValue(ctx.nproc));
    ctx.record("compiler", JsonValue(PERFBENCH_COMPILER));
    ctx.record("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
    ctx.record("commit", JsonValue(options.commit));
    ctx.record("program_telemetry", JsonValue("off"));

    if (options.workload == "batch_report")
        runBatchReport(ctx);
    else if (options.workload == "daemon_query")
        runQueries(ctx, false);
    else if (options.workload == "cluster_query")
        runQueries(ctx, true);
    else if (options.workload == "fleet_ingest")
        runFleetIngest(ctx);
    else
        usage("unknown workload '" + options.workload + "'");

    const JsonValue record =
        JsonValue::makeObject().set("run_record", ctx.result.record);
    const std::string recordLine = record.render();
    std::cout << recordLine << "\n" << ctx.result.line() << std::endl;
    return ctx.result.correct && ctx.result.failed == 0 ? 0 : 1;
}

/** Every workload at tiny sizes, untraced on one seed and traced on
 *  another, each in its own process. */
int
selftest(const Options &base, const char *self)
{
    int failures = 0;
    for (const char *workload :
         {"batch_report", "daemon_query", "cluster_query", "fleet_ingest"}) {
        for (int trace = 0; trace <= 1; ++trace) {
            const std::string seed = trace == 0 ? "1" : "2";
            const std::string command =
                std::string(self) + " --tiny --workload " + workload +
                " --seed " + seed + " --seconds 1 --trace " +
                std::to_string(trace) + " --root '" + base.root +
                "' > /dev/null";
            const int status = std::system(command.c_str());
            std::cerr << "selftest " << workload << " trace=" << trace
                      << " seed=" << seed << ": "
                      << (status == 0 ? "ok" : "FAILED") << "\n";
            failures += status == 0 ? 0 : 1;
        }
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool selftestMode = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " expects a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = parseUnsigned(arg, value());
            haveSeed = true;
        } else if (arg == "--seconds") {
            options.seconds =
                static_cast<double>(parseUnsigned(arg, value()));
            haveSeconds = true;
        } else if (arg == "--trace") {
            const std::uint64_t t = parseUnsigned(arg, value());
            if (t > 1)
                usage("--trace expects 0 or 1");
            options.trace = t == 1;
            haveTrace = true;
        } else if (arg == "--root") {
            options.root = value();
        } else if (arg == "--commit") {
            options.commit = value();
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--selftest") {
            selftestMode = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    tracelens::setLogLevel(tracelens::LogLevel::Warn);
    if (selftestMode)
        return selftest(options, argv[0]);
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (options.seconds < 1 || options.seconds > 600)
        usage("--seconds must be in [1, 600]");
    return runOne(options);
}
