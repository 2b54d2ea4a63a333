/**
 * @file
 * Benchmark plumbing shared by every workload: clocks and sample
 * statistics, the in-memory span recorder of the traced run, child
 * processes (daemons, report commands) with their peak RSS, scratch
 * directories inside the checkout, and the result line.
 */

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/server/client.h"
#include "src/util/json.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to);
double msSince(Clock::time_point from);
/** @p seconds after @p from. */
Clock::time_point secondsAfter(Clock::time_point from, double seconds);

/** A failed run step: the message goes to stderr, the run exits 1. */
[[noreturn]] void fail(const std::string &message);

// ------------------------------------------------------------ samples

/** The tail statistic with the percentile and sample count behind it. */
struct Tail
{
    double value = 0.0;
    /** Percentile (0-100) the value sits at. */
    double percentile = 0.0;
    std::size_t samples = 0;
};

/** A bag of measurements (milliseconds unless stated). */
class Samples
{
  public:
    void add(double value) { values_.push_back(value); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double median() const;
    double max() const;
    double sum() const;
    /**
     * The highest percentile with at least ten samples beyond it
     * (rank n-10 of n). Below kRankedTailSamples that rank sits near
     * the median, so small samples report their 90th percentile.
     */
    Tail tail() const;
    static constexpr std::size_t kRankedTailSamples = 100;

  private:
    std::vector<double> sorted() const;
    std::vector<double> values_;
};

// -------------------------------------------------------------- spans

/**
 * In-memory span recorder of the traced run. A span records name,
 * start, end, parent and query id; @c metric names the per-layer
 * metric its self time counts toward (empty for a root span, whose
 * self time is orchestration). Recording is off unless enabled, and a
 * disabled span costs one relaxed load.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::string metric;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t query = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::uint32_t tid = 0;
    };

    static Tracer &instance();
    void setEnabled(bool on);
    bool enabled() const;

    std::vector<Record> records() const;

    /**
     * Per root span (name, times): the self time (ms) of every span
     * under it, summed by metric; the root's own self time is keyed
     * "core.orchestration_ms".
     */
    std::vector<std::pair<std::string, std::map<std::string, double>>>
    layerTimesByRoot() const;

    /** Write every record as Chrome trace_event JSON. */
    void writeChromeTrace(const std::string &path) const;

  private:
    friend class Span;
    std::uint64_t open(std::uint64_t &parent);
    void close(Record record);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span; parents onto the innermost open span of its thread. */
class Span
{
  public:
    Span(const char *name, const char *metric, std::uint64_t query = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    Tracer::Record record_;
    Clock::time_point start_;
};

// ---------------------------------------------------------- processes

/** One child process, killed and reaped when the handle dies. */
class Child
{
  public:
    Child() = default;
    ~Child();
    Child(Child &&other) noexcept;
    Child &operator=(Child &&other) noexcept;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** fork+exec @p argv with stdout/stderr sent to the given files. */
    static Child spawn(const std::vector<std::string> &argv,
                       const std::string &stdoutPath,
                       const std::string &stderrPath);

    bool running() const { return pid_ > 0; }
    /** VmHWM of the live process, in MB (0 when unreadable). */
    double peakRssMb() const;
    /**
     * Wait up to @p timeoutMs for exit; returns the exit status (-1 on
     * a signal) and the peak RSS from rusage, or nullopt on timeout.
     */
    std::optional<int> wait(int timeoutMs, double *maxRssMb = nullptr);
    /** SIGKILL and reap. */
    void kill();

  private:
    pid_t pid_ = -1;
};

/** A `tracelens serve` daemon on an ephemeral loopback port. */
class Daemon
{
  public:
    /** Start with @p flags, wait for its port file, return. */
    static Daemon start(const std::string &cli, const std::string &dir,
                        const std::string &name,
                        const std::vector<std::string> &flags);
    std::uint16_t port() const { return port_; }
    std::string address() const;
    double peakRssMb() const { return child_.peakRssMb(); }
    /** Graceful `shutdown`, waiting for the process to exit. */
    void stop();

  private:
    Child child_;
    std::uint16_t port_ = 0;
};

/** Connect a v2 session or fail the run. */
tracelens::server::Session connectSession(std::uint16_t port);

/** Result object of an ok response; fails the op on errors. */
struct CallOutcome
{
    bool ok = false;
    std::string error;
    tracelens::JsonValue result;
};
CallOutcome callChecked(tracelens::server::Session &session,
                        tracelens::server::Method method,
                        const tracelens::JsonValue &params,
                        std::uint64_t deadlineMs = 0);

// ------------------------------------------------------- directories

/** A scratch directory inside the checkout, removed on destruction. */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &path);
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ------------------------------------------------------------ results

/** The run's outcome: counts, metrics and the run record. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), in insertion order of first set. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    tracelens::JsonValue record = tracelens::JsonValue::makeObject();

    void set(const std::string &name, double value,
             const std::string &unit);
    /** A metric's value; 0 when unset. */
    double value(const std::string &name) const;
    /** Record a failed answer check (stderr note, counts as failed). */
    void mismatch(const std::string &what);
    /** The contract's last line. */
    std::string line() const;
};

/** Shortest exact rendering of @p value. */
std::string formatNumber(double value);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
