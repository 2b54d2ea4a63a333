/**
 * @file
 * Benchmark plumbing: see support.h.
 */

#include "perfbench/src/support.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench
{

using namespace tracelens;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

Clock::time_point
secondsAfter(Clock::time_point from, double seconds)
{
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

void
fail(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n";
    std::exit(1);
}

// ------------------------------------------------------------ samples

std::vector<double>
Samples::sorted() const
{
    std::vector<double> values = values_;
    std::sort(values.begin(), values.end());
    return values;
}

double
Samples::median() const
{
    if (values_.empty())
        return 0.0;
    const std::vector<double> values = sorted();
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
Samples::max() const
{
    return values_.empty()
               ? 0.0
               : *std::max_element(values_.begin(), values_.end());
}

Tail
Samples::tail() const
{
    Tail tail;
    tail.samples = values_.size();
    if (values_.empty())
        return tail;
    const std::vector<double> values = sorted();
    const std::size_t n = values.size();
    if (n < kRankedTailSamples) {
        // Linear interpolation between closest ranks.
        const double pos = 0.9 * static_cast<double>(n - 1);
        const std::size_t i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        tail.value = i + 1 < n ? values[i] + frac * (values[i + 1] - values[i])
                               : values.back();
        tail.percentile = 90.0;
        return tail;
    }
    // Ten samples lie above rank n-10 (1-based).
    tail.value = values[n - 11];
    tail.percentile = 100.0 * static_cast<double>(n - 10) /
                      static_cast<double>(n);
    return tail;
}

double
Samples::sum() const
{
    double total = 0.0;
    for (double v : values_)
        total += v;
    return total;
}

// -------------------------------------------------------------- spans

namespace
{

thread_local std::vector<std::uint64_t> t_openSpans;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

std::uint64_t
Tracer::open(std::uint64_t &parent)
{
    parent = t_openSpans.empty() ? 0 : t_openSpans.back();
    const std::uint64_t id = nextId_.fetch_add(1);
    t_openSpans.push_back(id);
    return id;
}

void
Tracer::close(Record record)
{
    if (!t_openSpans.empty())
        t_openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

std::vector<Tracer::Record>
Tracer::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::vector<std::pair<std::string, std::map<std::string, double>>>
Tracer::layerTimesByRoot() const
{
    const std::vector<Record> all = records();
    std::map<std::uint64_t, const Record *> byId;
    std::map<std::uint64_t, std::vector<const Record *>> children;
    for (const Record &r : all)
        byId[r.id] = &r;
    for (const Record &r : all)
        if (r.parent != 0)
            children[r.parent].push_back(&r);

    // Self time: duration minus the union of the children's intervals.
    auto selfMs = [&](const Record &r) {
        std::vector<std::pair<std::int64_t, std::int64_t>> spans;
        for (const Record *c : children[r.id])
            spans.emplace_back(std::max(c->startNs, r.startNs),
                               std::min(c->endNs, r.endNs));
        std::sort(spans.begin(), spans.end());
        std::int64_t covered = 0, reach = r.startNs;
        for (auto [s, e] : spans) {
            s = std::max(s, reach);
            if (e > s) {
                covered += e - s;
                reach = e;
            }
        }
        return static_cast<double>(r.endNs - r.startNs - covered) / 1e6;
    };
    auto rootOf = [&](const Record &r) {
        const Record *cur = &r;
        while (cur->parent != 0 && byId.count(cur->parent) != 0)
            cur = byId[cur->parent];
        return cur->id;
    };

    std::map<std::uint64_t, std::map<std::string, double>> perRoot;
    for (const Record &r : all) {
        const std::uint64_t root = rootOf(r);
        const std::string key =
            r.id == root ? std::string("core.orchestration_ms") : r.metric;
        if (!key.empty())
            perRoot[root][key] += selfMs(r);
    }
    std::vector<std::pair<std::string, std::map<std::string, double>>> out;
    for (auto &[root, layers] : perRoot)
        out.emplace_back(byId[root]->name, std::move(layers));
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    JsonValue events = JsonValue::makeArray();
    for (const Record &r : records()) {
        JsonValue e = JsonValue::makeObject();
        e.set("name", JsonValue(r.name));
        e.set("cat", JsonValue(r.metric.empty() ? "root" : r.metric));
        e.set("ph", JsonValue("X"));
        e.set("ts", JsonValue(static_cast<double>(r.startNs) / 1e3));
        e.set("dur",
              JsonValue(static_cast<double>(r.endNs - r.startNs) / 1e3));
        e.set("pid", JsonValue(1));
        e.set("tid", JsonValue(r.tid));
        JsonValue args = JsonValue::makeObject();
        args.set("span", JsonValue(r.id));
        args.set("parent", JsonValue(r.parent));
        args.set("query", JsonValue(r.query));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    JsonValue doc = JsonValue::makeObject();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", JsonValue("ms"));
    std::ofstream out(path, std::ios::trunc);
    out << doc.render() << "\n";
    if (!out)
        fail("cannot write trace " + path);
}

Span::Span(const char *name, const char *metric, std::uint64_t query)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    active_ = true;
    record_.name = name;
    record_.metric = metric;
    record_.query = query;
    record_.tid = threadIndex();
    record_.id = tracer.open(record_.parent);
    start_ = Clock::now();
}

Span::~Span()
{
    if (!active_)
        return;
    Tracer &tracer = Tracer::instance();
    const Clock::time_point end = Clock::now();
    record_.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          start_ - tracer.epoch_)
                          .count();
    record_.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - tracer.epoch_)
                        .count();
    tracer.close(std::move(record_));
}

// ---------------------------------------------------------- processes

Child::~Child() { kill(); }

Child::Child(Child &&other) noexcept : pid_(other.pid_)
{
    other.pid_ = -1;
}

Child &
Child::operator=(Child &&other) noexcept
{
    if (this != &other) {
        kill();
        pid_ = other.pid_;
        other.pid_ = -1;
    }
    return *this;
}

Child
Child::spawn(const std::vector<std::string> &argv,
             const std::string &stdoutPath,
             const std::string &stderrPath)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const int out = ::open(stdoutPath.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const int err = ::open(stderrPath.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (out < 0 || err < 0)
        fail("cannot open child output files in " + stdoutPath);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        fail("fork failed");
    if (pid == 0) {
        // Die with the benchmark, so no daemon outlives a crash.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(out, STDOUT_FILENO);
        ::dup2(err, STDERR_FILENO);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(out);
    ::close(err);
    Child child;
    child.pid_ = pid;
    return child;
}

double
Child::peakRssMb() const
{
    if (pid_ <= 0)
        return 0.0;
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::optional<int>
Child::wait(int timeoutMs, double *maxRssMb)
{
    if (pid_ <= 0)
        return -1;
    const Clock::time_point until =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int status = 0;
        rusage usage{};
        const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
        if (got == pid_) {
            pid_ = -1;
            if (maxRssMb != nullptr)
                *maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        }
        if (got < 0) {
            pid_ = -1;
            return -1;
        }
        if (Clock::now() >= until)
            return std::nullopt;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
Child::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
}

Daemon
Daemon::start(const std::string &cli, const std::string &dir,
              const std::string &name,
              const std::vector<std::string> &flags)
{
    namespace fs = std::filesystem;
    const std::string portFile = dir + "/" + name + ".port";
    fs::remove(portFile);
    std::vector<std::string> argv = {cli,         "serve",
                                     "--listen",  "127.0.0.1:0",
                                     "--port-file", portFile,
                                     "--log-level", "warn"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    Daemon daemon;
    daemon.child_ = Child::spawn(argv, dir + "/" + name + ".out",
                                 dir + "/" + name + ".err");
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(30);
    for (;;) {
        std::ifstream in(portFile);
        unsigned port = 0;
        if (in >> port && port != 0) {
            daemon.port_ = static_cast<std::uint16_t>(port);
            return daemon;
        }
        if (daemon.child_.wait(0).has_value())
            fail("daemon " + name + " exited at start; see " + dir +
                 "/" + name + ".err");
        if (Clock::now() >= deadline)
            fail("daemon " + name + " did not publish its port");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

std::string
Daemon::address() const
{
    return "127.0.0.1:" + std::to_string(port_);
}

void
Daemon::stop()
{
    if (!child_.running())
        return;
    {
        Expected<server::Session> session =
            server::Session::connect("127.0.0.1", port_);
        if (session)
            (void)session.value().shutdown();
    }
    if (!child_.wait(20000).has_value())
        child_.kill();
}

server::Session
connectSession(std::uint16_t port)
{
    server::SessionOptions options;
    options.prefer = server::ProtocolPreference::V2;
    options.ioTimeout = std::chrono::milliseconds(60000);
    Expected<server::Session> session =
        server::Session::connect("127.0.0.1", port, options);
    if (!session)
        fail("cannot connect to 127.0.0.1:" + std::to_string(port) +
             ": " + session.error().render());
    return std::move(session.value());
}

CallOutcome
callChecked(server::Session &session, server::Method method,
            const JsonValue &params, std::uint64_t deadlineMs)
{
    server::CallOptions options;
    options.deadlineMs = deadlineMs;
    Expected<server::Response> response =
        session.call(method, params, options);
    CallOutcome outcome;
    if (!response) {
        outcome.error = "transport: " + response.error().render();
        return outcome;
    }
    if (!response.value().ok) {
        outcome.error =
            std::string(server::errorCodeName(response.value().error.code)) +
            ": " + response.value().error.message;
        return outcome;
    }
    outcome.ok = true;
    outcome.result = std::move(response.value().result);
    return outcome;
}

// ------------------------------------------------------- directories

WorkDir::WorkDir(const std::string &path) : path_(path)
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
    if (ec)
        fail("cannot create " + path_ + ": " + ec.message());
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

// ------------------------------------------------------------ results

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    return ec == std::errc() ? std::string(buffer, end) : "0";
}

void
Result::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &[key, entry] : metrics) {
        if (key == name) {
            entry = {value, unit};
            return;
        }
    }
    metrics.push_back({name, {value, unit}});
}

double
Result::value(const std::string &name) const
{
    for (const auto &[key, entry] : metrics)
        if (key == name)
            return entry.first;
    return 0.0;
}

void
Result::mismatch(const std::string &what)
{
    std::cerr << "perfbench: answer check failed: " << what << "\n";
    correct = false;
    ++failed;
}

std::string
Result::line() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonQuote(name) + ": {\"value\": " +
               formatNumber(entry.first) +
               ", \"unit\": " + jsonQuote(entry.second) + "}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
