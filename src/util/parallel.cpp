/**
 * @file
 * ThreadPool implementation: packed-range shards, CAS chunk claiming,
 * steal-half-from-the-back, condition-variable job hand-off.
 */

#include "src/util/parallel.h"

#include <algorithm>
#include <chrono>

#include "src/util/logging.h"

namespace tracelens
{

unsigned
resolveThreads(unsigned threads)
{
    if (threads != 0)
        return std::max(1u, threads);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::uint64_t
ThreadPool::pack(std::uint32_t lo, std::uint32_t hi)
{
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

ThreadPool::ThreadPool(unsigned threads)
    : threadCount_(resolveThreads(threads)), shards_(threadCount_),
      busyNs_(threadCount_)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    jobsCounter_ = &metrics.counter("pool.jobs");
    stealsCounter_ = &metrics.counter("pool.steals");
    queueDepthHist_ = &metrics.histogram("pool.queue_depth");
    utilizationGauges_.reserve(threadCount_);
    for (unsigned t = 0; t < threadCount_; ++t) {
        utilizationGauges_.push_back(&metrics.gauge(
            detail::concat("pool.worker", t, ".utilization")));
    }

    workers_.reserve(threadCount_ - 1);
    for (unsigned t = 1; t < threadCount_; ++t)
        workers_.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_ || jobSerial_ != seen;
            });
            if (stopping_)
                return;
            seen = jobSerial_;
        }
        runShards(self);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        done_.notify_one();
    }
}

bool
ThreadPool::claimFront(Shard &shard, std::uint32_t &lo,
                       std::uint32_t &hi, std::uint32_t chunk)
{
    std::uint64_t current = shard.range.load(std::memory_order_acquire);
    while (true) {
        const auto cur_lo = static_cast<std::uint32_t>(current >> 32);
        const auto cur_hi = static_cast<std::uint32_t>(current);
        if (cur_lo >= cur_hi)
            return false;
        const std::uint32_t take =
            std::min<std::uint32_t>(chunk, cur_hi - cur_lo);
        if (shard.range.compare_exchange_weak(
                current, pack(cur_lo + take, cur_hi),
                std::memory_order_acq_rel)) {
            queueDepthHist_->record(cur_hi - cur_lo);
            lo = cur_lo;
            hi = cur_lo + take;
            return true;
        }
    }
}

bool
ThreadPool::stealBack(Shard &shard, std::uint32_t &lo,
                      std::uint32_t &hi)
{
    std::uint64_t current = shard.range.load(std::memory_order_acquire);
    while (true) {
        const auto cur_lo = static_cast<std::uint32_t>(current >> 32);
        const auto cur_hi = static_cast<std::uint32_t>(current);
        if (cur_lo >= cur_hi)
            return false;
        // Take the back half (at least one index) so the victim keeps
        // its cache-warm front and the thief gets a meaty chunk.
        const std::uint32_t take =
            std::max<std::uint32_t>(1, (cur_hi - cur_lo) / 2);
        if (shard.range.compare_exchange_weak(
                current, pack(cur_lo, cur_hi - take),
                std::memory_order_acq_rel)) {
            queueDepthHist_->record(cur_hi - cur_lo);
            stealsCounter_->add(1);
            lo = cur_hi - take;
            hi = cur_hi;
            return true;
        }
    }
}

void
ThreadPool::invoke(std::uint32_t lo, std::uint32_t hi)
{
    const std::function<void(std::size_t)> &body = *jobBody_;
    for (std::uint32_t i = lo; i < hi; ++i) {
        try {
            body(jobBegin_ + i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (!jobError_)
                jobError_ = std::current_exception();
        }
    }
}

void
ThreadPool::runShards(unsigned self)
{
    Span span("pool.worker", "pool");
    if (span.active())
        span.arg("worker", static_cast<std::uint64_t>(self));
    const auto started = std::chrono::steady_clock::now();

    // Chunk small enough to balance, large enough to amortize the CAS.
    const std::uint64_t own = shards_[self].range.load(
        std::memory_order_acquire);
    const std::uint32_t own_size = static_cast<std::uint32_t>(own) -
                                   static_cast<std::uint32_t>(own >> 32);
    const std::uint32_t chunk = std::max<std::uint32_t>(
        1, own_size / 8);

    std::uint32_t lo = 0, hi = 0;
    while (claimFront(shards_[self], lo, hi, chunk))
        invoke(lo, hi);

    // Own shard drained: steal from the victim with the most work
    // left until every shard is empty.
    while (true) {
        unsigned victim = threadCount_;
        std::uint32_t best = 0;
        for (unsigned t = 0; t < threadCount_; ++t) {
            if (t == self)
                continue;
            const std::uint64_t r =
                shards_[t].range.load(std::memory_order_acquire);
            const auto r_lo = static_cast<std::uint32_t>(r >> 32);
            const auto r_hi = static_cast<std::uint32_t>(r);
            if (r_hi > r_lo && r_hi - r_lo > best) {
                best = r_hi - r_lo;
                victim = t;
            }
        }
        if (victim == threadCount_)
            break; // nothing left anywhere
        if (stealBack(shards_[victim], lo, hi))
            invoke(lo, hi);
    }

    busyNs_[self].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - started)
                .count()),
        std::memory_order_relaxed);
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    TL_ASSERT(n <= UINT32_MAX, "parallelFor range too large");

    if (threadCount_ == 1 || n == 1) {
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    jobsCounter_->add(1);
    // Workers are quiescent between jobs, so per-job busy time can be
    // reset without synchronization beyond the job hand-off itself.
    for (unsigned t = 0; t < threadCount_; ++t)
        busyNs_[t].store(0, std::memory_order_relaxed);
    const auto jobStart = std::chrono::steady_clock::now();

    // Partition [0, n) into one contiguous shard per worker.
    const std::size_t per = n / threadCount_;
    const std::size_t extra = n % threadCount_;
    std::size_t next = 0;
    for (unsigned t = 0; t < threadCount_; ++t) {
        const std::size_t size = per + (t < extra ? 1 : 0);
        shards_[t].range.store(
            pack(static_cast<std::uint32_t>(next),
                 static_cast<std::uint32_t>(next + size)),
            std::memory_order_release);
        next += size;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobBegin_ = begin;
        jobBody_ = &body;
        jobError_ = nullptr;
        active_ = threadCount_ - 1;
        ++jobSerial_;
    }
    wake_.notify_all();

    runShards(0); // the caller is worker 0

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return active_ == 0; });
        jobBody_ = nullptr;
    }

    const double jobNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - jobStart)
            .count());
    if (jobNs > 0) {
        for (unsigned t = 0; t < threadCount_; ++t) {
            const double busy = static_cast<double>(
                busyNs_[t].load(std::memory_order_relaxed));
            utilizationGauges_[t]->set(std::min(1.0, busy / jobNs));
        }
    }

    if (jobError_)
        std::rethrow_exception(jobError_);
}

void
parallelFor(unsigned threads, std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &body)
{
    const unsigned resolved = resolveThreads(threads);
    if (resolved == 1 || end - begin <= 1) {
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    ThreadPool pool(resolved);
    pool.parallelFor(begin, end, body);
}

void
parallelPipeline(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)> &produce,
                 const std::function<void(std::size_t)> &consume)
{
    const std::size_t window = resolveThreads(threads);
    if (window == 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            produce(i);
            consume(i);
        }
        return;
    }

    std::mutex mutex;
    std::condition_variable changed;
    std::size_t claimed = 0;  // items handed to a producer
    std::size_t consumed = 0; // items the caller has consumed
    std::vector<char> ready(n, 0);
    std::exception_ptr error;

    // Claim the next item if the window allows it (mutex held).
    auto claim = [&](std::size_t &item) {
        if (error || claimed == n || claimed >= consumed + window)
            return false;
        item = claimed++;
        return true;
    };
    // Produce @p item outside the lock, then publish it.
    auto run = [&](std::size_t item, std::unique_lock<std::mutex> &lock) {
        lock.unlock();
        std::exception_ptr thrown;
        try {
            produce(item);
        } catch (...) {
            thrown = std::current_exception();
        }
        lock.lock();
        if (thrown && !error)
            error = thrown;
        ready[item] = 1;
        changed.notify_all();
    };

    std::vector<std::thread> helpers;
    helpers.reserve(window - 1);
    for (std::size_t t = 1; t < window && t < n; ++t) {
        helpers.emplace_back([&] {
            std::unique_lock<std::mutex> lock(mutex);
            while (true) {
                std::size_t item = 0;
                changed.wait(lock, [&] {
                    return error || claimed == n ||
                           claimed < consumed + window;
                });
                if (!claim(item))
                    return;
                run(item, lock);
            }
        });
    }

    {
        std::unique_lock<std::mutex> lock(mutex);
        for (std::size_t i = 0; i < n && !error; ++i) {
            // While item i is still in flight, help with the window.
            while (!ready[i] && !error) {
                std::size_t item = 0;
                if (claim(item))
                    run(item, lock);
                else
                    changed.wait(lock);
            }
            if (error)
                break;
            lock.unlock();
            try {
                consume(i);
            } catch (...) {
                lock.lock();
                error = std::current_exception();
                changed.notify_all();
                break;
            }
            lock.lock();
            ++consumed;
            changed.notify_all();
        }
    }
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace tracelens
