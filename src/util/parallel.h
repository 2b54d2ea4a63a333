/**
 * @file
 * Work-stealing thread pool and deterministic data-parallel helpers.
 *
 * The analysis pipeline is embarrassingly parallel across scenario
 * instances (wait-graph construction, impact accumulation, AWG
 * processing, pattern enumeration). This module provides the one
 * primitive all of those share: run a function over an index range on
 * N threads, with results delivered *in index order* so every caller
 * can keep a deterministic, serial merge step.
 *
 * Design:
 *  - ThreadPool owns N-1 worker threads; the calling thread always
 *    participates as worker 0, so a pool of size 1 spawns nothing and
 *    runs inline (the serial path and the parallel path share code).
 *  - Each worker owns a contiguous shard of the index range, packed
 *    into one 64-bit atomic (lo:32 | hi:32). Owners claim chunks from
 *    the front with a CAS; idle workers steal the back half of the
 *    largest remaining shard with a CAS. Contention is one CAS per
 *    chunk, not per index.
 *  - Scheduling is nondeterministic, but parallelMap writes result i
 *    to slot i, so *outputs* are deterministic. Any order-sensitive
 *    reduction (hash-set dedup, trie insertion) must stay on the
 *    caller's side, folding slots 0..n-1 in order — see
 *    ImpactAnalysis::analyze for the canonical pattern.
 *  - The first exception thrown by a body is captured and rethrown on
 *    the calling thread after all workers finish the job.
 */

#ifndef TRACELENS_UTIL_PARALLEL_H
#define TRACELENS_UTIL_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/telemetry.h"

namespace tracelens
{

/**
 * Resolve a user-facing thread-count knob: 0 means "all hardware
 * threads", anything else is taken literally (minimum 1).
 */
unsigned resolveThreads(unsigned threads);

/**
 * A fixed-size work-stealing thread pool executing one indexed loop at
 * a time. Not reentrant: a body must not call back into the same pool.
 */
class ThreadPool
{
  public:
    /** @param threads Total workers including the caller; 0 = auto. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total worker count including the calling thread. */
    unsigned threadCount() const { return threadCount_; }

    /**
     * Invoke body(i) for every i in [begin, end), distributed over all
     * workers. Returns when every index has completed; rethrows the
     * first body exception.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body);

  private:
    /** One worker's shard of the range: lo in the high 32 bits. */
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> range{0};
    };

    static std::uint64_t pack(std::uint32_t lo, std::uint32_t hi);

    void workerLoop(unsigned self);
    void runShards(unsigned self);
    bool claimFront(Shard &shard, std::uint32_t &lo, std::uint32_t &hi,
                    std::uint32_t chunk);
    bool stealBack(Shard &shard, std::uint32_t &lo, std::uint32_t &hi);
    void invoke(std::uint32_t lo, std::uint32_t hi);

    unsigned threadCount_;
    std::vector<std::thread> workers_;
    std::vector<Shard> shards_;

    /**
     * Pool telemetry, bound to MetricsRegistry::global() once at
     * construction so the hot claim/steal paths touch only lock-free
     * handles: jobs and successful steals as counters, the remaining
     * range length observed at every claim as a queue-depth histogram,
     * and one utilization gauge per worker (busy wall time over job
     * wall time, refreshed after every parallelFor).
     */
    Counter *jobsCounter_ = nullptr;
    Counter *stealsCounter_ = nullptr;
    Histogram *queueDepthHist_ = nullptr;
    std::vector<Gauge *> utilizationGauges_;
    std::vector<std::atomic<std::uint64_t>> busyNs_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t jobSerial_ = 0; //!< Incremented per parallelFor call.
    bool stopping_ = false;
    unsigned active_ = 0; //!< Workers still draining the current job.

    std::size_t jobBegin_ = 0;
    const std::function<void(std::size_t)> *jobBody_ = nullptr;
    std::exception_ptr jobError_;
    std::mutex errorMutex_;
};

/**
 * One-shot parallelFor: runs on an internal pool of @p threads workers
 * (caller included). threads <= 1 runs inline with zero overhead.
 */
void parallelFor(unsigned threads, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &body);

/**
 * Map fn over [0, n) on @p threads workers and return the results in
 * index order — the deterministic fan-out primitive: parallelize the
 * per-item work, keep the fold serial and ordered.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(unsigned threads, std::size_t n, Fn &&fn)
{
    std::vector<T> results(n);
    parallelFor(threads, 0, n,
                [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

/**
 * Ordered pipeline: run produce(i) for every i in [0, n) on
 * @p threads workers (caller included) and consume(i) on the calling
 * thread strictly in index order, overlapping the serial consumption
 * with later productions. At most @p threads items are produced but
 * not yet consumed at any time, which bounds the memory they hold.
 * produce(i) and consume(i) exchange results through caller-owned
 * slot i; the pipeline orders every produce(i) before its consume(i).
 * threads <= 1 runs produce(i), consume(i) alternately inline. The
 * first exception from either callback stops the pipeline and is
 * rethrown on the calling thread.
 */
void parallelPipeline(unsigned threads, std::size_t n,
                      const std::function<void(std::size_t)> &produce,
                      const std::function<void(std::size_t)> &consume);

} // namespace tracelens

#endif // TRACELENS_UTIL_PARALLEL_H
