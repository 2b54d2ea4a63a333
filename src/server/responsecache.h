/**
 * @file
 * Exact-repeat response cache of the analysis service: rendered result
 * JSON keyed by a digest of (method, params, corpus identity), held by
 * the node that renders the answer — a warm session on a single node,
 * the Coordinator on a coordinator (docs/SERVER.md "Warm tiers").
 *
 * The cache is bounded by a fixed byte budget and evicts the least
 * recently used entries first, so a daemon that answers an endless
 * stream of fresh queries, or whose corpus keeps changing under
 * `ingest_push`, holds at most the budget in rendered answers.
 *
 * Thread-safety: every member may be called from any thread.
 */

#ifndef TRACELENS_SERVER_RESPONSECACHE_H
#define TRACELENS_SERVER_RESPONSECACHE_H

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/util/hash.h"

namespace tracelens
{
namespace server
{

class ResponseCache
{
  public:
    /**
     * Byte budget of each cache. A fresh `mine` renders to about
     * 20 KB and an `analyze` to a few KB, so this keeps tens of
     * thousands of answers per corpus.
     */
    static constexpr std::size_t kBudgetBytes = 128ull << 20;

    /** Bookkeeping cost charged per entry on top of its bytes. */
    static constexpr std::size_t kEntryOverheadBytes = 96;

    explicit ResponseCache(std::size_t budgetBytes = kBudgetBytes);

    ResponseCache(const ResponseCache &) = delete;
    ResponseCache &operator=(const ResponseCache &) = delete;

    /** The cached line under @p key (now the most recent), or null. */
    std::shared_ptr<const std::string> find(const Digest &key);

    /**
     * Cache @p line under @p key, then evict least recently used
     * entries until the cache fits its budget. A line larger than the
     * whole budget is not cached.
     */
    void insert(const Digest &key,
                std::shared_ptr<const std::string> line);

    /** Drop every entry (their keys can never match again). */
    void clear();

    std::size_t entries() const;
    /** Charged bytes: line sizes plus kEntryOverheadBytes each. */
    std::size_t bytes() const;

  private:
    struct Entry
    {
        std::shared_ptr<const std::string> line;
        std::list<Digest>::iterator recency;
    };

    static std::size_t
    charge(const std::string &line)
    {
        return line.size() + kEntryOverheadBytes;
    }

    const std::size_t budgetBytes_;

    mutable std::mutex mutex_;
    /** Keys, least recently used first. */
    std::list<Digest> recency_;
    std::unordered_map<Digest, Entry, DigestHash> entries_;
    std::size_t bytes_ = 0;
};

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_RESPONSECACHE_H
