/**
 * @file
 * ResponseCache implementation (src/server/responsecache.h): one map
 * plus a recency list under one mutex.
 */

#include "src/server/responsecache.h"

#include <iterator>
#include <utility>

namespace tracelens
{
namespace server
{

ResponseCache::ResponseCache(std::size_t budgetBytes)
    : budgetBytes_(budgetBytes)
{
}

std::shared_ptr<const std::string>
ResponseCache::find(const Digest &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    recency_.splice(recency_.end(), recency_, it->second.recency);
    return it->second.line;
}

void
ResponseCache::insert(const Digest &key,
                      std::shared_ptr<const std::string> line)
{
    const std::size_t cost = charge(*line);
    if (cost > budgetBytes_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
        bytes_ -= charge(*it->second.line);
        recency_.erase(it->second.recency);
        entries_.erase(it);
    }
    while (bytes_ + cost > budgetBytes_) {
        const auto oldest = entries_.find(recency_.front());
        bytes_ -= charge(*oldest->second.line);
        entries_.erase(oldest);
        recency_.pop_front();
    }
    recency_.push_back(key);
    entries_.emplace(key, Entry{std::move(line),
                                std::prev(recency_.end())});
    bytes_ += cost;
}

void
ResponseCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    recency_.clear();
    bytes_ = 0;
}

std::size_t
ResponseCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
ResponseCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

} // namespace server
} // namespace tracelens
