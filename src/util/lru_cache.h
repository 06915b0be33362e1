#pragma once

/// \file lru_cache.h
/// A thread-safe, fixed-capacity least-recently-used map from string keys
/// to values. One mutex guards the whole map, so callers that need more
/// concurrency stripe several instances by key hash.
///
/// Entries are never invalidated in place: a caller whose answers depend
/// on a version (such as a library's index epoch) puts the version in the
/// key, so an entry of an older version is never looked up again and ages
/// out like any other cold entry.

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace cobra::util {

template <typename V>
class LruCache {
 public:
  /// Holds at most `capacity` entries (at least 1).
  explicit LruCache(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

  /// A copy of the value stored under `key`, which becomes the most recent
  /// entry; nullopt when absent.
  std::optional<V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Stores `value` under `key` as the most recent entry, replacing any
  /// value already there, and evicts the least recent entry beyond
  /// capacity.
  void Put(const std::string& key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

 private:
  using Entry = std::pair<std::string, V>;

  const size_t capacity_;
  std::mutex mu_;
  std::list<Entry> order_;  ///< front = most recent
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
};

}  // namespace cobra::util
