// Test oracle for the result cache's memory tier (DESIGN.md §15).
//
// Production keeps the memory tier in a support::LruTable: a flat index,
// fixed-size entries and an eviction queue of recency stamps. The tier
// here is the std::list + std::unordered_map LRU it replaced, kept
// verbatim (front of the list = most recently used; a hit splices its
// node to the front; an insert displaces the key's old entry, then evicts
// from the back until the byte budget admits the new one). Outcomes are
// represented by their serialized JSON, and byte charges are the caller's
// to compute, so a differential test can drive both tiers with the same
// operations and compare counters, footprint and the resident key set.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>

#include "analysis/result_cache.h"

namespace jst::oracle {

class ListLruTier {
 public:
  explicit ListLruTier(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  // The outcome JSON of a resident key, marking it most recently used;
  // nullptr when absent.
  const std::string* hit(const analysis::CacheKey& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->outcome_json;
  }

  void insert(const analysis::CacheKey& key, std::string outcome_json,
              std::size_t entry_bytes) {
    const auto existing = index_.find(key);
    if (existing != index_.end()) {
      bytes_ -= existing->second->bytes;
      lru_.erase(existing->second);
      index_.erase(existing);
    }
    if (entry_bytes > max_bytes_) return;  // never fits; disk only
    while (!lru_.empty() && bytes_ + entry_bytes > max_bytes_) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      lru_.erase(std::prev(lru_.end()));
      ++evictions_;
    }
    lru_.push_front(Entry{key, std::move(outcome_json), entry_bytes});
    bytes_ += entry_bytes;
    index_.emplace(key, lru_.begin());
  }

  bool resident(const analysis::CacheKey& key) const {
    return index_.contains(key);
  }
  std::size_t entries() const { return index_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    analysis::CacheKey key;
    std::string outcome_json;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  std::size_t max_bytes_;
  Lru lru_;  // front = most recently used
  std::unordered_map<analysis::CacheKey, Lru::iterator, analysis::CacheKeyHash>
      index_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace jst::oracle
