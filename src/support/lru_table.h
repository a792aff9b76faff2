// Flat hash tables for the result cache and the daemon's source registry
// (DESIGN.md §13, §15).
//
// FlatTable maps a key to a value through one open-addressed index of
// 8-byte slots: a 32-bit hash plus a 32-bit entry id, probed linearly and
// kept gap-free by backward-shift deletion. Entries (key + value) live in
// fixed-size chunks that are never reallocated, so an entry id — and a
// pointer to its value — stays valid until that entry is erased, and
// growing the index rehashes slots without touching any entry. A lookup
// reads the slots of one probe run (normally one cache line) and the one
// entry whose slot hash matches.
//
// LruTable adds exact least-recently-used order without linked lists:
// each entry carries a stamp, and every use bumps it and appends
// {id, stamp} to an eviction queue. A queue item whose stamp no longer
// matches its entry's is stale and skipped, so the queue's first live item
// is always the least recently used entry. A use therefore writes only its
// own entry and the queue's tail; the queue is compacted in place when it
// fills, keeping it within a small multiple of the entry count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace jst::support {

template <typename Key, typename Value, typename Hash>
class FlatTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  std::size_t size() const { return size_; }

  Id find(const Key& key) const {
    if (size_ == 0) return kNone;
    const std::uint32_t hash = hash_of(key);
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.hash == hash && entry(slot.id).key == key) return slot.id;
    }
  }

  // The id of `key`'s entry, adding one with a default-constructed value
  // if the key is absent.
  Id emplace(const Key& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::uint32_t hash = hash_of(key);
    std::size_t i = hash & mask_;
    for (; slots_[i].id != kNone; i = (i + 1) & mask_) {
      if (slots_[i].hash == hash && entry(slots_[i].id).key == key) {
        return slots_[i].id;
      }
    }
    Id id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      if ((used_ >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
      }
      id = used_++;
    }
    entry(id).key = key;
    slots_[i] = Slot{hash, id};
    ++size_;
    return id;
  }

  Value& operator[](const Key& key) { return value(emplace(key)); }

  // Removes a live entry; its value is reset to a default-constructed one.
  void erase(Id id) {
    Entry& doomed = entry(id);
    std::size_t hole = hash_of(doomed.key) & mask_;
    while (slots_[hole].id != id) hole = (hole + 1) & mask_;
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies cyclically after the hole.
    for (std::size_t next = (hole + 1) & mask_; slots_[next].id != kNone;
         next = (next + 1) & mask_) {
      const std::size_t home = slots_[next].hash & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].id = kNone;
    doomed.value = Value{};
    free_.push_back(id);
    --size_;
  }

  Value& value(Id id) { return entry(id).value; }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    Id id = kNone;
  };
  struct Entry {
    Key key{};
    Value value{};
  };
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkShift;

  static std::uint32_t hash_of(const Key& key) {
    // Multiply-shift: the high half of the product mixes every input bit.
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL) >>
        32);
  }

  Entry& entry(Id id) {
    return chunks_[id >> kChunkShift][id & (kChunkEntries - 1)];
  }
  const Entry& entry(Id id) const {
    return chunks_[id >> kChunkShift][id & (kChunkEntries - 1)];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      std::size_t i = slot.hash & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
  std::size_t mask_ = 0;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<Id> free_;  // erased ids, reused before new ones
  Id used_ = 0;           // ids handed out so far
  std::size_t size_ = 0;
};

template <typename Key, typename Value, typename Hash>
class LruTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  std::size_t size() const { return table_.size(); }

  Id find(const Key& key) const { return table_.find(key); }

  // Marks a live entry most recently used.
  void touch(Id id) {
    if (queue_.size() == queue_.capacity()) compact();
    const std::uint32_t stamp = ++table_.value(id).stamp;
    queue_.push_back(QueueItem{id, stamp});
  }

  // Adds an absent key as the most recently used entry.
  void insert(const Key& key, Value value) {
    const Id id = table_.emplace(key);
    table_.value(id).value = std::move(value);
    touch(id);
  }

  // The least recently used entry, or kNone when empty.
  Id oldest() {
    for (; head_ < queue_.size(); ++head_) {
      const QueueItem& item = queue_[head_];
      if (table_.value(item.id).stamp == item.stamp) return item.id;
    }
    return kNone;
  }

  void erase(Id id) {
    // The bump outdates every queue item of this entry; the id may be
    // reused, and its stamp keeps counting from here.
    const std::uint32_t stamp = table_.value(id).stamp + 1;
    table_.erase(id);
    table_.value(id).stamp = stamp;
  }

  Value& value(Id id) { return table_.value(id).value; }

 private:
  struct Node {
    Value value{};
    std::uint32_t stamp = 0;
  };
  struct QueueItem {
    Id id;
    std::uint32_t stamp;
  };

  // Drops consumed and stale items in place, keeping queue order; each
  // live entry has exactly one current item left. Called only when the
  // queue is full, so it runs at most once per capacity()/2 uses unless
  // the queue first grows.
  void compact() {
    std::size_t kept = 0;
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      if (table_.value(queue_[i].id).stamp == queue_[i].stamp) {
        queue_[kept++] = queue_[i];
      }
    }
    queue_.resize(kept);
    head_ = 0;
    // Too few stale items to be worth another pass soon: let it grow.
    if (kept * 2 > queue_.capacity()) queue_.reserve(queue_.capacity() * 2);
  }

  FlatTable<Key, Node, Hash> table_;
  // Uses in order, oldest at head_; items before head_ are consumed.
  std::vector<QueueItem> queue_;
  std::size_t head_ = 0;
};

}  // namespace jst::support
