// Parse-time identifier interning.
//
// The data-flow pass (DESIGN.md §17) resolves every identifier reference
// against lexical scopes. Keying those scopes by string re-hashes (and,
// with std::unordered_map, re-materializes) each identifier's bytes once
// per bind/resolve — at wild-study batch scale that string traffic is the
// hot core of the static stage. AtomTable assigns each distinct
// identifier spelling a dense u32 atom id once, at parse time, when the
// lexer has just produced the bytes: Node carries the atom, and every
// later scope operation is integer indexing.
//
// Open addressing with linear probing over a power-of-two slot array,
// FNV-1a hashing, byte-exact comparison on hash hits, O(1) epoch clear().
// Because ids are dense, per-atom state elsewhere is a plain array indexed
// by atom (the data-flow scope tops, the feature extractor's count of
// distinct identifiers). The interned
// views alias the AST arena (Ast::intern copies the bytes there first),
// so a table pooled across scripts must be clear()ed exactly when the
// arena is reset — parse_program does both together.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace jst::support {

class AtomTable {
 public:
  // Absent atom (identifier not interned / non-identifier node).
  static constexpr std::uint32_t kNoAtom = 0xffffffffu;

  // Number of distinct atoms interned this epoch. Atom ids are dense:
  // every id in [0, size()) is live.
  std::size_t size() const { return names_.size(); }

  // The spelling behind an atom id (a view into the source arena).
  std::string_view name(std::uint32_t atom) const { return names_[atom]; }

  // O(1): slots carry an epoch and stale epochs read as empty.
  void clear() {
    ++epoch_;
    if (epoch_ == 0) {
      // Epoch wrapped: lazily-invalidated slots would read as live again.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    names_.clear();
  }

  // Returns the atom for `name`, interning it if new. `name` must point
  // at storage that outlives the current epoch (the AST arena).
  std::uint32_t intern(std::string_view name) {
    if (names_.size() * 10 >= slots_.size() * 7) grow();
    std::uint64_t hash = kFnvOffsetBasis;
    for (const char ch : name) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= kFnvPrime;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t index = static_cast<std::size_t>(hash) & mask;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // empty: never used, or stale epoch
        slot.hash = hash;
        slot.atom = static_cast<std::uint32_t>(names_.size());
        slot.epoch = epoch_;
        names_.push_back(name);
        return slot.atom;
      }
      const std::string_view existing = names_[slot.atom];
      if (slot.hash == hash && existing.size() == name.size() &&
          std::memcmp(existing.data(), name.data(), name.size()) == 0) {
        return slot.atom;
      }
      index = (index + 1) & mask;
    }
  }

  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           names_.capacity() * sizeof(std::string_view);
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t atom = 0;
    std::uint32_t epoch = 0;  // live iff equal to the table's current epoch
  };
  static constexpr std::size_t kInitialSlots = 256;  // power of two
  static constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

  // Doubles the table (first call: allocates it — a default-constructed
  // table owns no memory).
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.epoch != epoch_) continue;
      std::size_t index = static_cast<std::size_t>(slot.hash) & mask;
      while (slots_[index].epoch == epoch_) index = (index + 1) & mask;
      slots_[index] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::string_view> names_;
  std::uint32_t epoch_ = 1;  // default-constructed slots (epoch 0) are empty
};

}  // namespace jst::support
