// Monotonic bump allocator backing the parse front end (DESIGN.md §12).
//
// One Arena serves one script at a time: parse_program copies the source
// into it, tokens carry string_views into that copy (or into arena-cooked
// storage when unescaping was needed), and the AST places its nodes and
// kid arrays in the same chunks. Tokens themselves are never stored here:
// the parser pulls them from the lexer through a pooled TokenWindow
// (parser/parser.h), heap vectors sized by the longest lookahead rather
// than by the script. reset() is an O(chunks) rewind that keeps every
// chunk for the next script, so a pooled per-worker arena
// (analysis::ScriptScratch) makes steady-state lex+parse allocation-free
// — the same reuse discipline ExtractScratch gives feature extraction.
//
// Allocation never runs destructors: everything placed in an arena must
// be trivially destructible (static_asserted in alloc_array). Addresses
// are stable for the lifetime of the epoch — chunks never move or grow
// in place — which is what lets Node* survive finalize() and transformer
// passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jst::support {

class Arena {
 public:
  // First chunk size; subsequent chunks double up to kMaxChunkBytes.
  static constexpr std::size_t kMinChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024 * 1024;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw aligned allocation. Alignment must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align);

  // Typed uninitialized array. T must be trivially destructible because
  // reset() reclaims memory without running destructors.
  template <typename T>
  T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    if (count == 0) return nullptr;
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  // Uninitialized character storage (no alignment padding).
  char* alloc_chars(std::size_t count) {
    return static_cast<char*>(allocate(count, 1));
  }

  // Copies `text` into the arena and returns a view of the stable copy.
  std::string_view alloc_string(std::string_view text);

  // O(chunks) epoch reset: rewinds every chunk's cursor but frees
  // nothing, so the next script reuses the grown capacity. All views and
  // pointers into the arena are invalidated.
  void reset();

  // Bytes handed out since the last reset (includes alignment padding).
  std::size_t bytes_used() const { return bytes_used_; }
  // High-water mark of bytes_used() across all epochs.
  std::size_t peak_bytes() const { return peak_bytes_; }
  // Total chunk capacity owned (survives reset()).
  std::size_t capacity_bytes() const { return capacity_bytes_; }
  // Number of reset() calls; epoch() > 0 on a pooled arena means reuse.
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct Chunk {
    char* data = nullptr;
    std::size_t size = 0;
  };

  // Out-of-line slow path: advances to (or allocates) the next chunk.
  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;   // index of the chunk being bumped
  char* cursor_ = nullptr;   // next free byte in the active chunk
  char* limit_ = nullptr;    // end of the active chunk
  std::size_t bytes_used_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t capacity_bytes_ = 0;
  std::uint64_t epoch_ = 0;
};

// Append-only growable array living entirely in an Arena: the bump-alloc
// analogue of a small std::vector. Growth allocates a doubled block and
// copies; the abandoned block is reclaimed at the next reset() (bounded
// 2x transient waste). Used by the lexer to cook escaped payloads and to
// build template quasi/expression spans without touching the heap.
template <typename T>
class ArenaVec {
 public:
  explicit ArenaVec(Arena& arena) : arena_(&arena) {}

  void push_back(const T& value) {
    if (size_ == capacity_) grow(1);
    data_[size_++] = value;
  }

  void append(const T* values, std::size_t count) {
    if (size_ + count > capacity_) grow(count);
    for (std::size_t i = 0; i < count; ++i) data_[size_ + i] = values[i];
    size_ += count;
  }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void grow(std::size_t at_least) {
    std::size_t next = capacity_ == 0 ? 16 : capacity_ * 2;
    while (next < size_ + at_least) next *= 2;
    T* grown = arena_->alloc_array<T>(next);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = data_[i];
    data_ = grown;
    capacity_ = next;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace jst::support
