#include "support/arena.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace jst::support {

namespace {

inline char* align_up(char* ptr, std::size_t align) {
  const auto value = reinterpret_cast<std::uintptr_t>(ptr);
  const std::uintptr_t aligned = (value + align - 1) & ~(align - 1);
  return reinterpret_cast<char*>(aligned);
}

}  // namespace

Arena::~Arena() {
  for (const Chunk& chunk : chunks_) std::free(chunk.data);
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  char* start = align_up(cursor_, align);
  if (start + bytes <= limit_) {
    bytes_used_ += static_cast<std::size_t>(start + bytes - cursor_);
    if (bytes_used_ > peak_bytes_) peak_bytes_ = bytes_used_;
    cursor_ = start + bytes;
    return start;
  }
  return allocate_slow(bytes, align);
}

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Try the remaining pre-grown chunks first (post-reset they are all
  // rewound but still owned).
  while (active_ + 1 < chunks_.size()) {
    ++active_;
    cursor_ = chunks_[active_].data;
    limit_ = cursor_ + chunks_[active_].size;
    char* start = align_up(cursor_, align);
    if (start + bytes <= limit_) {
      bytes_used_ += static_cast<std::size_t>(start + bytes - cursor_);
      if (bytes_used_ > peak_bytes_) peak_bytes_ = bytes_used_;
      cursor_ = start + bytes;
      return start;
    }
    // Chunk too small for this request: skip it. Nothing in it was handed
    // out, so bytes_used_ does not change.
  }

  // Grow: double the last chunk size (clamped), but never smaller than
  // the request itself (+ worst-case alignment padding).
  std::size_t chunk_size = chunks_.empty()
                               ? kMinChunkBytes
                               : chunks_.back().size * 2;
  if (chunk_size > kMaxChunkBytes) chunk_size = kMaxChunkBytes;
  if (chunk_size < bytes + align) chunk_size = bytes + align;

  char* data = static_cast<char*>(std::malloc(chunk_size));
  if (data == nullptr) throw std::bad_alloc();
  chunks_.push_back(Chunk{data, chunk_size});
  capacity_bytes_ += chunk_size;
  active_ = chunks_.size() - 1;
  cursor_ = data;
  limit_ = data + chunk_size;

  char* start = align_up(cursor_, align);
  bytes_used_ += static_cast<std::size_t>(start + bytes - cursor_);
  if (bytes_used_ > peak_bytes_) peak_bytes_ = bytes_used_;
  cursor_ = start + bytes;
  return start;
}

std::string_view Arena::alloc_string(std::string_view text) {
  if (text.empty()) return std::string_view();
  char* data = alloc_chars(text.size());
  std::memcpy(data, text.data(), text.size());
  return std::string_view(data, text.size());
}

void Arena::reset() {
  active_ = 0;
  if (chunks_.empty()) {
    cursor_ = limit_ = nullptr;
  } else {
    cursor_ = chunks_.front().data;
    limit_ = cursor_ + chunks_.front().size;
  }
  bytes_used_ = 0;
  ++epoch_;
}

}  // namespace jst::support
