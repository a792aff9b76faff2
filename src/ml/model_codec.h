// Binary stream primitives for the model encoding.
//
// Fixed-width little-endian fields, no alignment padding. Every reader
// throws ModelError on truncation, and every count is checked against
// the bytes left in the stream before it sizes an allocation, so a
// corrupt or mis-tagged stream fails loudly instead of yielding a
// half-loaded model or an unbounded allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "support/error.h"

namespace jst::ml::codec {

static_assert(std::endian::native == std::endian::little,
              "binary model encoding assumes a little-endian host");

inline void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t value = 0;
  if (!in.read(reinterpret_cast<char*>(&value), sizeof(value))) {
    throw ModelError(std::string("model load: truncated binary stream (") +
                     what + ")");
  }
  return value;
}

template <typename T>
void write_array(std::ostream& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
void read_array(std::istream& in, std::span<T> values, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!in.read(reinterpret_cast<char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(T)))) {
    throw ModelError(std::string("model load: truncated binary stream (") +
                     what + ")");
  }
}

// Throws ModelError unless `count` records of at least `record_bytes`
// each fit in the rest of the stream. Streams that cannot report their
// position (pipes) are not bounded here; their reads still fail on
// truncation.
inline void check_count(std::istream& in, std::uint64_t count,
                        std::uint64_t record_bytes, const char* what) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  const auto remaining = static_cast<std::uint64_t>(end - here);
  if (count > remaining / record_bytes) {
    throw ModelError(std::string("model load: ") + what + " " +
                     std::to_string(count) + " exceeds the " +
                     std::to_string(remaining) + " bytes left in the stream");
  }
}

// Consumes one expected whitespace byte after a text token so binary
// payloads that follow a `<<`-written tag start at an exact offset.
inline void skip_separator(std::istream& in) {
  const int c = in.get();
  if (c != ' ' && c != '\n') {
    throw ModelError("model load: malformed binary stream (missing separator)");
  }
}

}  // namespace jst::ml::codec
