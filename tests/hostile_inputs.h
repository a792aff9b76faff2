// Hostile-input generators shared by the front-end oracle suites
// (test_lexer_diff, test_parser_diff): deterministic for a given
// argument set, so the digests those suites pin stay reproducible.
#pragma once

#include <cstdint>
#include <string>

#include "support/rng.h"

namespace jst::hostile {

// JSFuck-style flood: the six-character alphabet, long unbroken runs of
// punctuators with interleaved identifier islands.
inline std::string jsfuck_flood(std::size_t length, std::uint64_t seed) {
  // Balanced fragments only, so the flood both lexes and parses.
  static const char* kFragments[] = {"+[]",   "+!![]", "+(+[])", "+[[]]",
                                     "+!+[]", "+(!![]+[])"};
  Rng rng(seed);
  std::string source = "var x = []";
  while (source.size() < length) {
    source += kFragments[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  }
  source += ";";
  return source;
}

// One string literal covering a size target (the 1 MB case) with escapes
// sprinkled at irregular offsets so the dirty-path run-appends exercise
// every word/vector boundary phase.
inline std::string huge_string_literal(std::size_t payload, std::size_t escape_every,
                                char quote) {
  std::string source = "var s = ";
  source += quote;
  for (std::size_t i = 0; i < payload; ++i) {
    if (escape_every != 0 && i % escape_every == 0) {
      source += "\\x41";
    } else {
      source += static_cast<char>('a' + (i % 23));
    }
  }
  source += quote;
  source += ';';
  return source;
}

// Deeply nested template literals: `t1${`t0${1}u0`}u1` for depth 2,
// the outermost level numbered (depth - 1) % 10.
inline std::string deep_template(std::size_t depth) {
  std::string source = "var t = ";
  for (std::size_t i = depth; i-- > 0;) {
    source += "`t" + std::to_string(i % 10) + "${";
  }
  source += "1";
  for (std::size_t i = 0; i < depth; ++i) {
    source += "}u" + std::to_string(i % 10) + "`";
  }
  return source + ";";
}

}  // namespace jst::hostile
