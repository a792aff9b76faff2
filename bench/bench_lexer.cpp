// Lexer and parser throughput microbenchmark (DESIGN.md §16).
//
// Measures tokenize-only throughput (MB/s, tokens/s) per input family,
// then a lex+parse pass that times the parser apart from the lexer and
// records the pooled arena's peak bytes. The families stress different
// scan loops: minified output is punctuator-dense with long physical
// lines (whitespace runs mostly idle), JSFuck floods are short-token
// storms (per-token dispatch cost dominates; `jsfuck_tail` is the
// population tail of scripts over 64 KiB, where the token array itself
// is the cost), string-heavy sources spend almost all bytes inside
// literal payloads (the string payload run), and plain sources mix
// identifiers, comments, and indentation (identifier, whitespace and
// line-comment runs). The `nested_template` families nest templates 4,
// 16 and 64 deep: each substitution's tokens should be lexed once, so the
// front end's ns/byte should not grow with the depth.
//
// Emits BENCH_lexer.json via bench_common so the per-family trajectory
// is recorded across PRs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/wild.h"
#include "bench_common.h"
#include "lexer/lexer.h"
#include "parser/parser.h"
#include "support/arena.h"
#include "support/atom.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

struct Family {
  std::string name;
  std::vector<std::string> sources;
  std::size_t bytes = 0;
};

Family make_family(std::string name, std::vector<std::string> sources) {
  Family family;
  family.name = std::move(name);
  family.sources = std::move(sources);
  for (const std::string& source : family.sources) {
    family.bytes += source.size();
  }
  return family;
}

// Plain generated scripts, exactly the held-out corpus the pipeline
// benches use.
Family plain_family(std::size_t count) {
  return make_family("plain", bench::held_out_regular(count, 0x1e4));
}

// The same corpus through the repo's minifier (advanced mode, long
// wrapped lines).
Family minified_family(std::size_t count) {
  std::vector<std::string> sources = bench::held_out_regular(count, 0x1e4);
  transform::MinifyOptions options;
  options.advanced = true;
  for (std::string& source : sources) {
    source = transform::minify(source, options);
  }
  return make_family("minified", std::move(sources));
}

// JSFuck-style floods via the no-alnum transformer (the real ~1500x
// blowup, capped per input to keep the corpus tractable).
Family jsfuck_family(std::size_t count) {
  // The ~1500x blowup means a handful of seeds already yields megabytes
  // of flood; divide so this family doesn't dominate the bench's wall
  // time.
  std::vector<std::string> seeds =
      bench::held_out_regular(std::max<std::size_t>(count / 8, 1), 0x2e4);
  transform::NoAlnumOptions options;
  options.max_source_bytes = 128;
  std::vector<std::string> sources;
  sources.reserve(seeds.size());
  for (const std::string& seed : seeds) {
    sources.push_back(transform::no_alnum_transform(seed, options));
  }
  return make_family("jsfuck", std::move(sources));
}

// The §IV malware tail: the first scripts over 64 KiB of a DNC
// population draw, all no-alphanumeric floods of one token per byte
// (the tail of the benchmark's wild mix).
Family jsfuck_tail_family(std::size_t count) {
  std::vector<std::string> sources;
  for (analysis::Sample& sample :
       analysis::simulate_population(analysis::dnc_spec(), 300, 2)) {
    if (sources.size() == count) break;
    if (sample.source.size() > 64 * 1024) {
      sources.push_back(std::move(sample.source));
    }
  }
  return make_family("jsfuck_tail", std::move(sources));
}

// Sources dominated by long string literals with sparse escapes — the
// longest payload runs, and the dirty-path run-append's worst case.
Family string_heavy_family(std::size_t count) {
  Rng rng(0x3e4);
  std::vector<std::string> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string source;
    const int literals = 8 + static_cast<int>(rng.uniform_int(0, 8));
    for (int j = 0; j < literals; ++j) {
      const std::size_t length =
          512 + static_cast<std::size_t>(rng.uniform_int(0, 4096));
      const std::size_t escape_every =
          rng.uniform_int(0, 3) == 0
              ? 64 + static_cast<std::size_t>(rng.uniform_int(0, 256))
              : 0;  // three in four literals are escape-free
      source += "var s" + std::to_string(j) + " = \"";
      for (std::size_t k = 0; k < length; ++k) {
        if (escape_every != 0 && k % escape_every == 0) {
          source += "\\x41";
        } else {
          source += static_cast<char>('!' + (k * 7 + j) % 90);
          if (source.back() == '"' || source.back() == '\\') {
            source.back() = '.';
          }
        }
      }
      source += "\";\n";
    }
    sources.push_back(std::move(source));
  }
  return make_family("string_heavy", std::move(sources));
}

// Templates nested `depth` deep, each level with a 64-byte quasi on both
// sides of its substitution, in sources of about 32 KiB.
Family nested_template_family(std::size_t depth, std::size_t count) {
  const std::string quasi =
      "the quick brown fox jumps over the lazy dog, then naps in the sun ";
  std::string nested;
  for (std::size_t i = 0; i < depth; ++i) {
    nested += "`" + quasi.substr(0, 64) + "${";
  }
  nested += "x";
  for (std::size_t i = 0; i < depth; ++i) {
    nested += "}" + quasi.substr(0, 64) + "`";
  }
  std::vector<std::string> sources(count);
  for (std::string& source : sources) {
    for (int i = 0; source.size() < 32 * 1024; ++i) {
      source += "var t" + std::to_string(i) + " = " + nested + ";\n";
    }
  }
  return make_family("nested_template,depth=" + std::to_string(depth),
                     std::move(sources));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-5 serial tokenize pass over the family; `tokens` receives the
// tokens per pass.
double measure_ms(const Family& family, std::size_t& tokens) {
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    tokens = 0;
    for (const std::string& source : family.sources) {
      support::Arena arena;
      tokens += Lexer::tokenize(source, arena).size();
    }
    const double ms = ms_since(start);
    if (tokens == 0) std::fprintf(stderr, "[bench] empty token stream?\n");
    best = std::min(best, ms);
  }
  return best;
}

// Best-of-5 serial lex+parse pass in one pooled arena, laid out as
// parse_program runs it: the source copied into the reset arena, lexed
// into an arena token vector, then parsed. Only the parse is timed.
// `peak_arena_bytes` receives the arena's largest per-script footprint.
double measure_parse_ms(const Family& family, std::size_t& peak_arena_bytes) {
  support::Arena arena;
  support::AtomTable atoms;
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    double ms = 0.0;
    for (const std::string& source : family.sources) {
      arena.reset();
      atoms.clear();
      Ast ast(&arena, &atoms);
      Lexer lexer(arena.alloc_string(source), arena);
      support::ArenaVec<Token> tokens(arena);
      for (Token token = lexer.next(); token.type != TokenType::kEndOfFile;
           token = lexer.next()) {
        tokens.push_back(token);
      }
      const auto start = std::chrono::steady_clock::now();
      Parser parser(std::span<const Token>(tokens.data(), tokens.size()), ast);
      ast.set_root(parser.parse_program_body());
      ms += ms_since(start);
    }
    best = std::min(best, ms);
  }
  peak_arena_bytes = arena.peak_bytes();
  return best;
}

}  // namespace
}  // namespace jst

int main() {
  using namespace jst;

  const std::size_t count = bench::scaled(48);
  std::vector<Family> families;
  families.push_back(plain_family(count));
  families.push_back(minified_family(count));
  families.push_back(jsfuck_family(count));
  families.push_back(jsfuck_tail_family(4));
  families.push_back(string_heavy_family(count));
  for (const std::size_t depth : {4u, 16u, 64u}) {
    families.push_back(nested_template_family(depth, count / 3));
  }

  std::printf("lexer and parser throughput (best of 5, serial)\n");
  std::printf("%-26s %8s %10s %10s %12s %10s %12s %8s\n", "family",
              "bytes", "lex_ms", "MB/s", "tokens/s", "parse_ms",
              "peak_arena", "ns/byte");

  std::vector<bench::BenchRecord> records;
  for (const Family& family : families) {
    std::size_t tokens = 0;
    const double ms = measure_ms(family, tokens);
    const double mbps =
        static_cast<double>(family.bytes) / 1048576.0 / (ms / 1000.0);
    const double tokens_per_second =
        static_cast<double>(tokens) / (ms / 1000.0);
    std::size_t peak_arena_bytes = 0;
    const double parse_ms = measure_parse_ms(family, peak_arena_bytes);
    const double ns_per_byte =
        (ms + parse_ms) * 1e6 / static_cast<double>(family.bytes);
    std::printf("%-26s %8zu %10.3f %10.1f %12.0f %10.3f %12zu %8.1f\n",
                family.name.c_str(), family.bytes, ms, mbps,
                tokens_per_second, parse_ms, peak_arena_bytes, ns_per_byte);

    bench::BenchRecord record;
    record.config = "family=" + family.name;
    record.threads = 1;
    record.scripts = family.sources.size();
    record.wall_ms = ms;
    record.scripts_per_second =
        static_cast<double>(family.sources.size()) / (ms / 1000.0);
    record.bytes = family.bytes;
    record.mb_per_second = mbps;
    record.tokens = tokens;
    record.tokens_per_second = tokens_per_second;
    record.parse_ms = parse_ms;
    record.peak_arena_bytes = peak_arena_bytes;
    record.frontend_ns_per_byte = ns_per_byte;
    records.push_back(std::move(record));
  }

  bench::write_bench_json("lexer", records);
  return 0;
}
